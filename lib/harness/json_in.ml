(** Minimal JSON reader — the inverse of {!Json_out}.

    The repo deliberately takes no JSON dependency, so the offline
    analyzer parses result artifacts with this hand-rolled
    recursive-descent parser.  It accepts standard JSON (RFC 8259) and
    produces the same {!Json_out.t} AST the writers emit; the mli states
    what a round trip preserves.

    Numbers without a fraction or exponent become [Int], except [-0],
    which becomes [Float (-0.)]; everything else becomes [Float].  Object
    key order is preserved as read.  Errors raise {!Parse_error} with a
    byte offset. *)

exception Parse_error of string * int
(** [(message, byte offset)] of the first offending character. *)

type state = { src : string; mutable pos : int }

let fail st msg = raise (Parse_error (msg, st.pos))
let peek st = if st.pos < String.length st.src then Some st.src.[st.pos] else None

let skip_ws st =
  let n = String.length st.src in
  while
    st.pos < n
    && match st.src.[st.pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
  do
    st.pos <- st.pos + 1
  done

let expect st c =
  match peek st with
  | Some d when d = c -> st.pos <- st.pos + 1
  | _ -> fail st (Printf.sprintf "expected '%c'" c)

let literal st word value =
  let n = String.length word in
  if
    st.pos + n <= String.length st.src
    && String.sub st.src st.pos n = word
  then begin
    st.pos <- st.pos + n;
    value
  end
  else fail st (Printf.sprintf "expected '%s'" word)

(* Encode a Unicode scalar value as UTF-8 into [b]. *)
let add_utf8 b u =
  if u < 0x80 then Buffer.add_char b (Char.chr u)
  else if u < 0x800 then begin
    Buffer.add_char b (Char.chr (0xC0 lor (u lsr 6)));
    Buffer.add_char b (Char.chr (0x80 lor (u land 0x3F)))
  end
  else if u < 0x10000 then begin
    Buffer.add_char b (Char.chr (0xE0 lor (u lsr 12)));
    Buffer.add_char b (Char.chr (0x80 lor ((u lsr 6) land 0x3F)));
    Buffer.add_char b (Char.chr (0x80 lor (u land 0x3F)))
  end
  else begin
    Buffer.add_char b (Char.chr (0xF0 lor (u lsr 18)));
    Buffer.add_char b (Char.chr (0x80 lor ((u lsr 12) land 0x3F)));
    Buffer.add_char b (Char.chr (0x80 lor ((u lsr 6) land 0x3F)));
    Buffer.add_char b (Char.chr (0x80 lor (u land 0x3F)))
  end

let hex_digit st c =
  match c with
  | '0' .. '9' -> Char.code c - Char.code '0'
  | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
  | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
  | _ -> fail st "invalid hex digit in \\u escape"

let parse_hex4 st =
  if st.pos + 4 > String.length st.src then fail st "truncated \\u escape";
  let v = ref 0 in
  for i = 0 to 3 do
    v := (!v lsl 4) lor hex_digit st st.src.[st.pos + i]
  done;
  st.pos <- st.pos + 4;
  !v

let parse_string st =
  expect st '"';
  let b = Buffer.create 16 in
  let rec go () =
    match peek st with
    | None -> fail st "unterminated string"
    | Some '"' -> st.pos <- st.pos + 1
    | Some '\\' ->
        st.pos <- st.pos + 1;
        (match peek st with
        | Some '"' -> Buffer.add_char b '"'; st.pos <- st.pos + 1
        | Some '\\' -> Buffer.add_char b '\\'; st.pos <- st.pos + 1
        | Some '/' -> Buffer.add_char b '/'; st.pos <- st.pos + 1
        | Some 'b' -> Buffer.add_char b '\b'; st.pos <- st.pos + 1
        | Some 'f' -> Buffer.add_char b '\012'; st.pos <- st.pos + 1
        | Some 'n' -> Buffer.add_char b '\n'; st.pos <- st.pos + 1
        | Some 'r' -> Buffer.add_char b '\r'; st.pos <- st.pos + 1
        | Some 't' -> Buffer.add_char b '\t'; st.pos <- st.pos + 1
        | Some 'u' ->
            st.pos <- st.pos + 1;
            let u = parse_hex4 st in
            (* Surrogate pair: a high surrogate must be followed by
               \uDC00-\uDFFF; combine into one scalar value. *)
            let u =
              if u >= 0xD800 && u <= 0xDBFF then begin
                if
                  st.pos + 2 <= String.length st.src
                  && st.src.[st.pos] = '\\'
                  && st.src.[st.pos + 1] = 'u'
                then begin
                  st.pos <- st.pos + 2;
                  let lo = parse_hex4 st in
                  if lo < 0xDC00 || lo > 0xDFFF then
                    fail st "unpaired high surrogate";
                  0x10000 + ((u - 0xD800) lsl 10) + (lo - 0xDC00)
                end
                else fail st "unpaired high surrogate"
              end
              else u
            in
            add_utf8 b u
        | _ -> fail st "invalid escape");
        go ()
    | Some c ->
        Buffer.add_char b c;
        st.pos <- st.pos + 1;
        go ()
  in
  go ();
  Buffer.contents b

let parse_number st =
  let start = st.pos in
  let n = String.length st.src in
  let is_int = ref true in
  if peek st = Some '-' then st.pos <- st.pos + 1;
  while
    st.pos < n && match st.src.[st.pos] with '0' .. '9' -> true | _ -> false
  do
    st.pos <- st.pos + 1
  done;
  if peek st = Some '.' then begin
    is_int := false;
    st.pos <- st.pos + 1;
    while
      st.pos < n && match st.src.[st.pos] with '0' .. '9' -> true | _ -> false
    do
      st.pos <- st.pos + 1
    done
  end;
  (match peek st with
  | Some ('e' | 'E') ->
      is_int := false;
      st.pos <- st.pos + 1;
      (match peek st with
      | Some ('+' | '-') -> st.pos <- st.pos + 1
      | _ -> ());
      while
        st.pos < n
        && match st.src.[st.pos] with '0' .. '9' -> true | _ -> false
      do
        st.pos <- st.pos + 1
      done
  | _ -> ());
  let text = String.sub st.src start (st.pos - start) in
  if text = "" || text = "-" then fail st "invalid number";
  (* [-0] is what [Json_out] prints for [Float (-0.)]; an [Int] never
     prints it. *)
  if !is_int && text <> "-0" then
    match int_of_string_opt text with
    | Some v -> Json_out.Int v
    | None -> Json_out.Float (float_of_string text)
  else Json_out.Float (float_of_string text)

let rec parse_value st =
  skip_ws st;
  match peek st with
  | None -> fail st "unexpected end of input"
  | Some '{' ->
      st.pos <- st.pos + 1;
      skip_ws st;
      if peek st = Some '}' then begin
        st.pos <- st.pos + 1;
        Json_out.Obj []
      end
      else begin
        let fields = ref [] in
        let rec members () =
          skip_ws st;
          let k = parse_string st in
          skip_ws st;
          expect st ':';
          let v = parse_value st in
          fields := (k, v) :: !fields;
          skip_ws st;
          match peek st with
          | Some ',' -> st.pos <- st.pos + 1; members ()
          | Some '}' -> st.pos <- st.pos + 1
          | _ -> fail st "expected ',' or '}'"
        in
        members ();
        Json_out.Obj (List.rev !fields)
      end
  | Some '[' ->
      st.pos <- st.pos + 1;
      skip_ws st;
      if peek st = Some ']' then begin
        st.pos <- st.pos + 1;
        Json_out.List []
      end
      else begin
        let items = ref [] in
        let rec elements () =
          let v = parse_value st in
          items := v :: !items;
          skip_ws st;
          match peek st with
          | Some ',' -> st.pos <- st.pos + 1; elements ()
          | Some ']' -> st.pos <- st.pos + 1
          | _ -> fail st "expected ',' or ']'"
        in
        elements ();
        Json_out.List (List.rev !items)
      end
  | Some '"' -> Json_out.String (parse_string st)
  | Some 't' -> literal st "true" (Json_out.Bool true)
  | Some 'f' -> literal st "false" (Json_out.Bool false)
  | Some 'n' -> literal st "null" Json_out.Null
  | Some ('-' | '0' .. '9') -> parse_number st
  | Some c -> fail st (Printf.sprintf "unexpected character '%c'" c)

let parse s =
  let st = { src = s; pos = 0 } in
  let v = parse_value st in
  skip_ws st;
  if st.pos <> String.length s then fail st "trailing garbage after value";
  v

let parse_file path =
  let ic = open_in_bin path in
  let s =
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  parse s
