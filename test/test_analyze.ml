(* Offline analyzer: JSON reader round-trips, tolerance-gated diffs, and
   the report renderer.

   The committed result goldens must reparse to their own bytes; that
   their runs reproduce them is test_perf_identity's table. *)

open St_harness

let quick name f = Alcotest.test_case name `Quick f

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* ------------------------------------------------------------------ *)
(* Json_in                                                             *)
(* ------------------------------------------------------------------ *)

let test_roundtrip_ast () =
  let v =
    Json_out.Obj
      [
        ("null", Json_out.Null);
        ("bools", Json_out.List [ Json_out.Bool true; Json_out.Bool false ]);
        ("ints", Json_out.List [ Json_out.Int 0; Json_out.Int (-42); Json_out.Int max_int ]);
        ("float", Json_out.Float 1.25);
        ("neg_float", Json_out.Float (-0.001));
        ("string", Json_out.String "a \"quoted\" line\nwith\ttabs \\ and \x01 ctrl");
        ("empty_obj", Json_out.Obj []);
        ("empty_list", Json_out.List []);
        ( "nested",
          Json_out.Obj
            [ ("xs", Json_out.List [ Json_out.Obj [ ("k", Json_out.Int 1) ] ]) ]
        );
      ]
  in
  let s = Json_out.to_string v in
  Alcotest.(check bool) "parse (print v) = v" true (Json_in.parse s = v);
  (* And printing the reparse is byte-stable. *)
  Alcotest.(check string) "print is stable" s
    (Json_out.to_string (Json_in.parse s))

let test_parse_extras () =
  Alcotest.(check bool)
    "whitespace" true
    (Json_in.parse " [ 1 , 2 ] " = Json_out.List [ Json_out.Int 1; Json_out.Int 2 ]);
  Alcotest.(check bool)
    "exponent is float" true
    (Json_in.parse "1e3" = Json_out.Float 1000.);
  Alcotest.(check bool)
    "unicode escape" true
    (Json_in.parse {|"Aé"|} = Json_out.String "A\xc3\xa9");
  Alcotest.(check bool)
    "surrogate pair" true
    (Json_in.parse {|"😀"|} = Json_out.String "\xf0\x9f\x98\x80");
  List.iter
    (fun bad ->
      match Json_in.parse bad with
      | exception Json_in.Parse_error _ -> ()
      | _ -> Alcotest.failf "accepted invalid input %S" bad)
    [ "{"; "[1,]"; "1 2"; "{\"a\" 1}"; "\"unterminated"; "nul"; "" ]

(* Random documents: every int including [min_int] and [max_int], floats
   finite and not, [-0.] and whole floats among them, strings and keys of
   arbitrary bytes, nested and empty lists and objects.  One round trip
   through the parser reaches the printer's fixed point. *)
let json_gen =
  QCheck.Gen.(
    let bytes = string_size ~gen:char (int_range 0 8) in
    let int_ =
      frequency
        [ (3, int); (2, small_signed_int); (1, oneofl [ min_int; max_int; 0 ]) ]
    in
    let float_ =
      frequency
        [
          (3, float);
          (2, map float_of_int small_signed_int);
          ( 1,
            oneofl
              [ -0.; 0.; max_float; -.max_float; min_float; 5e-324; 1e21;
                Float.nan; Float.infinity ] );
        ]
    in
    let leaf =
      oneof
        [
          return Json_out.Null;
          map (fun b -> Json_out.Bool b) bool;
          map (fun i -> Json_out.Int i) int_;
          map (fun f -> Json_out.Float f) float_;
          map (fun s -> Json_out.String s) bytes;
        ]
    in
    sized_size (int_bound 12)
    @@ fix (fun self n ->
           if n = 0 then leaf
           else
             let sub = list_size (int_range 0 4) (self (n / 2)) in
             frequency
               [
                 (2, leaf);
                 (1, map (fun vs -> Json_out.List vs) sub);
                 ( 1,
                   map
                     (fun kvs -> Json_out.Obj kvs)
                     (list_size (int_range 0 4) (pair bytes (self (n / 2)))) );
               ]))

let prop_print_parse_print =
  QCheck.Test.make ~name:"to_string (parse (to_string v)) = to_string v"
    ~count:1000
    (QCheck.make ~print:Json_out.to_string json_gen)
    (fun v ->
      let s = Json_out.to_string v in
      Json_out.to_string (Json_in.parse s) = s)

let test_negative_zero () =
  Alcotest.(check bool)
    "-0 reads as a float" true
    (Json_in.parse "-0" = Json_out.Float (-0.));
  Alcotest.(check string)
    "and prints back" "-0"
    (Json_out.to_string (Json_in.parse (Json_out.to_string (Json_out.Float (-0.)))));
  Alcotest.(check bool) "0 stays an int" true (Json_in.parse "0" = Json_out.Int 0)

let test_roundtrip_goldens () =
  List.iter
    (fun path ->
      let s = String.trim (read_file path) in
      Alcotest.(check string)
        (path ^ " reparses byte-identically")
        s
        (Json_out.to_string (Json_in.parse s)))
    [
      "goldens/golden_run_st.json";
      "goldens/golden_run_epoch.json";
      "goldens/golden_fig1.json";
    ]

(* ------------------------------------------------------------------ *)
(* Diff                                                                *)
(* ------------------------------------------------------------------ *)

let doc = Json_in.parse (String.trim (read_file "goldens/golden_run_st.json"))

let set_field path v doc =
  let rec go keys doc =
    match (keys, doc) with
    | [ k ], Json_out.Obj fields ->
        Json_out.Obj
          (List.map (fun (k', v') -> if k' = k then (k', v) else (k', v')) fields)
    | k :: rest, Json_out.Obj fields ->
        Json_out.Obj
          (List.map
             (fun (k', v') -> if k' = k then (k', go rest v') else (k', v'))
             fields)
    | _ -> doc
  in
  go path doc

let test_diff_identity () =
  Alcotest.(check int) "no drift vs self" 0 (List.length (Analyze.diff doc doc))

let test_diff_detects_drift () =
  let drifted = set_field [ "total_ops" ] (Json_out.Int 400) doc in
  (match Analyze.diff doc drifted with
  | [ d ] ->
      Alcotest.(check string) "path" "total_ops" d.Analyze.path;
      Alcotest.(check bool) "rel positive" true (d.Analyze.rel > 0.)
  | ds -> Alcotest.failf "expected 1 drift, got %d" (List.length ds));
  (* Within tolerance: absorbed. *)
  let tols = { Analyze.default = 0.; rules = [ ("total_ops", 0.5) ] } in
  Alcotest.(check int) "rule absorbs" 0
    (List.length (Analyze.diff ~tols doc drifted));
  (* default-tol applies everywhere. *)
  let tols = { Analyze.default = 0.5; rules = [] } in
  Alcotest.(check int) "default absorbs" 0
    (List.length (Analyze.diff ~tols doc drifted))

let test_diff_subtree_rules () =
  let drifted =
    set_field [ "htm"; "aborts"; "conflict" ] (Json_out.Int 1_000) doc
  in
  (* Subtree rule covers nested metrics... *)
  let tols = { Analyze.default = 0.; rules = [ ("htm", infinity) ] } in
  Alcotest.(check int) "subtree rule" 0
    (List.length (Analyze.diff ~tols doc drifted));
  (* ...a longer rule overrides a shorter one... *)
  let tols =
    {
      Analyze.default = 0.;
      rules = [ ("htm", infinity); ("htm.aborts.conflict", 0.) ];
    }
  in
  Alcotest.(check int) "longest rule wins" 1
    (List.length (Analyze.diff ~tols doc drifted));
  (* ...and a rule does not leak onto path prefixes that aren't
     component boundaries. *)
  Alcotest.(check (float 0.)) "no partial-component match" 0.
    (Analyze.tol_for
       { Analyze.default = 0.; rules = [ ("total", 1.) ] }
       "total_ops")

let test_diff_missing_and_type () =
  let missing =
    match doc with
    | Json_out.Obj fields ->
        Json_out.Obj (List.filter (fun (k, _) -> k <> "leaked") fields)
    | v -> v
  in
  (match Analyze.diff doc missing with
  | [ d ] ->
      Alcotest.(check string) "missing path" "leaked" d.Analyze.path;
      Alcotest.(check bool) "missing side" true (d.Analyze.b = None)
  | ds -> Alcotest.failf "expected 1 drift, got %d" (List.length ds));
  let retyped = set_field [ "leaked" ] (Json_out.String "none") doc in
  (match Analyze.diff doc retyped with
  | [ d ] -> Alcotest.(check bool) "type mismatch is drift" true (Float.is_nan d.Analyze.rel)
  | ds -> Alcotest.failf "expected 1 drift, got %d" (List.length ds));
  (* Ignoring the path suppresses even structural mismatches. *)
  let tols = { Analyze.default = 0.; rules = [ ("leaked", infinity) ] } in
  Alcotest.(check int) "infinity ignores missing" 0
    (List.length (Analyze.diff ~tols doc missing))

(* An empty container is a leaf: a key holding [[]] or [{}] is compared
   like a number, so a stale or dropped empty key is a drift. *)
let test_diff_empty_containers () =
  let drifts a b =
    List.map
      (fun d -> d.Analyze.path)
      (Analyze.diff (Json_in.parse a) (Json_in.parse b))
  in
  let check name want a b =
    Alcotest.(check (list string)) name want (drifts a b)
  in
  check "[] vs absent" [ "a" ] {|{"a":[]}|} {|{}|};
  check "absent vs {}" [ "a" ] {|{}|} {|{"a":{}}|};
  check "[] vs []" [] {|{"a":[]}|} {|{"a":[]}|};
  check "{} vs {}" [] {|{"a":{}}|} {|{"a":{}}|};
  check "[] vs {}" [ "a" ] {|{"a":[]}|} {|{"a":{}}|};
  check "[] vs [1]" [ "a"; "a[0]" ] {|{"a":[]}|} {|{"a":[1]}|}

(* ------------------------------------------------------------------ *)
(* Report                                                              *)
(* ------------------------------------------------------------------ *)

let bench = "../bin/stacktrack_bench.exe"
let analyze = "../bench/analyze.exe"
let render doc = Format.asprintf "%a" Analyze.report doc

let contains text sub =
  let n = String.length sub in
  let rec at i =
    i + n <= String.length text && (String.sub text i n = sub || at (i + 1))
  in
  at 0

(* Run [exe] with [args]: its exit code, stdout and stderr. *)
let run exe args =
  let out = Filename.temp_file "cli" ".out"
  and err = Filename.temp_file "cli" ".err" in
  let code =
    Sys.command
      (String.concat " "
         (List.map Filename.quote (exe :: args)
         @ [ ">"; Filename.quote out; "2>"; Filename.quote err ]))
  in
  let stdout = read_file out and stderr = read_file err in
  Sys.remove out;
  Sys.remove err;
  (code, stdout, stderr)

(* A figures --json-out artifact used to render as one report of "?"
   fields, and exit 0. *)
let test_report_list () =
  let golden = "goldens/golden_fig1.json" in
  let results =
    match Json_in.parse_file golden with
    | Json_out.List results -> results
    | _ -> Alcotest.fail "golden_fig1.json is not a list"
  in
  let code, out, _ = run analyze [ "report"; golden ] in
  Alcotest.(check int) "exit" 0 code;
  Alcotest.(check string)
    "one report per result, in order, a blank line between"
    (String.concat "\n" (List.map render results))
    out;
  Alcotest.(check int)
    "a config line per result" (List.length results)
    (List.length
       (List.filter
          (String.starts_with ~prefix:"config: ")
          (String.split_on_char '\n' out)));
  Alcotest.(check bool) "no missing field" false (contains out "=?")

let test_report_not_a_result () =
  List.iter
    (fun text ->
      let file = Filename.temp_file "doc" ".json" in
      Out_channel.with_open_bin file (fun oc -> output_string oc text);
      let code, out, err = run analyze [ "report"; file ] in
      Sys.remove file;
      Alcotest.(check int) (text ^ ": exit") 2 code;
      Alcotest.(check string) (text ^ ": no report") "" out;
      Alcotest.(check bool)
        (text ^ ": names the file") true (contains err file))
    [ "{}"; "[1]" ]

(* [run]'s text report is the report of its own --json document, through
   a file round trip; each configuration reaches the rows in [shows].  The
   JSON carries violation samples on the unsafe run only, so a safe run's
   artifact is unchanged. *)
let test_run_one_renderer () =
  let trace = Filename.temp_file "trace" ".json" in
  Fun.protect ~finally:(fun () -> Sys.remove trace) @@ fun () ->
  List.iter
    (fun (args, shows) ->
      let name = String.concat " " ("run" :: args) in
      let code, text, _ = run bench ("run" :: args) in
      Alcotest.(check int) (name ^ ": exit") 0 code;
      let code, json, _ = run bench (("run" :: args) @ [ "--json" ]) in
      Alcotest.(check int) (name ^ " --json: exit") 0 code;
      let doc = Json_in.parse json in
      Alcotest.(check string)
        (name ^ ": stdout = analyze report of --json")
        (render doc) text;
      Alcotest.(check bool) (name ^ ": shows " ^ shows) true
        (contains text shows);
      Alcotest.(check bool)
        (name ^ ": violation_samples iff violations")
        (contains text "violations=0")
        (match doc with
        | Json_out.Obj fields -> not (List.mem_assoc "violation_samples" fields)
        | _ -> false))
    [
      ([], "stacktrack: ops=");
      ([ "--profile" ], "cycle accounts");
      ([ "--scheme"; "epoch"; "--crash"; "0"; "--lifecycle" ], "watchdog:");
      ([ "--threads"; "12"; "--forensics" ], "doomed-by lines:");
      ([ "--scheme"; "debra+"; "--crash"; "0" ], "scheme extras: ");
      ( [
          "--scheme"; "immediate"; "--threads"; "8"; "--mutations"; "80";
          "--keys"; "16"; "--init"; "8"; "--duration"; "600000"; "--seed"; "1";
        ],
        "  read-after-free at " );
      ([ "--trace-out"; trace; "--trace-capacity"; "16" ], "WARNING: trace");
    ]

let () =
  Alcotest.run "analyze"
    [
      ( "json_in",
        [
          quick "ast roundtrip" test_roundtrip_ast;
          quick "syntax corners" test_parse_extras;
          quick "golden files reparse" test_roundtrip_goldens;
          quick "negative zero" test_negative_zero;
          QCheck_alcotest.to_alcotest prop_print_parse_print;
        ] );
      ( "diff",
        [
          quick "identity" test_diff_identity;
          quick "drift + tolerance" test_diff_detects_drift;
          quick "subtree rules" test_diff_subtree_rules;
          quick "missing / retyped" test_diff_missing_and_type;
          quick "empty containers" test_diff_empty_containers;
        ] );
      ( "report",
        [
          quick "figures list artifact" test_report_list;
          quick "not a result" test_report_not_a_result;
          quick "run has one renderer" test_run_one_renderer;
        ] );
    ]
