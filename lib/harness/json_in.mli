(** Minimal JSON reader — the inverse of {!Json_out}.

    Parses standard JSON (RFC 8259) into the {!Json_out.t} AST so the
    offline analyzer can read result artifacts without a JSON
    dependency.

    Printing a reparse reproduces the text: for every [v],
    [Json_out.to_string (parse (Json_out.to_string v))] equals
    [Json_out.to_string v].  [parse (Json_out.to_string v)] structurally
    equals [v] when [v] holds no [Float]: {!Json_out} prints a float with
    six significant digits, so it reads back rounded, and as [Int] when
    its text has no fraction or exponent ([Float 1.] prints [1]);
    non-finite floats print as [null].

    Numbers with no fraction or exponent parse as [Int] (falling back to
    [Float] on overflow), except [-0], which parses as [Float (-0.)];
    all others parse as [Float].  Object key order is preserved. *)

exception Parse_error of string * int
(** [(message, byte offset)] of the first offending character. *)

val parse : string -> Json_out.t
(** Parse one JSON document; rejects trailing non-whitespace. *)

val parse_file : string -> Json_out.t
(** Read and {!parse} a whole file. *)
