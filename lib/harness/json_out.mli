(** Minimal deterministic JSON writer.

    The repo deliberately takes no JSON dependency; this covers exactly
    what the exporters need.  Serialisation is deterministic: object keys
    are emitted in construction order, floats via ["%.6g"] (non-finite
    floats become [null]), so equal values always produce byte-identical
    output — the property the golden-trace tests and the parallel-driver
    A/B checks rely on. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

val to_string : t -> string

val write_file : string -> t -> unit
(** Writes the value followed by a newline. *)
