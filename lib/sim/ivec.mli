(** Int-specialized growable vector.

    {!Vec} is polymorphic, so every [push] store goes through the generic
    write barrier ([caml_modify]) even when the payload is an immediate.
    The StackTrack replay log and the HTM transaction footprints and write
    buffers push on every simulated memory access; specializing to
    [int array] makes that store a plain write, and a [get] needs no
    float-array tag check. *)

type t

val create : unit -> t
val length : t -> int
val push : t -> int -> unit
val get : t -> int -> int
val set : t -> int -> int -> unit
(** [set t i x] overwrites element [i] ([0 <= i < length t]). *)

val truncate : t -> int -> unit
(** Keep only the first [n] elements. *)

val clear : t -> unit
