(** Growable vector of ints (OCaml 5.1 has no [Dynarray] yet).

    Every vector in the simulator holds immediates: heap free lists, the
    StackTrack replay log and free set, the HTM transaction footprints and
    write buffers, and the reclamation schemes' retire buffers.
    Specializing to [int array] makes a [push] store a plain write, with no
    [caml_modify] write barrier, and a [get] needs no float-array tag
    check. *)

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

val iter : (int -> unit) -> t -> unit
(** Visit the elements in index order. *)

val to_list : t -> int list

val filter_in_place : (int -> bool) -> t -> unit
(** Keep the elements satisfying the predicate, in their order. *)
