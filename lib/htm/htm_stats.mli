(** Per-thread and aggregate HTM statistics.

    These counters feed Figure 3 (contention and capacity aborts) and
    Figure 4 (splits per operation and split lengths) of the paper. *)

type abort_reason = Conflict | Capacity | Interrupt | Explicit

type t = {
  mutable starts : int;
  mutable commits : int;
  mutable conflict_aborts : int;
  mutable capacity_aborts : int;
  mutable interrupt_aborts : int;
  mutable explicit_aborts : int;
  mutable data_set_lines : int;  (** Sum over committed txns, for averages. *)
}

val create : unit -> t
val record_abort : t -> abort_reason -> unit
val aborts : t -> int
val merge : t list -> t
val reason_to_string : abort_reason -> string
