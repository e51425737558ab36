(** Michael-Scott lock-free queue (PODC 1996), functorised over the
    reclamation scheme — the paper's high-contention benchmark.

    The queue keeps a dummy node; [head] points at it and the dummy's
    successor holds the front value.  A dequeue that swings [head] retires
    the old dummy, so retirement is unique.  [head] and [tail] are padded
    onto separate cache lines (see the .ml). *)

type t = { root : St_mem.Word.addr }

val create_raw : St_mem.Heap.t -> t

val populate_raw :
  St_mem.Heap.t -> t -> values:int list -> note_link:(St_mem.Word.addr -> unit) -> unit

val to_list_raw : St_mem.Heap.t -> t -> int list
(** Front-to-back values (dummy excluded).  Quiescent use only. *)

module Make (G : St_reclaim.Guard.S) : sig
  type nonrec t = t

  val enqueue : t -> G.thread -> int -> unit
  val dequeue : t -> G.thread -> int option
  val peek : t -> G.thread -> int option
end
