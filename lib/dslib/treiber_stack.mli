(** Treiber lock-free stack — the canonical ABA victim, included beyond the
    paper's four benchmarks because safe reclamation is precisely what
    makes its pop CAS sound (see the .ml header). *)

type t = { root : St_mem.Word.addr }

val create_raw : St_mem.Heap.t -> t

val populate_raw :
  St_mem.Heap.t -> t -> values:int list -> note_link:(St_mem.Word.addr -> unit) -> unit
(** Pushes [values] in order: the last one ends on top. *)

val to_list_raw : St_mem.Heap.t -> t -> int list
(** Top-first values.  Quiescent use only. *)

module Make (G : St_reclaim.Guard.S) : sig
  type nonrec t = t

  val push : t -> G.thread -> int -> unit
  val pop : t -> G.thread -> int option
  val top : t -> G.thread -> int option
end
