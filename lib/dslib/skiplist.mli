(** Fraser-Harris lock-free skip list (Fraser 2004), functorised over the
    reclamation scheme — the paper's long-operation benchmark.

    Each next pointer carries its own deletion mark; marking proceeds
    top-down, with the level-0 mark as the linearization point electing the
    unique deleter, which physically unlinks every level (searches help)
    before retiring the node.  See the .ml header for the hazard-slot map
    used under pointer-announcement schemes. *)

type t = { head : St_mem.Word.addr }

(** {2 Raw construction and inspection} *)

val create_raw : St_mem.Heap.t -> t

val populate_raw :
  St_mem.Heap.t ->
  t ->
  keys:int array ->
  rng:St_sim.Rng.t ->
  note_link:(St_mem.Word.addr -> unit) ->
  unit
(** Insert [keys] (any order, duplicates allowed) into an empty list with
    raw heap writes, for benchmark pre-population.  The distinct keys are
    allocated in ascending order, each with a tower height drawn from
    [rng] in that order; [keys] itself is not modified.  [note_link]
    reports every stored link, once per level. *)

val to_list_raw : St_mem.Heap.t -> t -> int list
(** Level-0 keys in order.  Quiescent use only. *)

val check_raw : St_mem.Heap.t -> t -> bool
(** Structural invariant: every level sorted and a sublist of the level
    below.  Quiescent use only. *)

(** {2 Concurrent operations} *)

module Make (G : St_reclaim.Guard.S) : sig
  type nonrec t = t

  val search : G.env -> t -> int -> St_mem.Word.addr
  (** Fill the per-level preds/succs frame locals; return the level-0 node
      with the key (protected) or null.  Helps unlink marked nodes. *)

  val contains : t -> G.thread -> int -> bool
  val insert : t -> G.thread -> int -> bool
  val delete : t -> G.thread -> int -> bool
  val size : t -> G.thread -> int
end
