(** Lock-free sorted linked list (Harris 2001, with Michael's 2004
    hazard-compatible traversal), functorised over the reclamation scheme.

    This is the paper's long-traversal benchmark and the skeleton of the
    hash table's buckets.  A node is logically deleted by marking the low
    bit of its [next] field, then physically unlinked with a CAS on its
    predecessor; the thread whose CAS performs the unlink is the unique
    thread that retires the node.

    The traversal restarts from the head whenever it loads a {e marked}
    value out of a predecessor's next field — a stale, unlinked predecessor
    always has a marked next, which is exactly what makes the algorithm
    safe to run under pointer-announcement schemes (hazard pointers,
    reference counting, drop-the-anchor). *)

(** {2 Node layout} *)

val key_off : int
val next_off : int
val node_size : int

val head_key : int
(** The sentinel head's key, smaller than any workload key. *)

type t = { head : St_mem.Word.addr }

(** {2 Raw (pre-concurrency) construction and inspection} *)

val create_raw : St_mem.Heap.t -> t

val populate_raw :
  St_mem.Heap.t -> t -> keys:int array -> note_link:(St_mem.Word.addr -> unit) -> unit
(** Insert [keys] (any order, duplicates allowed) into an empty list with
    raw heap writes, for benchmark pre-population.  The distinct keys are
    allocated and linked in ascending order; [keys] itself is not
    modified.  [note_link] reports every stored link so link-counting
    schemes can prime their counts. *)

val check_raw : St_mem.Heap.t -> t -> int option
(** [Some n] when the list is strictly sorted with [n] unmarked nodes;
    [None] if a marked node or an inversion is found.  Quiescent use only. *)

val to_list_raw : St_mem.Heap.t -> t -> int list
(** Keys in list order (unmarked traversal).  Quiescent use only. *)

(** {2 Concurrent operations} *)

module Make (G : St_reclaim.Guard.S) : sig
  type nonrec t = t

  type position = {
    pred : St_mem.Word.addr;
    curr : St_mem.Word.addr;  (** null when past the end *)
    found : bool;
    sp : int;  (** hazard slot protecting pred; -1 for the head sentinel *)
    sc : int;  (** hazard slot protecting curr *)
  }

  val third : int -> int -> int
  (** The free hazard slot among {0,1,2} given the two in use. *)

  val find : G.env -> t -> int -> position
  (** Michael-style search: returns pred/curr with
      [pred.key < key <= curr.key], helping unlink marked nodes on the
      way.  Both are protected in the returned slots. *)

  (** Env-level operations (used by the hash table to run several bucket
      operations under one [run_op]). *)

  val contains_in : G.env -> t -> int -> bool
  val insert_in : G.env -> t -> int -> bool
  val delete_in : G.env -> t -> int -> bool

  (** Operation-level API. *)

  val contains : t -> G.thread -> int -> bool
  val insert : t -> G.thread -> int -> bool
  (** [false] if the key was already present. *)

  val delete : t -> G.thread -> int -> bool
  (** [false] if the key was absent. *)

  val size : t -> G.thread -> int
  (** Full traversal counting unmarked nodes; linearizable only in
      quiescent states. *)
end
