(** Lock-free hash table with Harris-list buckets — the paper's
    low-contention benchmark ("a lock-free hash-table based on the Harris
    lock-free list").

    A fixed array of per-bucket sentinel pointers (immutable after setup)
    heads independent sorted lists; all list logic comes from
    {!Harris_list}. *)

type t = { buckets : St_mem.Word.addr; n_buckets : int }

val bucket_of : t -> int -> int

(** {2 Raw (pre-concurrency) construction and inspection} *)

val create_raw : St_mem.Heap.t -> n_buckets:int -> t
(** An empty table: the bucket array, then one sentinel head per bucket.
    @raise Invalid_argument if [n_buckets < 1]. *)

val populate_raw :
  St_mem.Heap.t -> t -> keys:int list -> note_link:(St_mem.Word.addr -> unit) -> unit
(** Fill a table fresh from {!create_raw} with [keys] (non-negative, any
    order, duplicates allowed), with raw heap writes, for benchmark
    pre-population.  The first occurrence of a key wins; later copies
    allocate nothing.  Nodes are allocated in input order, so the heap
    image (addresses, birth indices, words) is the one that inserting the
    keys one at a time would build.  [note_link] is called once per final
    link, with the node it points to, so link-counting schemes can prime
    their counts (as {!Harris_list.populate_raw}).  The table must be
    fresh: links already in it are neither kept nor reported. *)

val to_list_raw : St_mem.Heap.t -> t -> int list
(** Every key reachable from the bucket heads, marked nodes included,
    sorted.  Quiescent use only. *)

val length_raw : St_mem.Heap.t -> t -> int
(** [List.length (to_list_raw heap t)] without building the list: a count
    of the nodes reachable from the bucket heads, marked ones included.
    Quiescent use only. *)

module Make (G : St_reclaim.Guard.S) : sig
  type nonrec t = t

  val contains : t -> G.thread -> int -> bool
  val insert : t -> G.thread -> int -> bool
  val delete : t -> G.thread -> int -> bool
end
