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
(** An empty table: the bucket array, then one sentinel head per bucket,
    the sentinels taken as one {!St_mem.Heap.alloc_run}.  The heap image
    is the one that allocating each sentinel in turn would leave, and
    nothing is allocated per bucket on the OCaml heap.
    Precondition: no object of {!Harris_list.node_size} words was ever
    freed on the heap (every caller builds on a fresh heap).
    @raise Invalid_argument if [n_buckets < 1], or if a freed object of
    node size is ready for reuse. *)

val populate_raw :
  St_mem.Heap.t -> t -> keys:int array -> note_link:(St_mem.Word.addr -> unit) -> unit
(** Fill a table fresh from {!create_raw} with [keys] (non-negative, any
    order, duplicates allowed), with raw heap writes, for benchmark
    pre-population.  The first occurrence of a key wins; later copies
    allocate nothing.  Nodes are allocated in input order, so the heap
    image (addresses, birth indices, words) is the one that inserting the
    keys one at a time would build.  The links are then stored in one pass
    in address order: each bucket sentinel's, then each node's.
    [note_link] is called once per final link, with the node it points
    to, in that store order, so link-counting schemes can prime their
    counts (as {!Harris_list.populate_raw}).  The table must be fresh:
    links already in it are neither kept nor reported.

    The build makes streaming passes, and sorts within partitions: runs
    of [2^k] consecutive buckets, [k] the least that leaves at most 512
    (250,000 buckets make 489 partitions of 512).
    + One read of the keys checks them and sizes the partitions.
    + A stable scatter writes a 12-byte (key, position) record per key,
      grouped by partition: one write stream per partition.
    + Per partition, a counting sort by bucket into a buffer sized to
      the widest partition, then a stable sort by key within each bucket
      (insertion sort up to 16 keys, [Array.stable_sort] above), gives
      each bucket's first kept key and each kept key's successor.  No key
      is fetched from [keys] at random.  Partitions write disjoint
      slots, so this pass is a {!St_sim.Halves.sum} over them: from
      {!St_sim.Halves.threshold} keys up (2^17), and where there is more
      than one CPU and no domain pool, the upper half of the partitions
      runs on a helper domain, with a buffer of its own, and the two
      halves' dropped keys add.
    + The kept keys' nodes are one {!St_mem.Heap.alloc_run} from the
      break, in input order, so the node of the [r]th kept key is at
      [base + r * stride] and no node address is stored.
    + Only when some key was dropped, a loop of independent loads
      rewrites the successors' positions as ranks; then every key and
      link is stored.
    The key checks, the scatter, the node run and the stores run on the
    calling domain, so [note_link] is called there, in store order.

    Scratch is [Bytes], which the major GC never scans: 16 bytes per key
    (the record, then a 4-byte successor), 4 per bucket, and 16 per key
    of the widest partition (of each half, when split), plus a word per
    bucket of a partition (per half) and two per partition.  That is
    2.13 words per key at 4 keys per bucket.  Minor-heap allocation is a
    constant, not per key, except [Array.stable_sort]'s for buckets of
    more than 16 keys.

    Precondition: no object of {!Harris_list.node_size} words was ever
    freed on the heap, as for {!create_raw}.  Positions, ranks and
    bucket offsets are 32-bit slots, so the limits are 2^31 - 1 keys and
    2^31 - 1 buckets.
    @raise Invalid_argument naming the key and its index if a key is
    negative, or naming the counts if there are too many keys or
    buckets (or fewer than 1 bucket).  Both are checked before anything
    is allocated, so the heap is left untouched.
    @raise Invalid_argument if a freed object of node size is ready for
    reuse; no node is allocated then. *)

val to_list_raw : St_mem.Heap.t -> t -> int list
(** Every key reachable from the bucket heads, marked nodes included,
    sorted.  Quiescent use only. *)

val length_raw : St_mem.Heap.t -> t -> int
(** [List.length (to_list_raw heap t)] without building the list: a count
    of the nodes reachable from the bucket heads, marked ones included.
    It is {!St_mem.Heap.count_chains} from the bucket array (less the
    sentinels), which walks 16 chains at once so that their cache misses
    overlap.  It is a {!St_sim.Halves.sum} over the buckets: from
    {!St_sim.Halves.threshold} buckets up (2^17), and where there is more
    than one CPU and no domain pool, the upper half of the buckets is
    counted on a helper domain.  Quiescent use only. *)

module Make (G : St_reclaim.Guard.S) : sig
  type nonrec t = t

  val contains : t -> G.thread -> int -> bool
  val insert : t -> G.thread -> int -> bool
  val delete : t -> G.thread -> int -> bool
end
