(** Word-addressable simulated heap with a manual allocator.

    This is the substrate that makes concurrent memory reclamation *real* in
    the simulation: [free] returns an object's words to size-class free lists
    and the very next [alloc] of that size reuses the most recently freed
    block (LIFO), which maximises ABA and use-after-free exposure exactly the
    way a C malloc arena does.

    Freed words are poisoned with a recognizable pattern so that an unsafe
    scheme dereferencing stale pointers reads garbage (and trips the
    {!Shadow} checker).

    The object-extent table required by the paper (§5.5, the
    [__malloc_hook] range-query structure used to resolve interior/hidden
    pointers during scans) is the [base_of] query.

    This module performs no synchronization and charges no virtual cycles:
    it is the raw memory array.  All concurrency semantics (conflicts,
    transactions, costs) live in the [st_htm] layer on top. *)

type t

val create :
  ?initial_words:int ->
  ?quarantine:int ->
  ?align:int ->
  shadow:Shadow.t ->
  unit ->
  t
(** [quarantine] (default 128) is the number of freed blocks held back from
    reuse, ASan-style, so that use-after-free hits dead words and is
    reported rather than silently aliasing fresh allocations.  Set it to 0
    for immediate LIFO reuse (maximal ABA stress).  [align] (default 4
    words = one modelled cache line) rounds object sizes up so objects
    never share a line — the false-sharing avoidance every concurrent
    allocator performs.  It must be a power of two, at most
    {!chunk_words}; otherwise [Invalid_argument].  The granule, [max 2
    align], aligns every base and divides every size, so the owner, size
    and birth tables hold one entry per granule. *)

val shadow : t -> Shadow.t

val set_lifecycle : t -> Lifecycle.t -> unit
(** Attach a lifecycle ledger: [alloc] stamps each object's birth and
    [free]'s success branch stamps its death (covering every free path,
    including engine rollbacks of speculative allocations).  The default is
    {!Lifecycle.disabled}, costing one load per event.  Violating frees
    (double/bad free) never stamp — the ledger stays an exact census of
    real objects while {!Shadow} reports the violation. *)

(** {2 Allocation} *)

val alloc : t -> tid:int -> size:int -> Word.addr
(** Allocate [size] words and return the object base address.  Contents
    are zeroed.  The words and owner entries are written one chunk at a
    time, one directory load per table per chunk; an object of at most one
    granule (every list node) lies in one chunk.  Only {!free} grows the
    table of size classes: [alloc] reads a class past its end as empty,
    so one large object (a 250,000-word bucket array) adds no empty free
    lists.

    Zeroing rule: a block from a free list is filled with zeros.  Words
    taken from the break are already zero, as a new chunk is made, unless
    a violating {!write} stored past the break; the heap keeps one past
    the highest such word and fills a break object only below it.
    @raise Invalid_argument if [size < 1]. *)

val alloc_run : t -> tid:int -> size:int -> count:int -> Word.addr
(** [alloc_run t ~tid ~size ~count] takes [count] objects of [size] words
    from the break and returns the first one's base; object [i] is based
    at [base + i * size_of t base].  The heap is left as [count] calls of
    {!alloc} would leave it: the same addresses, birth indices, zeroed
    words, owner, size and birth entries, counters and lifecycle stamps,
    in the same order.  The words are zeroed as {!alloc} zeroes them: with
    one fill per chunk segment, and only below the last stray write past
    the break.  [count = 0] allocates nothing and returns {!Word.null}.
    @raise Invalid_argument if [size < 1] or [count < 0], or if a freed
    object of [size] words (after rounding) is ready for reuse, where
    {!alloc} would take that block instead.  Nothing is allocated then. *)

val free : t -> tid:int -> Word.addr -> unit
(** Return an object to the allocator.  Freeing a non-base or dead address
    records a violation and is otherwise a no-op (so a buggy scheme keeps
    running and keeps getting caught). *)

val is_allocated : t -> Word.addr -> bool
(** True when [addr] is the base of a live object. *)

val size_of : t -> Word.addr -> int
(** Size of the live object based at [addr]; 0 if there is none.  No
    option box: [Tsx.free] asks this on every free. *)

val base_of : t -> Word.value -> Word.addr option
(** Range query: if the word value points into any live object (including
    interior pointers), the base address of that object. *)

val owner_of : t -> Word.value -> Word.addr
(** Option-free {!base_of}: the base of the live object containing [v]
    (interior pointers included), or [0] when [v] points to no live object.
    This is the form the reclamation scan loops use — called once per
    exposed word per scan, it must not allocate a [Some] per query. *)

val birth_ix : t -> Word.addr -> int
(** Birth query with a 0 sentinel: [1 +] the allocation sequence number of
    the live object based at [addr], or [0] when no live object is based
    there.  Allocation order is seed-deterministic, so the birth index is
    a stable object name across runs and [--jobs] counts — the heat rows
    and doomed lines of a run use it to label hot cache lines. *)

(** {2 Raw access (used by the HTM layer)} *)

val read : t -> tid:int -> Word.addr -> Word.value
(** Checked read: records a read-after-free violation when the target word
    is not part of a live object, and returns the poisoned contents. *)

val write : t -> tid:int -> Word.addr -> Word.value -> unit

val peek : t -> Word.addr -> Word.value
(** Unchecked read, for debugging/assertions only. *)

val count_chains :
  t -> roots:Word.addr -> first:int -> n:int -> next_off:int -> int
(** [count_chains t ~roots ~first ~n ~next_off] counts the objects on [n]
    linked chains: chain [i] starts at the object that the word [roots +
    first + i] points to, and each object's word at [next_off] points to
    the next one (null ends a chain; a deletion mark is ignored, so marked
    objects count).  Words are read as by {!peek}.  The walk keeps 16
    chains going at once, one step per chain in turn, so that their cache
    misses overlap, and loads the chunk directory and coverage once per
    call.  Quiescent use only: the chains must end, and nothing may write
    the heap during the walk, which reads no other mutable state, so
    disjoint ranges of roots may be counted on different domains. *)

(** {2 Statistics} *)

val allocs : t -> int
val frees : t -> int
val live_objects : t -> int
val peak_live : t -> int
val words_in_use : t -> int

val quarantined : t -> int
(** Freed blocks currently held in the reuse quarantine. *)

val chunk_words : int
(** Words of address space per backing-store chunk (a power of two).  The
    per-address tables are chunk directories grown on demand, so resident
    memory tracks the touched address space in [chunk_words] steps instead
    of doubling dense arrays. *)

val touched_chunks : t -> int
(** Chunks currently backed in each per-address table. *)

val resident_words : t -> int
(** Total words of backing store held across the four per-address tables:
    [touched_chunks * chunk_words * (1 + 3 / granule)], the payload one
    word per address and the owner, size and birth tables one per granule
    ([max 2 align]).  The resident-footprint number the scale figure
    reports, as opposed to {!words_in_use} which counts only words inside
    live objects. *)

val poison : Word.value
(** The pattern written into freed words. *)
