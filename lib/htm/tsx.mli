(** Best-effort hardware transactional memory, modelled after Intel TSX/RTM.

    Semantics reproduced from the paper's system model (§2) and the TSX
    specification it relies on (§5.6):

    - transactions buffer their writes (lazy versioning): nothing reaches the
      heap until commit, which is atomic;
    - conflict detection is eager, at cache-line granularity, requester-wins:
      any access (transactional or not) that conflicts with another *active*
      transaction's data set aborts that transaction immediately — in
      particular "hardware transactions immediately abort on conflict with
      non-speculative code";
    - capacity aborts fire when the data set no longer fits the modelled L1
      (per-set associativity overflow; SMT siblings sharing the L1 halve the
      effective ways);
    - a context-switch/timer interrupt while a transaction is in flight
      aborts it (wired to the scheduler's preemption hooks);
    - there is no progress guarantee: the same transaction may abort forever.

    An abort is delivered to the owning thread as the {!Abort} exception at
    its next transactional operation (a doomed transaction cannot observe
    memory: every operation on it aborts).  Victim transactions doomed by
    other threads discover the abort when they next run.

    All operations charge virtual cycles and yield to the scheduler, so every
    call site is a potential interleaving point.  {!read}, {!write} and
    {!nt_read}/{!nt_write} inside a transaction make their closing charge
    through {!St_sim.Sched.consume_deferred}, so they may return with a
    clock crossing pending: until its next [Sched] or [Tsx] call the caller
    must touch only thread-private state (StackTrack's engine only logs the
    value and counts the step before its next checkpoint charge).  Every
    entry point that touches shared state — {!start}, {!read}, {!write},
    {!commit}, {!abort}, the four [nt_*], {!alloc} and {!free} — first
    takes a pending crossing with {!St_sim.Sched.sync}; {!fence} only
    charges, and its charge takes the crossing along.

    The manager also keeps the run's one per-line contention record
    ({!line_stats}): conflict dooms and associativity overflows per cache
    line on every run, and touches when the scheduler's profiler is on.
    The harness derives every per-line report from it. *)

type t

type backend = Htm | Stm
(** [Htm] is the TSX model.  [Stm] is a TL2-flavoured software alternative:
    per-line versions validated at commit, no capacity or interrupt aborts,
    but a per-access instrumentation cost and a commit-time validation cost
    proportional to the read set — the substrate behind the paper's remark
    that StackTrack also runs on STM, with hardware essential for
    performance. *)

exception Abort of Htm_stats.abort_reason
(** Raised in the owning thread; the transaction is already discarded and
    the fixed abort penalty charged when it escapes. *)

val create :
  ?cache:Cache.t ->
  ?backend:backend ->
  ?forensics:Forensics.t ->
  sched:St_sim.Sched.t ->
  heap:St_mem.Heap.t ->
  unit ->
  t
(** Creates the HTM manager and registers its preemption hook with the
    scheduler.  The line directory is sized from [Sched.n_threads] on the
    first access, when registration is closed.
    Whether the per-line record counts touches is read here, once, from
    the scheduler's profiler ({!line_stats}).  [forensics] (default: the
    disabled singleton) is stamped at every doom site (who-doomed-whom
    attribution) and in the abort delivery funnel (per-cause wasted-cycle
    split). *)

val heap : t -> St_mem.Heap.t
val cache : t -> Cache.t

(** {2 Transactional operations}  All take the calling thread from the
    scheduler; they must run inside a thread body. *)

val start : t -> unit
(** Begin a transaction.  Fails with [Invalid_argument] if one is active. *)

val in_txn : t -> bool

val read : t -> St_mem.Word.addr -> St_mem.Word.value
(** Transactional load: tracks the line in the read set, aborts writers
    conflicting is impossible (we are the requester: conflicting *other*
    transactions are doomed), may raise {!Abort} (capacity, or this
    transaction was doomed). *)

val write : t -> St_mem.Word.addr -> St_mem.Word.value -> unit

val commit : t -> unit
(** Atomically publish the write buffer.  May raise {!Abort} if doomed. *)

val abort : t -> 'a
(** Explicitly abort the active transaction (always raises {!Abort}). *)

val data_set_lines : t -> int
(** Current footprint of the active transaction, in cache lines. *)

(** {2 Non-transactional operations}  Used by reclamation scans, fallback
    slow paths, and the non-HTM baseline schemes.  They conflict-check
    against (and doom) active transactions of other threads. *)

val nt_read : t -> St_mem.Word.addr -> St_mem.Word.value
val nt_write : t -> St_mem.Word.addr -> St_mem.Word.value -> unit

val nt_cas :
  t -> St_mem.Word.addr -> expect:St_mem.Word.value -> St_mem.Word.value -> bool
(** Atomic compare-and-swap.  When called *inside* a transaction it is
    simply a transactional read-modify-write (the transaction provides the
    atomicity, as in the paper's instrumented data-structure code). *)

val nt_fetch_add : t -> St_mem.Word.addr -> int -> St_mem.Word.value
(** Returns the previous value. *)

val fence : t -> unit
(** Full memory fence: pure cost (the simulator is sequentially
    consistent), modelling the per-validation fences that make hazard
    pointers expensive. *)

val free : t -> St_mem.Word.addr -> unit
(** Release an object to the allocator, dooming transactions that hold any
    of its lines (a concurrent speculative reader must not survive). *)

val alloc : t -> size:int -> St_mem.Word.addr

(** {2 Observation} *)

type line_stats = private {
  line : int;
  mutable touches : int;  (** Memory accesses; counted under the profiler. *)
  mutable conflicts : int;
      (** Conflict dooms: requester-wins resolution chose a victim on this
          line. *)
  mutable capacity : int;
      (** Associativity overflows this line triggered.  Pressure evictions
          doom a whole transaction, not a line, and are not counted. *)
}
(** The per-line contention record: one cell per cache line that saw a
    counted event.  Conflicts and capacity overflows are always counted;
    touches only when the scheduler's profiler is enabled.  Counting is
    pure arithmetic (no RNG draws, no cycle charges), so it never perturbs
    a run.  The record is owned by the manager, so several managers can
    coexist in one process (a parallel sweep runner) without sharing
    counts. *)

val fold_lines : t -> (line_stats -> 'a -> 'a) -> 'a -> 'a
(** Fold over every cell of the record, in no particular order. *)

val conflict_tally : t -> (int, int) Hashtbl.t
(** A fresh table of the record's nonzero conflict counts, line to dooms.
    Kept for the benchmark's doom-walk fixture; use {!fold_lines}. *)

val forensics : t -> Forensics.t
(** The abort-forensics ledger this manager stamps.  The engine layers
    above use it to attach segment identity and predictor decisions to the
    same ledger. *)

val stats : t -> tid:int -> Htm_stats.t
val total_stats : t -> Htm_stats.t

val line_table_words : t -> int
(** Words of backing store currently held by the line directory: backed
    chunks x 4096 lines x [1 + 2 * ceil (n / 63)] words, one coherence
    state and a reader and a writer bitset per line, for the [n] threads
    registered when the first chunk was backed.  Chunks are allocated on
    first touch, so this tracks the touched address space (the scale
    figure reports it alongside the heap's resident words). *)
