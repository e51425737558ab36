(** Memory-lifecycle ledger: per-object alloc → retire → free stamps.

    The ledger records, for every object the simulated heap ever hands out,
    the virtual-clock times of its three lifecycle events plus its size in
    words, keyed by the heap's monotone {e birth index} (the value behind
    [Heap.birth_ix], minus one).  From those stamps the harness derives the
    paper-facing observables: the retire→free latency distribution of each
    reclamation scheme, the limbo (retired-but-unfreed) backlog and live
    footprint over time, and the leak census at exit.

    Hot-path cost discipline: each hook is a few branches and array stores
    (amortised array doubling aside) and allocates nothing, matching the
    allocation-free engine/scan paths it instruments.  The {!disabled}
    singleton makes every hook a single load-and-branch, so the hooks can
    stay unconditionally wired into [Heap] and [Guard].

    Stamp sources — exactly one per event kind, so the ledger is an exact
    census rather than a sampling:
    - {b alloc}: [Heap.claim], on every successful allocation (including
      speculative allocations later rolled back);
    - {b retire}: [Guard.note_retire], which every scheme (and the
      StackTrack engine's split-retire commit path) already calls once per
      real retirement;
    - {b free}: [Heap.free]'s success branch, which all free paths funnel
      through — scheme reclaim batches and engine rollbacks alike.

    Rolled-back speculative objects are therefore freed without ever being
    retired: they appear in the alloc/free census but contribute no
    retire→free lag sample and never enter the limbo backlog. *)

type t

val disabled : t
(** Inert shared ledger: every hook returns after one branch.  The default
    wired into heaps and guard stats so unflagged runs pay one load. *)

val create :
  ?capacity:int -> now:(unit -> int) -> resolve:(int -> int) -> unit -> t
(** [create ~now ~resolve ()] makes an enabled ledger.  [now] supplies the
    virtual clock for alloc/free stamps ([Sched.now_or_global], so stamps
    work during raw setup/teardown too); [resolve] maps a base address to
    the heap's birth witness ([Heap.birth_ix]: [1 + birth] while live, [0]
    otherwise), used to translate retire notifications — which arrive as
    addresses — into birth indices and to drop stale/double retires of
    unsafe schemes on the floor (those are the shadow checker's report to
    make).  [capacity] (default 4096 objects) grows by doubling. *)

(** {1 Hooks} *)

val on_alloc : t -> birth:int -> words:int -> unit
(** Called by [Heap.claim] with the object's birth index and size. *)

val on_retire : t -> now:int -> int -> unit
(** [on_retire t ~now addr]: called by [Guard.note_retire].  Resolves
    [addr] to its birth index; idempotent — a replayed retirement keeps its
    first stamp — and a no-op for addresses that are not live object bases. *)

val on_free : t -> birth:int -> words:int -> unit
(** Called by [Heap.free]'s success branch ([birth] < 0 is ignored). *)

(** {1 Aggregates}

    Maintained incrementally by the hooks; O(1) reads for the sampler. *)

val allocs : t -> int
val retires : t -> int
val frees : t -> int
val live_objects : t -> int
val live_words : t -> int
val peak_live_words : t -> int

val limbo_objects : t -> int
(** Objects retired but not yet freed. *)

val limbo_words : t -> int
val peak_limbo_objects : t -> int
val peak_limbo_words : t -> int

(** {1 Derived views} *)

val iter_lags : t -> (int -> unit) -> unit
(** Apply [f] to the retire→free lag (cycles) of every object with both
    stamps — the sample stream for the per-scheme latency histogram. *)

val stamps : t -> int -> (int * int option * int option) option
(** [stamps t birth] is [(alloc, retire, free)] times for that birth index,
    or [None] if it was never allocated.  Test/debug accessor. *)

val cross_check :
  t -> heap_allocs:int -> heap_frees:int -> heap_live:int -> string option
(** Compare the ledger against the heap's own counters (and the shadow
    state they mirror): allocs, frees and live population must agree, and
    the ledger must conserve [allocs = frees + live].  Returns a diagnostic
    message on divergence — the harness fails the run with it — and [None]
    when consistent or disabled. *)
