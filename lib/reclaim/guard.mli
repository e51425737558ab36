(** The common interface between concurrent data structures and memory
    reclamation schemes.

    Every data structure in [st_dslib] is a functor over {!S}, so the same
    algorithm runs unchanged under StackTrack, hazard pointers, epochs,
    reference counting, drop-the-anchor, immediate (unsafe) freeing, or no
    reclamation at all — mirroring the paper's benchmark methodology.

    The contract for operation bodies passed to {!S.run_op}:

    - All shared-memory access goes through the [env] operations; all
      randomness through [rand]; all allocation through [alloc]/[retire].
    - The body must be a deterministic function of the values returned by
      those operations: StackTrack re-executes the body after a hardware
      abort, replaying the already-committed prefix from a log (this models
      the register rollback + re-execution of a real HTM segment restart).
      Bodies must not mutate OCaml state other than through [env].
    - A simulated pointer that will still be dereferenced after the next
      [env] memory operation must be stored in a frame local ([local_set]):
      frame locals and the 16 most recently loaded values are what a
      reclaiming thread's scan can see, exactly like spilled locals and
      registers of compiled code.  (Violations of this discipline are not
      type errors; they are caught by the use-after-free shadow checker in
      the stress tests.)
    - [protected_read ~slot] marks loads of node pointers that the thread
      will traverse through.  Pointer-based schemes (hazard pointers,
      reference counting, drop-the-anchor) hook their per-node protection
      here — the manual, structure-specific effort the paper criticises.
      Automatic schemes (StackTrack, epoch, none) treat it as a plain
      read.

    {2 The bookkeeping contract}

    Schemes differ in how they protect a node; the rest of its lifecycle
    is common, and every scheme routes it through four calls:

    - {!retire} once per node handed over for eventual reclamation (for
      StackTrack, only once its split-segment commit makes the retirement
      real);
    - {!scan} around each reclamation pass over the scheme's buffer;
    - {!free} to return a retired node to the allocator.  It takes a
      {!pass}, the capability that {!scan} hands to its body, so a
      reclamation free outside a pass does not type-check;
    - {!stall} around each wait for other threads (a grace period, or
      DTA's snapshot-and-freeze).

    Two schemes free without a pass and hold the one named {!eager}
    capability instead: RefCount frees a retired node when its count
    reaches zero, and Immediate frees at retire.  No scheme calls
    [Tsx.free] or [Heap.free] itself; StackTrack's rollback of a
    speculative allocation is not a reclamation and calls [Heap.free]
    directly.  A free allocates nothing, and a pass at most a constant.

    The runtime holds no thread registry: each scheme that inspects other
    threads owns a {!St_machine.Activity.t}.

    They keep the counters below and the reclamation-lag aggregates, emit
    the [reclaim] trace events [retire], [scan] and [stall], and charge
    the pass and the wait to the profiler's [reclaim_scan] and
    [reclaim_stall] accounts.  All four run on the thread doing the work,
    so the thread they name is [Sched.current]; none takes a tid, and
    schemes whose thread state has none can call them.  A scheme without
    a retirement buffer passes [~pending:0].

    When the harness has attached a run-wide [Lifecycle] ledger,
    retirements are forwarded to it.  Frees are deliberately {e not}
    forwarded here: the ledger stamps them inside [Heap.free], the single
    funnel all free paths share, so engine rollbacks of speculative
    allocations are counted and double-stamping is impossible.

    Era-stamping schemes (Hazard Eras) keep their own birth/retire era
    side tables keyed by [Heap.birth_ix], the same monotone index the
    [Lifecycle] ledger uses for its timestamp arrays.  The two
    bookkeepings compose without coordination: both are written on the
    alloc/retire/free funnels above, both tolerate index reuse because a
    freed base's [birth_ix] is retired with it, and neither reads the
    other — so era schemes satisfy the ledger's [allocs = frees + live]
    conservation cross-check exactly like the classic schemes, and the
    lifecycle limbo series measures era-bounded backlog with no
    scheme-specific plumbing. *)

open St_sim
open St_mem
open St_htm

(** {1 Shared runtime} *)

type runtime = { sched : Sched.t; tsx : Tsx.t }
(** Simulation plumbing handed to every scheme instance. *)

val make_runtime : sched:Sched.t -> tsx:Tsx.t -> runtime
val heap : runtime -> Heap.t

(** {1 Uniform statistics} *)

(** Counters common to all schemes; figures and tests read these.  The
    retire/free bookkeeping also measures {e reclamation lag} — the virtual
    time between a node's retirement and its return to the allocator —
    which distinguishes prompt schemes (immediate refcount drops) from
    batched ones (scans) from stalling ones (epoch under delays). *)
type stats = {
  mutable retired : int;  (** Nodes handed to [retire]. *)
  mutable freed : int;  (** Nodes actually returned to the allocator. *)
  mutable scans : int;  (** Reclamation passes (scan/collect rounds). *)
  mutable scan_words : int;  (** Words inspected by scans. *)
  mutable stall_cycles : int;  (** Cycles spent in [stall] waits. *)
  mutable protect_fences : int;  (** Fences issued by per-read validation. *)
  retire_stamp : (int, int) Hashtbl.t;  (** addr -> retire time (pending). *)
  mutable lag_sum : int;  (** Sum of retire->free lags, freed nodes. *)
  mutable lag_max : int;
  mutable lifecycle : Lifecycle.t;
      (** Lifecycle ledger notified of retirements (default
          {!Lifecycle.disabled}); the harness attaches the run's ledger. *)
}

val make_stats : unit -> stats

val retire : runtime -> stats -> pending:int -> Word.addr -> unit
(** [retire rt stats ~pending addr]: the node at [addr] was handed over
    for reclamation.  Emits the [retire] instant ([addr=… pending=…]),
    counts it and stamps its retire time.  [pending] is the number of
    nodes now in the caller's buffer, this one included, or 0 for a scheme
    without a buffer. *)

type pass
(** The capability to free: held by the body of a {!scan}, and by the two
    schemes given {!eager}. *)

val scan : runtime -> stats -> pending:int -> (pass -> int) -> unit
(** [scan rt stats ~pending body]: one reclamation pass over a buffer of
    [pending] nodes.  Counts the pass and runs [body] under the
    [Reclaim_scan] profiler mode (popped even if [body] raises) inside
    the [scan] span.  [body] frees through the {!pass} it is given and
    returns how many nodes it kept; the span ends with
    [freed=… held=…]. *)

val free : pass -> Word.addr -> unit
(** [free pass addr]: {!Tsx.free} the retired node at [addr], count it in
    the pass's stats, and add its retire-to-free lag to the aggregates.
    Allocates nothing. *)

val eager : runtime -> stats -> pass
(** The capability to free outside a pass, for RefCount and Immediate
    only; each makes it once, at creation. *)

val stall : runtime -> stats -> (unit -> bool) -> bool
(** [stall rt stats body]: one wait for other threads.  Runs [body] under
    the [Reclaim_stall] profiler mode inside the [stall] span, adds the
    cycles it took to [stall_cycles], and returns [body]'s verdict: [true]
    when every thread it waited on made progress.  The span ends with
    [cycles=… grace=…]. *)

val mean_lag : stats -> float

(** {1 The scheme interface} *)

module type S = sig
  type t
  (** Scheme instance, shared by all threads of a run. *)

  type thread
  (** Per-thread reclamation state. *)

  type env
  (** Handle threaded through one data-structure operation. *)

  val create_thread : t -> tid:int -> thread
  (** Must be called from within the simulated thread's body. *)

  val run_op : thread -> op_id:int -> (env -> 'a) -> 'a
  (** Run one data-structure operation.  The body may be invoked several
      times (see the module comment); its final return value is returned. *)

  val read : env -> Word.addr -> Word.value
  val write : env -> Word.addr -> Word.value -> unit
  val cas : env -> Word.addr -> expect:Word.value -> Word.value -> bool

  val protected_read : env -> slot:int -> Word.addr -> Word.value
  (** Load a node pointer the thread is about to traverse through,
      announcing it to the scheme if the scheme needs announcements. *)

  val release : env -> slot:int -> unit
  (** Drop the protection of [slot] (no-op for automatic schemes). *)

  val protect_value : env -> slot:int -> Word.value -> unit
  (** Publish protection for a value that is {e already} safe to hold —
      either still thread-private (a freshly allocated node about to be
      published) or currently protected by another slot (Michael's
      [hp0 := hp1] hazard-copy idiom, needed by the skip list to pin
      per-level predecessors).  Unlike {!protected_read} no validation is
      required, precisely because of that precondition. *)

  val local_set : env -> int -> Word.value -> unit
  val local_get : env -> int -> Word.value

  val block : env -> unit
  (** Explicit basic-block boundary (StackTrack split checkpoint site). *)

  val rand : env -> int -> int
  (** Deterministic, replay-stable randomness in [\[0, bound)]. *)

  val alloc : env -> size:int -> Word.addr
  val retire : env -> Word.addr -> unit
  (** Hand an unlinked node to the scheme for eventual freeing. *)

  val quiesce : thread -> unit
  (** Between-operations hook: flush per-thread buffers so that a thread
      that stops issuing operations does not hold back reclamation forever
      (used at the end of benchmark runs and in tests). *)

  val stats : t -> stats
end
