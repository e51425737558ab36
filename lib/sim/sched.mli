(** Deterministic cooperative scheduler for simulated threads.

    The scheduler is discrete-event: every simulated thread runs inside an
    effect handler and surrenders control when the cycles it consumes
    (every simulated memory access charges some) would let another thread
    run first.  The next thread is always the runnable one whose logical
    core has the smallest virtual clock (the lowest-indexed such core on
    ties), so a run is a deterministic function of the seed and the thread
    bodies.  There is no dispatch loop: the handler of the thread that
    stops picks and resumes the next one itself, in tail position, so a
    switch is one effect and one resume, and the host stack stays flat
    however many switches a run makes.

    Modelled behaviours needed by the paper's evaluation:
    - per-logical-core virtual clocks (throughput = ops / max clock);
    - SMT siblings sharing a physical core get a cycle penalty when both are
      active (HyperThreading slowdown);
    - when more threads than logical cores exist, threads on the same logical
      core are time-multiplexed with a quantum; expiry costs a context switch
      and fires preemption hooks (the HTM layer uses these to abort in-flight
      transactions, modelling the timer interrupt clearing the cache);
    - threads can be crashed (never scheduled again) for failure injection. *)

type t

exception Thread_crashed
(** Raised inside a fiber that is being destroyed by {!crash}. *)

exception Signal_interrupt
(** Raised inside a fiber that was {!signal}led while suspended, at its
    next resume point — the simulated siglongjmp out of the interrupted
    operation.  Unlike {!Thread_crashed} it is meant to be caught: the
    non-HTM schemes' shared operation wrapper ([St_reclaim.Simple.Make])
    catches it and restarts the operation on the recovery path. *)

val create :
  ?topology:Topology.t ->
  ?costs:Costs.t ->
  ?quantum:int ->
  ?ht_penalty_pct:int ->
  ?trace:Trace.t ->
  ?profile:Profile.t ->
  seed:int ->
  unit ->
  t
(** [quantum] is the multiplexing time slice in cycles (default 50_000).
    [ht_penalty_pct] is the percentage cost multiplier applied when both SMT
    siblings are active (default 140, i.e. 1.4x).  [trace] is the event
    sink shared by every layer built on this scheduler (default: a disabled
    trace, so all instrumentation is free).  [profile] is the
    cycle-attribution ledger; every {!consume} and preemption charge is
    mirrored into it (default: disabled, all charges free). *)

val costs : t -> Costs.t
val topology : t -> Topology.t
val rng : t -> Rng.t
(** Scheduler-level generator; threads should use {!thread_rng}. *)

val trace : t -> Trace.t
(** The machine-wide event trace.  The scheduler emits [Sched]-category
    events (preempt, context-switch, crash, finish); the HTM, reclamation,
    and engine layers reach the same sink through this accessor. *)

val profile : t -> Profile.t
(** The cycle-attribution profiler.  The scheduler is its only charge
    site; upper layers annotate it (txn boundaries, modes, coherence)
    through this accessor. *)

val add_thread : t -> (int -> unit) -> int
(** [add_thread t body] registers a thread; [body] receives the thread id.
    Must be called before {!run}.  Returns the thread id.  Raises
    [Invalid_argument] when the new tid would reach
    {!Topology.max_threads}: every tid-indexed table has that many
    slots. *)

val thread_rng : t -> int -> Rng.t
(** Independent per-thread stream, split deterministically from the seed. *)

val on_preempt : t -> (int -> unit) -> unit
(** Register a hook fired with the thread id whenever that thread is
    preempted at quantum expiry (before the context-switch cost is charged).
    Also fired when a thread is crashed. *)

val run : t -> unit
(** Run every registered thread to completion (or crash).  [run] starts
    the first thread; from there each thread's turn ends in its handler,
    which runs the next, and [run] returns once every queue is empty.
    Exceptions other than {!Thread_crashed} escaping a thread body abort
    the run and are re-raised.  No thread is current afterwards, and the
    scheduler can still be queried. *)

(** {2 Called from inside thread bodies} *)

val consume : t -> int -> unit
(** [consume t c] charges [c] cycles to the calling thread's core and yields
    to the scheduler.  Internally a trampoline: the charge is a plain
    function call (three int updates and one compare against the
    precomputed event-wheel horizon), and the thread only performs the
    scheduling effect — continuation capture, handler, re-pick — when
    yielding would actually transfer control: another runnable lcore's
    clock is crossed, or the quantum expires on a contended queue.  The
    resulting schedule is identical to yielding on every charge.

    With a crossing pending from {!consume_deferred}, [consume] yields for
    that crossing and leaves [c] unapplied; the scheduler applies it when
    it next picks the thread, at the point of the event order where the
    resumed thread would have made it, and resumes the thread only if it
    still wins the pick.  If the thread is crashed or signalled in
    between, [c] is never charged. *)

val consume_deferred : t -> int -> unit
(** [consume_deferred t c] charges [c] exactly as {!consume} does, but a
    charge that reaches the horizon does not yield: the crossing stays
    pending until the thread's next {!consume} or {!sync}, which yields
    for it, so one effect round trip serves two charges.  The contract:
    until its next call into [Sched] or [Tsx], the caller touches only
    thread-private state (its own locals, registers, log and counters).
    Every [Sched] call that reads or changes state other threads see —
    {!now}, {!now_or_global}, {!global_time}, {!sibling_active},
    {!crashed}, {!finished}, {!crash}, {!signal}, {!sleep_until} and the
    counters — runs {!sync} first, and so does every [Tsx] entry point
    that touches shared state.  Under that contract the schedule, every
    clock and every ledger are those of {!consume}.  A thread body that
    returns with a crossing pending takes it first.  Callers: the closing
    charges of [Tsx]'s transactional read and write, and the hazard
    announce store before its fence. *)

val sync : t -> unit
(** [sync t] takes the calling thread's pending crossing, if any, as a
    plain yield: the yield {!consume} would have made at that crossing.
    A no-op when nothing is pending, and outside thread bodies. *)

val sleep_until : t -> deadline:int -> unit
(** [sleep_until t ~deadline] is [consume t d], where [d] is the distance
    from the calling thread's clock to the absolute tick [deadline] (at
    least 1 cycle when the deadline has already passed) — the harness
    sampler's timed-wait idiom.  Like any charge, [d] is scaled by the SMT
    penalty while the sibling lcore is live, so the thread can wake past
    [deadline]: under the default 140% penalty, a thread at clock 0 with a
    deadline of 100000 wakes at 140000, and from there a deadline of 200000
    wakes at 224000. *)

val current : t -> int
(** Id of the running thread.  Only valid inside a thread body. *)

val now : t -> int
(** Virtual clock of the calling thread's logical core. *)

val global_time : t -> int
(** Max over all logical-core clocks; total makespan after {!run}. *)

val now_or_global : t -> int
(** {!now} when called from inside a thread body, {!global_time} otherwise.
    For passive instrumentation (the memory-lifecycle ledger) that stamps
    events both during the run and during raw setup/teardown, where no
    simulated thread is current and every core clock is still equal. *)

val crash : t -> int -> unit
(** [crash t tid] destroys thread [tid]: it is unwound with
    {!Thread_crashed} the next time it would run, and never completes.
    Fires preemption hooks for [tid]. *)

val crashed : t -> int -> bool
val finished : t -> int -> bool

val set_signal_handler : t -> tid:int -> (unit -> unit) -> unit
(** Register the simulated signal handler for thread [tid].  The handler
    runs synchronously when {!signal} is delivered — in the simulation it
    executes in the sender's context, because all it may do is mutate
    shared scheme state (what a real handler running on the victim's stack
    would publish).  Only valid after {!run} has started (i.e. from inside
    thread bodies). *)

val signal : t -> int -> unit
(** [signal t tid] delivers a simulated POSIX signal to thread [tid]: the
    registered handler (if any) runs immediately, and — when the victim is
    suspended mid-operation — its continuation is replaced so the victim
    unwinds with {!Signal_interrupt} at its next resume instead of
    completing the interrupted operation.  This is the DEBRA+
    neutralization primitive: the victim provably never finishes an
    operation begun before the signal, so state published by the handler
    (e.g. a quiescent announcement) is safe.  Crashed, doomed, finished
    and not-yet-started victims only get the handler side effect; a
    pending signal is not duplicated; a thread signalling itself unwinds
    immediately.  Delivery itself charges no cycles — callers model the
    syscall cost.  A later {!crash} of a signalled victim wins (the thread
    dies without resuming). *)

val lcore_of : t -> int -> int
(** Logical core a thread is pinned to. *)

val sibling_active : t -> int -> bool
(** [sibling_active t tid] is true when the SMT sibling core of [tid]'s
    logical core currently hosts live (unfinished, uncrashed) threads.  The
    HTM layer uses this to halve effective L1 associativity.  O(1): the
    scheduler maintains an exact per-lcore live-thread count across all
    state transitions, so this is two array reads — it sits on the
    cycle-charging path of every simulated memory access. *)

val context_switches : t -> int
(** Total preemptions performed so far. *)

val yields : t -> int
(** Scheduling effects performed so far: one per fiber suspend and resume
    round trip.  A deferred crossing and the charge after it share one;
    an owed charge that the scheduler applies performs none. *)

val dispatches : t -> int
(** Threads the scheduler has picked and run so far: first starts,
    resumes, owed charges it applied (resuming the thread or not) and
    unwinds of crashed or signalled threads.  The count of switches the
    schedule makes with every crossing taken eagerly, so deferring a
    crossing leaves it unchanged. *)

val consumed_by_thread : t -> int array
(** Total cycles each registered thread has advanced its core's clock by
    (consume charges plus context-switch overhead attributed to it),
    indexed by tid.  The scheduler's own ledger, independent of
    {!Profile} accounting — the conservation test compares the two.  Only
    valid after {!run} starts. *)

val n_threads : t -> int
(** Number of registered threads (valid before and after {!run}). *)
