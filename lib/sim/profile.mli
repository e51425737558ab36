(** Deterministic cycle-attribution profiler.

    Every virtual cycle a thread consumes is charged to exactly one typed
    account, at the sites where the simulator already advances virtual time
    ([Sched.consume], the scheduler's preemption path).  The layers above
    only annotate: the HTM manager marks transaction boundaries and
    coherence-miss components, StackTrack and the reclamation schemes push
    attribution modes around their slow paths, scans and grace-period
    stalls.  Work done inside a transaction is held pending and classified
    as committed (useful) or wasted (aborted speculation) only when the
    transaction resolves.

    The module does no RNG draws and no [Sched.consume] calls of its own,
    so enabling it cannot perturb a run: same-seed results are identical
    with profiling on or off.

    Conservation invariant: for every thread, the sum over accounts equals
    the thread's total clock advance as tracked independently by [Sched]
    (checked by [conserved], exercised in the test suite across all
    schemes). *)

type account =
  | Committed_txn  (** work inside transactions that committed *)
  | Wasted_txn  (** work inside transactions that aborted *)
  | Slow_path  (** StackTrack non-speculative slow path (Alg. 5) *)
  | Non_txn  (** untracked application / scheme work *)
  | Reclaim_scan  (** scan-and-free, hazard scans, epoch/DTA sweeps *)
  | Reclaim_stall  (** waiting for a grace period / DTA snapshot spin *)
  | Coherence  (** cache-line transfer latency component *)
  | Ctx_switch  (** scheduler context-switch overhead *)

val accounts : account list
(** All accounts, in canonical report order. *)

val account_index : account -> int
(** Position of an account in {!accounts} (and in snapshot arrays). *)

val account_name : account -> string
(** Stable snake_case name used in JSON and flamegraph output. *)

type t

val create : ?enabled:bool -> unit -> t
(** A profiler; [enabled] defaults to [false], in which case every
    operation below is a no-op and snapshots are all-zero. *)

val enabled : t -> bool

(** {1 Charge sites} — called by [Sched] only. *)

val charge : t -> tid:int -> int -> unit
(** Attribute [cost] cycles consumed by thread [tid]: first to any pending
    coherence component, then to the open transaction (if any), else to the
    top of the mode stack (default {!Non_txn}). *)

val charge_switch : t -> tid:int -> int -> unit
(** Attribute context-switch overhead, bypassing txn/mode attribution. *)

(** {1 Annotations} — called by the layers above. *)

val note_coherence : t -> tid:int -> int -> unit
(** Declare that [cost] cycles of the next charge are coherence-miss
    latency.  Must be followed by a [Sched.consume] of at least that
    cost. *)

val txn_begin : t -> tid:int -> unit
val txn_commit : t -> tid:int -> unit
val txn_abort : t -> tid:int -> unit

val push_mode : t -> tid:int -> account -> unit
val pop_mode : t -> tid:int -> unit

val wasted_cycles : t -> n_threads:int -> int
(** Current total of {!Wasted_txn} over threads [0..n_threads-1]; cheap
    enough for the metrics sampler. *)

val pending_txn : t -> tid:int -> int
(** Cycles charged to [tid]'s still-open transaction, not yet resolved to
    committed or wasted; 0 when disabled or no transaction is open.  Read
    by the abort-forensics ledger at delivery to split the wasted account
    per abort cause, and by the end-of-run sweep to account for threads
    that crashed mid-transaction. *)

(** {1 Snapshots} *)

type thread_snapshot = {
  tid : int;
  cycles : int array;  (** per-account cycles, indexed like {!accounts} *)
  charged : int;  (** profiler's own running total for this thread *)
  consumed : int;  (** scheduler's independent clock-advance total *)
  idle : int;  (** max(0, makespan - consumed) *)
}

type snapshot = { makespan : int; threads : thread_snapshot list }

val snapshot : t -> consumed:int array -> makespan:int -> snapshot
(** [consumed.(tid)] must be the scheduler's per-thread consumed-cycles
    ledger; threads are emitted for [0..Array.length consumed - 1].  A
    still-open transaction's pending cycles are reported as wasted (the
    thread crashed or the run ended mid-speculation). *)

val totals : snapshot -> int array
(** Per-account sums over all threads. *)

val conserved : snapshot -> bool
(** True iff, for every thread, accounts sum to both the profiler's and
    the scheduler's independent totals. *)

val pp_snapshot : Format.formatter -> snapshot -> unit
