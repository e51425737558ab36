(** Virtual-time metrics sampling.

    A sampler thread (registered by [Experiment.run] when
    [metrics_interval] > 0) snapshots the machine-wide counters every N
    virtual cycles, producing the time series behind reclamation-stall and
    free-set-growth analyses: a throughput dip is attributable to the abort
    mix, a memory ramp to the pending-free backlog, in the same run.

    Samples hold cumulative counters; consumers difference consecutive
    samples for rates.  Because the simulator is deterministic, the series
    is a pure function of the seed and configuration. *)

type sample = {
  time : int;  (** Virtual time of the snapshot (sampler-core clock). *)
  ops : int;  (** Completed data-structure operations, all threads. *)
  live_objects : int;
  allocs : int;
  frees : int;
  retired : int;  (** Nodes handed to the scheme for reclamation. *)
  freed : int;  (** Nodes the scheme returned to the allocator. *)
  pending_frees : int;  (** Retired-but-unfreed backlog. *)
  starts : int;  (** Transactions started. *)
  commits : int;
  conflict_aborts : int;
  capacity_aborts : int;
  interrupt_aborts : int;
  explicit_aborts : int;
  scans : int;  (** Reclamation scan passes. *)
  scan_restarts : int;  (** StackTrack Alg. 1 inspection restarts. *)
  stall_cycles : int;  (** Cycles reclaimers spent blocked. *)
  context_switches : int;
  wasted_cycles : int;
      (** Cycles burnt inside aborted transactions so far (0 when the
          profiler is disabled) — makes a mid-run throughput dip
          attributable to wasted speculation in the same series. *)
}

type lifecycle_sample = {
  lc_time : int;  (** Virtual time of the snapshot. *)
  limbo_objects : int;  (** Retired-but-unfreed population. *)
  limbo_words : int;  (** Footprint of that population. *)
  live_words : int;  (** All live words (reachable + limbo). *)
  peak_limbo_words : int;  (** Running peak of [limbo_words]. *)
  quarantine : int;  (** Freed blocks held back from reuse. *)
  lc_retired : int;  (** Cumulative retirements (ledger view). *)
  lc_freed : int;  (** Cumulative frees (ledger view). *)
}
(** One snapshot of the memory-lifecycle ledger, taken by the lifecycle
    sampler (one per scheduler quantum when the feature is enabled).
    Distinct from {!sample} so the machine-counter series is byte-for-byte
    unchanged when the feature is off. *)

type t
(** An accumulating series of samples. *)

val create : interval:int -> t
(** [interval] must be positive. *)

val interval : t -> int
val push : t -> sample -> unit
val count : t -> int

val samples : t -> sample list
(** In push order (oldest first). *)
