(** Experiment runner: builds a simulated machine, a data structure, a
    reclamation scheme, and a set of worker threads; runs the schedule to
    completion and collects every statistic the paper's figures need.

    A run is a pure function of its configuration: every piece of machine
    state (scheduler, heap, shadow checker, HTM manager, trace, RNGs) is
    created inside {!run} and seeded from [cfg.seed], so two runs of the
    same config produce identical results — including when they execute
    concurrently in different domains (see {!Pool}). *)

type structure = List_s | Skiplist_s | Queue_s | Hash_s

val structure_name : structure -> string

type scheme_kind =
  | Original  (** no reclamation *)
  | Hazards
  | Epoch
  | Stacktrack_s of Stacktrack.St_config.t
  | Dta
  | Refcount_s
  | Immediate_unsafe
  | Debra  (** Distributed EBR: per-thread limbo bags, O(1)/op checks. *)
  | Debra_plus  (** {!Debra} + neutralization of stalled threads. *)
  | Hazard_eras  (** Era intervals; bounded backlog under crashes. *)

val stacktrack_default : scheme_kind
(** [Stacktrack_s St_config.default]. *)

val scheme_name : scheme_kind -> string

val scheme_aliases : (string * scheme_kind) list
(** Command-line scheme names, each kind's canonical name first
    ([original], [hazards], [epoch], [stacktrack], [dta], [refcount],
    [immediate], [debra], [debra+], [hazard-eras]), followed by its
    aliases.  [stacktrack] is {!stacktrack_default}. *)

val scheme_of_string : string -> (scheme_kind, string) result
(** Look a name up in {!scheme_aliases}; [Error] names the unknown input
    and lists the known names. *)

type config = {
  structure : structure;
  scheme : scheme_kind;
  threads : int;
  duration : int;  (** Virtual cycles per thread. *)
  key_range : int;
  init_size : int;
  mutation_pct : int;
  dist : St_workload.Workload.key_dist;
  n_buckets : int;  (** Hash table only. *)
  seed : int;
  cores : int;
  smt : int;
  quantum : int;
  cache : St_htm.Cache.t;
  backend : St_htm.Tsx.backend;  (** HTM (default) or the TL2-style STM. *)
  crash_tids : int list;  (** Threads crashed at ~25% of the run. *)
  metrics_interval : int;
      (** Sampling interval (cycles) for the full {!Metrics} time series
          (throughput, live objects, abort mix, pending frees, scans...);
          0 = off.  Like [lifecycle], this is a probe of the harness
          sampler thread, so a sampled run is a {e different schedule}
          from an unsampled one. *)
  trace : St_sim.Trace.t option;
      (** Event sink wired into the simulated machine; [None] (default)
          installs a disabled trace, so instrumentation costs nothing.
          A trace is single-run state: give each run its own. *)
  profile : bool;
      (** Enable the cycle-attribution profiler, and with it the touch
          counts of the per-line contention record ({!St_htm.Tsx.line_stats})
          behind the heat rows.  Both do pure arithmetic at existing charge
          sites (no RNG draws, no extra consumes), so the simulation
          result is identical with this on or off. *)
  lifecycle : bool;
      (** Enable the memory-lifecycle ledger (per-object alloc/retire/free
          stamps), its limbo-backlog/footprint time series, and the
          stalled-reclamation watchdog.  Unlike [profile], this is a probe
          of the harness sampler thread (one observation per scheduler
          quantum), so a flagged run is a {e different schedule} from an
          unflagged one — byte-identity is only promised for unflagged
          runs. *)
  forensics : bool;
      (** Enable the abort-forensics ledger ({!St_htm.Forensics}):
          who-doomed-whom attribution, per-cause wasted-cycle split,
          per-segment retry chains, and the split-predictor decision
          timeline.  Implies the internal cycle-attribution profiler
          (the wasted split needs the pending-transaction pot), but
          [result.profile] stays [None] unless [profile] is also set.
          Like [profile] it is pure arithmetic at existing charge sites —
          no RNG draws, no extra consumes, no extra threads — so the
          simulation result is identical with this on or off. *)
}

val default_config : config

type heat_row = { heat : St_htm.Tsx.line_stats; owner : string option }
(** A line of the per-line contention record plus the owning live object,
    formatted ["obj#<birth>@<base>+<offset>"] ([None] when the line's
    object was freed before the end of the run). *)

type lifecycle_summary = {
  lc_allocs : int;
  lc_retires : int;
  lc_frees : int;
  lc_live_at_end : int;
  limbo_at_end : int;  (** Objects still retired-but-unfreed at exit. *)
  limbo_words_at_end : int;
  peak_limbo_objects : int;
  peak_limbo_words : int;  (** Peak unreclaimed footprint (words). *)
  peak_live_words : int;
  lag_hist : Latency.t;  (** Retire→free latency distribution (cycles). *)
  lc_series : Metrics.lifecycle_sample list;
      (** One snapshot per scheduler quantum. *)
  watchdog : St_sim.Watchdog.report;
}
(** Everything [cfg.lifecycle] adds to a run.  Before this summary is
    built, the ledger is cross-checked against the heap/shadow census
    (allocs, frees, live population, and the [allocs = frees + live]
    conservation law); a divergence raises [Failure] — it would mean an
    instrumentation hole, not a property of the scheme under test. *)

type doomed_pair = { victim : int; aborter : int; dooms : int }
(** One cell of the who-doomed-whom matrix: [aborter]'s accesses doomed
    [victim]'s transactions [dooms] times. *)

type doomed_line_row = {
  dl_line : int;
  dl_dooms : int;
  dl_owner : string option;
      (** Owning live object, ["obj#<birth>@<base>+<offset>"]; [None] when
          the object was freed before the end of the run. *)
}

type forensics_summary = {
  fx_conflict_dooms : int;
  fx_capacity_dooms : int;
  fx_interrupt_dooms : int;
  fx_conflict_pairs : doomed_pair list;  (** Victim-major ascending. *)
  fx_capacity_pairs : doomed_pair list;
  fx_doomed_lines : doomed_line_row list;
      (** The per-line record's lines with conflict dooms, line
          ascending. *)
  fx_delivered : (string * int) list;
      (** Delivered aborts per cause (conflict/capacity/interrupt/explicit);
          sums to the {!St_htm.Htm_stats} abort total. *)
  fx_wasted : (string * int) list;
      (** Wasted cycles per delivered cause, plus the [unresolved] residue
          of threads that crashed mid-transaction. *)
  fx_wasted_total : int;  (** Sum of [fx_wasted]. *)
  fx_profile_wasted : int;
      (** The profiler's independent wasted-transaction account; always
          equals [fx_wasted_total] (checked at summary build, [Failure] on
          divergence). *)
  fx_retry_hist : Latency.t;
      (** Committed-chain retry depths (0 = first-try commits). *)
  fx_segments : St_htm.Forensics.segment list;
      (** Per-(op id, split) abort counts and retry-depth aggregates,
          aborts descending. *)
  fx_timeline : St_htm.Forensics.decision list;
      (** Every predictor limit change, in decision order. *)
  fx_timeline_dropped : int;
  fx_segments_tracked : int;  (** 0 for non-StackTrack schemes. *)
  fx_limits : Stacktrack.Engine.limit_row list;
      (** Final per-segment limit table; [[]] for non-StackTrack schemes. *)
}
(** Everything [cfg.forensics] adds to a run.  Before this summary is
    built, the per-cause wasted-cycle split is cross-checked against the
    profiler's wasted account; a divergence raises [Failure]. *)

type result = {
  cfg : config;
  total_ops : int;
  ops_per_thread : int array;
  makespan : int;  (** Max logical-core clock at completion. *)
  throughput : float;  (** Operations per million virtual cycles. *)
  htm : St_htm.Htm_stats.t;
  reclaim : St_reclaim.Guard.stats;
  st : Stacktrack.Scheme_stats.t option;  (** StackTrack runs only. *)
  violations : int;
  violation_samples : St_mem.Shadow.violation list;
  allocs : int;
  frees : int;
  live_at_end : int;
  context_switches : int;
  final_size : int;  (** Structure size after the run (raw count). *)
  leaked : int;  (** Live heap objects beyond the structure's final needs. *)
  latency : Latency.t;  (** Per-operation latency distribution (cycles). *)
  metrics : Metrics.sample list;
      (** Full counter time series when [metrics_interval] > 0. *)
  peak_live : int;
  profile : St_sim.Profile.snapshot option;
      (** Per-thread cycle accounts; [Some] iff [cfg.profile].  Satisfies
          the conservation invariant: accounts sum to each thread's clock
          advance ({!St_sim.Profile.conserved}). *)
  heatmap : heat_row list option;
      (** The 16 hottest lines of the per-line record: conflicts
          descending, then touches descending, then line ascending; [Some]
          iff [cfg.profile]. *)
  lifecycle : lifecycle_summary option;  (** [Some] iff [cfg.lifecycle]. *)
  forensics : forensics_summary option;  (** [Some] iff [cfg.forensics]. *)
  conflict_lines : (int * int) list;
      (** Per-cache-line conflict-doom counts from the per-line record
          (always counted), (line, dooms) sorted dooms-descending then
          line-ascending.  Feeds the text report's doomed-by table; never
          emitted to JSON, so unflagged artifacts are unchanged. *)
  extras : (string * int) list;
      (** Scheme-specific end-of-run counters — DEBRA+ reports
          [neutralizations]/[recoveries], Hazard Eras its final [era];
          [[]] for the classic schemes, so their JSON output (and the
          committed goldens) are unchanged. *)
  resident_words : int;
      (** Words of heap backing store at end of run
          ({!St_mem.Heap.resident_words}: touched chunks x chunk size
          across the four per-address tables).  Never emitted to JSON; the
          scale figure reports it as the memory-proportionality proof. *)
  line_table_words : int;
      (** Words held by the HTM layer's chunked per-line coherence/conflict
          tables ({!St_htm.Tsx.line_table_words}); never emitted to JSON. *)
}

val run : config -> result
(** Run one experiment to completion.  Deterministic in [cfg]; touches no
    state outside the values it creates, so concurrent calls from
    different domains are independent.

    The simulated threads are the [cfg.threads] workers (tids 0 to
    [threads - 1]), then the crash injector when [crash_tids] is not
    empty, then at most one harness sampler thread.  The sampler runs
    when [metrics_interval > 0] or [lifecycle] is set, and takes both
    samples; when both are due at one tick, the metrics sample comes
    first. *)
