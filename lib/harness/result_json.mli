(** Machine-readable encoding of {!Experiment.result}.

    One JSON object per run: the configuration that produced it, the
    headline numbers (throughput, abort mix, reclamation counters), the
    latency distribution summary, and the sampled time series — everything
    a figure script or [bench/analyze.exe] needs without scraping the text
    tables.  Output is deterministic for a given seed/configuration (see
    {!Json_out}).

    Sections gated on run options are appended after the always-present
    fields, so artifacts from runs without them are byte-identical to
    pre-profiler goldens:
    - [trace_dropped] — when the run recorded a trace ([cfg.trace]);
    - [latency_hist], [profile], [heatmap] — when [cfg.profile] was set;
    - [reclaim_lifecycle] — when [cfg.lifecycle] was set: the ledger
      census, retire→free lag summary + sparse histogram, the per-quantum
      limbo/footprint series, and the watchdog stagnation report. *)

val encode : Experiment.result -> Json_out.t
(** The complete result document. *)

val to_string : Experiment.result -> string

(** {2 Flamegraph collapsed-stack export} *)

val flame_lines : Experiment.result -> string list
(** One ["scheme;tid<N>;account cycles"] line per (thread, account) with
    nonzero cycles — tid ascending, accounts in {!St_sim.Profile.accounts}
    order, an [idle] frame last.  Empty for unprofiled runs.  Feed to
    [flamegraph.pl] or speedscope. *)

val write_flame_file : string -> Experiment.result list -> unit
(** Concatenate the collapsed stacks of several runs into one file. *)
