(** Chrome trace-event export for {!St_sim.Trace}.

    Emits the JSON Object Format of the Trace Event specification, loadable
    in Perfetto ({:https://ui.perfetto.dev}) or [chrome://tracing].  Each
    simulated thread becomes one timeline row; [Begin]/[End] events render
    as duration slices (transactions, segments, scans, stalls) and
    [Instant] events as markers (retire, preempt, abort).  Virtual cycles
    are mapped 1:1 onto the format's microsecond timestamps.

    The export is deterministic: two runs with the same seed and
    configuration produce byte-identical files.  The [otherData] section
    carries the ring's recorded/dropped totals, so a truncated trace is
    detectable from the file alone. *)

val to_string : ?pid:int -> St_sim.Trace.t -> string
(** The full trace document; [pid] (default 0) labels the process row. *)

val write_file : ?pid:int -> string -> St_sim.Trace.t -> unit
(** [write_file path trace] writes {!to_string} to [path]. *)
