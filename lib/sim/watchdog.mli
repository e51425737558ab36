(** Stalled-reclamation watchdog.

    Detects {e reclamation stagnation}: a scheme whose retire backlog keeps
    growing while its free counter makes no progress — the signature of a
    preempted or crashed thread pinning an epoch/era (the paper's §1
    "unbounded amount of unreclaimed memory" failure mode), and the
    behaviour StackTrack's stack scans are designed to avoid.

    The watchdog is entirely passive: it owns no simulated thread and
    consumes no virtual cycles.  A sampler (the lifecycle probe of the
    harness sampler thread, one observation per scheduler quantum) feeds it
    cumulative [(progress, backlog)] pairs; an incident opens when
    [threshold] consecutive observations show no progress {e and} the
    backlog has grown since the stall began, and closes at the first
    observation where progress resumes or the backlog drains.  A backlog that is merely
    constant (an idle tail with nothing being retired) never fires.

    Note that the no-reclamation baseline ("Original") is permanently
    stalled by design — its backlog only grows — so the watchdog reports
    one ongoing incident for it, which is the correct reading.

    Incident boundaries are emitted as typed {!Trace} spans (category
    [Reclaim], name ["stagnation"]) so they line up with scans and stalls
    on the exported timeline; {!report} summarises them per run. *)

type incident = {
  start_time : int;  (** First no-progress observation of the stall. *)
  mutable end_time : int;  (** Observation that ended it; [-1] if never. *)
  backlog_at_start : int;
  mutable peak_backlog : int;
  mutable stalled_observations : int;
}

type t

val create : ?threshold:int -> trace:Trace.t -> unit -> t
(** [threshold] (default 3, must be ≥ 1) is the number of consecutive
    no-progress observations — i.e. sampler quanta — before a stall is
    flagged. *)

val observe : t -> time:int -> tid:int -> progress:int -> backlog:int -> unit
(** Feed one observation.  [progress] is a cumulative monotone counter of
    reclamation work (the scheme's freed count); [backlog] the current
    retired-but-unfreed population.  [tid] attributes the trace events
    (the sampler thread). *)

type report = {
  incidents : incident list;  (** Oldest first; the last may be ongoing. *)
  n_incidents : int;
  total_stalled_cycles : int;
      (** Sum of incident durations; ongoing incidents count up to the
          [now] passed to {!report}. *)
  max_backlog : int;
  ongoing : bool;  (** An incident was still open at report time. *)
  n_observations : int;
}

val report : t -> now:int -> report
