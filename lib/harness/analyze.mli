(** Offline analysis of result JSON artifacts: human-readable reports
    and tolerance-gated diffs.

    The diff side is the CI regression gate: flatten two artifacts to
    dotted leaf paths ([htm.aborts.conflict], [metrics[3].ops], …),
    compare numerics under a per-path relative tolerance, and return
    every drift.  [bench/analyze.exe] turns a non-empty drift list into
    a nonzero exit. *)

(** {2 Tolerances} *)

type tolerances = { default : float; rules : (string * float) list }
(** [rules] bind a path (or subtree prefix) to a relative tolerance;
    unmatched paths use [default].  A tolerance of [infinity] ignores
    the path entirely, including presence/type mismatches. *)

val exact : tolerances
(** Zero tolerance everywhere — byte-level numeric equality. *)

val tol_for : tolerances -> string -> float
(** Resolve the tolerance for one path: the longest rule whose path
    equals the metric path or is a ['.' / '\['] -delimited prefix of it
    wins; otherwise [default]. *)

(** {2 Diff} *)

type drift = {
  path : string;
  a : Json_out.t option;  (** [None] when missing on the first side. *)
  b : Json_out.t option;  (** [None] when missing on the second side. *)
  tol : float;
  rel : float;
      (** Relative delta [|x-y| / max |x| |y|] for numeric drifts;
          [nan] for type/presence mismatches. *)
}

val diff : ?tols:tolerances -> Json_out.t -> Json_out.t -> drift list
(** All out-of-tolerance leaves between two artifacts, in first-document
    order (second-side-only paths last).  Empty means "within
    tolerance" — the gate passes. *)

val pp_drift : Format.formatter -> drift -> unit
(** One line: path, both values, and the relative delta vs tolerance. *)

(** {2 Report} *)

val report : Format.formatter -> Json_out.t -> unit
(** Render one result artifact: config and headline counters, the HTM
    abort mix, reclamation totals, latency tail, a trace-truncation
    warning when [trace_dropped > 0], and — when present — the cycle
    account breakdown and contention heatmap. *)
