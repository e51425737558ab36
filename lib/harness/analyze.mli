(** Offline analysis of result JSON artifacts: human-readable reports
    and tolerance-gated diffs.

    The diff side compares two result documents: flatten both to dotted
    leaf paths ([htm.aborts.conflict], [metrics[3].ops], …; an empty list
    or object below the root is a leaf), compare numerics under a
    per-path relative tolerance, and return every drift.  Its use is
    re-baselining: a change that moves a pinned golden on purpose diffs
    the old file against the regenerated one to list the metrics that
    moved.  The pins themselves are byte comparisons in the test suite.
    [bench/analyze.exe] turns a non-empty drift list into a nonzero
    exit. *)

(** {2 Tolerances} *)

type tolerances = { default : float; rules : (string * float) list }
(** [rules] bind a path (or subtree prefix) to a relative tolerance;
    unmatched paths use [default].  A tolerance of [infinity] ignores
    the path entirely, including presence/type mismatches. *)

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
    order (second-side-only paths last).  [tols] defaults to zero
    tolerance everywhere.  Empty means "within tolerance". *)

val pp_drift : Format.formatter -> drift -> unit
(** One line: path, both values, and the relative delta vs tolerance. *)

(** {2 Report} *)

val report : Format.formatter -> Json_out.t -> unit
(** Render a result artifact as text: config and headline counters, the
    HTM starts, commits and abort mix, reclamation totals, the StackTrack
    scheme stats and scheme extras when present, heap and run counters
    with any violation samples, the latency tail, a trace-truncation
    warning when [trace_dropped > 0], and the sections of the
    observability flags present: cycle accounts and contention heatmap,
    memory lifecycle, and abort forensics with the five most-doomed lines.
    Floats print in {!Json_out}'s [%.6g], so a result document and its
    parsed JSON render the same bytes.  A list of results (a [figures
    --json-out] artifact) renders each in order, a blank line between
    them.
    @raise Invalid_argument before printing anything when the document is
    neither a result object (one with a [config] member) nor a list of
    them. *)
