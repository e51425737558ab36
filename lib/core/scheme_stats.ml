(** StackTrack-specific counters behind Figures 3-5 and the scan-behaviour
    analysis of §6. *)

type t = {
  mutable ops : int;  (** Completed data-structure operations. *)
  mutable fast_ops : int;  (** Ops completed entirely on the fast path. *)
  mutable slow_ops : int;  (** Ops that executed (partly) on the slow path. *)
  mutable segments : int;  (** Committed transactional segments. *)
  mutable segment_len_sum : int;
      (** Total basic blocks across committed segments (avg split length =
          this / segments, Figure 4). *)
  mutable replays : int;  (** Segment restarts (one per hardware abort). *)
  mutable scans : int;  (** Global scan passes. *)
  mutable scan_restarts : int;
      (** Per-thread inspection restarts forced by a concurrent split
          commit (the Alg. 1 counter protocol). *)
  mutable inspections : int;  (** Thread stacks inspected. *)
  mutable stack_words : int;  (** Words compared during scans. *)
  mutable slow_reads : int;  (** SLOW_READ invocations. *)
  mutable slow_validation_failures : int;
  mutable segments_tracked : int;
      (** Distinct (op id, split index) segments across all predictors,
          filled in at end of run (see {!Engine.segments_tracked}). *)
}

let create () =
  {
    ops = 0;
    fast_ops = 0;
    slow_ops = 0;
    segments = 0;
    segment_len_sum = 0;
    replays = 0;
    scans = 0;
    scan_restarts = 0;
    inspections = 0;
    stack_words = 0;
    slow_reads = 0;
    slow_validation_failures = 0;
    segments_tracked = 0;
  }

let avg_splits_per_op t =
  if t.ops = 0 then 0. else float_of_int t.segments /. float_of_int t.ops

let avg_segment_length t =
  if t.segments = 0 then 0.
  else float_of_int t.segment_len_sum /. float_of_int t.segments

let pp ppf t =
  Format.fprintf ppf
    "ops=%d (fast=%d slow=%d) segments=%d avg_splits/op=%.2f avg_len=%.2f \
     replays=%d scans=%d restarts=%d"
    t.ops t.fast_ops t.slow_ops t.segments (avg_splits_per_op t)
    (avg_segment_length t) t.replays t.scans t.scan_restarts;
  if t.segments_tracked > 0 then
    Format.fprintf ppf " tracked=%d" t.segments_tracked
