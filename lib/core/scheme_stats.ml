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
  }

let avg_splits_per_op t =
  if t.ops = 0 then 0. else float_of_int t.segments /. float_of_int t.ops

let avg_segment_length t =
  if t.segments = 0 then 0.
  else float_of_int t.segment_len_sum /. float_of_int t.segments
