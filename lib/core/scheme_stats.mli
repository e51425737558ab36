(** StackTrack-specific counters behind Figures 3-5 and the scan-behaviour
    analysis of §6.

    The record is exposed concretely (and mutably): the engine bumps the
    fields inline on hot paths, and the harness's metrics sampler reads
    them mid-run for its time series. *)

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

val create : unit -> t

val avg_splits_per_op : t -> float
(** Committed segments per operation (Figure 4's x-axis companion). *)

val avg_segment_length : t -> float
(** Mean basic blocks per committed segment. *)
