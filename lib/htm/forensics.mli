(** Abort forensics: who-doomed-whom attribution, retry chains, and
    split-predictor decision timelines.

    The HTM layer counts aborts ({!Htm_stats}) and keeps a per-line
    contention record ([Tsx.line_stats]); this ledger answers the
    questions those aggregates cannot: {e which thread} doomed which
    victim, {e which segment} (op id, split index) keeps aborting, how
    deep the retry chains run, where the wasted cycles went per abort
    cause, and every shrink/grow decision the split-length predictor
    made on the way to its final limits (paper §5.3, Figure 4).

    Disabled by default; the disabled singleton records nothing and
    costs one load + branch per hook.  Recording performs no RNG draws
    and no cycle charges, so enabling it never perturbs a run — the
    same contract as the per-line record and [St_mem.Lifecycle].

    Two families of events feed the ledger:

    - {e Dooms}: the instant a transaction is marked for death.  Stamped
      at the Tsx doom sites where the aborter is known: conflict dooms
      (requester-wins walk), pressure-eviction capacity dooms, and
      preemption (interrupt) dooms.  A doomed transaction may never
      deliver its abort (crashed thread, or a later preemption
      overwrites the pending cause), so doom counts are attribution
      data, not a mirror of {!Htm_stats}.
    - {e Delivered aborts}: the [Tsx.do_abort] funnel, where the final
      cause is known and the profiler's pending transaction pot can be
      split per cause (conservation: per-cause sums + the unresolved
      residue of crashed-mid-txn threads = the profiler's wasted
      account). *)

type t

val create : ?timeline_capacity:int -> unit -> t
(** An enabled ledger.  [timeline_capacity] bounds the predictor
    decision timeline (default 65536 entries); further entries are
    dropped and counted. *)

val disabled : t
(** The shared disabled singleton: every hook is one load + branch. *)

val enabled : t -> bool

(** {1 Recording — doom sites (Tsx)} *)

val on_conflict_doom : t -> victim:int -> aborter:int -> unit
(** Requester-wins conflict: [aborter]'s access doomed [victim]'s
    transaction.  The line is counted in the Tsx per-line record at the
    same site, so the matrix total equals the record's conflict total. *)

val on_capacity_doom : t -> victim:int -> aborter:int -> unit
(** Pressure eviction: [aborter]'s footprint growth evicted [victim]'s
    transaction.  No single line is responsible. *)

val on_interrupt_doom : t -> victim:int -> unit
(** Preemption doomed [victim]'s transaction. *)

(** {1 Recording — the abort delivery funnel (Tsx / engine)} *)

val on_abort_delivered :
  t -> tid:int -> cause:Htm_stats.abort_reason -> wasted:int -> unit
(** A doomed transaction observed its fate: [cause] is the delivered
    reason, [wasted] the profiler's pending-transaction pot at delivery
    (0 when the profiler is off). *)

val on_unresolved : t -> wasted:int -> unit
(** End-of-run sweep: a thread crashed mid-transaction, its pending pot
    resolves to wasted without ever delivering an abort. *)

val on_segment_abort : t -> op_id:int -> split:int -> unit
(** The hardware abort landed while executing segment
    [(op_id, split)] — the hot-segment attribution. *)

val on_retry_chain : t -> op_id:int -> split:int -> depth:int -> unit
(** A segment finally committed after [depth] failed attempts
    (0 = first try).  Feeds both the global retry-depth histogram and
    the per-segment depth aggregates. *)

(** {1 Recording — predictor decisions (engine)} *)

val on_limit_change :
  t ->
  time:int ->
  tid:int ->
  op_id:int ->
  split:int ->
  old_limit:int ->
  limit:int ->
  grow:bool ->
  unit
(** The split-length predictor adjusted a segment's limit: a shrink
    (5 consecutive aborts) or grow (5 consecutive commits). *)

(** {1 Reading} *)

val conflict_dooms : t -> int
val capacity_dooms : t -> int
val interrupt_dooms : t -> int

val iter_conflict_pairs : t -> (victim:int -> aborter:int -> int -> unit) -> unit
(** Nonzero cells of the who-doomed-whom conflict matrix, victim-major
    ascending. *)

val iter_capacity_pairs : t -> (victim:int -> aborter:int -> int -> unit) -> unit

val delivered : t -> Htm_stats.abort_reason -> int
val wasted_by_cause : t -> Htm_stats.abort_reason -> int

val wasted_unresolved : t -> int
(** Pending pots swept at end of run (crashed mid-transaction). *)

val wasted_total : t -> int
(** Sum of the per-cause buckets plus the unresolved residue; the
    conservation partner of the profiler's wasted-transaction account. *)

type segment = {
  op_id : int;
  split : int;
  aborts : int;  (** hardware aborts landed in this segment *)
  chains : int;  (** committed retry chains *)
  depth_sum : int;  (** total failed attempts across chains *)
  depth_max : int;
}

val segments : t -> segment list
(** All segments seen, aborts descending, then (op_id, split)
    ascending — a deterministic order. *)

val iter_retry_depths : t -> (depth:int -> int -> unit) -> unit
(** Global committed-chain depth histogram: nonzero counts, depth
    ascending.  Depths beyond {!max_retry_depth} clamp into the last
    bucket. *)

val max_retry_depth : int

type decision = {
  d_time : int;
  d_tid : int;
  d_op_id : int;
  d_split : int;
  d_old_limit : int;
  d_limit : int;
  d_grow : bool;
}

val iter_timeline : t -> (decision -> unit) -> unit
(** Predictor decisions in recording order. *)

val timeline_length : t -> int
val timeline_dropped : t -> int
