(** Dynamic split-length predictor (paper §5.3).

    Each thread keeps one predictor.  A {e segment} is identified by the
    pair (operation id, split index): "the combination of operation id and
    split number uniquely defines the current segment, therefore
    [ctx.limits\[ctx.op_id\]\[ctx.splits\]] holds the length for the current
    segment".

    The adjustment rule is the paper's: after [consec_threshold] (5)
    consecutive capacity/conflict aborts of a segment its limit shrinks by
    one basic block; after 5 consecutive successful commits it grows by
    one.  Limits are clamped to [\[min_limit, max_limit\]].

    The limits are the paper's dense [limits\[op_id\]\[split\]] table,
    grown on demand: a lookup is two array indexings, with no hashing and
    no allocation.  The table is as wide as the largest op id and split
    seen, so op ids should be small (the structures use 1 to 43). *)

type t

type adjust =
  op_id:int -> split:int -> old_limit:int -> limit:int -> grow:bool -> unit
(** Decision notification: a segment's limit moved from [old_limit] to
    [limit], grown by [consec_threshold] consecutive commits or shrunk by
    as many consecutive aborts.  Adjustments clamped at the limit bounds
    (no movement) do not notify. *)

val create : ?on_adjust:adjust -> St_config.t -> t
(** [on_adjust] (default: none) observes every limit change — the abort
    forensics ledger uses it to build the predictor decision timeline.
    The callback must not consume cycles or draw RNG. *)

val limit : t -> op_id:int -> split:int -> int
(** Current length (in basic blocks) for this segment.  This and the two
    [on_*] calls raise [Invalid_argument] on a negative [op_id] or
    [split]. *)

val on_commit : t -> op_id:int -> split:int -> unit
val on_abort : t -> op_id:int -> split:int -> unit

val segments_tracked : t -> int
(** Number of distinct (op, split) segments seen; for diagnostics. *)

val iter : t -> (op_id:int -> split:int -> limit:int -> unit) -> unit
(** Visit every tracked segment with its current limit, in unspecified
    order (callers needing determinism must sort). *)
