(** Log-bucketed latency histogram (virtual cycles per operation).

    Beyond the paper's throughput figures, tail latency separates the
    schemes sharply: epoch's reclaim waits put multi-quantum spikes in the
    tail, hazard pointers inflate the median, and StackTrack sits between —
    a distribution view the harness reports alongside each sweep.

    Values are counted in half-power-of-two buckets: value [v] lands in
    bucket [floor(2 * log2 v)], refined by one half step, giving ~41%
    relative resolution across the full range at a fixed 96-counter
    footprint. *)

type t

val n_buckets : int
(** Number of histogram buckets (96); the last bucket saturates. *)

val create : unit -> t

val record : t -> int -> unit
(** Record one latency value (negative values clamp to 0). *)

val bucket_of : int -> int
(** Bucket index for a value: 0 for v ≤ 1, then half-power-of-two steps
    ([2*floor(log2 v) + halfbit - 1]), capped at [n_buckets - 1].  Every
    index in [0, n_buckets) is reachable. *)

val bucket_low : int -> int
(** Smallest value mapping to bucket [i] (the bucket's lower bound);
    percentiles report this bound.  Strictly increasing in [i], with
    [bucket_low 0 = 0] and
    [bucket_low (bucket_of v) <= v < bucket_low (bucket_of v + 1)] for
    every value below the saturating last bucket. *)

val count : t -> int
val max_value : t -> int
val mean : t -> float

val percentile : t -> float -> int
(** [percentile t p] for [p] in [0..100]: the lower bound of the bucket
    containing the rank-[p] value; 0 on an empty histogram. *)

val nonzero_buckets : t -> (int * int) list
(** The populated buckets as [(lower bound, count)] pairs in ascending
    bound order — the sparse histogram form exported to result JSON. *)

val merge : t list -> t
