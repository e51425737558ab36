(** Workload generation for the benchmarks.

    The paper's set benchmarks draw uniform keys from a fixed range and
    perform a configurable percentage of mutations (half inserts, half
    deletes); queue benchmarks mix enqueue/dequeue pairs with read-only
    peeks.  A zipfian generator is provided for skewed-contention ablations
    beyond the paper.

    All generators are deterministic functions of the [Rng.t] they are
    given, which is what makes benchmark runs replayable artifacts. *)

open St_sim

type set_op = Contains of int | Insert of int | Delete of int
type queue_op = Enqueue of int | Dequeue | Peek
type key_dist = Uniform | Zipf of float

type set_profile = private {
  key_range : int;
  mutation_pct : int;  (** Percentage of insert+delete operations. *)
  dist : key_dist;
}

val set_profile :
  ?dist:key_dist -> key_range:int -> mutation_pct:int -> unit -> set_profile
(** Validating constructor.  [dist] defaults to [Uniform].
    @raise Invalid_argument unless [key_range > 0],
    [0 ≤ mutation_pct ≤ 100] and, for [Zipf theta], [theta] is finite and
    at least 0 (a NaN, infinite or negative theta would send every draw
    to key 0). *)

type set_gen

val set_gen : set_profile -> Rng.t -> set_gen
(** Zipf profiles precompute their inverse-CDF table here, once, so that
    {!next_set_op} stays an O(log key_range) draw. *)

val next_set_op : set_gen -> set_op
(** Mutations split evenly between inserts and deletes. *)

type queue_gen

val queue_gen : mutation_pct:int -> value_range:int -> Rng.t -> queue_gen
(** [mutation_pct] of operations are enqueue/dequeue (alternating, to keep
    the queue near its initial size); the rest peek. *)

val next_queue_op : queue_gen -> queue_op

val initial_keys : rng:Rng.t -> key_range:int -> size:int -> int array
(** [size] distinct keys drawn uniformly from [[0, key_range)]
    (deterministic in the rng): draws are taken in order, a repeat is
    discarded, and the array holds the kept draws newest first.  Nothing
    is allocated per key: the array and a one-bit-per-key seen-set are
    the whole cost.
    @raise Invalid_argument unless [0 ≤ size ≤ key_range]. *)
