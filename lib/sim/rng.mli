(** Deterministic pseudo-random number generation for the simulator.

    Every source of randomness in the repository flows through this module so
    that a whole experiment is reproducible from a single 64-bit seed.  The
    generator is SplitMix64, which is fast, has a full 2^64 period, and can be
    split into independent streams (one per simulated thread). *)

type t

val create : seed:int -> t
(** [create ~seed] returns a fresh generator.  Two generators created with the
    same seed produce identical streams. *)

val split : t -> t
(** [split t] derives an independent generator from [t], advancing [t].  Used
    to give each simulated thread its own stream. *)

val next : t -> int
(** [next t] returns the next raw 62-bit non-negative value. *)

val int : t -> int -> int
(** [int t bound] returns a uniform value in [\[0, bound)].  [bound] must be
    positive. *)

val float : t -> float
(** [float t] returns a uniform float in [\[0, 1)]. *)

val bool : t -> bool

val pct : t -> int -> bool
(** [pct t p] is true with probability [p]/100. *)
