(** Core topology of the simulated machine.

    The paper's testbed is a 4-core Intel Haswell with 2-way HyperThreading
    (8 logical cores).  Logical cores [2k] and [2k+1] are SMT siblings and
    share one L1 cache.  Threads are placed on logical cores the way Linux
    spreads CPU-bound threads: one per physical core first, then the second
    hyperthread of each core, then time-multiplexed. *)

val max_threads : int
(** Upper bound on thread ids: every tid-indexed table in the simulator
    (profiler ledgers, HTM transaction slots, activity array, reclamation
    announcements) has this many slots, and the CLI rejects more threads. *)

type t = private {
  cores : int;
  smt : int;
  siblings : int array;  (** lcore -> SMT sibling lcore, [-1] if none. *)
  place : int array;  (** thread slot (mod lcores) -> lcore. *)
}

val create : ?cores:int -> ?smt:int -> unit -> t
(** Defaults: [cores = 4], [smt = 2], matching the paper's machine.  The
    sibling and placement maps are precomputed here so the per-access hot
    paths (scheduler cost accounting, HTM cache-pressure eviction) read
    arrays instead of recomputing arithmetic and allocating options. *)

val lcores : t -> int
(** Number of logical cores ([cores * smt]). *)

val sibling : t -> int -> int option
(** [sibling t lc] is the SMT sibling of logical core [lc], if any. *)

val sibling_ix : t -> int -> int
(** Allocation-free variant of {!sibling}: the sibling lcore, or [-1] when
    [lc] has none.  Hot paths use this one. *)

val core_of : t -> int -> int
(** Physical core of a logical core. *)

val placement : t -> int -> int
(** [placement t i] is the logical core that the [i]-th thread is pinned to.
    Threads 0..cores-1 land on distinct physical cores, the next batch on the
    sibling hyperthreads, and further threads wrap around (multiplexing). *)
