(** The global activity array (paper §5.2), the one thread registry.

    "Whenever accessing the data structure, each thread registers itself
    into a global activity array ... the activity array allows each active
    thread to be found by other threads."  Each scheme that inspects other
    threads owns one and registers in its [create_thread]: StackTrack its
    per-thread record, the other schemes just the tid.

    A registry keeps one record per tid, and the tids in the order they
    first registered.  Registering a tid again replaces its record and
    keeps its place.  Each of the three visit orders below is part of some
    scheme's schedule. *)

type 'a t

val create : unit -> 'a t

val register : 'a t -> tid:int -> 'a -> unit
val count : 'a t -> int

val get : 'a t -> tid:int -> 'a option
(** The latest record of [tid]. *)

val iter : 'a t -> ('a -> unit) -> unit
(** Ascending tid order (StackTrack).  O(highest registered tid), not
    O(capacity): sweeping all 256 capacity slots for a 2-thread run
    dominated scan cost. *)

val iter_newest : 'a t -> ('a -> unit) -> unit
(** Newest registration first (Epoch, Hazard, Hazard Eras, DTA). *)

val nth : 'a t -> int -> 'a
(** By registration index, from 0, the oldest, to [count t - 1] (DEBRA). *)
