(** DEBRA and DEBRA+ (Brown, PODC 2015): distributed epoch-based
    reclamation with per-thread limbo bags and amortized O(1)
    per-operation epoch bookkeeping — one epoch load, one announcement
    store, one rotating peer check.

    The two schemes share everything but what an epoch check does when it
    finds a peer announced inside an operation below the current epoch. *)

type blocked =
  | Wait
      (** DEBRA: keep waiting.  Inherits (deliberately) the epoch failure
          mode: a thread that crashes while announced inside an operation
          blocks epoch advancement forever and limbo bags grow without
          bound. *)
  | Neutralize of int
      (** DEBRA+: once the advance check has stayed parked on the same
          peer for this many cycles (the patience), deliver a simulated
          signal ({!St_sim.Sched.signal}); the handler marks the victim
          quiescent and a live victim unwinds and restarts its operation
          ({!Simple.Make}).  [quiesce] neutralizes such a peer on sight.
          Crashed threads stop pinning the epoch, so limbo backlog stays
          bounded where [Wait] grows without bound. *)

include Guard.S

val create : blocked:blocked -> Guard.runtime -> t
(** Only [Neutralize] installs signal handlers. *)

val neutralizations : t -> int
(** Signals delivered to stalled peers so far; always 0 under [Wait]. *)

val recoveries : t -> int
(** Operation restarts observed by live neutralized victims (a crashed
    victim is neutralized but never restarts); always 0 under [Wait]. *)
