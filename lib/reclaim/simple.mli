(** Functor factoring out everything the non-HTM schemes share.

    Every scheme except StackTrack is [Simple.Make] over its hooks:
    {!None}, {!Immediate}, {!Epoch}, {!Hazard}, {!Refcount}, {!Dta},
    {!Debra} (both policies) and {!Hazard_eras}.  They all execute
    operation bodies once, keep operation locals in a plain array, and
    access simulated memory non-transactionally.  They differ only in the
    protection, retirement and (for reference counting) store hooks,
    supplied via {!HOOKS}.

    Hook obligations for the uniform bookkeeping (see the bookkeeping
    contract in [Guard]): the supplied [retire] calls [Guard.retire] once
    per retirement, a reclamation pass runs inside [Guard.scan] and frees
    with [Guard.free] and the pass it is given (never [Tsx.free]
    directly), and a wait for other threads runs inside [Guard.stall].
    The hooks then state only the scheme's protection policy. *)

open St_mem

module type HOOKS = sig
  type t
  type thread

  val runtime : t -> Guard.runtime
  val stats : t -> Guard.stats
  val create_thread : t -> tid:int -> thread
  val on_begin : thread -> op_id:int -> unit
  val on_end : thread -> unit

  val protected_read : thread -> slot:int -> Word.addr -> Word.value
  val release : thread -> slot:int -> unit
  val protect_value : thread -> slot:int -> Word.value -> unit
  val alloc : thread -> size:int -> Word.addr
  val retire : thread -> Word.addr -> unit
  val quiesce : thread -> unit

  val write : thread -> Word.addr -> Word.value -> unit
  val cas : thread -> Word.addr -> expect:Word.value -> Word.value -> bool
  (** Most schemes delegate to {!Tsx.nt_write} / {!Tsx.nt_cas}; reference
      counting intercepts pointer stores to maintain link counts.
      Likewise most [alloc] hooks delegate to {!Tsx.alloc}; the era
      schemes (Hazard Eras) stamp the node's birth era on the way out. *)
end

module Make (H : HOOKS) : Guard.S with type t = H.t
(** [run_op] catches {!St_sim.Sched.Signal_interrupt} — the unwind a
    neutralizing reclaimer (DEBRA+) delivers to a stalled thread — and
    restarts the operation from scratch: [on_begin] again, fresh frame
    locals, body re-run.  Hooks that signal must only signal threads
    announced as inside an operation, so a completed body is never
    re-executed.  Only DEBRA+ ever signals, so for every other scheme the
    body runs exactly once. *)
