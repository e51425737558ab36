(** Functor factoring out everything the non-HTM schemes share.

    The baselines (none, immediate, epoch, hazard pointers, reference
    counting, drop-the-anchor, DEBRA/DEBRA+, Hazard Eras) all execute
    operation bodies once — unless a neutralizing reclaimer signals the
    thread mid-operation, which restarts it — keep operation locals in a
    plain array, and access simulated memory non-transactionally.  They
    differ only in the protection, retirement and (for reference counting)
    store hooks, supplied via {!HOOKS}. *)

open St_sim
open St_mem
open St_htm

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
      schemes stamp the node's birth era on the way out. *)
end

module Make (H : HOOKS) : Guard.S with type t = H.t = struct
  type t = H.t

  type thread = {
    h : H.thread;
    rt : Guard.runtime;
    locals : int array;
    rng : Rng.t;
  }

  type env = thread

  let create_thread t ~tid =
    let rt = H.runtime t in
    {
      h = H.create_thread t ~tid;
      rt;
      locals = Array.make St_machine.Ctx.max_frame 0;
      rng = Sched.thread_rng rt.Guard.sched tid;
    }

  (* No cleanup on exceptions: the only exception that crosses an operation
     uncaught is thread destruction (Sched.Thread_crashed), and a crashed
     thread must NOT look quiescent — its epoch timestamp stays odd and its
     hazards stay published, which is precisely the failure mode the paper
     analyses.

     The simulated-signal unwind ([Sched.Signal_interrupt]) delivered by a
     neutralizing reclaimer restarts the operation from scratch:
     re-announce ([on_begin]), clear the frame locals, re-run the body.
     The interrupted attempt never resumes, so references it held are dead
     — which is what makes the neutralizer's quiescent announcement of this
     thread sound.  A scheme that signals must only do so to threads
     announced as inside an operation (between [on_begin]'s announcement
     and [on_end]'s quiescence), so a completed body is never re-run. *)
  let rec run_op th ~op_id f =
    match
      H.on_begin th.h ~op_id;
      Array.fill th.locals 0 (Array.length th.locals) 0;
      let r = f th in
      H.on_end th.h;
      r
    with
    | r -> r
    | exception Sched.Signal_interrupt -> run_op th ~op_id f

  let read env addr = Tsx.nt_read env.rt.Guard.tsx addr
  let write env addr v = H.write env.h addr v
  let cas env addr ~expect v = H.cas env.h addr ~expect v
  let protected_read env ~slot addr = H.protected_read env.h ~slot addr
  let release env ~slot = H.release env.h ~slot
  let protect_value env ~slot v = H.protect_value env.h ~slot v
  let local_set env i v = env.locals.(i) <- v
  let local_get env i = env.locals.(i)

  let block env =
    Sched.consume env.rt.Guard.sched (Sched.costs env.rt.Guard.sched).local_op

  let rand env bound = Rng.int env.rng bound
  let alloc env ~size = H.alloc env.h ~size
  let retire env addr = H.retire env.h addr
  let quiesce th = H.quiesce th.h
  let stats = H.stats
end
