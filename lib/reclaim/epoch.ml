(** Epoch/quiescence-based reclamation (Fraser 2004; Hart et al. 2007),
    the paper's "Epoch" baseline.

    Each thread keeps a timestamp with odd/even parity: odd while inside an
    operation, even while quiescent, bumped at every operation start and
    finish (two plain stores per operation — the cheapest instrumentation of
    all schemes).  To reclaim, a thread snapshots all timestamps and waits
    until every thread that was inside an operation has progressed (its
    timestamp changed).

    The wait is the scheme's weakness, faithfully reproduced: if another
    thread is preempted (threads > logical cores) the reclaimer spins for
    its whole time slice, and if a thread crashes, reclamation stops
    entirely and memory grows without bound (§6 and the >8-threads cliff of
    Figures 1-2).  A [patience] bound makes the wait give up and retry at
    the next retirement batch, so the scheme degrades rather than
    deadlocks when several reclaimers block on each other. *)

open St_sim
open St_htm

type scheme = {
  rt : Guard.runtime;
  stats : Guard.stats;
  batch : int;
  patience : int;
  timestamps : int array; (* indexed by tid; odd = inside an operation *)
  threads : int St_machine.Activity.t; (* tids, waited on newest first *)
}

module Hooks = struct
  type t = scheme

  type thread = { s : scheme; tid : int; buffer : Ivec.t }

  let runtime t = t.rt
  let stats t = t.stats

  let create_thread s ~tid =
    St_machine.Activity.register s.threads ~tid tid;
    { s; tid; buffer = Ivec.create () }

  let bump th =
    let s = th.s in
    s.timestamps.(th.tid) <- s.timestamps.(th.tid) + 1;
    Sched.consume s.rt.Guard.sched (Sched.costs s.rt.Guard.sched).store

  let on_begin th ~op_id:_ = bump th

  let protected_read th ~slot:_ addr = Tsx.nt_read th.s.rt.Guard.tsx addr
  let release _ ~slot:_ = ()
  let protect_value _ ~slot:_ _ = ()

  (* Wait until every other thread that was mid-operation at the snapshot
     has progressed.  Returns false when patience ran out. *)
  let wait_for_grace th =
    let s = th.s in
    let sched = s.rt.Guard.sched in
    let costs = Sched.costs sched in
    Guard.stall s.rt s.stats (fun () ->
        let deadline = Sched.now sched + s.patience in
        let ok = ref true in
        St_machine.Activity.iter_newest s.threads (fun tid ->
            if tid <> th.tid && !ok then begin
              let snap = s.timestamps.(tid) in
              if snap land 1 = 1 then
                (* Inside an operation: wait for progress. *)
                let rec spin () =
                  if Sched.finished sched tid || Sched.crashed sched tid then
                    (* A crashed thread never progresses; a finished one
                       holds no references. Crashed threads block epoch
                       reclamation forever (the unbounded-leak failure
                       mode). *)
                    ok := not (Sched.crashed sched tid)
                  else if s.timestamps.(tid) <> snap then ()
                  else if Sched.now sched > deadline then ok := false
                  else begin
                    Sched.consume sched costs.load;
                    spin ()
                  end
                in
                spin ()
            end);
        !ok)

  let reclaim th =
    let s = th.s in
    Guard.scan s.rt s.stats ~pending:(Ivec.length th.buffer) (fun pass ->
        if wait_for_grace th then begin
          Ivec.iter (Guard.free pass) th.buffer;
          Ivec.clear th.buffer
        end;
        Ivec.length th.buffer)

  (* Retires only buffer; reclamation runs at the next quiescent point
     (operation end), where this thread provably holds no references — this
     is how epoch implementations avoid reclaimers blocking each other
     while both are mid-operation. *)
  let retire th addr =
    Ivec.push th.buffer addr;
    Guard.retire th.s.rt th.s.stats ~pending:(Ivec.length th.buffer) addr

  let on_end th =
    bump th;
    if Ivec.length th.buffer >= th.s.batch then reclaim th

  let quiesce th = if Ivec.length th.buffer > 0 then reclaim th
  let alloc th ~size = Tsx.alloc th.s.rt.Guard.tsx ~size
  let write th addr v = Tsx.nt_write th.s.rt.Guard.tsx addr v
  let cas th addr ~expect v = Tsx.nt_cas th.s.rt.Guard.tsx addr ~expect v
end

include Simple.Make (Hooks)

let create ?(batch = 2) ?(patience = 250_000) rt =
  {
    rt;
    stats = Guard.make_stats ();
    batch;
    patience;
    timestamps = Array.make Topology.max_threads 0;
    threads = St_machine.Activity.create ();
  }
