(** DEBRA and DEBRA+ (Brown, PODC 2015): distributed epoch-based
    reclamation with amortized constant-time instrumentation, and its
    neutralizing variant.

    Like classic epoch reclamation, each thread announces "inside an
    operation at epoch e" on operation begin and "quiescent" on operation
    end (one store each).  Unlike classic epoch reclamation nobody ever
    spin-waits for a grace period: retired nodes go into one of three
    per-thread limbo bags indexed by epoch, and advancing the global epoch
    is amortized — each operation checks {e one} other thread's
    announcement (a rotating index), and a thread that has seen every peer
    either quiescent or announced at the current epoch bumps the epoch.
    When a thread observes a new epoch at operation begin it rotates its
    bags, freeing the bag two epochs old in one batch.

    Per-operation overhead is therefore O(1): one epoch load, one
    announcement store, one peer-announcement load — cheaper than hazard
    pointers by a factor of the traversal length, and competitive with
    plain epochs while distributing the reclamation work.

    An epoch check goes Start → LoadEpochs → Ready | Blocked, and the two
    schemes differ only in what Blocked does — the [blocked] policy, read
    only where a peer is found announced inside an operation below the
    current epoch:

    - [Wait] (DEBRA) keeps epoch reclamation's failure mode, deliberately:
      a thread that crashes (or stalls forever) while announced inside an
      operation parks the rotating check on itself for every peer, the
      epoch never advances again, and limbo bags grow without bound.
    - [Neutralize patience] (DEBRA+) closes exactly this hole.  A check
      parked on the same peer for [patience] cycles {e neutralizes} it
      with a simulated POSIX signal ({!Sched.signal}).  The handler marks
      the victim quiescent — safe, because the victim's interrupted
      operation unwinds with {!Sched.Signal_interrupt} at its next resume
      and restarts from scratch ({!Simple.Make}), so references acquired
      by the interrupted attempt are never used again.  A crashed victim
      never resumes at all, which is equally safe and is precisely the
      robustness story: the epoch advances past the corpse and limbo
      backlog stays bounded where DEBRA's grows without bound.

    Neutralization costs: the signaller pays a context-switch charge per
    signal (the pthread_kill syscall); the victim pays by re-running its
    operation.  A neutralization that lands between a victim's allocation
    and publication leaks that node (visible in [leaked]) — the price of
    restart semantics, shared with real DEBRA+ unless every operation is
    written against the recovery API. *)

open St_sim
open St_htm

type blocked = Wait | Neutralize of int

(* announce.(tid) = (last observed epoch lsl 1) lor (1 if inside an op) *)

type scheme = {
  rt : Guard.runtime;
  stats : Guard.stats;
  blocked : blocked;
  mutable epoch : int; (* global epoch clock *)
  announce : int array; (* indexed by tid *)
  neutralized : bool array; (* set by the handler, cleared on recovery *)
  threads : int St_machine.Activity.t; (* tids, checked oldest first *)
  mutable neutralizations : int; (* signals delivered *)
  mutable recoveries : int; (* restarts observed by live victims *)
}

let bags_count = 3

module Hooks = struct
  type t = scheme

  type thread = {
    s : scheme;
    tid : int;
    bags : Ivec.t array; (* limbo bags, indexed by epoch mod 3 *)
    mutable my_epoch : int; (* epoch the bags are synced to *)
    mutable check_idx : int; (* rotating peer index for amortized advance *)
    mutable blocked_on : int; (* peer the check is parked on, -1 if none *)
    mutable blocked_since : int;
  }

  let runtime t = t.rt
  let stats t = t.stats

  let create_thread s ~tid =
    St_machine.Activity.register s.threads ~tid tid;
    (match s.blocked with
    | Wait -> ()
    | Neutralize _ ->
        let sched = s.rt.Guard.sched in
        (* The handler runs synchronously at delivery, in the signaller's
           context: all it publishes is the quiescent announcement the
           victim itself would have written. *)
        Sched.set_signal_handler sched ~tid (fun () ->
            s.announce.(tid) <- (s.announce.(tid) asr 1) lsl 1;
            s.neutralized.(tid) <- true;
            s.neutralizations <- s.neutralizations + 1;
            let tr = Sched.trace sched in
            if Trace.on tr then
              Trace.instant tr ~time:(Sched.now_or_global sched) ~tid
                Trace.Reclaim "neutralize" Trace.no_detail));
    {
      s;
      tid;
      bags = Array.init bags_count (fun _ -> Ivec.create ());
      my_epoch = 0;
      check_idx = 0;
      blocked_on = -1;
      blocked_since = 0;
    }

  (* Free one limbo bag in a batch.  Nodes are popped before each free so
     an unwind mid-batch (thread crash, or neutralization) can never
     double-free on the restarted operation's re-rotation. *)
  let free_bag th bag =
    let s = th.s in
    let pending = Ivec.length bag in
    if pending > 0 then
      Guard.scan s.rt s.stats ~pending (fun pass ->
          while Ivec.length bag > 0 do
            let addr = Ivec.get bag (Ivec.length bag - 1) in
            Ivec.truncate bag (Ivec.length bag - 1);
            Guard.free pass addr
          done;
          0)

  (* Advance this thread's view of the epoch to [e], freeing each bag as
     its index comes around again (its contents are then three epochs
     old; two would already suffice). *)
  let sync_bags th e =
    if e > th.my_epoch then begin
      if e - th.my_epoch >= bags_count then
        Array.iter (fun bag -> free_bag th bag) th.bags
      else
        for m = th.my_epoch + 1 to e do
          free_bag th th.bags.(m mod bags_count)
        done;
      th.my_epoch <- e;
      th.check_idx <- 0;
      th.blocked_on <- -1
    end

  (* Neutralize [peer]: deliver the signal while it is provably announced
     inside an operation.  The announcement re-check, the delivery and
     the handler all run in this scheduler step (no [consume] between),
     so the victim cannot complete its operation in the window.  The
     syscall cost is charged after delivery. *)
  let neutralize th peer =
    let s = th.s in
    let sched = s.rt.Guard.sched in
    if s.announce.(peer) land 1 = 1 then begin
      Sched.signal sched peer;
      Sched.consume sched (Sched.costs sched).context_switch
    end

  (* The amortized epoch-advance check: inspect a single peer per
     operation.  Quiescent peers and peers announced at [e] pass; once
     every peer has passed for the same epoch, bump the global clock.  A
     peer stuck announced below [e] (preempted for a long time, or
     crashed) parks the rotating index on itself — the DEBRA stall, which
     [Neutralize] ends after [patience] cycles parked on the same peer. *)
  let advance_check th e =
    let s = th.s in
    let sched = s.rt.Guard.sched in
    let costs = Sched.costs sched in
    let n = St_machine.Activity.count s.threads in
    if n > 0 then begin
      if th.check_idx >= n then th.check_idx <- 0;
      let peer = St_machine.Activity.nth s.threads th.check_idx in
      let a = s.announce.(peer) in
      Sched.consume sched costs.load;
      s.stats.Guard.scan_words <- s.stats.Guard.scan_words + 1;
      if peer = th.tid || a land 1 = 0 || a asr 1 >= e then begin
        th.blocked_on <- -1;
        th.check_idx <- th.check_idx + 1;
        if th.check_idx >= n && s.epoch = e then begin
          (* Saw every peer quiescent or at [e]: advance the clock. *)
          s.epoch <- e + 1;
          th.check_idx <- 0;
          Sched.consume sched costs.cas
        end
      end
      else
        match s.blocked with
        | Wait -> ()
        | Neutralize patience ->
            let now = Sched.now sched in
            if th.blocked_on <> peer then begin
              th.blocked_on <- peer;
              th.blocked_since <- now
            end
            else if now - th.blocked_since > patience then begin
              neutralize th peer;
              th.blocked_on <- -1
            end
    end

  let on_begin th ~op_id:_ =
    let s = th.s in
    let sched = s.rt.Guard.sched in
    let costs = Sched.costs sched in
    if s.neutralized.(th.tid) then begin
      (* We were neutralized and unwound: this is the recovery path. *)
      s.neutralized.(th.tid) <- false;
      s.recoveries <- s.recoveries + 1
    end;
    let e = s.epoch in
    Sched.consume sched costs.load;
    if e <> th.my_epoch then sync_bags th e;
    s.announce.(th.tid) <- (e lsl 1) lor 1;
    Sched.consume sched costs.store;
    advance_check th e

  let on_end th =
    let s = th.s in
    (* Quiescent announcement first, then the charge: the store is already
       visible at the thread's next suspension point, so a synchronous
       neutralizer never signals a finished body. *)
    s.announce.(th.tid) <- th.my_epoch lsl 1;
    Sched.consume s.rt.Guard.sched (Sched.costs s.rt.Guard.sched).store

  let protected_read th ~slot:_ addr = Tsx.nt_read th.s.rt.Guard.tsx addr
  let release _ ~slot:_ = ()
  let protect_value _ ~slot:_ _ = ()

  let retire th addr =
    let bag = th.bags.(th.my_epoch mod bags_count) in
    Ivec.push bag addr;
    Guard.retire th.s.rt th.s.stats ~pending:(Ivec.length bag) addr

  (* Between-operations drain: with no peer announced inside an operation
     the epoch can be advanced directly; three rounds cycle every bag out.
     A peer stuck inside an operation (crashed) stops the drain under
     [Wait] — quiescing cannot recover what the epoch cannot prove dead.
     [Neutralize] neutralizes it on sight instead (always sound — at worst
     it restarts an operation). *)
  let quiesce th =
    let s = th.s in
    let sched = s.rt.Guard.sched in
    let costs = Sched.costs sched in
    if Array.exists (fun bag -> Ivec.length bag > 0) th.bags then
      let stuck = ref false in
      for _round = 1 to bags_count do
        if not !stuck then begin
          let e = s.epoch in
          Sched.consume sched costs.load;
          sync_bags th e;
          for i = 0 to St_machine.Activity.count s.threads - 1 do
            let peer = St_machine.Activity.nth s.threads i in
            Sched.consume sched costs.load;
            s.stats.Guard.scan_words <- s.stats.Guard.scan_words + 1;
            let a = s.announce.(peer) in
            if peer <> th.tid && a land 1 = 1 && a asr 1 < e then
              match s.blocked with
              | Wait -> stuck := true
              | Neutralize _ -> neutralize th peer
          done;
          if not !stuck then begin
            if s.epoch = e then begin
              s.epoch <- e + 1;
              Sched.consume sched costs.cas
            end;
            sync_bags th s.epoch
          end
        end
      done

  let alloc th ~size = Tsx.alloc th.s.rt.Guard.tsx ~size
  let write th addr v = Tsx.nt_write th.s.rt.Guard.tsx addr v
  let cas th addr ~expect v = Tsx.nt_cas th.s.rt.Guard.tsx addr ~expect v
end

include Simple.Make (Hooks)

let neutralizations s = s.neutralizations
let recoveries s = s.recoveries

let create ~blocked rt =
  {
    rt;
    stats = Guard.make_stats ();
    blocked;
    epoch = 0;
    announce = Array.make Topology.max_threads 0;
    neutralized = Array.make Topology.max_threads false;
    threads = St_machine.Activity.create ();
    neutralizations = 0;
    recoveries = 0;
  }
