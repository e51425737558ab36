(** Drop-the-anchor (Braginsky, Kogan, Petrank, SPAA 2013), the paper's
    "DTA" baseline — implemented, as in the paper, for the linked list only.

    Fast path: per-thread timestamps exactly like epoch-based reclamation
    (two stores per operation), so traversals pay nothing per node except an
    anchor publication once every [k] hops (one store + fence amortised over
    [k] nodes — the "eliding hazards" trick that beats hazard pointers).

    Recovery path: when a reclaiming thread finds some thread not making
    progress (preempted or crashed), it does not wait forever like epoch;
    it consults the stuck thread's published anchor window — the ring of the
    last [window] node pointers the thread visited — treats those nodes as
    protected, and frees everything else.  This substitutes for the original
    freezing protocol, which stops and replaces the anchor window in the
    list; both establish the same guarantee (a stalled thread can only hold
    pointers inside its anchor window), and the paper's benchmarks never
    exercise freezing's slow path.  See DESIGN.md's substitution table.

    The window invariant requires that an operation only ever holds node
    pointers it visited within the last [window] protected reads — true for
    the Harris list's prev/curr/next traversal, not checked for other
    structures (the paper likewise reports DTA for the list only). *)

open St_sim
open St_mem
open St_htm

type scheme = {
  rt : Guard.runtime;
  stats : Guard.stats;
  batch : int;
  k : int; (* anchor publication interval, in hops *)
  window : int; (* ring size; must exceed any held-pointer distance *)
  patience : int;
  timestamps : int array;
  rings : int array array; (* published anchor windows, per tid *)
  frozen : bool array;
      (* Freezing (recovery) in progress for this thread: the victim's
         protected reads block until recovery completes, so it cannot
         acquire references the recovery scan has already missed.  This
         models the original protocol's property that a frozen thread
         cannot silently continue through its anchor window. *)
  threads : int St_machine.Activity.t; (* tids, waited on newest first *)
}

module Hooks = struct
  type t = scheme

  type thread = {
    s : scheme;
    tid : int;
    buffer : Ivec.t;
    scan_scratch : (int, unit) Hashtbl.t; (* protected-set table, reused *)
    mutable ring_pos : int;
    mutable hops : int;
  }

  let runtime t = t.rt
  let stats t = t.stats

  let create_thread s ~tid =
    St_machine.Activity.register s.threads ~tid tid;
    {
      s;
      tid;
      buffer = Ivec.create ();
      scan_scratch = Hashtbl.create 32;
      ring_pos = 0;
      hops = 0;
    }

  let bump th =
    let s = th.s in
    s.timestamps.(th.tid) <- s.timestamps.(th.tid) + 1;
    Sched.consume s.rt.Guard.sched (Sched.costs s.rt.Guard.sched).store

  let on_begin th ~op_id:_ =
    Array.fill th.s.rings.(th.tid) 0 th.s.window 0;
    th.ring_pos <- 0;
    th.hops <- 0;
    bump th


  let rec protected_read th ~slot addr =
    let s = th.s in
    let sched = s.rt.Guard.sched in
    let costs = Sched.costs sched in
    (* If a reclaimer froze us (we were stalled and it is consuming our
       anchor window), wait for recovery to finish before acquiring any
       new reference. *)
    while s.frozen.(th.tid) do
      Sched.consume sched costs.load
    done;
    let v = Tsx.nt_read s.rt.Guard.tsx addr in
    let p = Word.unmark v in
    if p >= Word.heap_base then begin
      (* Record in the anchor window; publication cost is only paid every k
         hops (the fence that makes the window visible to reclaimers). *)
      s.rings.(th.tid).(th.ring_pos) <- p;
      th.ring_pos <- (th.ring_pos + 1) mod s.window;
      (* If a recovery started between our load and the ring update, its
         window snapshot may have missed this reference: wait it out and
         re-read (the freezing protocol's stop-the-thread property). *)
      if s.frozen.(th.tid) then begin
        while s.frozen.(th.tid) do
          Sched.consume sched costs.load
        done;
        protected_read th ~slot addr
      end
      else begin
        th.hops <- th.hops + 1;
        Sched.consume sched costs.local_op;
        if th.hops mod s.k = 0 then begin
          Sched.consume sched costs.store;
          Tsx.fence s.rt.Guard.tsx;
          s.stats.Guard.protect_fences <- s.stats.Guard.protect_fences + 1
        end;
        v
      end
    end
    else v

  let release _ ~slot:_ = ()

  (* The value is recorded in the anchor window like any visited node. *)
  let protect_value th ~slot:_ v =
    let s = th.s in
    let p = Word.unmark v in
    if p >= Word.heap_base then begin
      s.rings.(th.tid).(th.ring_pos) <- p;
      th.ring_pos <- (th.ring_pos + 1) mod s.window
    end

  (* Wait briefly for every peer inside an operation to progress; freeze
     a peer that does not (stalled or crashed) and add its anchor window
     to [protected_set] instead of blocking forever like epoch.  Returns
     the frozen peers. *)
  let wait_or_freeze th protected_set =
    let s = th.s in
    let sched = s.rt.Guard.sched in
    let costs = Sched.costs sched in
    let deadline = Sched.now sched + s.patience in
    let frozen = ref [] in
    let freeze tid =
      (* Freeze first (store + fence), so the victim cannot acquire new
         references while we read its window. *)
      s.frozen.(tid) <- true;
      frozen := tid :: !frozen;
      let tr = Sched.trace sched in
      if Trace.on tr then
        Trace.instant tr ~time:(Sched.now sched) ~tid:th.tid Trace.Reclaim
          "freeze" (fun () -> Printf.sprintf "victim=%d" tid);
      Sched.consume sched costs.store;
      Tsx.fence s.rt.Guard.tsx;
      (* The victim may have completed a protected read between our
         timeout decision and the freeze becoming visible; re-check
         progress once and read the window after. *)
      for i = 0 to s.window - 1 do
        let p = s.rings.(tid).(i) in
        Sched.consume sched costs.load;
        s.stats.Guard.scan_words <- s.stats.Guard.scan_words + 1;
        if p <> 0 then Hashtbl.replace protected_set p ()
      done
    in
    St_machine.Activity.iter_newest s.threads (fun tid ->
        if tid <> th.tid then begin
          let snap = s.timestamps.(tid) in
          if snap land 1 = 1 then
            let rec spin () =
              if Sched.finished sched tid then ()
              else if (not (Sched.crashed sched tid))
                      && s.timestamps.(tid) <> snap
              then ()
              else if Sched.crashed sched tid || Sched.now sched > deadline
              then freeze tid
              else begin
                Sched.consume sched costs.load;
                spin ()
              end
            in
            spin ()
        end);
    !frozen

  let reclaim th =
    let s = th.s in
    let sched = s.rt.Guard.sched in
    Guard.scan s.rt s.stats ~pending:(Ivec.length th.buffer) (fun pass ->
        let protected_set = th.scan_scratch in
        Hashtbl.clear protected_set;
        (* The wait is the scheme's stall: a grace period when no peer had
           to be frozen. *)
        let frozen = ref [] in
        ignore
          (Guard.stall s.rt s.stats (fun () ->
               frozen := wait_or_freeze th protected_set;
               !frozen = []));
        Ivec.filter_in_place
          (fun addr ->
            if Hashtbl.mem protected_set addr then true
            else begin
              Guard.free pass addr;
              false
            end)
          th.buffer;
        (* Recovery complete: thaw the frozen threads. *)
        List.iter
          (fun tid ->
            s.frozen.(tid) <- false;
            Sched.consume sched (Sched.costs sched).store)
          !frozen;
        Ivec.length th.buffer)

  (* Like epoch, reclamation runs at the quiescent operation boundary so
     reclaimers never stall each other mid-operation. *)
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

let create ?(batch = 4) ?(k = 16) ?(window = 48) ?(patience = 30_000) rt =
  {
    rt;
    stats = Guard.make_stats ();
    batch;
    k;
    window;
    patience;
    timestamps = Array.make Topology.max_threads 0;
    rings = Array.init Topology.max_threads (fun _ -> Array.make window 0);
    frozen = Array.make Topology.max_threads false;
    threads = St_machine.Activity.create ();
  }
