(** Hazard pointers (Michael 2004), the paper's "Hazards" baseline.

    Each thread owns a small array of hazard slots.  Before traversing
    through a node pointer, the thread publishes it in a slot, issues a
    memory fence, and re-reads the source to validate that the pointer is
    still current — the store + fence + re-read on {e every} node visited is
    the overhead that makes hazard pointers lose to StackTrack on long
    traversals (Figure 1).  Retired nodes are buffered; when the buffer
    reaches the batch size, the thread collects every thread's hazard slots
    and frees the buffered nodes none of them protect.

    The hooks must be placed by hand per data structure (the [slot]
    arguments in [st_dslib]); the impossibility of automating this is the
    paper's core criticism of pointer-based schemes. *)

open St_sim
open St_mem
open St_htm

let slots_per_thread = 40

type scheme = {
  rt : Guard.runtime;
  stats : Guard.stats;
  batch : int;
  hazards : int array array; (* [tid].(slot) = protected base pointer *)
  threads : int St_machine.Activity.t; (* tids, scanned newest first *)
}

module Hooks = struct
  type t = scheme

  type thread = {
    s : scheme;
    tid : int;
    buffer : Ivec.t;
    used_slots : bool array; (* cleared at op end *)
    scan_scratch : (int, unit) Hashtbl.t; (* protected-set table, reused *)
  }

  let runtime t = t.rt
  let stats t = t.stats

  let create_thread s ~tid =
    St_machine.Activity.register s.threads ~tid tid;
    {
      s;
      tid;
      buffer = Ivec.create ();
      used_slots = Array.make slots_per_thread false;
      scan_scratch = Hashtbl.create 64;
    }

  let on_begin _ ~op_id:_ = ()

  let clear_slot th slot =
    if th.s.hazards.(th.tid).(slot) <> 0 then begin
      th.s.hazards.(th.tid).(slot) <- 0;
      Sched.consume th.s.rt.Guard.sched
        (Sched.costs th.s.rt.Guard.sched).store
    end

  let on_end th =
    for slot = 0 to slots_per_thread - 1 do
      if th.used_slots.(slot) then begin
        clear_slot th slot;
        th.used_slots.(slot) <- false
      end
    done

  (* The publish-fence-validate protocol.  The validation re-read is what
     closes the race between loading a pointer and announcing it; a failed
     validation retries with [published] set.  A top-level function rather
     than a closure, so that a protected read allocates nothing. *)
  let rec validate th ~slot addr ~published =
    let s = th.s in
    let sched = s.rt.Guard.sched in
    let v = Tsx.nt_read s.rt.Guard.tsx addr in
    let p = Word.unmark v in
    if not (p >= Word.heap_base) then begin
      (* If a retry landed here, the slot still holds the pointer whose
         validation just failed — a dead node.  Drop it, or it stays
         protected (and unreclaimable) until op end. *)
      if published then begin
        clear_slot th slot;
        th.used_slots.(slot) <- false
      end;
      v
    end
    else begin
      s.hazards.(th.tid).(slot) <- p;
      th.used_slots.(slot) <- true;
      (* Nothing but the fence before the next [Sched] call: its charge
         takes this store's crossing, if any. *)
      Sched.consume_deferred sched (Sched.costs sched).store;
      Tsx.fence s.rt.Guard.tsx;
      s.stats.Guard.protect_fences <- s.stats.Guard.protect_fences + 1;
      let v' = Tsx.nt_read s.rt.Guard.tsx addr in
      if v' = v then v else validate th ~slot addr ~published:true
    end

  let protected_read th ~slot addr = validate th ~slot addr ~published:false

  let release th ~slot = clear_slot th slot

  (* Hazard copy / private-node pin: no validation needed because the value
     is already protected (or still private) per the Guard contract. *)
  let protect_value th ~slot v =
    let p = Word.unmark v in
    if p >= Word.heap_base then begin
      th.s.hazards.(th.tid).(slot) <- p;
      th.used_slots.(slot) <- true;
      Sched.consume th.s.rt.Guard.sched
        (Sched.costs th.s.rt.Guard.sched).store
    end

  let scan th =
    let s = th.s in
    let sched = s.rt.Guard.sched in
    let costs = Sched.costs sched in
    Guard.scan s.rt s.stats ~pending:(Ivec.length th.buffer) (fun pass ->
        (* Reused per-thread scratch: [Hashtbl.clear] keeps the bucket
           array, so repeated scans stop allocating a fresh table each. *)
        let protected_set = th.scan_scratch in
        Hashtbl.clear protected_set;
        St_machine.Activity.iter_newest s.threads (fun tid ->
            for slot = 0 to slots_per_thread - 1 do
              let p = s.hazards.(tid).(slot) in
              Sched.consume sched costs.load;
              s.stats.Guard.scan_words <- s.stats.Guard.scan_words + 1;
              if p <> 0 then Hashtbl.replace protected_set p ()
            done);
        Ivec.filter_in_place
          (fun addr ->
            if Hashtbl.mem protected_set addr then true
            else begin
              Guard.free pass addr;
              false
            end)
          th.buffer;
        Ivec.length th.buffer)

  let retire th addr =
    Ivec.push th.buffer addr;
    Guard.retire th.s.rt th.s.stats ~pending:(Ivec.length th.buffer) addr;
    if Ivec.length th.buffer >= th.s.batch then scan th

  let quiesce th = if Ivec.length th.buffer > 0 then scan th
  let alloc th ~size = Tsx.alloc th.s.rt.Guard.tsx ~size
  let write th addr v = Tsx.nt_write th.s.rt.Guard.tsx addr v
  let cas th addr ~expect v = Tsx.nt_cas th.s.rt.Guard.tsx addr ~expect v
end

include Simple.Make (Hooks)

let create ?(batch = 16) rt =
  {
    rt;
    stats = Guard.make_stats ();
    batch;
    hazards = Array.init Topology.max_threads (fun _ -> Array.make slots_per_thread 0);
    threads = St_machine.Activity.create ();
  }
