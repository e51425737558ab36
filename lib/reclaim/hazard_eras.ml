(** Hazard Eras (Ramalhete & Correia, SPAA 2017) / interval-based
    reclamation (Wen et al., PPoPP 2018): the pointer-era hybrid.

    A global {e era} clock ticks once every [era_freq] retirements.  Every
    node is stamped with the era it was allocated in (birth era, written
    by the [alloc] hook into a side array keyed by the heap's birth
    index, exactly like the {!St_mem.Lifecycle} stamp arrays) and the era
    it was retired in.  A reader publishes a single {e era interval}
    [lo, hi] instead of one hazard pointer per node: [lo] is the era at
    operation begin, and [hi] is extended only when the global era
    actually changed since the last protected read — so the store + fence
    that hazard pointers pay on {e every} node visit is amortized down to
    once per era tick.  A retired node is freeable when no thread's
    published interval overlaps the node's [birth, retire] interval.

    Robustness sits between hazard pointers and epochs, which is the
    point: a crashed thread's interval stays published forever, but it
    only pins nodes {e born before} its frozen [hi] — everything
    allocated after the crash has a later birth era and is reclaimed
    normally, so the limbo backlog stays bounded (unlike epoch/DEBRA). *)

open St_sim
open St_mem
open St_htm

type scheme = {
  rt : Guard.runtime;
  stats : Guard.stats;
  batch : int;
  era_freq : int;
  mutable era : int; (* global era clock; starts at 1, 0 = "no era" *)
  reservations : int array array; (* [tid].(0) = lo, [tid].(1) = hi; 0 = none *)
  mutable birth_eras : int array; (* keyed by Heap.birth_ix (0 sentinel slot unused) *)
  mutable retire_count : int; (* global, drives the era clock *)
  threads : int St_machine.Activity.t; (* tids, scanned newest first *)
}

let ensure_birth s ix =
  let n = Array.length s.birth_eras in
  if ix >= n then begin
    let grown = Array.make (max (ix + 1) (2 * n)) 0 in
    Array.blit s.birth_eras 0 grown 0 n;
    s.birth_eras <- grown
  end

module Hooks = struct
  type t = scheme

  type thread = {
    s : scheme;
    tid : int;
    (* Retired-node buffer, stride 3: addr, birth era, retire era. *)
    buffer : Ivec.t;
    (* Reservation snapshot scratch, reused across scans. *)
    snap_lo : int array;
    snap_hi : int array;
  }

  let runtime t = t.rt
  let stats t = t.stats

  let create_thread s ~tid =
    St_machine.Activity.register s.threads ~tid tid;
    {
      s;
      tid;
      buffer = Ivec.create ();
      snap_lo = Array.make Topology.max_threads 0;
      snap_hi = Array.make Topology.max_threads 0;
    }

  let on_begin th ~op_id:_ =
    let s = th.s in
    let sched = s.rt.Guard.sched in
    let costs = Sched.costs sched in
    let e = s.era in
    Sched.consume sched costs.load;
    let res = s.reservations.(th.tid) in
    res.(0) <- e;
    res.(1) <- e;
    (* One store + fence per operation — not per node visit. *)
    Sched.consume sched costs.store;
    Tsx.fence s.rt.Guard.tsx

  let on_end th =
    let s = th.s in
    let res = s.reservations.(th.tid) in
    res.(0) <- 0;
    res.(1) <- 0;
    Sched.consume s.rt.Guard.sched (Sched.costs s.rt.Guard.sched).store

  (* The era-interval read protocol: re-publish [hi] only when the global
     era moved since this thread last looked — the amortization that beats
     hazard pointers on long traversals.  A top-level function rather than
     a closure, so that a protected read allocates nothing. *)
  let rec read_in_era th addr =
    let s = th.s in
    let sched = s.rt.Guard.sched in
    let res = s.reservations.(th.tid) in
    let v = Tsx.nt_read s.rt.Guard.tsx addr in
    let e = s.era in
    Sched.consume sched (Sched.costs sched).load;
    if e = res.(1) then v
    else begin
      res.(1) <- e;
      Sched.consume sched (Sched.costs sched).store;
      Tsx.fence s.rt.Guard.tsx;
      s.stats.Guard.protect_fences <- s.stats.Guard.protect_fences + 1;
      read_in_era th addr
    end

  let protected_read th ~slot:_ addr = read_in_era th addr

  let release _ ~slot:_ = ()

  (* Values handed here are already covered by the published interval (or
     still private): nothing per-slot to do. *)
  let protect_value _ ~slot:_ _ = ()

  (* Stamp the birth era at allocation, piggybacked on the heap's birth
     index exactly like the lifecycle ledger's stamp arrays. *)
  let alloc th ~size =
    let s = th.s in
    let addr = Tsx.alloc s.rt.Guard.tsx ~size in
    let ix = Heap.birth_ix (Guard.heap s.rt) addr in
    if ix > 0 then begin
      ensure_birth s ix;
      s.birth_eras.(ix) <- s.era
    end;
    addr

  let scan th =
    let s = th.s in
    let sched = s.rt.Guard.sched in
    let costs = Sched.costs sched in
    Guard.scan s.rt s.stats ~pending:(Ivec.length th.buffer / 3) (fun pass ->
        (* Snapshot every thread's published interval (two words each). *)
        let n_res = ref 0 in
        St_machine.Activity.iter_newest s.threads (fun tid ->
            let res = s.reservations.(tid) in
            let lo = res.(0) and hi = res.(1) in
            Sched.consume sched (2 * costs.load);
            s.stats.Guard.scan_words <- s.stats.Guard.scan_words + 2;
            if lo <> 0 then begin
              th.snap_lo.(!n_res) <- lo;
              th.snap_hi.(!n_res) <- hi;
              incr n_res
            end);
        let n_res = !n_res in
        (* Keep a buffered node only if some interval overlaps its
           lifetime; compact the stride-3 buffer in place. *)
        let len = Ivec.length th.buffer in
        let w = ref 0 in
        let r = ref 0 in
        while !r < len do
          let addr = Ivec.get th.buffer !r in
          let birth = Ivec.get th.buffer (!r + 1) in
          let retired = Ivec.get th.buffer (!r + 2) in
          let held = ref false in
          for i = 0 to n_res - 1 do
            if birth <= th.snap_hi.(i) && retired >= th.snap_lo.(i) then
              held := true
          done;
          if !held then begin
            Ivec.set th.buffer !w addr;
            Ivec.set th.buffer (!w + 1) birth;
            Ivec.set th.buffer (!w + 2) retired;
            w := !w + 3
          end
          else Guard.free pass addr;
          r := !r + 3
        done;
        Ivec.truncate th.buffer !w;
        !w / 3)

  let retire th addr =
    let s = th.s in
    let sched = s.rt.Guard.sched in
    let ix = Heap.birth_ix (Guard.heap s.rt) addr in
    let birth =
      if ix > 0 && ix < Array.length s.birth_eras then s.birth_eras.(ix)
      else 0 (* pre-scheme allocation: conservatively "born at era 0" *)
    in
    Ivec.push th.buffer addr;
    Ivec.push th.buffer birth;
    Ivec.push th.buffer s.era;
    Guard.retire s.rt s.stats ~pending:(Ivec.length th.buffer / 3) addr;
    (* The era clock ticks on retirement volume, not on wall time. *)
    s.retire_count <- s.retire_count + 1;
    if s.retire_count mod s.era_freq = 0 then begin
      s.era <- s.era + 1;
      Sched.consume sched (Sched.costs sched).fetch_add
    end;
    if Ivec.length th.buffer / 3 >= s.batch then scan th

  let quiesce th = if Ivec.length th.buffer > 0 then scan th
  let write th addr v = Tsx.nt_write th.s.rt.Guard.tsx addr v
  let cas th addr ~expect v = Tsx.nt_cas th.s.rt.Guard.tsx addr ~expect v
end

include Simple.Make (Hooks)

let era s = s.era

let create ?(batch = 16) ?(era_freq = 8) rt =
  {
    rt;
    stats = Guard.make_stats ();
    batch;
    era_freq;
    era = 1;
    reservations = Array.init Topology.max_threads (fun _ -> Array.make 2 0);
    birth_eras = Array.make 1024 0;
    retire_count = 0;
    threads = St_machine.Activity.create ();
  }
