(** Lock-free reference counting (Valois 1995; Detlefs et al. 2002;
    Gidenstam et al. 2009) — the paper's third scheme category.

    Every node carries a count of incoming references: links stored in the
    data structure plus transient per-thread references.  Stores of pointer
    fields adjust the counts of the old and new targets; traversals bump the
    count of every node visited.  A node is freed when it is retired
    (unlinked) and its count reaches zero.

    The count updates require atomicity between loading a pointer and
    incrementing its target's count; real implementations need DCAS or
    equivalent, which is exactly why the paper dismisses the approach as the
    slowest.  The simulator grants the atomicity (load + increment happen in
    one scheduler step) and charges the DCAS-equivalent cycle cost, so the
    scheme is safe here and costed honestly: one atomic RMW per node
    visited on top of the read, and two per pointer store.

    Counts live in a side table rather than in a node header word so that
    node layouts stay identical across schemes; the accesses are charged as
    if the count were a header field. *)

open St_sim
open St_mem
open St_htm

let held_slots = 40

type scheme = {
  rt : Guard.runtime;
  stats : Guard.stats;
  counts : (Word.addr, int) Hashtbl.t;
  retired_set : (Word.addr, unit) Hashtbl.t;
  eager : Guard.pass; (* frees at count zero, outside any pass *)
}

module Hooks = struct
  type t = scheme

  type thread = { s : scheme; tid : int; held : int array }

  let runtime t = t.rt
  let stats t = t.stats
  let create_thread s ~tid = { s; tid; held = Array.make held_slots 0 }

  let count s p = Option.value ~default:0 (Hashtbl.find_opt s.counts p)

  let free s p =
    Hashtbl.remove s.counts p;
    Hashtbl.remove s.retired_set p;
    Guard.free s.eager p

  let inc s p = Hashtbl.replace s.counts p (count s p + 1)

  let dec s p =
    let c = count s p - 1 in
    if c <= 0 then begin
      Hashtbl.remove s.counts p;
      if Hashtbl.mem s.retired_set p then free s p
    end
    else Hashtbl.replace s.counts p c

  let is_node s p = p >= Word.heap_base && Heap.is_allocated (Guard.heap s.rt) p

  let on_begin _ ~op_id:_ = ()

  let on_end th =
    let costs = Sched.costs th.s.rt.Guard.sched in
    for slot = 0 to held_slots - 1 do
      if th.held.(slot) <> 0 then begin
        dec th.s th.held.(slot);
        th.held.(slot) <- 0;
        Sched.consume th.s.rt.Guard.sched costs.fetch_add
      end
    done

  (* Load + count increment in one scheduler step (the DCAS the literature
     requires), then charge load + RMW. *)
  let protected_read th ~slot addr =
    let s = th.s in
    let sched = s.rt.Guard.sched in
    let costs = Sched.costs sched in
    let v = Heap.read (Guard.heap s.rt) ~tid:th.tid addr in
    let p = Word.unmark v in
    if is_node s p then begin
      inc s p;
      if th.held.(slot) <> 0 then dec s th.held.(slot);
      th.held.(slot) <- p;
      Sched.consume sched (costs.load + costs.cas)
    end
    else Sched.consume sched costs.load;
    v

  let release th ~slot =
    if th.held.(slot) <> 0 then begin
      dec th.s th.held.(slot);
      th.held.(slot) <- 0;
      Sched.consume th.s.rt.Guard.sched
        (Sched.costs th.s.rt.Guard.sched).fetch_add
    end

  (* Protecting an already-safe value: acquire a counted reference. *)
  let protect_value th ~slot v =
    let s = th.s in
    let p = Word.unmark v in
    if is_node s p then begin
      inc s p;
      if th.held.(slot) <> 0 then dec s th.held.(slot);
      th.held.(slot) <- p;
      Sched.consume s.rt.Guard.sched (Sched.costs s.rt.Guard.sched).cas
    end

  (* Pointer stores maintain link counts: one step for the read-modify-write
     of the field plus both count updates, charged as store + 2 RMW. *)
  let write_link th addr v =
    let s = th.s in
    let heap = Guard.heap s.rt in
    let old = Word.unmark (Heap.read heap ~tid:th.tid addr) in
    Heap.write heap ~tid:th.tid addr v;
    let p = Word.unmark v in
    let rmws = ref 0 in
    if is_node s p then begin
      inc s p;
      incr rmws
    end;
    if old <> 0 && (Hashtbl.mem s.counts old || Hashtbl.mem s.retired_set old)
    then begin
      dec s old;
      incr rmws
    end;
    !rmws

  let write th addr v =
    let costs = Sched.costs th.s.rt.Guard.sched in
    let rmws = write_link th addr v in
    Sched.consume th.s.rt.Guard.sched (costs.store + (rmws * costs.fetch_add))

  let cas th addr ~expect v =
    let s = th.s in
    let heap = Guard.heap s.rt in
    let costs = Sched.costs s.rt.Guard.sched in
    let cur = Heap.read heap ~tid:th.tid addr in
    if cur = expect then begin
      let rmws = write_link th addr v in
      Sched.consume s.rt.Guard.sched (costs.cas + (rmws * costs.fetch_add));
      true
    end
    else begin
      Sched.consume s.rt.Guard.sched costs.cas;
      false
    end

  let retire th addr =
    let s = th.s in
    Guard.retire s.rt s.stats ~pending:0 addr;
    Hashtbl.replace s.retired_set addr ();
    if count s addr = 0 then free s addr;
    Sched.consume s.rt.Guard.sched (Sched.costs s.rt.Guard.sched).fetch_add

  let alloc th ~size = Tsx.alloc th.s.rt.Guard.tsx ~size
  let quiesce _ = ()
end

include Simple.Make (Hooks)

let note_initial_link s target =
  (* Pre-population links are created through raw heap writes; the harness
     reports each of them here so link counts start consistent.  Without
     this, an unlink of a pre-populated edge would steal a traversing
     thread's reference. *)
  let p = Word.unmark target in
  if p >= Word.heap_base then Hooks.inc s p

let create rt =
  let stats = Guard.make_stats () in
  {
    rt;
    stats;
    counts = Hashtbl.create 1024;
    retired_set = Hashtbl.create 64;
    eager = Guard.eager rt stats;
  }
