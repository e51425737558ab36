(* See lifecycle.mli.  Flat int arrays keyed by the heap's birth index;
   every hot-path hook is branch + array-store arithmetic (amortised array
   doubling aside), per the allocation-free discipline of the access and
   scan paths it instruments. *)

type t = {
  enabled : bool;
  now : unit -> int;
  resolve : int -> int; (* addr -> Heap.birth_ix (1 + birth, 0 = dead) *)
  mutable alloc_time : int array; (* by birth index; -1 = unseen *)
  mutable retire_time : int array;
  mutable free_time : int array;
  mutable obj_words : int array;
  mutable births : int; (* birth indices stamped so far *)
  (* Running aggregates, maintained incrementally so the sampler reads
     fields instead of scanning the arrays. *)
  mutable allocs : int;
  mutable retires : int;
  mutable frees : int;
  mutable live_objects : int;
  mutable live_words : int;
  mutable peak_live_words : int;
  mutable limbo_objects : int; (* retired, not yet freed *)
  mutable limbo_words : int;
  mutable peak_limbo_objects : int;
  mutable peak_limbo_words : int;
}

let make ~enabled ~now ~resolve ~capacity =
  {
    enabled;
    now;
    resolve;
    alloc_time = Array.make capacity (-1);
    retire_time = Array.make capacity (-1);
    free_time = Array.make capacity (-1);
    obj_words = Array.make capacity 0;
    births = 0;
    allocs = 0;
    retires = 0;
    frees = 0;
    live_objects = 0;
    live_words = 0;
    peak_live_words = 0;
    limbo_objects = 0;
    limbo_words = 0;
    peak_limbo_objects = 0;
    peak_limbo_words = 0;
  }

let disabled =
  make ~enabled:false ~now:(fun () -> 0) ~resolve:(fun _ -> 0) ~capacity:1

let create ?(capacity = 1 lsl 12) ~now ~resolve () =
  assert (capacity >= 1);
  make ~enabled:true ~now ~resolve ~capacity


let ensure_capacity t needed =
  let cap = Array.length t.alloc_time in
  if needed > cap then begin
    let cap' = ref cap in
    while needed > !cap' do
      cap' := !cap' * 2
    done;
    let grow a fill =
      let a' = Array.make !cap' fill in
      Array.blit a 0 a' 0 cap;
      a'
    in
    t.alloc_time <- grow t.alloc_time (-1);
    t.retire_time <- grow t.retire_time (-1);
    t.free_time <- grow t.free_time (-1);
    t.obj_words <- grow t.obj_words 0
  end

let on_alloc t ~birth ~words =
  if t.enabled then begin
    ensure_capacity t (birth + 1);
    t.alloc_time.(birth) <- t.now ();
    t.obj_words.(birth) <- words;
    if birth >= t.births then t.births <- birth + 1;
    t.allocs <- t.allocs + 1;
    t.live_objects <- t.live_objects + 1;
    t.live_words <- t.live_words + words;
    if t.live_words > t.peak_live_words then t.peak_live_words <- t.live_words
  end

let on_retire t ~now addr =
  if t.enabled then begin
    let bix = t.resolve addr in
    (* 0: not a live object base (an unsafe scheme double-retiring, or a
       stale pointer) — the shadow checker owns that report; the ledger
       skips the stamp so its accounting stays an exact object census. *)
    if bix <> 0 then begin
      let birth = bix - 1 in
      ensure_capacity t (birth + 1);
      (* Idempotent: a replayed retirement keeps its first stamp. *)
      if t.retire_time.(birth) < 0 then begin
        t.retire_time.(birth) <- now;
        t.retires <- t.retires + 1;
        t.limbo_objects <- t.limbo_objects + 1;
        t.limbo_words <- t.limbo_words + t.obj_words.(birth);
        if t.limbo_objects > t.peak_limbo_objects then
          t.peak_limbo_objects <- t.limbo_objects;
        if t.limbo_words > t.peak_limbo_words then
          t.peak_limbo_words <- t.limbo_words
      end
    end
  end

let on_free t ~birth ~words =
  if t.enabled && birth >= 0 then begin
    ensure_capacity t (birth + 1);
    if t.free_time.(birth) < 0 then begin
      t.free_time.(birth) <- t.now ();
      t.frees <- t.frees + 1;
      t.live_objects <- t.live_objects - 1;
      t.live_words <- t.live_words - words;
      if t.retire_time.(birth) >= 0 then begin
        t.limbo_objects <- t.limbo_objects - 1;
        t.limbo_words <- t.limbo_words - t.obj_words.(birth)
      end
    end
  end

let allocs t = t.allocs
let retires t = t.retires
let frees t = t.frees
let live_objects t = t.live_objects
let live_words t = t.live_words
let peak_live_words t = t.peak_live_words
let limbo_objects t = t.limbo_objects
let limbo_words t = t.limbo_words
let peak_limbo_objects t = t.peak_limbo_objects
let peak_limbo_words t = t.peak_limbo_words

let iter_lags t f =
  for birth = 0 to t.births - 1 do
    if t.retire_time.(birth) >= 0 && t.free_time.(birth) >= 0 then
      f (t.free_time.(birth) - t.retire_time.(birth))
  done

let stamps t birth =
  if birth < 0 || birth >= t.births then None
  else
    Some
      ( t.alloc_time.(birth),
        (if t.retire_time.(birth) >= 0 then Some t.retire_time.(birth)
         else None),
        if t.free_time.(birth) >= 0 then Some t.free_time.(birth) else None )

let cross_check t ~heap_allocs ~heap_frees ~heap_live =
  if not t.enabled then None
  else begin
    (* Recount from the stamps so a drifted aggregate is caught too. *)
    let stamped_frees = ref 0 and stamped_allocs = ref 0 in
    for birth = 0 to t.births - 1 do
      if t.alloc_time.(birth) >= 0 then incr stamped_allocs;
      if t.free_time.(birth) >= 0 then incr stamped_frees
    done;
    let fail fmt = Printf.ksprintf (fun m -> Some m) fmt in
    if t.allocs <> heap_allocs then
      fail "ledger allocs %d <> heap allocs %d" t.allocs heap_allocs
    else if t.frees <> heap_frees then
      fail "ledger frees %d <> heap frees %d (freed-but-live divergence)"
        t.frees heap_frees
    else if t.live_objects <> heap_live then
      fail "ledger live %d <> heap live %d (leaked-at-exit divergence)"
        t.live_objects heap_live
    else if t.allocs - t.frees <> t.live_objects then
      fail "ledger conservation broken: %d allocs - %d frees <> %d live"
        t.allocs t.frees t.live_objects
    else if !stamped_allocs <> t.allocs || !stamped_frees <> t.frees then
      fail "ledger stamps (%d allocs, %d frees) disagree with counters (%d, %d)"
        !stamped_allocs !stamped_frees t.allocs t.frees
    else None
  end
