(* Tests for the simulated heap: allocator behaviour (reuse, alignment,
   growth), shadow-state violation detection, and range queries, plus
   qcheck properties over random alloc/free traces. *)

open St_mem

let checki = Alcotest.check Alcotest.int
let checkb = Alcotest.check Alcotest.bool

let mk ?strict ?(quarantine = 0) ?(align = 1) () =
  let shadow = Shadow.create ?strict () in
  Heap.create ~quarantine ~align ~shadow ()

let test_alloc_basics () =
  let h = mk () in
  let a = Heap.alloc h ~tid:0 ~size:4 in
  checkb "in heap range" true (a >= Word.heap_base);
  checkb "allocated" true (Heap.is_allocated h a);
  checki "size" 4 (Heap.size_of h a);
  checki "zeroed" 0 (Heap.read h ~tid:0 a)

let test_alloc_even () =
  let h = mk () in
  for _ = 1 to 50 do
    let a = Heap.alloc h ~tid:0 ~size:3 in
    checkb "even base" true (a land 1 = 0)
  done

let test_read_write () =
  let h = mk () in
  let a = Heap.alloc h ~tid:0 ~size:2 in
  Heap.write h ~tid:0 a 123;
  Heap.write h ~tid:0 (a + 1) 456;
  checki "word 0" 123 (Heap.read h ~tid:0 a);
  checki "word 1" 456 (Heap.read h ~tid:0 (a + 1));
  checki "no violations" 0 (Shadow.count (Heap.shadow h))

let test_free_and_reuse () =
  let h = mk () in
  let a = Heap.alloc h ~tid:0 ~size:4 in
  Heap.free h ~tid:0 a;
  checkb "not allocated after free" false (Heap.is_allocated h a);
  let b = Heap.alloc h ~tid:0 ~size:4 in
  checki "LIFO reuse of same-size block" a b

let test_no_reuse_across_sizes () =
  let h = mk () in
  let a = Heap.alloc h ~tid:0 ~size:4 in
  Heap.free h ~tid:0 a;
  let b = Heap.alloc h ~tid:0 ~size:5 in
  checkb "different size not reused" true (a <> b)

let test_use_after_free_read () =
  let h = mk () in
  let a = Heap.alloc h ~tid:0 ~size:2 in
  Heap.write h ~tid:0 a 77;
  Heap.free h ~tid:3 a;
  let v = Heap.read h ~tid:3 a in
  checki "poisoned" Heap.poison v;
  checki "one violation" 1 (Shadow.count (Heap.shadow h));
  checki "uaf read recorded" 1
    (Shadow.count_kind (Heap.shadow h) Shadow.Read_after_free);
  match Shadow.first (Heap.shadow h) with
  | [ v ] ->
      checki "tid recorded" 3 v.Shadow.tid;
      checki "addr recorded" a v.Shadow.addr
  | _ -> Alcotest.fail "expected exactly one kept violation"

let test_use_after_free_write () =
  let h = mk () in
  let a = Heap.alloc h ~tid:0 ~size:2 in
  Heap.free h ~tid:0 a;
  Heap.write h ~tid:1 a 5;
  checki "uaf write recorded" 1
    (Shadow.count_kind (Heap.shadow h) Shadow.Write_after_free)

let test_double_free () =
  let h = mk () in
  let a = Heap.alloc h ~tid:0 ~size:2 in
  Heap.free h ~tid:0 a;
  Heap.free h ~tid:0 a;
  checki "double free recorded" 1
    (Shadow.count_kind (Heap.shadow h) Shadow.Double_free)

let test_bad_free () =
  let h = mk () in
  let a = Heap.alloc h ~tid:0 ~size:4 in
  Heap.free h ~tid:0 (a + 1);
  checki "interior free rejected" 1
    (Shadow.count_kind (Heap.shadow h) Shadow.Bad_free);
  checkb "object still live" true (Heap.is_allocated h a)

let test_strict_raises () =
  let h = mk ~strict:true () in
  let a = Heap.alloc h ~tid:0 ~size:1 in
  Heap.free h ~tid:0 a;
  checkb "raises in strict mode" true
    (try
       ignore (Heap.read h ~tid:0 a);
       false
     with Shadow.Violation _ -> true)

let test_base_of () =
  let h = mk () in
  let a = Heap.alloc h ~tid:0 ~size:8 in
  Alcotest.check Alcotest.(option int) "base" (Some a) (Heap.base_of h a);
  Alcotest.check Alcotest.(option int) "interior" (Some a) (Heap.base_of h (a + 5));
  Alcotest.check Alcotest.(option int) "null" None (Heap.base_of h Word.null);
  Alcotest.check Alcotest.(option int) "small int" None (Heap.base_of h 42);
  Heap.free h ~tid:0 a;
  Alcotest.check Alcotest.(option int) "dead object" None (Heap.base_of h (a + 5))

let test_growth () =
  let h = Heap.create ~initial_words:(1 lsl 13) ~shadow:(Shadow.create ()) () in
  (* Allocate far past the initial capacity. *)
  let last = ref 0 in
  for _ = 1 to 10_000 do
    last := Heap.alloc h ~tid:0 ~size:8
  done;
  Heap.write h ~tid:0 !last 9;
  checki "write after growth" 9 (Heap.read h ~tid:0 !last);
  checki "no violations" 0 (Shadow.count (Heap.shadow h))

let test_stats () =
  let h = mk () in
  let a = Heap.alloc h ~tid:0 ~size:2 in
  let _b = Heap.alloc h ~tid:0 ~size:2 in
  Heap.free h ~tid:0 a;
  checki "allocs" 2 (Heap.allocs h);
  checki "frees" 1 (Heap.frees h);
  checki "live" 1 (Heap.live_objects h);
  checki "peak" 2 (Heap.peak_live h);
  checki "words in use" 2 (Heap.words_in_use h)

let test_alignment_rounds_sizes () =
  (* With line-sized chunks, two consecutive small objects never share a
     line (false-sharing avoidance). *)
  let h = mk ~align:4 () in
  let a = Heap.alloc h ~tid:0 ~size:2 in
  let b = Heap.alloc h ~tid:0 ~size:2 in
  checki "aligned base a" 0 (a mod 4);
  checki "aligned base b" 0 (b mod 4);
  checkb "no shared line" true (b - a >= 4);
  Alcotest.check Alcotest.(option int) "extent covers padding" (Some a)
    (Heap.base_of h (a + 3))

let test_quarantine_delays_reuse () =
  let h = mk ~quarantine:2 () in
  let a = Heap.alloc h ~tid:0 ~size:4 in
  Heap.free h ~tid:0 a;
  (* One block in quarantine: the next alloc must NOT reuse it. *)
  let b = Heap.alloc h ~tid:0 ~size:4 in
  checkb "quarantined block not reused" true (b <> a);
  Heap.free h ~tid:0 b;
  let c = Heap.alloc h ~tid:0 ~size:4 in
  checkb "still quarantined" true (c <> a && c <> b);
  (* Push the quarantine over capacity: a leaves quarantine and is reusable. *)
  Heap.free h ~tid:0 c;
  let d = Heap.alloc h ~tid:0 ~size:4 in
  checki "oldest quarantined block finally reused" a d

let test_marked_pointers_distinct () =
  let h = mk () in
  let a = Heap.alloc h ~tid:0 ~size:2 in
  checkb "not marked" false (Word.is_marked a);
  checkb "marked" true (Word.is_marked (Word.mark a));
  checki "unmark round-trip" a (Word.unmark (Word.mark a))

(* Property: after any trace of allocs and frees, live objects never overlap
   and base_of agrees with ownership. *)
let prop_no_overlap =
  QCheck.Test.make ~name:"alloc/free trace keeps objects disjoint" ~count:60
    QCheck.(list (pair (int_bound 1) (int_range 1 9)))
    (fun ops ->
      let h = mk () in
      let live = Hashtbl.create 16 in
      List.iter
        (fun (op, size) ->
          if op = 0 || Hashtbl.length live = 0 then
            let a = Heap.alloc h ~tid:0 ~size in
            Hashtbl.replace live a size
          else begin
            (* Free the smallest live base. *)
            let a =
              Hashtbl.fold (fun k _ acc -> min k acc) live max_int
            in
            Heap.free h ~tid:0 a;
            Hashtbl.remove live a
          end)
        ops;
      (* Every word of every live object maps back to its base, and live
         ranges are disjoint by construction of owner. *)
      Hashtbl.fold
        (fun base size acc ->
          acc
          && Heap.is_allocated h base
          && List.for_all
               (fun i -> Heap.base_of h (base + i) = Some base)
               (List.init size (fun i -> i)))
        live true
      && Shadow.count (Heap.shadow h) = 0)

let prop_reuse_same_size =
  QCheck.Test.make ~name:"freed block of size s is reused for next size-s alloc"
    ~count:100
    QCheck.(int_range 1 16)
    (fun size ->
      let h = mk () in
      let a = Heap.alloc h ~tid:0 ~size in
      Heap.free h ~tid:0 a;
      Heap.alloc h ~tid:0 ~size = a)

(* ------------------------------------------------------------------ *)
(* Chunked heap vs dense oracle                                        *)
(* ------------------------------------------------------------------ *)

(* Reference allocator: the pre-chunking dense-array implementation of the
   heap, ported verbatim (minus shadow/lifecycle wiring — violations are
   counted inline).  The production heap's chunk directory and segregated
   size-class free lists must be observationally identical to it: same
   alloc addresses, same LIFO reuse and quarantine order, same birth
   indices, same poison fills, same violation verdicts. *)
module Dense_oracle = struct
  module Ivec = St_sim.Ivec

  type t = {
    mutable words : int array;
    mutable owner : int array;
    mutable obj_size : int array;
    mutable birth : int array;
    mutable next_birth : int;
    mutable brk : int;
    free_lists : (int, Ivec.t) Hashtbl.t;
    q_addr : int array;
    q_size : int array;
    mutable q_head : int;
    mutable q_len : int;
    quarantine_max : int;
    align : int;
    mutable allocs : int;
    mutable frees : int;
    mutable live : int;
    mutable peak : int;
    mutable words_live : int;
    mutable bad_frees : int;
    mutable double_frees : int;
    mutable uaf_reads : int;
    mutable uaf_writes : int;
  }

  let create ?(initial_words = 1 lsl 16) ?(quarantine = 128) ?(align = 4) () =
    let cap = max initial_words (Word.heap_base * 2) in
    {
      align;
      words = Array.make cap 0;
      owner = Array.make cap 0;
      obj_size = Array.make cap 0;
      birth = Array.make cap 0;
      next_birth = 0;
      brk = Word.heap_base;
      free_lists = Hashtbl.create 8;
      q_addr = Array.make (quarantine + 1) 0;
      q_size = Array.make (quarantine + 1) 0;
      q_head = 0;
      q_len = 0;
      quarantine_max = quarantine;
      allocs = 0;
      frees = 0;
      live = 0;
      peak = 0;
      words_live = 0;
      bad_frees = 0;
      double_frees = 0;
      uaf_reads = 0;
      uaf_writes = 0;
    }

  let ensure_capacity t needed =
    let cap = Array.length t.words in
    if needed > cap then begin
      let cap' = ref cap in
      while needed > !cap' do
        cap' := !cap' * 2
      done;
      let grow a =
        let a' = Array.make !cap' 0 in
        Array.blit a 0 a' 0 cap;
        a'
      in
      t.words <- grow t.words;
      t.owner <- grow t.owner;
      t.obj_size <- grow t.obj_size;
      t.birth <- grow t.birth
    end

  let in_heap t addr = addr >= Word.heap_base && addr < t.brk

  let claim t base size =
    for i = base to base + size - 1 do
      t.owner.(i) <- base;
      t.words.(i) <- 0
    done;
    t.obj_size.(base) <- size;
    t.birth.(base) <- t.next_birth + 1;
    t.next_birth <- t.next_birth + 1;
    t.allocs <- t.allocs + 1;
    t.live <- t.live + 1;
    if t.live > t.peak then t.peak <- t.live;
    t.words_live <- t.words_live + size

  let effective_align t = max 2 t.align

  let chunk_size t size =
    let a = effective_align t in
    (size + a - 1) / a * a

  let free_list t size =
    match Hashtbl.find t.free_lists size with
    | v -> v
    | exception Not_found ->
        let v = Ivec.create () in
        Hashtbl.add t.free_lists size v;
        v

  let alloc t ~size =
    let size = chunk_size t size in
    let fl = free_list t size in
    let base =
      let n = Ivec.length fl in
      if n > 0 then begin
        let base = Ivec.get fl (n - 1) in
        Ivec.truncate fl (n - 1);
        base
      end
      else begin
        let a = effective_align t in
        let base = (t.brk + a - 1) / a * a in
        ensure_capacity t (base + size + 1);
        t.brk <- base + size;
        base
      end
    in
    claim t base size;
    base

  let is_allocated t addr = in_heap t addr && t.owner.(addr) = addr
  let owner_of t v = if in_heap t v then t.owner.(v) else 0
  let birth_ix t addr = if is_allocated t addr then t.birth.(addr) else 0

  let free t addr =
    if not (in_heap t addr) then t.bad_frees <- t.bad_frees + 1
    else if t.owner.(addr) <> addr then
      if t.obj_size.(addr) > 0 && t.owner.(addr) = 0 then
        t.double_frees <- t.double_frees + 1
      else t.bad_frees <- t.bad_frees + 1
    else begin
      let size = t.obj_size.(addr) in
      for i = addr to addr + size - 1 do
        t.owner.(i) <- 0;
        t.words.(i) <- Heap.poison
      done;
      t.frees <- t.frees + 1;
      t.live <- t.live - 1;
      t.words_live <- t.words_live - size;
      let cap = Array.length t.q_addr in
      let slot = (t.q_head + t.q_len) mod cap in
      t.q_addr.(slot) <- addr;
      t.q_size.(slot) <- size;
      t.q_len <- t.q_len + 1;
      if t.q_len > t.quarantine_max then begin
        let old_addr = t.q_addr.(t.q_head) in
        let old_size = t.q_size.(t.q_head) in
        t.q_head <- (t.q_head + 1) mod cap;
        t.q_len <- t.q_len - 1;
        Ivec.push (free_list t old_size) old_addr
      end
    end

  let read t addr =
    if in_heap t addr && t.owner.(addr) <> 0 then t.words.(addr)
    else begin
      t.uaf_reads <- t.uaf_reads + 1;
      if addr >= 0 && addr < Array.length t.words then t.words.(addr)
      else Heap.poison
    end

  let write t addr v =
    if in_heap t addr && t.owner.(addr) <> 0 then t.words.(addr) <- v
    else begin
      t.uaf_writes <- t.uaf_writes + 1;
      if addr >= 0 && addr < Array.length t.words then t.words.(addr) <- v
    end
end

(* A word to write: a random one from the whole 63-bit range, or one of the
   values a storage encoding that truncated or mis-signed words would get
   wrong — the extremes, -1, the poison pattern, and marked pointers near
   a live object. *)
let any_word rng ~near =
  match Random.State.int rng 8 with
  | 0 -> min_int
  | 1 -> max_int
  | 2 -> -1
  | 3 -> Heap.poison
  | 4 -> Word.mark near
  | 5 -> near
  | _ -> Int64.to_int (Random.State.bits64 rng)

(* One randomized trace: mixed allocs (random sizes), runs of objects of
   one size, frees of live bases, violating frees, writes, and reads of
   both live and stale addresses, driven by one seeded RNG feeding heap and
   oracle the same choices.  The
   trace is long enough (with [heavy]) to push [brk] across several 2^16
   chunk boundaries, so boundary-straddling objects and on-demand chunk
   allocation are exercised, then heap and oracle are compared word by
   word over the touched address space. *)
let run_oracle_trace ~seed ~quarantine ~align ~steps =
  let rng = Random.State.make [| seed |] in
  let shadow = Shadow.create () in
  let h = Heap.create ~quarantine ~align ~shadow () in
  let o = Dense_oracle.create ~quarantine ~align () in
  let live = ref [] in
  let n_live = ref 0 in
  let pick_live () =
    let i = Random.State.int rng !n_live in
    List.nth !live i
  in
  for _ = 1 to steps do
    let r = Random.State.int rng 100 in
    if r < 47 || !n_live = 0 then begin
      let size = 1 + Random.State.int rng 48 in
      let a = Heap.alloc h ~tid:0 ~size in
      let a' = Dense_oracle.alloc o ~size in
      if a <> a' then
        Alcotest.failf "alloc address diverged: heap=%d oracle=%d" a a';
      live := a :: !live;
      incr n_live
    end
    else if r < 50 then begin
      (* A run of [k] objects of one size: one [alloc_run] when that size's
         free list is empty, [k] allocs on the oracle.  With a block ready
         for reuse the run is refused and nothing happens on either side. *)
      let size = 1 + Random.State.int rng 48 and k = Random.State.int rng 9 in
      let stride = Dense_oracle.chunk_size o size in
      if St_sim.Ivec.length (Dense_oracle.free_list o stride) = 0 then begin
        let a = Heap.alloc_run h ~tid:0 ~size ~count:k in
        if k = 0 && a <> Word.null then
          Alcotest.failf "an empty run returned %d" a;
        for i = 0 to k - 1 do
          let a' = Dense_oracle.alloc o ~size in
          if a + (i * stride) <> a' then
            Alcotest.failf "run object %d diverged: heap=%d oracle=%d" i
              (a + (i * stride)) a';
          live := a' :: !live;
          incr n_live
        done
      end
      else
        match Heap.alloc_run h ~tid:0 ~size ~count:k with
        | _ -> Alcotest.failf "a run of %d words ignored its free list" size
        | exception Invalid_argument _ -> ()
    end
    else if r < 78 then begin
      let a = pick_live () in
      Heap.free h ~tid:0 a;
      Dense_oracle.free o a;
      live := List.filter (fun x -> x <> a) !live;
      decr n_live
    end
    else if r < 84 then begin
      (* Wild free: usually an interior pointer, dead base, or out-of-range
         address; when it happens to hit a live base it is a legitimate
         free on both sides, so the live list must drop it. *)
      let a = Random.State.int rng (o.Dense_oracle.brk + 64) in
      let was_live = Dense_oracle.is_allocated o a in
      Heap.free h ~tid:0 a;
      Dense_oracle.free o a;
      if was_live then begin
        live := List.filter (fun x -> x <> a) !live;
        decr n_live
      end
    end
    else if r < 90 then begin
      (* Interior writes at offset <= 1: every object spans >= 2 words
         (effective alignment), so the target stays below [brk] — the
         debugging-only fallback window beyond [brk] is the one spot where
         chunk-rounded and doubled-dense bounds legitimately differ. *)
      let a = pick_live () in
      let off = Random.State.int rng 2 in
      let v = any_word rng ~near:a in
      Heap.write h ~tid:0 (a + off) v;
      Dense_oracle.write o (a + off) v
    end
    else if r < 94 then begin
      (* Wild writes below [brk]: hits dead (poisoned) words or other live
         objects, exercising the write-after-free path on both sides. *)
      let a = Random.State.int rng o.Dense_oracle.brk in
      let v = any_word rng ~near:a in
      Heap.write h ~tid:0 a v;
      Dense_oracle.write o a v
    end
    else begin
      (* Reads over all of [0, brk): live words, poisoned dead words, and
         the below-heap-base violation path. *)
      let a = Random.State.int rng o.Dense_oracle.brk in
      let v = Heap.read h ~tid:0 a in
      let v' = Dense_oracle.read o a in
      if v <> v' then Alcotest.failf "read diverged at %d: %d vs %d" a v v'
    end
  done;
  (* Full-state comparison over the touched address space. *)
  let brk = o.Dense_oracle.brk in
  for addr = 0 to brk - 1 do
    let ow = Heap.owner_of h addr and ow' = Dense_oracle.owner_of o addr in
    if ow <> ow' then
      Alcotest.failf "owner diverged at %d: %d vs %d" addr ow ow';
    let w = Heap.peek h addr in
    let w' = o.Dense_oracle.words.(addr) in
    if w <> w' then Alcotest.failf "word diverged at %d: %d vs %d" addr w w'
  done;
  List.iter
    (fun a ->
      checki "birth index" (Dense_oracle.birth_ix o a) (Heap.birth_ix h a))
    !live;
  checki "allocs" o.Dense_oracle.allocs (Heap.allocs h);
  checki "frees" o.Dense_oracle.frees (Heap.frees h);
  checki "live" o.Dense_oracle.live (Heap.live_objects h);
  checki "peak" o.Dense_oracle.peak (Heap.peak_live h);
  checki "words in use" o.Dense_oracle.words_live (Heap.words_in_use h);
  checki "quarantined" o.Dense_oracle.q_len (Heap.quarantined h);
  checki "bad frees" o.Dense_oracle.bad_frees
    (Shadow.count_kind shadow Shadow.Bad_free);
  checki "double frees" o.Dense_oracle.double_frees
    (Shadow.count_kind shadow Shadow.Double_free);
  checki "uaf reads" o.Dense_oracle.uaf_reads
    (Shadow.count_kind shadow Shadow.Read_after_free);
  checki "uaf writes" o.Dense_oracle.uaf_writes
    (Shadow.count_kind shadow Shadow.Write_after_free);
  (* Resident backing store is proportional to the touched chunks: exactly
     the chunks covering [brk], times one payload word per address plus
     three tables with one entry per granule (the effective alignment). *)
  let chunks = (brk + Heap.chunk_words - 1) / Heap.chunk_words in
  let granule = max 2 align in
  checki "resident words track touched chunks"
    (chunks * Heap.chunk_words * (granule + 3) / granule)
    (Heap.resident_words h);
  true

let prop_oracle_small =
  QCheck.Test.make ~name:"chunked heap == dense oracle (mixed geometry)"
    ~count:12
    QCheck.(pair (int_bound 1_000_000) (pair (int_bound 2) (int_bound 2)))
    (fun (seed, (q_sel, a_sel)) ->
      let quarantine = [| 0; 3; 128 |].(q_sel) in
      let align = [| 1; 4; 8 |].(a_sel) in
      run_oracle_trace ~seed ~quarantine ~align ~steps:2_000)

(* The per-granule tables need the granule to be a power of two. *)
let test_align_power_of_two () =
  List.iter
    (fun align ->
      match mk ~align () with
      | _ -> Alcotest.failf "align %d accepted" align
      | exception Invalid_argument _ -> ())
    [ 0; 3; 12 ]

let test_oracle_heavy () =
  (* One long trace: ~50K ops pushes brk across multiple chunk boundaries
     (several hundred K words), covering boundary-straddling objects,
     directory growth, and deep free-list recycling. *)
  ignore (run_oracle_trace ~seed:0xC0FFEE ~quarantine:128 ~align:4 ~steps:50_000)

(* An object straddling the first 2^16-word chunk boundary holds every
   full-range word, word for word against the oracle; once freed it reads
   as poison and, reallocated, as zeros on both sides of the boundary. *)
let test_words_across_chunk_boundary () =
  let shadow = Shadow.create () in
  let h = Heap.create ~quarantine:0 ~align:4 ~shadow () in
  let o = Dense_oracle.create ~quarantine:0 ~align:4 () in
  let alloc size =
    let a = Heap.alloc h ~tid:0 ~size and a' = Dense_oracle.alloc o ~size in
    checki "alloc address" a' a;
    a
  in
  (* Size-4 fillers up to 8 words short of the boundary, then 16 words. *)
  let boundary = Heap.chunk_words in
  while o.Dense_oracle.brk < boundary - 8 do
    ignore (alloc 4)
  done;
  let a = alloc 16 in
  checki "straddles the boundary" (boundary - 8) a;
  checki "a second chunk" 2 (Heap.touched_chunks h);
  let rng = Random.State.make [| 7 |] in
  let words =
    Array.init 16 (fun i ->
        if i < 8 then [| min_int; max_int; -1; 0; Heap.poison; Word.mark a;
                         min_int + 1; max_int - 1 |].(i)
        else Int64.to_int (Random.State.bits64 rng))
  in
  Array.iteri
    (fun i v ->
      Heap.write h ~tid:0 (a + i) v;
      Dense_oracle.write o (a + i) v)
    words;
  Array.iteri
    (fun i v ->
      checki (Printf.sprintf "word %d" i) v (Heap.read h ~tid:0 (a + i));
      checki (Printf.sprintf "oracle word %d" i) v
        (Dense_oracle.read o (a + i));
      checki (Printf.sprintf "owner %d" i) a (Heap.owner_of h (a + i)))
    words;
  Heap.free h ~tid:0 a;
  Dense_oracle.free o a;
  for i = 0 to 15 do
    checki "poisoned" Heap.poison (Heap.peek h (a + i))
  done;
  checki "reused" a (alloc 16);
  for i = 0 to 15 do
    checki "zeroed" 0 (Heap.read h ~tid:0 (a + i))
  done;
  checki "no violations" 0 (Shadow.count shadow)

(* An object of 150,000 words from the first address covers all of chunk 1
   and crosses two chunk boundaries, as the 10^6-object benchmark's bucket
   array does.  Word for word against the oracle at and around each
   boundary; a granule in the middle chunk is owned by the base; once
   freed every word reads as poison and, reallocated, as zero. *)
let test_object_across_three_chunks () =
  let shadow = Shadow.create () in
  let h = Heap.create ~quarantine:0 ~align:4 ~shadow () in
  let o = Dense_oracle.create ~quarantine:0 ~align:4 () in
  let size = 150_000 in
  let alloc () =
    let a = Heap.alloc h ~tid:0 ~size and a' = Dense_oracle.alloc o ~size in
    checki "alloc address" a' a;
    a
  in
  let a = alloc () in
  let c = Heap.chunk_words in
  checkb "crosses two boundaries" true (a < c && a + size > 2 * c);
  checki "three chunks" 3 (Heap.touched_chunks h);
  let near = List.concat_map (fun b -> [ b - 2; b - 1; b; b + 1 ]) [ c; 2 * c ] in
  let rng = Random.State.make [| 11 |] in
  List.iter
    (fun i ->
      let v = any_word rng ~near:a in
      Heap.write h ~tid:0 i v;
      Dense_oracle.write o i v)
    near;
  List.iter
    (fun i ->
      checki (Printf.sprintf "word %d" i) (Dense_oracle.read o i)
        (Heap.read h ~tid:0 i);
      checki (Printf.sprintf "owner %d" i) a (Heap.owner_of h i))
    (a :: (a + size - 1) :: near);
  checki "a middle-chunk granule" a (Heap.owner_of h (c + (c / 2) + 1));
  checki "past the end" 0 (Heap.owner_of h (a + size));
  checki "birth" (Dense_oracle.birth_ix o a) (Heap.birth_ix h a);
  Heap.free h ~tid:0 a;
  Dense_oracle.free o a;
  for i = a to a + size - 1 do
    if Heap.peek h i <> Heap.poison then Alcotest.failf "word %d not poisoned" i;
    if Heap.owner_of h i <> 0 then Alcotest.failf "word %d still owned" i
  done;
  checki "reused" a (alloc ());
  for i = a to a + size - 1 do
    if Heap.read h ~tid:0 i <> 0 then Alcotest.failf "word %d not zeroed" i;
    if Heap.owner_of h i <> Dense_oracle.owner_of o i then
      Alcotest.failf "owner of %d diverged" i
  done;
  checki "no violations" 0 (Shadow.count shadow)

(* A size below one word is refused, not asserted, and allocates nothing. *)
let test_alloc_bad_size () =
  let h = mk () in
  List.iter
    (fun size ->
      match Heap.alloc h ~tid:0 ~size with
      | _ -> Alcotest.failf "size %d accepted" size
      | exception Invalid_argument msg ->
          Alcotest.(check string)
            "names the size"
            (Printf.sprintf "Heap.alloc: size = %d, need at least 1" size)
            msg)
    [ 0; -3 ];
  checki "nothing allocated" 0 (Heap.allocs h)

(* Two heaps with lifecycle ledgers, the same fillers up to 40 words short
   of the first chunk boundary and the same stray word past the break: a
   run of 25 objects of 6 words (8 with the granule) crosses the boundary
   on one, 25 allocs on the other.  The ledgers' clocks tick on every
   read, so equal stamps mean the births were stamped in the same order;
   the words, owners, births, counters and ledgers are the same. *)
let test_run_matches_allocs () =
  let make () =
    let h = Heap.create ~quarantine:0 ~align:4 ~shadow:(Shadow.create ()) () in
    let clock = ref 0 in
    let lc =
      Lifecycle.create
        ~now:(fun () ->
          incr clock;
          !clock)
        ~resolve:(Heap.birth_ix h) ()
    in
    Heap.set_lifecycle h lc;
    let filler = ref Word.null in
    while !filler + 4 < Heap.chunk_words - 40 do
      filler := Heap.alloc h ~tid:0 ~size:4
    done;
    Heap.free h ~tid:0 !filler;
    Heap.write h ~tid:0 (!filler + 12) 77;
    (h, lc, !filler + 12)
  in
  let hr, lr, stray = make () and ha, la, _ = make () in
  let k = 25 and size = 6 in
  let base = Heap.alloc_run hr ~tid:0 ~size ~count:k in
  let addrs = Array.init k (fun _ -> Heap.alloc ha ~tid:0 ~size) in
  checki "stride" 8 (Heap.size_of hr base);
  checki "the stray word is zeroed" 0 (Heap.read hr ~tid:0 stray);
  checkb "crosses the chunk boundary" true
    (base < Heap.chunk_words && base + (8 * k) > Heap.chunk_words);
  Array.iteri
    (fun i a ->
      checki "address" a (base + (8 * i));
      checki "birth" (Heap.birth_ix ha a) (Heap.birth_ix hr a);
      let b = Heap.birth_ix ha a - 1 in
      checkb "stamps" true (Lifecycle.stamps la b = Lifecycle.stamps lr b))
    addrs;
  checki "allocs" (Heap.allocs ha) (Heap.allocs hr);
  checki "live" (Heap.live_objects ha) (Heap.live_objects hr);
  checki "peak live" (Heap.peak_live ha) (Heap.peak_live hr);
  checki "words in use" (Heap.words_in_use ha) (Heap.words_in_use hr);
  checki "chunks" (Heap.touched_chunks ha) (Heap.touched_chunks hr);
  checki "ledger allocs" (Lifecycle.allocs la) (Lifecycle.allocs lr);
  checki "ledger live" (Lifecycle.live_objects la) (Lifecycle.live_objects lr);
  checki "ledger peak words" (Lifecycle.peak_live_words la)
    (Lifecycle.peak_live_words lr);
  for a = 0 to (Heap.touched_chunks ha * Heap.chunk_words) - 1 do
    if
      Heap.peek ha a <> Heap.peek hr a
      || Heap.owner_of ha a <> Heap.owner_of hr a
      || Heap.birth_ix ha a <> Heap.birth_ix hr a
    then Alcotest.failf "heaps differ at %d" a
  done;
  checki "next object"
    (Heap.alloc ha ~tid:0 ~size:4)
    (Heap.alloc hr ~tid:0 ~size:4)

(* Words from the break are zero as their chunk was made; only those that
   a stray write reached are filled.  Two stray words past the break, and
   one past every chunk (not stored), then a run over the two and a run
   wholly past them into chunks made for it: every word of both reads
   zero.  A heap that never zeroes break words fails the first run. *)
let test_break_words_zeroed () =
  let h = mk ~quarantine:0 ~align:4 () in
  let a = Heap.alloc h ~tid:0 ~size:4 in
  let beyond = Heap.touched_chunks h * Heap.chunk_words in
  List.iter (fun w -> Heap.write h ~tid:0 w 77) [ a + 13; a + 30; beyond + 5 ];
  let zeroed name base words =
    for w = base to base + words - 1 do
      if Heap.read h ~tid:0 w <> 0 then Alcotest.failf "%s: word %d" name w
    done
  in
  let over = Heap.alloc_run h ~tid:0 ~size:8 ~count:5 in
  checkb "the first run covers the stray words" true
    (over <= a + 13 && a + 30 < over + 40);
  zeroed "run over the stray words" over 40;
  let past = Heap.alloc_run h ~tid:0 ~size:8 ~count:(Heap.chunk_words / 4) in
  checkb "the second run reaches past every chunk" true
    (past + (2 * Heap.chunk_words) > beyond + 5);
  zeroed "run past the stray words" past (2 * Heap.chunk_words)

(* A run of a size whose free list holds a block is refused, and nothing
   is allocated: the next alloc of that size takes the freed block, and
   the break has not moved. *)
let test_run_refused_with_free_block () =
  let h = mk ~quarantine:0 ~align:4 () in
  let a = Heap.alloc h ~tid:0 ~size:4 in
  let b = Heap.alloc h ~tid:0 ~size:8 in
  Heap.free h ~tid:0 a;
  (match Heap.alloc_run h ~tid:0 ~size:3 ~count:5 with
  | _ -> Alcotest.fail "run taken with a block ready for reuse"
  | exception Invalid_argument _ -> ());
  checki "allocs" 2 (Heap.allocs h);
  checki "live" 1 (Heap.live_objects h);
  checki "the freed block" a (Heap.alloc h ~tid:0 ~size:4);
  checki "the break" (b + 8) (Heap.alloc h ~tid:0 ~size:4)

let test_freelist_alloc_budget () =
  (* The recycling path (size-class hit -> LIFO pop -> claim; free -> poison
     -> quarantine push) must not touch the OCaml minor heap at all: it runs
     under every simulated reclamation. *)
  let h = mk ~quarantine:0 ~align:4 () in
  for _ = 1 to 100 do
    let a = Heap.alloc h ~tid:0 ~size:8 in
    Heap.free h ~tid:0 a
  done;
  let n = 10_000 in
  let w0 = Gc.minor_words () in
  for _ = 1 to n do
    let a = Heap.alloc h ~tid:0 ~size:8 in
    Heap.free h ~tid:0 a
  done;
  let per_op = (Gc.minor_words () -. w0) /. float_of_int n in
  if per_op > 0.001 then
    Alcotest.failf "free-list alloc/free path allocates %.4f words/op" per_op

let () =
  Alcotest.run "st_mem"
    [
      ( "heap",
        [
          Alcotest.test_case "alloc basics" `Quick test_alloc_basics;
          Alcotest.test_case "even bases" `Quick test_alloc_even;
          Alcotest.test_case "read write" `Quick test_read_write;
          Alcotest.test_case "free and reuse" `Quick test_free_and_reuse;
          Alcotest.test_case "no cross-size reuse" `Quick
            test_no_reuse_across_sizes;
          Alcotest.test_case "growth" `Quick test_growth;
          Alcotest.test_case "stats" `Quick test_stats;
          Alcotest.test_case "marked pointers" `Quick
            test_marked_pointers_distinct;
          Alcotest.test_case "quarantine delays reuse" `Quick
            test_quarantine_delays_reuse;
          Alcotest.test_case "alignment" `Quick test_alignment_rounds_sizes;
          Alcotest.test_case "align is a power of two" `Quick
            test_align_power_of_two;
          Alcotest.test_case "dense oracle, multi-chunk trace" `Quick
            test_oracle_heavy;
          Alcotest.test_case "full-range words across a chunk boundary"
            `Quick test_words_across_chunk_boundary;
          Alcotest.test_case "one object across three chunks" `Quick
            test_object_across_three_chunks;
          Alcotest.test_case "size below one refused" `Quick
            test_alloc_bad_size;
          Alcotest.test_case "free-list path allocates nothing" `Quick
            test_freelist_alloc_budget;
          Alcotest.test_case "run = allocs, with a ledger, across chunks"
            `Quick test_run_matches_allocs;
          Alcotest.test_case "run refused beside a freed block" `Quick
            test_run_refused_with_free_block;
          Alcotest.test_case "break words zeroed only where written" `Quick
            test_break_words_zeroed;
        ] );
      ( "shadow",
        [
          Alcotest.test_case "uaf read" `Quick test_use_after_free_read;
          Alcotest.test_case "uaf write" `Quick test_use_after_free_write;
          Alcotest.test_case "double free" `Quick test_double_free;
          Alcotest.test_case "bad free" `Quick test_bad_free;
          Alcotest.test_case "strict raises" `Quick test_strict_raises;
          Alcotest.test_case "base_of" `Quick test_base_of;
        ] );
      ( "props",
        [
          QCheck_alcotest.to_alcotest prop_no_overlap;
          QCheck_alcotest.to_alcotest prop_reuse_same_size;
          QCheck_alcotest.to_alcotest prop_oracle_small;
        ] );
    ]
