open St_sim
open St_mem

exception Abort of Htm_stats.abort_reason

(* Transaction backend.  [Htm] is the TSX model (eager conflict dooming,
   capacity and interrupt aborts).  [Stm] is a TL2-flavoured software
   alternative: per-line versions with commit-time validation, no capacity
   or interrupt aborts, but an instrumentation cost on every access and a
   validation cost proportional to the read set at commit — the paper's
   "StackTrack can also be executed using software transactional memory,
   [but] hardware support is essential for performance" made measurable. *)
type backend = Htm | Stm

(* Transaction footprints are tiny (capacity-bounded at a few dozen cache
   lines), so the per-txn sets are plain int vectors with linear membership
   scans: on footprints this small a cache-resident linear pass beats the
   polymorphic hashing that a [Hashtbl] charges on every single memory
   access — and it allocates nothing.  The write buffer is a parallel
   [w_addr]/[w_val] pair kept in insertion order; an address appears at most
   once (later stores update in place), so commit application order is the
   program's store order, which is unobservable through the heap. *)
type txn = {
  owner : int;
  lines : Ivec.t; (* union footprint, for capacity *)
  read_lines : Ivec.t;
  write_lines : Ivec.t;
  read_versions : (int, int) Hashtbl.t; (* STM: line -> version at 1st read *)
  mutable rv : int; (* STM: global-clock snapshot at transaction start *)
  set_occ : int array; (* distinct lines per cache set *)
  w_addr : Ivec.t; (* buffered stores, insertion order *)
  w_val : Ivec.t;
  mutable doomed : Htm_stats.abort_reason option;
}

(* Preallocated [Some _] doom verdicts: dooming happens on hot access paths
   and the reasons are constant constructors. *)
let doomed_conflict = Some Htm_stats.Conflict
let doomed_capacity = Some Htm_stats.Capacity
let doomed_interrupt = Some Htm_stats.Interrupt


(* Thread-id bitsets for the per-line conflict index:
   [Topology.max_threads] bits packed into native ints. *)
let bits_per_word = Sys.int_size
let bitset_words = (Topology.max_threads + bits_per_word - 1) / bits_per_word

(* Chunk geometry of the line tables (state + two conflict bitsets). *)
let lines_per_chunk_shift = 12
let lines_per_chunk = 1 lsl lines_per_chunk_shift
let line_ix_mask = lines_per_chunk - 1

type line_stats = {
  line : int;
  mutable touches : int;
  mutable conflicts : int;
  mutable capacity : int;
}

type t = {
  sched : Sched.t;
  heap : Heap.t;
  cache : Cache.t;
  backend : backend;
  txns : txn option array;
  pool : txn option array;
      (* Per-thread reusable transaction record (and its [Some] box):
         [start] resets it instead of allocating five fresh tables per
         segment.  [txns.(tid)] aliases [pool.(tid)] while active. *)
  stats : Htm_stats.t array;
  mutable line_versions : (int, int) Hashtbl.t; (* STM per-line versions *)
  mutable stm_clock : int; (* STM global version clock (TL2) *)
  evict_rng : Rng.t;
  (* MESI-ish per-line coherence state: last owner and dirtiness, packed as
     [owner * 2 + dirty], [-1] = never touched.  A read of a remotely-dirty
     line, or a write to a line anyone else touched last, pays the
     coherence-miss latency.  Heap addresses are dense and small (they
     start at [Word.heap_base = 0x1000] and are recycled through free
     lists), so the table is indexed directly by line — consulted on every
     memory access, where it replaces a hash lookup with a load.  Like the
     heap's backing store, the three line tables are chunk directories
     ([lines_per_chunk] lines per chunk, allocated on first touch), so
     their size tracks the touched address space instead of doubling dense
     arrays sized by the heap break. *)
  mutable line_state : int array array; (* line -> owner tid * 2 + dirty, -1 *)
  (* Conflict index: for each line with speculative state, the set of
     threads whose *active* transaction holds it in its read (resp. write)
     set, as bitset chunks of [bitset_words] words per line (all-zero = no
     holder).  Maintained when a transaction first touches a line and
     cleared when it commits or aborts, so [doom_conflicting] visits only
     the transactions actually on the conflicting line instead of sweeping
     all [max_threads] slots on every memory access. *)
  mutable line_readers : int array array;
  mutable line_writers : int array array;
  mutable line_chunks : int; (* chunks currently backed, for footprint *)
  (* Last coherence verdict, so a run of same-line accesses by one thread
     pays one table lookup instead of N: [coh_st] is the post-state this
     manager last stored (or left) in [line_state] for [coh_line], valid
     because [coherence_cost] is the only writer of [line_state] — any
     interleaved access (any thread, any line) refreshes the three fields,
     so a stale hit is impossible.  The charged cycles are unchanged; only
     redundant lookups and zero-cost [Profile.note_coherence] calls are
     elided. *)
  mutable coh_tid : int;
  mutable coh_line : int;
  mutable coh_st : int;
  (* Precomputed word index / bit mask per tid for the flat bitsets: the
     word size is 63 bits, so computing them inline would cost two integer
     divisions on every access (ocamlopt does not strength-reduce division
     by a non-power-of-two without flambda). *)
  tid_word : int array;
  tid_mask : int array;
  (* Highest bitset word that can be non-zero, maintained when a bit is
     first set for a new-high tid: [doom_from] scans [nw] words instead of
     all [bitset_words] (1 vs 5 for runs under 64 threads). *)
  mutable nw : int;
  (* Same-line batching for the conflict walk: [idx_gen] is bumped whenever
     any bit is *set* in either conflict bitset.  A doom walk records
     (tid, line, generation, strength); a later walk by the same thread on
     the same line with an unchanged generation is provably a no-op — every
     transaction the walk would visit was already visited (and doomed) by
     the recorded walk, because only a [set_bit] can put a new transaction
     on the line (clears never add doomable candidates) — so the walk is
     skipped.  Node traversals re-touch the same line in runs (key then
     next pointer), which is exactly when this hits. *)
  mutable idx_gen : int;
  mutable fp_tid : int;
  mutable fp_line : int;
  mutable fp_gen : int;
  mutable fp_write : bool; (* recorded walk doomed readers too *)
  (* Cached per-tid SMT-sibling lcore index (-1 none, -2 unknown): threads
     never migrate, and [pressure_evict] needed two cross-module calls per
     memory access to rediscover it. *)
  sib_ix : int array;
  (* Active-transaction registry, one flat tid array per logical core, kept
     sorted ascending with [act_len] live entries.  [pressure_evict]
     consults only the SMT sibling's slice; the ascending order reproduces
     the RNG draw sequence of the old 0..max_threads scan exactly, keeping
     same-seed runs byte-identical.  Flat arrays rather than lists so that
     entering a transaction allocates nothing (the old version consed one
     list cell per segment). *)
  act_tids : int array array;
  act_len : int array;
  (* The per-line contention record: one cell per line that saw a counted
     event, so its size tracks the contended lines, not the address space.
     Touches are counted only when the scheduler's profiler is on. *)
  per_line : (int, line_stats) Hashtbl.t;
  count_touches : bool;
  forensics : Forensics.t;
}

let create ?(cache = Cache.create ()) ?(backend = Htm)
    ?(forensics = Forensics.disabled) ~sched ~heap () =
  let t =
    {
      sched;
      heap;
      cache;
      backend;
      forensics;
      txns = Array.make Topology.max_threads None;
      pool = Array.make Topology.max_threads None;
      line_versions = Hashtbl.create 4096;
      stm_clock = 0;
      stats =
        Array.init Topology.max_threads (fun _ -> Htm_stats.create ());
      evict_rng = Rng.split (Sched.rng sched);
      line_state = Array.make 4 [||];
      line_readers = Array.make 4 [||];
      line_writers = Array.make 4 [||];
      line_chunks = 0;
      coh_tid = -1;
      coh_line = -1;
      coh_st = -1;
      tid_word =
        Array.init Topology.max_threads (fun tid -> tid / bits_per_word);
      tid_mask =
        Array.init Topology.max_threads (fun tid ->
            1 lsl (tid mod bits_per_word));
      nw = 1;
      idx_gen = 0;
      fp_tid = -1;
      fp_line = -1;
      fp_gen = -1;
      fp_write = false;
      sib_ix = Array.make Topology.max_threads (-2);
      act_tids =
        Array.init (Topology.lcores (Sched.topology sched)) (fun _ ->
            Array.make Topology.max_threads 0);
      act_len = Array.make (Topology.lcores (Sched.topology sched)) 0;
      (* Sized so that the few hundred lines of an unprofiled run never
         resize it. *)
      per_line = Hashtbl.create 1024;
      count_touches = Profile.enabled (Sched.profile sched);
    }
  in
  (* A timer interrupt / context switch clears the speculative cache state:
     the in-flight transaction of a preempted (or crashed) thread dies. *)
  (* Only hardware transactions die on preemption; software transactions
     survive context switches. *)
  if backend = Htm then
    Sched.on_preempt sched (fun tid ->
        match t.txns.(tid) with
        | Some txn ->
            txn.doomed <- doomed_interrupt;
            Forensics.on_interrupt_doom t.forensics ~victim:tid;
            let tr = Sched.trace sched in
            if Trace.on tr then
              Trace.instant tr ~time:(Sched.now sched) ~tid Trace.Htm "doom"
                (fun () -> "interrupt")
        | None -> ());
  t

let heap t = t.heap
let cache t = t.cache
let stats t ~tid = t.stats.(tid)
let forensics t = t.forensics
let profile t = Sched.profile t.sched

let total_stats t =
  (* Merge only the threads the scheduler knows about: sweeping the full
     [max_threads] slots allocated a 256-element array + list per call even
     for a 2-thread run (the metrics sampler calls this on every tick). *)
  let n = min Topology.max_threads (Sched.n_threads t.sched) in
  let rec take i acc = if i < 0 then acc else take (i - 1) (t.stats.(i) :: acc) in
  Htm_stats.merge (take (n - 1) [])

let costs t = Sched.costs t.sched
let tid t = Sched.current t.sched
let trace t = Sched.trace t.sched

let my_txn t = t.txns.(tid t)

let in_txn t = my_txn t <> None

let footprint txn = Ivec.length txn.lines

let data_set_lines t = match my_txn t with Some x -> footprint x | None -> 0

(* ---- Chunked per-line tables -------------------------------------- *)

(* Back the chunk holding [line] in the three line-indexed tables.  Called
   once per access with the line about to be touched; chunk allocation
   itself is rare (the address space is bounded by the live heap, which
   recycles) and never copies existing chunk data — only the small
   directory of chunk pointers ever doubles. *)
let ensure_lines t line =
  let c = line lsr lines_per_chunk_shift in
  if c >= Array.length t.line_state then begin
    let cap = ref (Array.length t.line_state) in
    while c >= !cap do
      cap := !cap * 2
    done;
    let grow d =
      let d' = Array.make !cap [||] in
      Array.blit d 0 d' 0 (Array.length d);
      d'
    in
    t.line_state <- grow t.line_state;
    t.line_readers <- grow t.line_readers;
    t.line_writers <- grow t.line_writers
  end;
  if Array.length (Array.unsafe_get t.line_state c) = 0 then begin
    t.line_state.(c) <- Array.make lines_per_chunk (-1);
    t.line_readers.(c) <- Array.make (lines_per_chunk * bitset_words) 0;
    t.line_writers.(c) <- Array.make (lines_per_chunk * bitset_words) 0;
    t.line_chunks <- t.line_chunks + 1
  end

(* Words of backing store currently held by the three line tables —
   proportional to touched chunks, reported by the scale figure. *)
let line_table_words t =
  t.line_chunks * lines_per_chunk * (1 + (2 * bitset_words))

(* Bitset chunk + in-chunk index for [line]'s bit-word [w].  Valid only
   after [ensure_lines] backed the chunk; all callers run on ensured
   lines. *)
let[@inline] bitset_chunk d line =
  Array.unsafe_get d (line lsr lines_per_chunk_shift)

let[@inline] bitset_ix line w = ((line land line_ix_mask) * bitset_words) + w

(* ---- Per-line contention record ----------------------------------- *)

(* [line]'s cell, created on its first counted event.  Exception-style
   lookup: [find_opt] would box a [Some] per call, and with touches on
   this runs on every memory access. *)
let line_stats t line =
  match Hashtbl.find t.per_line line with
  | s -> s
  | exception Not_found ->
      let s = { line; touches = 0; conflicts = 0; capacity = 0 } in
      Hashtbl.add t.per_line line s;
      s

let touch t line =
  if t.count_touches then begin
    let s = line_stats t line in
    s.touches <- s.touches + 1
  end

let fold_lines t f acc = Hashtbl.fold (fun _ s acc -> f s acc) t.per_line acc

let conflict_tally t =
  let tally = Hashtbl.create 64 in
  Hashtbl.iter
    (fun line s ->
      if s.conflicts > 0 then Hashtbl.replace tally line s.conflicts)
    t.per_line;
  tally

(* ---- Conflict-index maintenance ---------------------------------- *)

(* A bit is set only on the first touch of a line by a transaction's read
   (resp. write) set, so the bit doubles as the set-membership test: the
   per-access path is one load and a mask instead of the linear footprint
   scan the sets used to need (which made a segment's access cost quadratic
   in its footprint).  Setting a bit bumps [idx_gen] (see the type) and
   raises the scan horizon [nw] when the owner lives in a new-high word. *)
let note_write t txn line =
  let ch = bitset_chunk t.line_writers line in
  let ix = bitset_ix line t.tid_word.(txn.owner) in
  let w = Array.unsafe_get ch ix in
  let m = t.tid_mask.(txn.owner) in
  if w land m = 0 then begin
    Ivec.push txn.write_lines line;
    Array.unsafe_set ch ix (w lor m);
    t.idx_gen <- t.idx_gen + 1;
    let hw = Array.unsafe_get t.tid_word txn.owner + 1 in
    if hw > t.nw then t.nw <- hw
  end

(* Registry of active transactions per lcore: insertion keeps owner tids
   ascending, removal shifts the suffix down.  The slices are tiny (threads
   pinned to one lcore), and both operations are allocation-free. *)
let insert_active t txn =
  let lc = Sched.lcore_of t.sched txn.owner in
  let a = t.act_tids.(lc) in
  let n = t.act_len.(lc) in
  let i = ref n in
  while !i > 0 && a.(!i - 1) > txn.owner do
    a.(!i) <- a.(!i - 1);
    decr i
  done;
  a.(!i) <- txn.owner;
  t.act_len.(lc) <- n + 1

(* Drop a discarded transaction from the registry and the conflict index.
   Called exactly once, when the transaction commits or aborts. *)
let unindex t txn =
  let lc = Sched.lcore_of t.sched txn.owner in
  let a = t.act_tids.(lc) in
  let n = t.act_len.(lc) in
  let i = ref 0 in
  while !i < n && a.(!i) <> txn.owner do incr i done;
  if !i < n then begin
    for j = !i to n - 2 do
      a.(j) <- a.(j + 1)
    done;
    t.act_len.(lc) <- n - 1
  end;
  let tw = t.tid_word.(txn.owner) in
  let tm = lnot t.tid_mask.(txn.owner) in
  for i = 0 to Ivec.length txn.read_lines - 1 do
    let line = Ivec.get txn.read_lines i in
    let ch = bitset_chunk t.line_readers line in
    let ix = bitset_ix line tw in
    ch.(ix) <- ch.(ix) land tm
  done;
  for i = 0 to Ivec.length txn.write_lines - 1 do
    let line = Ivec.get txn.write_lines i in
    let ch = bitset_chunk t.line_writers line in
    let ix = bitset_ix line tw in
    ch.(ix) <- ch.(ix) land tm
  done

(* Discard the active transaction and deliver the abort to the caller. *)
let do_abort t txn reason =
  t.txns.(txn.owner) <- None;
  unindex t txn;
  Htm_stats.record_abort t.stats.(txn.owner) reason;
  let tr = trace t in
  if Trace.on tr then
    Trace.span_end tr ~time:(Sched.now t.sched) ~tid:txn.owner Trace.Htm
      "txn" (fun () ->
        Printf.sprintf "abort:%s lines=%d"
          (Htm_stats.reason_to_string reason)
          (Ivec.length txn.lines));
  (* The abort-handling latency itself is wasted work: charge it while the
     profiler still considers the transaction open, then resolve.  The
     forensics stamp reads the pending pot after that charge, so the
     per-cause wasted buckets include the abort latency and sum exactly to
     the profiler's wasted account. *)
  Sched.consume t.sched (costs t).htm_abort;
  if Forensics.enabled t.forensics then
    Forensics.on_abort_delivered t.forensics ~tid:txn.owner ~cause:reason
      ~wasted:(Profile.pending_txn (profile t) ~tid:txn.owner);
  Profile.txn_abort (profile t) ~tid:txn.owner;
  raise (Abort reason)

let check_doomed t txn =
  match txn.doomed with Some r -> do_abort t txn r | None -> ()

(* Requester-wins conflict resolution: doom every *other* active transaction
   for which [line] is in a conflicting set.  The per-line reverse index
   makes this O(transactions on the line); a transaction holding the line
   in both sets is visited once by each pass but doomed (and counted) only
   once, as in the old full scan. *)
(* Doom every other active transaction whose bit is set for [line] in
   [flat].  Bits are visited in ascending tid order (matching the old
   per-line bitset walk); the loop is written without closures because it
   sits on every memory access. *)
let doom_from t ~me ~line flat =
  let ch = bitset_chunk flat line in
  let base = (line land line_ix_mask) * bitset_words in
  (* [base + w] is inside the chunk ([ensure_lines] backed it); [!other]
     is only dereferenced on a set bit, and bits are only ever set for
     registered tids. *)
  for w = 0 to t.nw - 1 do
    let x = ref (Array.unsafe_get ch (base + w)) in
    if !x <> 0 then begin
      let other = ref (w * bits_per_word) in
      while !x <> 0 do
        (if !x land 1 <> 0 && !other <> me then
           match Array.unsafe_get t.txns !other with
           | Some txn when txn.doomed = None ->
               txn.doomed <- doomed_conflict;
               let s = line_stats t line in
               s.conflicts <- s.conflicts + 1;
               Forensics.on_conflict_doom t.forensics ~victim:!other
                 ~aborter:me
           | _ -> ());
        x := !x lsr 1;
        incr other
      done
    end
  done

(* Same-line batching (see [idx_gen] in the type): a repeat walk by the
   same thread on the same line is skipped while no bit has been set
   anywhere since the recorded walk — everything it could doom is already
   doomed.  A read-strength walk cannot stand in for a write-strength one
   (it never visited the readers), hence the [fp_write] check. *)
let doom_conflicting t ~me ~line ~against_readers =
  if
    t.fp_tid = me && t.fp_line = line && t.fp_gen = t.idx_gen
    && (t.fp_write || not against_readers)
  then ()
  else begin
    doom_from t ~me ~line t.line_writers;
    if against_readers then doom_from t ~me ~line t.line_readers;
    t.fp_tid <- me;
    t.fp_line <- line;
    t.fp_gen <- t.idx_gen;
    t.fp_write <- against_readers
  end

(* Cache-pressure eviction: every memory access can knock a speculative
   line out of the L1 it shares with the accessor — the victim transaction
   is doomed with a capacity abort.  Sibling traffic (two hyperthreads on
   one L1) is the dominant source; a thread's own non-transactional
   interference (stack, metadata) a rare one.  Probability scales with the
   victim's footprint, so long transactions die first and the split-length
   predictor reacts exactly as on real TSX. *)
(* Top-level rather than a local closure of [pressure_evict]: that closure
   captured the environment and was allocated on every memory access. *)
let consider_evict t ~me txn denom total_lines =
  if txn.doomed = None then begin
    let fp = footprint txn in
    if fp > 0 && Rng.int t.evict_rng (total_lines * denom) < fp then begin
      txn.doomed <- doomed_capacity;
      Forensics.on_capacity_doom t.forensics ~victim:txn.owner ~aborter:me;
      let tr = trace t in
      if Trace.on tr then
        Trace.instant tr ~time:(Sched.now t.sched) ~tid:txn.owner Trace.Cache
          "evict" (fun () -> Printf.sprintf "by=%d footprint=%d" me fp)
    end
  end

let consider_siblings t ~me denom total_lines tids n =
  for i = 0 to n - 1 do
    let o = Array.unsafe_get tids i in
    if o <> me then
      match Array.unsafe_get t.txns o with
      | Some txn -> consider_evict t ~me txn denom total_lines
      | None -> ()
  done

let pressure_evict t ~me =
  if t.backend = Stm then ()
  else begin
    let total_lines = Cache.lines t.cache in
    (* Self-interference. *)
    (match t.txns.(me) with
    | Some txn -> consider_evict t ~me txn t.cache.Cache.self_evict_denom total_lines
    | None -> ());
    (* Sibling interference: transactions whose logical core shares our L1.
       The registry slice is ascending in owner tid, so the RNG draws happen
       in the same order as the old full-array sweep.  The sibling lcore is
       resolved once per thread (threads never migrate). *)
    let sib = t.sib_ix.(me) in
    let sib =
      if sib >= -1 then sib
      else begin
        let s =
          Topology.sibling_ix (Sched.topology t.sched)
            (Sched.lcore_of t.sched me)
        in
        t.sib_ix.(me) <- s;
        s
      end
    in
    if sib >= 0 then
      consider_siblings t ~me t.cache.Cache.sibling_evict_denom total_lines
        t.act_tids.(sib) t.act_len.(sib)
  end

(* Coherence cost of touching [line]: reads miss on remotely-dirty lines
   (dirty-forward + downgrade); writes miss unless this thread already owns
   the line exclusively.  The [coh_*] verdict cache short-circuits the
   common case of a thread re-touching the line it just touched (node
   traversals hit key then next pointer in runs): the cached post-state
   determines the verdict without reloading the table.  When the cached
   state carries the dirty bit the owner is necessarily [me] (a remote
   read would have downgraded it when it was cached), so both a repeat
   read and a repeat write are free and transition-less; a clean repeat
   read is likewise free; only a clean->dirty upgrade still pays the miss
   and stores.  Every branch charges exactly what the uncached computation
   would, so cycle accounting is byte-identical. *)
let coherence_cost t ~me ~line ~is_write =
  if me = t.coh_tid && line = t.coh_line then begin
    let st = t.coh_st in
    if st land 1 = 1 then 0
    else if is_write then begin
      let st' = (me lsl 1) lor 1 in
      Array.unsafe_set
        (Array.unsafe_get t.line_state (line lsr lines_per_chunk_shift))
        (line land line_ix_mask) st';
      t.coh_st <- st';
      (costs t).coherence_miss
    end
    else 0
  end
  else begin
    let ch = Array.unsafe_get t.line_state (line lsr lines_per_chunk_shift) in
    let off = line land line_ix_mask in
    (* [st] = owner * 2 + dirty, or -1 when the line was never touched. *)
    let st = Array.unsafe_get ch off in
    let extra =
      if st < 0 then 0
      else begin
        let owner = st lsr 1 and dirty = st land 1 = 1 in
        if is_write then
          if owner = me && dirty then 0 else (costs t).coherence_miss
        else if dirty && owner <> me then (costs t).coherence_miss
        else 0
      end
    in
    let st' =
      if is_write then (me lsl 1) lor 1
      else if st < 0 || (st land 1 = 1 && st lsr 1 <> me) then
        (* Never-seen line, or a dirty line downgraded to shared on a
           remote read; a clean line (or our own dirty line) keeps its
           state. *)
        me lsl 1
      else st
    in
    if st' <> st then Array.unsafe_set ch off st';
    t.coh_tid <- me;
    t.coh_line <- line;
    t.coh_st <- st';
    extra
  end

(* Fused lookup + profiler note: the zero-cost case (by far the common
   one, and the only case the verdict cache produces on repeats) skips the
   [Profile.note_coherence] call entirely — [note_coherence] is a no-op on
   zero cost, so profile totals are unchanged. *)
let charge_coherence t ~me ~line ~is_write =
  let miss = coherence_cost t ~me ~line ~is_write in
  if miss > 0 then Profile.note_coherence (profile t) ~tid:me miss;
  miss

let effective_ways t =
  let ways = t.cache.Cache.ways - t.cache.Cache.reserved_ways in
  let ways = if Sched.sibling_active t.sched (tid t) then ways / 2 else ways in
  (* Not [max 1 ways]: [Stdlib.max] is polymorphic, a [caml_greaterequal]
     C call on every newly touched line. *)
  if ways >= 1 then ways else 1

(* Fused track+note for the two dominant access paths: one index/mask
   computation and one bitset-load pair serves the footprint-membership
   test, the capacity check and the read-set (resp. write-set) insertion.
   Semantically [track] followed by [note_read] (resp. [note_write]) —
   including the capacity abort firing before anything is recorded. *)
(* Unchecked array accesses in the fused paths: [ensure_lines] ran first,
   so the chunk is backed and [ix] is inside it; [owner] is a registered
   tid, under [max_threads]. *)
let track_note_read t txn line =
  let rch = bitset_chunk t.line_readers line in
  let ix = bitset_ix line (Array.unsafe_get t.tid_word txn.owner) in
  let m = Array.unsafe_get t.tid_mask txn.owner in
  let r = Array.unsafe_get rch ix in
  if r land m = 0 then begin
    if Array.unsafe_get (bitset_chunk t.line_writers line) ix land m = 0
    then begin
      if t.backend = Htm then begin
        let set = Cache.set_of t.cache line in
        let occ = txn.set_occ.(set) + 1 in
        if occ > effective_ways t then begin
          let s = line_stats t line in
          s.capacity <- s.capacity + 1;
          (* Associativity overflow is self-inflicted: the transaction's own
             footprint no longer fits the set. *)
          Forensics.on_capacity_doom t.forensics ~victim:txn.owner
            ~aborter:txn.owner;
          do_abort t txn Htm_stats.Capacity
        end;
        txn.set_occ.(set) <- occ
      end;
      Ivec.push txn.lines line
    end;
    Ivec.push txn.read_lines line;
    Array.unsafe_set rch ix (r lor m);
    t.idx_gen <- t.idx_gen + 1;
    let hw = Array.unsafe_get t.tid_word txn.owner + 1 in
    if hw > t.nw then t.nw <- hw
  end

let track_note_write t txn line =
  let wch = bitset_chunk t.line_writers line in
  let ix = bitset_ix line (Array.unsafe_get t.tid_word txn.owner) in
  let m = Array.unsafe_get t.tid_mask txn.owner in
  let w = Array.unsafe_get wch ix in
  if w land m = 0 then begin
    if Array.unsafe_get (bitset_chunk t.line_readers line) ix land m = 0
    then begin
      if t.backend = Htm then begin
        let set = Cache.set_of t.cache line in
        let occ = txn.set_occ.(set) + 1 in
        if occ > effective_ways t then begin
          let s = line_stats t line in
          s.capacity <- s.capacity + 1;
          (* Associativity overflow is self-inflicted: the transaction's own
             footprint no longer fits the set. *)
          Forensics.on_capacity_doom t.forensics ~victim:txn.owner
            ~aborter:txn.owner;
          do_abort t txn Htm_stats.Capacity
        end;
        txn.set_occ.(set) <- occ
      end;
      Ivec.push txn.lines line
    end;
    Ivec.push txn.write_lines line;
    Array.unsafe_set wch ix (w lor m);
    t.idx_gen <- t.idx_gen + 1;
    let hw = Array.unsafe_get t.tid_word txn.owner + 1 in
    if hw > t.nw then t.nw <- hw
  end

(* STM helpers: a global per-line version clock bumped on every committed
   or non-transactional write; transactions validate their read versions. *)
let line_version t line =
  match Hashtbl.find t.line_versions line with
  | v -> v
  | exception Not_found -> 0

let bump_line_version t line =
  Hashtbl.replace t.line_versions line t.stm_clock

(* TL2 read-time validation: a line written since the transaction started
   aborts the reader immediately — this {e opacity} property is what makes
   STM-backed StackTrack safe, because a stale pointer can never be chased
   into reclaimed memory (the source line's version betrays the unlink). *)
let stm_note_read t txn line =
  let v = line_version t line in
  if v > txn.rv then do_abort t txn Htm_stats.Conflict;
  if not (Hashtbl.mem txn.read_versions line) then
    Hashtbl.replace txn.read_versions line v

let stm_validate t txn =
  Hashtbl.iter
    (fun line v0 ->
      if line_version t line <> v0 then do_abort t txn Htm_stats.Conflict)
    txn.read_versions

let start t =
  let me = tid t in
  if t.txns.(me) <> None then invalid_arg "Tsx.start: transaction active";
  let txn =
    match t.pool.(me) with
    | Some txn ->
        Ivec.clear txn.lines;
        Ivec.clear txn.read_lines;
        Ivec.clear txn.write_lines;
        Ivec.clear txn.w_addr;
        Ivec.clear txn.w_val;
        (* Only the backend that populates each table pays its reset. *)
        if t.backend = Htm then
          Array.fill txn.set_occ 0 (Array.length txn.set_occ) 0
        else Hashtbl.clear txn.read_versions;
        txn.rv <- t.stm_clock;
        txn.doomed <- None;
        txn
    | None ->
        let txn =
          {
            owner = me;
            lines = Ivec.create ();
            read_lines = Ivec.create ();
            write_lines = Ivec.create ();
            read_versions = Hashtbl.create 32;
            rv = t.stm_clock;
            set_occ = Array.make t.cache.Cache.sets 0;
            w_addr = Ivec.create ();
            w_val = Ivec.create ();
            doomed = None;
          }
        in
        t.pool.(me) <- Some txn;
        txn
  in
  t.txns.(me) <- t.pool.(me);
  insert_active t txn;
  t.stats.(me).starts <- t.stats.(me).starts + 1;
  Trace.span_begin (trace t) ~time:(Sched.now t.sched) ~tid:me Trace.Htm "txn"
    Trace.no_detail;
  Profile.txn_begin (profile t) ~tid:me;
  Sched.consume t.sched (costs t).htm_begin

(* Index of [addr] in the write buffer, or -1.  Linear: the buffer holds at
   most one slot per written address and segments write a handful. *)
let write_index txn addr =
  let n = Ivec.length txn.w_addr in
  let i = ref 0 in
  while !i < n && Ivec.get txn.w_addr !i <> addr do incr i done;
  if !i < n then !i else -1

let txn_read t txn addr =
  pressure_evict t ~me:txn.owner;
  check_doomed t txn;
  let line = Cache.line_of t.cache addr in
  ensure_lines t line;
  touch t line;
  track_note_read t txn line;
  (match t.backend with
  | Htm -> doom_conflicting t ~me:txn.owner ~line ~against_readers:false
  | Stm -> stm_note_read t txn line);
  let v =
    let i = write_index txn addr in
    if i >= 0 then Ivec.get txn.w_val i
    else Heap.read t.heap ~tid:txn.owner addr
  in
  let miss = charge_coherence t ~me:txn.owner ~line ~is_write:false in
  (* STM pays instrumentation on every shared read (version load +
     read-set bookkeeping). *)
  let instr = if t.backend = Stm then (costs t).load + (costs t).store else 0 in
  Sched.consume t.sched ((costs t).load + miss + instr);
  v

let txn_buffer_write txn addr v =
  let i = write_index txn addr in
  if i >= 0 then Ivec.set txn.w_val i v
  else begin
    Ivec.push txn.w_addr addr;
    Ivec.push txn.w_val v
  end

let txn_write t txn addr v =
  pressure_evict t ~me:txn.owner;
  check_doomed t txn;
  let line = Cache.line_of t.cache addr in
  ensure_lines t line;
  touch t line;
  track_note_write t txn line;
  (match t.backend with
  | Htm -> doom_conflicting t ~me:txn.owner ~line ~against_readers:true
  | Stm -> stm_note_read t txn line);
  txn_buffer_write txn addr v;
  let miss = charge_coherence t ~me:txn.owner ~line ~is_write:true in
  let instr = if t.backend = Stm then (costs t).store else 0 in
  Sched.consume t.sched ((costs t).store + miss + instr)

let read t addr =
  match my_txn t with
  | Some txn -> txn_read t txn addr
  | None -> invalid_arg "Tsx.read: no active transaction"

let write t addr v =
  match my_txn t with
  | Some txn -> txn_write t txn addr v
  | None -> invalid_arg "Tsx.write: no active transaction"

let commit t =
  match my_txn t with
  | None -> invalid_arg "Tsx.commit: no active transaction"
  | Some txn ->
      check_doomed t txn;
      (* The commit latency is charged (and the scheduler yielded) BEFORE
         publication, and the doom flag re-checked after the yield: once
         [commit] returns, the buffer has been applied atomically and the
         caller may perform further same-step state changes (StackTrack's
         register expose) that must be indivisible from the commit, exactly
         as the expose stores belong to the hardware transaction. *)
      let commit_cost =
        match t.backend with
        | Htm -> (costs t).htm_commit
        | Stm ->
            (* Lock acquisition per written line + validation per read
               line (TL2). *)
            (costs t).htm_commit
            + (Hashtbl.length txn.read_versions * (costs t).load)
            + (Ivec.length txn.write_lines * (costs t).cas)
      in
      Sched.consume t.sched commit_cost;
      check_doomed t txn;
      if t.backend = Stm then stm_validate t txn;
      let me = txn.owner in
      for i = 0 to Ivec.length txn.w_addr - 1 do
        Heap.write t.heap ~tid:me (Ivec.get txn.w_addr i)
          (Ivec.get txn.w_val i)
      done;
      if t.backend = Stm && Ivec.length txn.write_lines > 0 then begin
        t.stm_clock <- t.stm_clock + 1;
        for i = 0 to Ivec.length txn.write_lines - 1 do
          bump_line_version t (Ivec.get txn.write_lines i)
        done
      end;
      t.txns.(me) <- None;
      unindex t txn;
      Profile.txn_commit (profile t) ~tid:me;
      t.stats.(me).commits <- t.stats.(me).commits + 1;
      t.stats.(me).data_set_lines <-
        t.stats.(me).data_set_lines + footprint txn;
      let tr = trace t in
      if Trace.on tr then
        Trace.span_end tr ~time:(Sched.now t.sched) ~tid:me Trace.Htm "txn"
          (fun () -> Printf.sprintf "commit lines=%d" (footprint txn))

let abort t =
  match my_txn t with
  | None -> invalid_arg "Tsx.abort: no active transaction"
  | Some txn -> do_abort t txn Htm_stats.Explicit

(* Non-transactional accesses.  If the calling thread happens to be inside a
   transaction, the access is transactional anyway (as on real hardware,
   where every instruction between xbegin and xend is speculative). *)

let nt_read t addr =
  match my_txn t with
  | Some txn -> txn_read t txn addr
  | None ->
      let me = tid t in
      pressure_evict t ~me;
      let line = Cache.line_of t.cache addr in
      ensure_lines t line;
      touch t line;
      doom_conflicting t ~me ~line ~against_readers:false;
      let v = Heap.read t.heap ~tid:me addr in
      let miss = charge_coherence t ~me ~line ~is_write:false in
      Sched.consume t.sched ((costs t).load + miss);
      v

let nt_write t addr v =
  match my_txn t with
  | Some txn -> txn_write t txn addr v
  | None ->
      let me = tid t in
      pressure_evict t ~me;
      let line = Cache.line_of t.cache addr in
      ensure_lines t line;
      touch t line;
      doom_conflicting t ~me ~line ~against_readers:true;
      Heap.write t.heap ~tid:me addr v;
      if t.backend = Stm then begin
        t.stm_clock <- t.stm_clock + 1;
        bump_line_version t line
      end;
      let miss = charge_coherence t ~me ~line ~is_write:true in
      Sched.consume t.sched ((costs t).store + miss)

let nt_cas t addr ~expect desired =
  match my_txn t with
  | Some txn ->
      (* A transactional CAS is a memory access like any other: it extends
         the footprint, so it must run the same cache-pressure roll as
         [txn_read]/[txn_write] — CAS-heavy segments (MS queue, Treiber
         stack) undercounted capacity aborts without it. *)
      pressure_evict t ~me:txn.owner;
      check_doomed t txn;
      let line = Cache.line_of t.cache addr in
      ensure_lines t line;
      touch t line;
      track_note_read t txn line;
      let cur =
        let i = write_index txn addr in
        if i >= 0 then Ivec.get txn.w_val i
        else Heap.read t.heap ~tid:txn.owner addr
      in
      let ok = cur = expect in
      (* Same TTAS discipline transactionally: only a winning CAS adds the
         line to the write set and dooms conflicting readers. *)
      if ok then begin
        note_write t txn line;
        doom_conflicting t ~me:txn.owner ~line ~against_readers:true;
        txn_buffer_write txn addr desired
      end
      else doom_conflicting t ~me:txn.owner ~line ~against_readers:false;
      (* And it pays coherence like the non-transactional branch: a CAS to
         a remotely-owned line must not be cheaper than a plain
         transactional write to it. *)
      let miss = charge_coherence t ~me:txn.owner ~line ~is_write:ok in
      Sched.consume t.sched ((costs t).cas + miss);
      ok
  | None ->
      (* Test-and-test-and-set discipline: a CAS that is going to fail
         performs only the shared read and never takes the line exclusive,
         so it cannot doom readers.  Without this, helping herds (several
         traversals all trying to unlink the same marked node) doom each
         other quadratically. *)
      let me = tid t in
      let line = Cache.line_of t.cache addr in
      ensure_lines t line;
      touch t line;
      let cur = Heap.read t.heap ~tid:me addr in
      let ok = cur = expect in
      doom_conflicting t ~me ~line ~against_readers:ok;
      if ok then begin
        Heap.write t.heap ~tid:me addr desired;
        if t.backend = Stm then begin
          t.stm_clock <- t.stm_clock + 1;
          bump_line_version t line
        end
      end;
      let miss = charge_coherence t ~me ~line ~is_write:ok in
      Sched.consume t.sched ((costs t).cas + miss);
      ok

let nt_fetch_add t addr delta =
  match my_txn t with
  | Some txn ->
      (* Same consistency fixes as the transactional [nt_cas] branch:
         cache-pressure roll and coherence cost. *)
      pressure_evict t ~me:txn.owner;
      check_doomed t txn;
      let line = Cache.line_of t.cache addr in
      ensure_lines t line;
      touch t line;
      track_note_read t txn line;
      note_write t txn line;
      doom_conflicting t ~me:txn.owner ~line ~against_readers:true;
      let cur =
        let i = write_index txn addr in
        if i >= 0 then Ivec.get txn.w_val i
        else Heap.read t.heap ~tid:txn.owner addr
      in
      txn_buffer_write txn addr (cur + delta);
      let miss = charge_coherence t ~me:txn.owner ~line ~is_write:true in
      Sched.consume t.sched ((costs t).fetch_add + miss);
      cur
  | None ->
      let me = tid t in
      let line = Cache.line_of t.cache addr in
      ensure_lines t line;
      touch t line;
      doom_conflicting t ~me ~line ~against_readers:true;
      let cur = Heap.read t.heap ~tid:me addr in
      Heap.write t.heap ~tid:me addr (cur + delta);
      if t.backend = Stm then begin
        t.stm_clock <- t.stm_clock + 1;
        bump_line_version t line
      end;
      let miss = charge_coherence t ~me ~line ~is_write:true in
      Sched.consume t.sched ((costs t).fetch_add + miss);
      cur

let fence t = Sched.consume t.sched (costs t).fence

let free t addr =
  let me = tid t in
  (match Heap.size_of t.heap addr with
  | Some size ->
      (* Freeing behaves like a write to every line of the object: any
         uncommitted transaction that speculatively read the object must
         abort rather than observe reclaimed memory. *)
      let first = Cache.line_of t.cache addr in
      let last = Cache.line_of t.cache (addr + size - 1) in
      ensure_lines t last;
      if t.backend = Stm then t.stm_clock <- t.stm_clock + 1;
      for line = first to last do
        doom_conflicting t ~me ~line ~against_readers:true;
        if t.backend = Stm then bump_line_version t line
      done
  | None -> ());
  Heap.free t.heap ~tid:me addr;
  Sched.consume t.sched (costs t).free

let alloc t ~size =
  let a = Heap.alloc t.heap ~tid:(tid t) ~size in
  Sched.consume t.sched (costs t).alloc;
  a
