(* Tests for the TSX model: buffering/atomicity of transactions, eager
   requester-wins conflict detection, capacity aborts driven by set
   associativity, interrupt aborts on preemption, interaction of
   non-transactional accesses and frees with live transactions. *)

open St_sim
open St_mem
open St_htm

let checki = Alcotest.check Alcotest.int
let checkb = Alcotest.check Alcotest.bool

(* Build a world: scheduler + heap + tsx.  Threads are added by the test. *)
let world ?cache ?(quantum = 50_000) ?(cores = 4) ?(smt = 2) () =
  let sched =
    Sched.create ~topology:(Topology.create ~cores ~smt ()) ~quantum ~seed:7 ()
  in
  let heap = Heap.create ~shadow:(Shadow.create ()) () in
  let tsx = Tsx.create ?cache ~sched ~heap () in
  (sched, heap, tsx)

let test_txn_commit_publishes () =
  let sched, heap, tsx = world () in
  let addr = Heap.alloc heap ~tid:0 ~size:2 in
  let _ =
    Sched.add_thread sched (fun _ ->
        Tsx.start tsx;
        Tsx.write tsx addr 42;
        checki "own write visible in txn" 42 (Tsx.read tsx addr);
        checki "not yet in heap" 0 (Heap.peek heap addr);
        Tsx.commit tsx;
        checki "published" 42 (Heap.peek heap addr))
  in
  Sched.run sched

let test_txn_abort_discards () =
  let sched, heap, tsx = world () in
  let addr = Heap.alloc heap ~tid:0 ~size:2 in
  let _ =
    Sched.add_thread sched (fun _ ->
        Tsx.start tsx;
        Tsx.write tsx addr 42;
        (try Tsx.abort tsx with Tsx.Abort Htm_stats.Explicit -> ());
        checki "write discarded" 0 (Heap.peek heap addr);
        checkb "no txn" false (Tsx.in_txn tsx))
  in
  Sched.run sched;
  checki "explicit abort counted" 1 (Tsx.stats tsx ~tid:0).explicit_aborts

let test_conflict_write_dooms_reader () =
  let sched, heap, tsx = world () in
  let addr = Heap.alloc heap ~tid:0 ~size:2 in
  let reader_aborted = ref false in
  let _ =
    Sched.add_thread sched (fun _ ->
        Tsx.start tsx;
        ignore (Tsx.read tsx addr);
        (* Yield long enough for the writer to hit the same line. *)
        Sched.consume sched 1000;
        try
          ignore (Tsx.read tsx addr);
          Tsx.commit tsx
        with Tsx.Abort Htm_stats.Conflict -> reader_aborted := true)
  in
  let _ =
    Sched.add_thread sched (fun _ ->
        Sched.consume sched 100;
        (* Non-transactional store conflicts with the reader's read set. *)
        Tsx.nt_write tsx addr 9)
  in
  Sched.run sched;
  checkb "reader aborted by conflicting store" true !reader_aborted;
  checki "conflict abort counted" 1 (Tsx.stats tsx ~tid:0).conflict_aborts

let test_requester_wins_read_dooms_writer () =
  let sched, heap, tsx = world () in
  let addr = Heap.alloc heap ~tid:0 ~size:2 in
  let writer_aborted = ref false in
  let _ =
    Sched.add_thread sched (fun _ ->
        Tsx.start tsx;
        Tsx.write tsx addr 5;
        Sched.consume sched 1000;
        try Tsx.commit tsx
        with Tsx.Abort Htm_stats.Conflict -> writer_aborted := true)
  in
  let _ =
    Sched.add_thread sched (fun _ ->
        Sched.consume sched 100;
        checki "reader sees pre-txn value" 0 (Tsx.nt_read tsx addr))
  in
  Sched.run sched;
  checkb "writer doomed by requester" true !writer_aborted;
  checki "heap unchanged" 0 (Heap.peek heap addr)

let test_two_txn_writers_conflict () =
  let sched, heap, tsx = world () in
  let addr = Heap.alloc heap ~tid:0 ~size:2 in
  let commits = ref 0 and aborts = ref 0 in
  let body _ =
    Tsx.start tsx;
    Tsx.write tsx addr 1;
    Sched.consume sched 500;
    try
      Tsx.commit tsx;
      incr commits
    with Tsx.Abort _ -> incr aborts
  in
  let _ = Sched.add_thread sched body in
  let _ = Sched.add_thread sched body in
  Sched.run sched;
  checki "exactly one commits" 1 !commits;
  checki "exactly one aborts" 1 !aborts

(* Deterministic capacity geometry: no reserved ways, eviction noise off. *)
let det_cache ~sets ~ways =
  Cache.create ~line_shift:3 ~sets ~ways ~reserved_ways:0
    ~sibling_evict_denom:1_000_000 ~self_evict_denom:1_000_000 ()

let test_capacity_abort_same_set () =
  (* Tiny cache: 4 sets, 2 ways.  Addresses spaced by sets*line_words land in
     the same set; the 3rd distinct line in one set overflows. *)
  let cache = det_cache ~sets:4 ~ways:2 in
  let sched, _heap, tsx = world ~cache ~cores:1 ~smt:1 () in
  let stride = 4 * 8 in
  let base = Word.heap_base in
  let got = ref None in
  let _ =
    Sched.add_thread sched (fun _ ->
        (* Use raw addresses; reads of unallocated words are fine for the
           cache model (they record UAF but we ignore the shadow here). *)
        Tsx.start tsx;
        try
          for i = 0 to 5 do
            ignore (Tsx.read tsx (base + (i * stride)))
          done;
          Tsx.commit tsx
        with Tsx.Abort r -> got := Some r)
  in
  Sched.run sched;
  (match !got with
  | Some Htm_stats.Capacity -> ()
  | Some r -> Alcotest.failf "wrong abort: %s" (Htm_stats.reason_to_string r)
  | None -> Alcotest.fail "expected capacity abort");
  checki "capacity abort counted" 1 (Tsx.stats tsx ~tid:0).capacity_aborts

let test_capacity_ok_across_sets () =
  let cache = det_cache ~sets:4 ~ways:2 in
  let sched, _heap, tsx = world ~cache ~cores:1 ~smt:1 () in
  let base = Word.heap_base in
  let ok = ref false in
  let _ =
    Sched.add_thread sched (fun _ ->
        Tsx.start tsx;
        (* 8 lines spread over 4 sets x 2 ways: exactly fits. *)
        for i = 0 to 7 do
          ignore (Tsx.read tsx (base + (i * 8)))
        done;
        Tsx.commit tsx;
        ok := true)
  in
  Sched.run sched;
  checkb "fits when spread" true !ok

let test_sibling_halves_ways () =
  (* With an active SMT sibling, effective ways drop from 2 to 1, so the
     second line in a set aborts. *)
  let cache = det_cache ~sets:4 ~ways:2 in
  let sched, _heap, tsx = world ~cache ~cores:1 ~smt:2 () in
  let stride = 4 * 8 in
  let base = Word.heap_base in
  let got = ref None in
  let _ =
    Sched.add_thread sched (fun _ ->
        Tsx.start tsx;
        try
          ignore (Tsx.read tsx base);
          ignore (Tsx.read tsx (base + stride));
          Tsx.commit tsx
        with Tsx.Abort r -> got := Some r)
  in
  let _ =
    Sched.add_thread sched (fun _ ->
        (* Sibling stays busy long enough to overlap. *)
        for _ = 1 to 100 do
          Sched.consume sched 10
        done)
  in
  Sched.run sched;
  checkb "capacity abort with active sibling" true (!got = Some Htm_stats.Capacity)

let test_interrupt_abort_on_preemption () =
  (* Two threads multiplexed on one logical core with a small quantum: the
     transactional thread gets preempted mid-transaction and must abort. *)
  let sched, _heap, tsx = world ~quantum:200 ~cores:1 ~smt:1 () in
  let got = ref None in
  let _ =
    Sched.add_thread sched (fun _ ->
        Tsx.start tsx;
        try
          for _ = 1 to 100 do
            ignore (Tsx.read tsx Word.heap_base);
            Sched.consume sched 50
          done;
          Tsx.commit tsx
        with Tsx.Abort r -> got := Some r)
  in
  let _ =
    Sched.add_thread sched (fun _ ->
        for _ = 1 to 50 do
          Sched.consume sched 50
        done)
  in
  Sched.run sched;
  checkb "interrupted" true (!got = Some Htm_stats.Interrupt)

let test_crash_aborts_txn () =
  let sched, heap, tsx = world () in
  let addr = Heap.alloc heap ~tid:0 ~size:1 in
  let victim =
    Sched.add_thread sched (fun _ ->
        Tsx.start tsx;
        Tsx.write tsx addr 99;
        Sched.consume sched 10_000)
  in
  let _ =
    Sched.add_thread sched (fun _ ->
        Sched.consume sched 100;
        Sched.crash sched victim)
  in
  Sched.run sched;
  checki "crashed txn never publishes" 0 (Heap.peek heap addr)

let test_free_dooms_speculative_reader () =
  let sched, heap, tsx = world () in
  let addr = Heap.alloc heap ~tid:0 ~size:2 in
  let aborted = ref false in
  let _ =
    Sched.add_thread sched (fun _ ->
        Tsx.start tsx;
        ignore (Tsx.read tsx addr);
        Sched.consume sched 1000;
        try
          ignore (Tsx.read tsx addr);
          Tsx.commit tsx
        with Tsx.Abort Htm_stats.Conflict -> aborted := true)
  in
  let _ =
    Sched.add_thread sched (fun _ ->
        Sched.consume sched 100;
        Tsx.free tsx addr)
  in
  Sched.run sched;
  checkb "speculative reader of freed object aborts" true !aborted;
  checki "no UAF recorded: reader aborted before reading freed word" 0
    (Shadow.count (Heap.shadow heap))

(* An object straddling a line-chunk boundary (4096 lines, 16384 words per
   chunk): freeing it walks both chunks, so both must be backed, even the
   first one that nothing had touched. *)
let test_free_backs_every_walked_chunk () =
  let sched, heap, tsx = world () in
  ignore (Heap.alloc heap ~tid:0 ~size:(16380 - Word.heap_base));
  let obj = Heap.alloc heap ~tid:0 ~size:8 in
  checki "object starts before the boundary" 16380 obj;
  let _ =
    Sched.add_thread sched (fun _ ->
        ignore (Tsx.nt_read tsx (obj + 4));
        let one = Tsx.line_table_words tsx in
        Tsx.free tsx obj;
        checki "both chunks backed" (2 * one) (Tsx.line_table_words tsx))
  in
  Sched.run sched

(* Above 63 threads the conflict bitsets span two words per line.  Tids
   62 (word 0), 63 and 64 (word 1) hold one line in live read sets; a
   non-transactional store must doom exactly those three, and once they
   are gone a second store dooms nobody. *)
let test_bitsets_past_one_word () =
  let n = 70 and holders = [ 62; 63; 64 ] and storer = 69 in
  (* No quantum expiry, so no holder dies of an interrupt. *)
  let sched, heap, tsx = world ~quantum:100_000_000 () in
  let addr = Heap.alloc heap ~tid:0 ~size:2 in
  let line = Cache.line_of (Tsx.cache tsx) addr in
  let conflicts () =
    Tsx.fold_lines tsx
      (fun s acc -> if s.Tsx.line = line then acc + s.Tsx.conflicts else acc)
      0
  in
  let after_first = ref (-1) in
  for _ = 1 to n do
    ignore
      (Sched.add_thread sched (fun tid ->
           if List.mem tid holders then begin
             Tsx.start tsx;
             ignore (Tsx.read tsx addr);
             Sched.consume sched 100_000;
             try Tsx.commit tsx with Tsx.Abort _ -> ()
           end
           else if tid = storer then begin
             Sched.consume sched 20_000;
             Tsx.nt_write tsx addr 1;
             after_first := conflicts ();
             Sched.consume sched 500_000;
             Tsx.nt_write tsx addr 2
           end))
  done;
  Sched.run sched;
  checki "two bitset words per line: state + 2 x 2 words"
    (4096 * 5) (Tsx.line_table_words tsx);
  checki "first store dooms the three holders" 3 !after_first;
  checki "second store dooms nobody" 3 (conflicts ());
  for tid = 0 to n - 1 do
    checki
      (Printf.sprintf "tid %d conflict aborts" tid)
      (if List.mem tid holders then 1 else 0)
      (Tsx.stats tsx ~tid).conflict_aborts
  done

let test_cas_semantics () =
  let sched, heap, tsx = world () in
  let addr = Heap.alloc heap ~tid:0 ~size:1 in
  let _ =
    Sched.add_thread sched (fun _ ->
        checkb "cas success" true (Tsx.nt_cas tsx addr ~expect:0 7);
        checkb "cas failure" false (Tsx.nt_cas tsx addr ~expect:0 8);
        checki "value" 7 (Heap.peek heap addr);
        (* Transactional CAS buffers. *)
        Tsx.start tsx;
        checkb "txn cas success" true (Tsx.nt_cas tsx addr ~expect:7 9);
        checki "buffered" 7 (Heap.peek heap addr);
        Tsx.commit tsx;
        checki "published" 9 (Heap.peek heap addr))
  in
  Sched.run sched

let test_fetch_add () =
  let sched, heap, tsx = world () in
  let addr = Heap.alloc heap ~tid:0 ~size:1 in
  let _ =
    Sched.add_thread sched (fun _ ->
        checki "fa returns old" 0 (Tsx.nt_fetch_add tsx addr 5);
        checki "fa returns old 2" 5 (Tsx.nt_fetch_add tsx addr 3);
        checki "value" 8 (Heap.peek heap addr))
  in
  Sched.run sched

let test_doomed_txn_cannot_commit () =
  let sched, heap, tsx = world () in
  let addr = Heap.alloc heap ~tid:0 ~size:1 in
  let committed = ref false and aborted = ref false in
  let _ =
    Sched.add_thread sched (fun _ ->
        Tsx.start tsx;
        ignore (Tsx.read tsx addr);
        Sched.consume sched 1000;
        try
          Tsx.commit tsx;
          committed := true
        with Tsx.Abort _ -> aborted := true)
  in
  let _ =
    Sched.add_thread sched (fun _ ->
        Sched.consume sched 100;
        Tsx.nt_write tsx addr 1)
  in
  Sched.run sched;
  checkb "doomed commit refused" true !aborted;
  checkb "not committed" false !committed

let test_stats_commits () =
  let sched, _heap, tsx = world () in
  let _ =
    Sched.add_thread sched (fun _ ->
        for _ = 1 to 5 do
          Tsx.start tsx;
          ignore (Tsx.read tsx Word.heap_base);
          Tsx.commit tsx
        done)
  in
  Sched.run sched;
  checki "starts" 5 (Tsx.stats tsx ~tid:0).starts;
  checki "commits" 5 (Tsx.stats tsx ~tid:0).commits;
  checki "merged" 5 (Tsx.total_stats tsx).commits

let test_data_set_lines () =
  let sched, heap, tsx = world () in
  let a = Heap.alloc heap ~tid:0 ~size:1 in
  let _ =
    Sched.add_thread sched (fun _ ->
        Tsx.start tsx;
        ignore (Tsx.read tsx a);
        ignore (Tsx.read tsx (a + 1024));
        checki "two lines" 2 (Tsx.data_set_lines tsx);
        ignore (Tsx.read tsx a);
        checki "re-read same line" 2 (Tsx.data_set_lines tsx);
        Tsx.commit tsx)
  in
  Sched.run sched

(* ------------------------------------------------------------------ *)
(* Modelling regressions: transactional CAS/fetch-add hot-path bugs     *)
(* ------------------------------------------------------------------ *)

let test_txn_cas_pressure_evict () =
  (* A CAS-only transactional workload must run the same cache-pressure
     roll as plain transactional reads/writes: with self-eviction made
     near-certain (denom 1, 8-line cache) a two-line footprint built purely
     out of CAS operations dies with a capacity abort.  The in-transaction
     [nt_cas] branch used to skip [pressure_evict] entirely, so CAS-heavy
     segments (MS queue, Treiber stack) undercounted capacity aborts. *)
  let cache =
    Cache.create ~line_shift:3 ~sets:4 ~ways:2 ~reserved_ways:0
      ~sibling_evict_denom:1_000_000 ~self_evict_denom:1 ()
  in
  let sched, _heap, tsx = world ~cache ~cores:1 ~smt:1 () in
  let base = Word.heap_base in
  let got = ref None in
  let _ =
    Sched.add_thread sched (fun _ ->
        Tsx.start tsx;
        try
          for _ = 1 to 30 do
            (* Failing CASes: footprint (read set) only, no stores. *)
            ignore (Tsx.nt_cas tsx base ~expect:(-1) 1);
            ignore (Tsx.nt_cas tsx (base + 8) ~expect:(-1) 1)
          done;
          Tsx.commit tsx
        with Tsx.Abort r -> got := Some r)
  in
  Sched.run sched;
  checkb "capacity abort on CAS-only txn" true (!got = Some Htm_stats.Capacity);
  checki "capacity abort counted" 1 (Tsx.stats tsx ~tid:0).capacity_aborts

let test_txn_cas_coherence_cost () =
  (* A transactional CAS to a line another thread owns dirty pays the
     coherence miss, exactly like the non-transactional CAS branch (and
     like a plain transactional write).  It used to be charged bare
     [cas] cycles, making the transactional CAS cheaper than a plain
     transactional store to the same remote line. *)
  let cache =
    Cache.create ~sibling_evict_denom:1_000_000 ~self_evict_denom:1_000_000 ()
  in
  let sched, heap, tsx = world ~cache ~cores:4 ~smt:1 () in
  let addr = Heap.alloc heap ~tid:0 ~size:1 in
  let costs = Sched.costs sched in
  let _ =
    Sched.add_thread sched (fun _ ->
        (* Take the line remotely-dirty before the other thread's CAS. *)
        Tsx.nt_write tsx addr 9)
  in
  let _ =
    Sched.add_thread sched (fun _ ->
        Sched.consume sched 500;
        Tsx.start tsx;
        let t0 = Sched.now sched in
        checkb "cas wins" true (Tsx.nt_cas tsx addr ~expect:9 5);
        checki "txn cas charges cas + coherence miss"
          (costs.St_sim.Costs.cas + costs.St_sim.Costs.coherence_miss)
          (Sched.now sched - t0);
        Tsx.commit tsx)
  in
  Sched.run sched

let test_two_managers_independent_tallies () =
  (* Two coexisting managers keep independent per-line records: the
     conflict counts used to live in a module-level global that
     [Tsx.create] reset, so a second manager in the same process (a
     parallel sweep runner) wiped and then polluted the first one's
     counts. *)
  let conflict_on (sched, heap, tsx) =
    let addr = Heap.alloc heap ~tid:0 ~size:2 in
    let _ =
      Sched.add_thread sched (fun _ ->
          Tsx.start tsx;
          ignore (Tsx.read tsx addr);
          Sched.consume sched 1000;
          try
            ignore (Tsx.read tsx addr);
            Tsx.commit tsx
          with Tsx.Abort _ -> ())
    in
    let _ =
      Sched.add_thread sched (fun _ ->
          Sched.consume sched 100;
          Tsx.nt_write tsx addr 9)
    in
    Sched.run sched
  in
  let ((_, _, tsx1) as w1) = world () in
  conflict_on w1;
  let dooms tsx = Tsx.fold_lines tsx (fun s acc -> acc + s.Tsx.conflicts) 0 in
  checki "first manager tallied the doom" 1 (dooms tsx1);
  (* Creating a second manager must not reset the first one's record. *)
  let ((_, _, tsx2) as w2) = world () in
  checki "first manager's tally survives a second create" 1 (dooms tsx1);
  checki "second manager starts clean" 0 (dooms tsx2);
  conflict_on w2;
  checki "second manager tallies its own doom" 1 (dooms tsx2);
  checki "first manager unaffected by second's conflicts" 1 (dooms tsx1)

(* The per-line record counts conflict dooms and associativity overflows
   on every run, and touches only when the scheduler's profiler is on. *)
let test_line_record_touch_switch () =
  let record ~profiled =
    let sched =
      Sched.create
        ~topology:(Topology.create ~cores:2 ~smt:1 ())
        ~profile:(Profile.create ~enabled:profiled ())
        ~seed:7 ()
    in
    let heap = Heap.create ~shadow:(Shadow.create ()) () in
    let tsx = Tsx.create ~cache:(det_cache ~sets:4 ~ways:2) ~sched ~heap () in
    let a = Heap.alloc heap ~tid:0 ~size:2 in
    (* Three lines of one set (4 sets of 8-word lines): the third
       overflows the set's two ways. *)
    let in_set i = a + 8 + (i * 4 * 8) in
    let _ =
      Sched.add_thread sched (fun _ ->
          Tsx.start tsx;
          ignore (Tsx.read tsx a);
          Sched.consume sched 1000;
          (* Doomed by the other thread's store: aborts before touching. *)
          (try ignore (Tsx.read tsx a) with Tsx.Abort _ -> ());
          Tsx.start tsx;
          try
            for i = 0 to 2 do
              ignore (Tsx.read tsx (in_set i))
            done
          with Tsx.Abort _ -> ())
    in
    let _ =
      Sched.add_thread sched (fun _ ->
          Sched.consume sched 100;
          Tsx.nt_write tsx a 9)
    in
    Sched.run sched;
    let cell addr =
      let line = Cache.line_of (Tsx.cache tsx) addr in
      Tsx.fold_lines tsx
        (fun (s : Tsx.line_stats) acc ->
          if s.line = line then (s.touches, s.conflicts, s.capacity) else acc)
        (0, 0, 0)
    in
    let touches = Tsx.fold_lines tsx (fun s acc -> acc + s.Tsx.touches) 0 in
    (cell a, cell (in_set 2), touches)
  in
  let counts = Alcotest.(triple int int int) in
  let doomed, overflowed, touches = record ~profiled:false in
  Alcotest.check counts "unprofiled: the conflict doom, no touches" (0, 1, 0)
    doomed;
  Alcotest.check counts "unprofiled: the overflow, no touches" (0, 0, 1)
    overflowed;
  checki "unprofiled: no line touched" 0 touches;
  let doomed, overflowed, touches = record ~profiled:true in
  Alcotest.check counts "profiled: the read and the store touch" (2, 1, 0)
    doomed;
  Alcotest.check counts "profiled: the overflowing read touches" (1, 0, 1)
    overflowed;
  checki "profiled: every access touches" 5 touches

(* ------------------------------------------------------------------ *)
(* Determinism golden: fig1-list-shaped run                             *)
(* ------------------------------------------------------------------ *)

let test_fig1_slice_stats_pinned () =
  (* A miniature fig1-list data point with the stats pinned to concrete
     values.  This is the guard for the conflict-index rewrite: the
     per-line reader/writer bitsets and the per-lcore active-transaction
     registry must reproduce the RNG draw order of the old O(max_threads)
     scans exactly, so any refactor of the hot path that perturbs the
     eviction draw sequence (or the conflict set) moves these numbers and
     fails here.  Baseline re-goldened once in this PR: the transactional
     CAS/fetch-add fixes (pressure roll + coherence cost) deliberately
     changed the abort mix, see DESIGN.md section 4. *)
  let run () =
    St_harness.Experiment.run
      {
        St_harness.Experiment.default_config with
        structure = St_harness.Experiment.List_s;
        scheme = St_harness.Experiment.stacktrack_default;
        threads = 8;
        duration = 200_000;
        key_range = 256;
        init_size = 128;
      }
  in
  let r1 = run () and r2 = run () in
  Alcotest.(check string)
    "byte-identical result json"
    (St_harness.Result_json.to_string r1)
    (St_harness.Result_json.to_string r2);
  let open St_harness.Experiment in
  checki "total ops" 691 r1.total_ops;
  checki "makespan" 202111 r1.makespan;
  checki "commits" 2084 r1.htm.St_htm.Htm_stats.commits;
  checki "conflict aborts" 428 r1.htm.St_htm.Htm_stats.conflict_aborts;
  checki "capacity aborts" 58 r1.htm.St_htm.Htm_stats.capacity_aborts

(* ------------------------------------------------------------------ *)
(* STM backend (TL2-style)                                             *)
(* ------------------------------------------------------------------ *)

let stm_world () =
  let sched =
    Sched.create ~topology:(Topology.create ~cores:4 ~smt:1 ()) ~seed:7 ()
  in
  let heap = Heap.create ~shadow:(Shadow.create ()) () in
  let tsx = Tsx.create ~backend:Tsx.Stm ~sched ~heap () in
  (sched, heap, tsx)

let test_stm_commit_publishes () =
  let sched, heap, tsx = stm_world () in
  let addr = Heap.alloc heap ~tid:0 ~size:2 in
  let _ =
    Sched.add_thread sched (fun _ ->
        Tsx.start tsx;
        Tsx.write tsx addr 5;
        checki "buffered" 0 (Heap.peek heap addr);
        Tsx.commit tsx;
        checki "published" 5 (Heap.peek heap addr))
  in
  Sched.run sched

let test_stm_read_time_validation () =
  (* A line written after the transaction started aborts the reader at the
     READ (opacity), not only at commit. *)
  let sched, heap, tsx = stm_world () in
  let a = Heap.alloc heap ~tid:0 ~size:1 in
  let b = Heap.alloc heap ~tid:0 ~size:1 in
  let aborted_at_read = ref false in
  let _ =
    Sched.add_thread sched (fun _ ->
        Tsx.start tsx;
        ignore (Tsx.read tsx a);
        Sched.consume sched 1_000;
        (try ignore (Tsx.read tsx b)
         with Tsx.Abort Htm_stats.Conflict -> aborted_at_read := true);
        if Tsx.in_txn tsx then try Tsx.commit tsx with Tsx.Abort _ -> ())
  in
  let _ =
    Sched.add_thread sched (fun _ ->
        Sched.consume sched 100;
        Tsx.nt_write tsx b 9)
  in
  Sched.run sched;
  checkb "aborted when reading the stale line" true !aborted_at_read

let test_stm_commit_validation () =
  (* A read line overwritten later (by a committed writer) fails the
     reader's commit-time validation. *)
  let sched, heap, tsx = stm_world () in
  let a = Heap.alloc heap ~tid:0 ~size:1 in
  let committed = ref false and aborted = ref false in
  let _ =
    Sched.add_thread sched (fun _ ->
        Tsx.start tsx;
        ignore (Tsx.read tsx a);
        Sched.consume sched 1_000;
        try
          Tsx.commit tsx;
          committed := true
        with Tsx.Abort Htm_stats.Conflict -> aborted := true)
  in
  let _ =
    Sched.add_thread sched (fun _ ->
        Sched.consume sched 100;
        Tsx.nt_write tsx a 1)
  in
  Sched.run sched;
  checkb "validation failed" true !aborted;
  checkb "no stale commit" false !committed

let test_stm_no_interrupt_abort () =
  (* Software transactions survive preemption. *)
  let sched =
    Sched.create ~topology:(Topology.create ~cores:1 ~smt:1 ()) ~quantum:200
      ~seed:7 ()
  in
  let heap = Heap.create ~shadow:(Shadow.create ()) () in
  let tsx = Tsx.create ~backend:Tsx.Stm ~sched ~heap () in
  let addr = Heap.alloc heap ~tid:0 ~size:1 in
  let survived = ref false in
  let _ =
    Sched.add_thread sched (fun _ ->
        Tsx.start tsx;
        for _ = 1 to 50 do
          ignore (Tsx.read tsx addr);
          Sched.consume sched 50
        done;
        Tsx.commit tsx;
        survived := true)
  in
  let _ =
    Sched.add_thread sched (fun _ ->
        for _ = 1 to 30 do
          Sched.consume sched 50
        done)
  in
  Sched.run sched;
  checkb "txn survived preemption" true !survived;
  checki "no interrupt aborts" 0 (Tsx.stats tsx ~tid:0).interrupt_aborts

(* ------------------------------------------------------------------ *)
(* Atomicity property: committed transactions are serializable          *)
(* ------------------------------------------------------------------ *)

(* The most attempts one increment may take.  The pinned schedule needs
   at most 152 (HTM) and 76 (STM); a fault that aborts every attempt
   fails at the cap instead of spinning the suite. *)
let max_tries = 2_000

(* Each committed transaction increments K counters read-modify-write; if
   commits are atomic and serializable, the counters are always equal and
   their common value is the number of commits.  Run under both backends. *)
let atomicity_check backend () =
  let sched =
    Sched.create ~topology:(Topology.create ~cores:4 ~smt:2 ()) ~seed:17 ()
  in
  let heap = Heap.create ~shadow:(Shadow.create ()) () in
  (* Quiet capacity/eviction noise: this test is about atomicity. *)
  let cache =
    Cache.create ~sibling_evict_denom:1_000_000 ~self_evict_denom:1_000_000 ()
  in
  let tsx = Tsx.create ~cache ~backend ~sched ~heap () in
  let k = 6 in
  let cells = Array.init k (fun _ -> Heap.alloc heap ~tid:0 ~size:4) in
  let commits = ref 0 and last_abort = ref Htm_stats.Explicit in
  for _ = 1 to 6 do
    ignore
      (Sched.add_thread sched (fun tid ->
           for _ = 1 to 30 do
             (* Retry loop with backoff: fully-conflicting transactions
                livelock without it (each write dooms every other txn). *)
             let rec attempt tries =
               if tries = max_tries then
                 Alcotest.failf "thread %d: %d attempts aborted, the last for %s"
                   tid max_tries
                   (Htm_stats.reason_to_string !last_abort);
               Sched.consume sched (1 + ((tid * 97) + (tries * 53) mod 1500));
               Tsx.start tsx;
               match
                 Array.iter
                   (fun c ->
                     let v = Tsx.read tsx c in
                     Tsx.write tsx c (v + 1))
                   cells;
                 Tsx.commit tsx
               with
               | () -> incr commits
               | exception Tsx.Abort reason ->
                   last_abort := reason;
                   attempt (tries + 1)
             in
             attempt 0
           done))
  done;
  Sched.run sched;
  let values = Array.map (Heap.peek heap) cells in
  Array.iter (fun v -> checki "counters all equal" values.(0) v) values;
  checki "value = commits" !commits values.(0);
  checki "180 increments total" 180 !commits

let () =
  Alcotest.run "st_htm"
    [
      ( "txn",
        [
          Alcotest.test_case "commit publishes" `Quick test_txn_commit_publishes;
          Alcotest.test_case "abort discards" `Quick test_txn_abort_discards;
          Alcotest.test_case "cas" `Quick test_cas_semantics;
          Alcotest.test_case "fetch add" `Quick test_fetch_add;
          Alcotest.test_case "stats" `Quick test_stats_commits;
          Alcotest.test_case "data set lines" `Quick test_data_set_lines;
        ] );
      ( "conflicts",
        [
          Alcotest.test_case "write dooms reader" `Quick
            test_conflict_write_dooms_reader;
          Alcotest.test_case "requester wins" `Quick
            test_requester_wins_read_dooms_writer;
          Alcotest.test_case "two writers" `Quick test_two_txn_writers_conflict;
          Alcotest.test_case "doomed cannot commit" `Quick
            test_doomed_txn_cannot_commit;
          Alcotest.test_case "free backs every walked chunk" `Quick
            test_free_backs_every_walked_chunk;
          Alcotest.test_case "bitsets past one word" `Quick
            test_bitsets_past_one_word;
          Alcotest.test_case "free dooms reader" `Quick
            test_free_dooms_speculative_reader;
        ] );
      ( "capacity",
        [
          Alcotest.test_case "same-set overflow" `Quick
            test_capacity_abort_same_set;
          Alcotest.test_case "spread fits" `Quick test_capacity_ok_across_sets;
          Alcotest.test_case "sibling halves ways" `Quick
            test_sibling_halves_ways;
        ] );
      ( "modelling",
        [
          Alcotest.test_case "txn cas runs pressure roll" `Quick
            test_txn_cas_pressure_evict;
          Alcotest.test_case "txn cas pays coherence" `Quick
            test_txn_cas_coherence_cost;
          Alcotest.test_case "independent tallies" `Quick
            test_two_managers_independent_tallies;
          Alcotest.test_case "line record touch switch" `Quick
            test_line_record_touch_switch;
          Alcotest.test_case "fig1 slice stats pinned" `Quick
            test_fig1_slice_stats_pinned;
        ] );
      ( "stm",
        [
          Alcotest.test_case "commit publishes" `Quick test_stm_commit_publishes;
          Alcotest.test_case "read-time validation" `Quick
            test_stm_read_time_validation;
          Alcotest.test_case "commit validation" `Quick
            test_stm_commit_validation;
          Alcotest.test_case "survives preemption" `Quick
            test_stm_no_interrupt_abort;
        ] );
      ( "atomicity",
        [
          Alcotest.test_case "htm serializable" `Quick (atomicity_check Tsx.Htm);
          Alcotest.test_case "stm serializable" `Quick (atomicity_check Tsx.Stm);
        ] );
      ( "interrupts",
        [
          Alcotest.test_case "preemption aborts" `Quick
            test_interrupt_abort_on_preemption;
          Alcotest.test_case "crash aborts txn" `Quick test_crash_aborts_txn;
        ] );
    ]
