(* Perf-PR safety net: the allocation-free hot paths must not change any
   observable behaviour, and must actually be allocation-free.

   Three groups:

   - Packed segment log: the tag-packed [int] encoding round-trips every
     entry kind, and replaying a packed log — including rollback to an
     arbitrary checkpoint, the crash-mid-segment case — reproduces exactly
     the boxed entry sequence it encodes.

   - Allocation budget: [Gc.minor_words] across 10k fast-path operations
     (non-transactional accesses; whole HTM segments) stays under a fixed
     per-op budget with tracing and profiling off.  This is the regression
     tripwire for someone reintroducing a closure, [Some] box, or fresh
     table on a per-access path.

   - Same-seed identity goldens: the one table of pinned result runs.
     Re-running each row's config reproduces its committed result JSON
     byte-for-byte, with its scheduling counts; each scheme's Chrome trace
     of one small list run is pinned the same way.  Most of these goldens
     were generated BEFORE the hot-path rewrites, so they pin the rewrites
     to the old behaviour, interleaving included. *)

open St_sim
open St_mem
open St_htm
open St_harness
module Packed_log = Stacktrack.Packed_log

let quick name f = Alcotest.test_case name `Quick f

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* ------------------------------------------------------------------ *)
(* Packed segment log                                                  *)
(* ------------------------------------------------------------------ *)

let entry_gen =
  QCheck.Gen.(
    oneof
      [
        map (fun v -> Packed_log.E_read v) (int_range (-1_000_000) 1_000_000);
        return Packed_log.E_write;
        map (fun b -> Packed_log.E_cas b) bool;
        map (fun v -> Packed_log.E_rand v) (int_range 0 1_000_000);
        map (fun v -> Packed_log.E_alloc v) (int_range 0 1_000_000);
        return Packed_log.E_retire;
      ])

let entry_arb = QCheck.make ~print:Packed_log.entry_to_string entry_gen

let prop_roundtrip =
  QCheck.Test.make ~name:"decode (encode e) = e, all kinds" ~count:500
    entry_arb
    (fun e -> Packed_log.decode (Packed_log.encode e) = e)

let prop_pack_payload =
  (* The law underneath the boxed view: payload survives the tag shift,
     signs included. *)
  QCheck.Test.make ~name:"payload (pack ~tag p) = p" ~count:500
    QCheck.(pair (int_range 0 5) (int_range (-1_000_000_000) 1_000_000_000))
    (fun (tag, p) ->
      let packed = Packed_log.pack ~tag p in
      Packed_log.tag packed = tag && Packed_log.payload packed = p)

let test_roundtrip_extremes () =
  (* The documented payload range, exactly at its edges. *)
  List.iter
    (fun p ->
      List.iter
        (fun tag ->
          let packed = Packed_log.pack ~tag p in
          Alcotest.(check int)
            (Printf.sprintf "payload %d tag %d" p tag)
            p (Packed_log.payload packed))
        [
          Packed_log.tag_read;
          Packed_log.tag_write;
          Packed_log.tag_cas;
          Packed_log.tag_rand;
          Packed_log.tag_alloc;
          Packed_log.tag_retire;
        ])
    [ Packed_log.max_payload; Packed_log.min_payload; 0; 1; -1 ]

let decode_all log =
  List.init (Ivec.length log) (fun i -> Packed_log.decode (Ivec.get log i))

(* Replay equivalence against the boxed reference: encoding a segment's
   entries, rolling back to an arbitrary checkpoint (what a crash mid-
   segment does to the log), and re-appending the tail must leave a log
   that decodes to exactly the original boxed sequence. *)
let prop_replay_equivalence =
  QCheck.Test.make
    ~name:"packed log replay = boxed entries (any crash point)" ~count:300
    QCheck.(pair (list_of_size (QCheck.Gen.int_range 0 64) entry_arb) small_nat)
    (fun (entries, cut) ->
      let log = Ivec.create () in
      List.iter (fun e -> Ivec.push log (Packed_log.encode e)) entries;
      let full_ok = decode_all log = entries in
      (* Crash mid-segment: rollback truncates to the checkpoint, the
         segment re-executes deterministically and appends the same tail. *)
      let cut = min cut (List.length entries) in
      Ivec.truncate log cut;
      List.iteri
        (fun i e -> if i >= cut then Ivec.push log (Packed_log.encode e))
        entries;
      full_ok && decode_all log = entries)

(* ------------------------------------------------------------------ *)
(* Allocation budget                                                   *)
(* ------------------------------------------------------------------ *)

(* One thread, tracing/profiling off: with a single runnable lcore the
   scheduler's consume fast path never suspends, so the measured words are
   the access paths' own allocations.  The budgets are deliberately loose
   (real numbers are ~0) but tight enough that one boxed option or closure
   per op (>= 2 words each) trips them. *)

let measure_thread_alloc body =
  let sched =
    Sched.create ~topology:(Topology.create ~cores:4 ~smt:2 ()) ~seed:11 ()
  in
  let heap = Heap.create ~shadow:(Shadow.create ()) () in
  let tsx = Tsx.create ~sched ~heap () in
  let words = ref infinity in
  let _ =
    Sched.add_thread sched (fun _tid ->
        let addr = Tsx.alloc tsx ~size:4 in
        (* Warm-up: grow heap/line tables and scheduler state out of the
           measured window. *)
        body tsx addr 100;
        let w0 = Gc.minor_words () in
        body tsx addr 10_000;
        words := Gc.minor_words () -. w0)
  in
  Sched.run sched;
  !words

let check_budget name ops words budget =
  let per_op = words /. float_of_int ops in
  Alcotest.(check bool)
    (Printf.sprintf "%s: %.4f minor words/op <= %.2f" name per_op budget)
    true (per_op <= budget)

let test_alloc_budget_nt () =
  let words =
    measure_thread_alloc (fun tsx addr n ->
        for _ = 1 to n do
          ignore (Tsx.nt_read tsx addr);
          Tsx.nt_write tsx addr 42
        done)
  in
  (* 2 accesses per iteration. *)
  check_budget "nt read/write" 20_000 words 0.5

let test_alloc_budget_txn () =
  let words =
    measure_thread_alloc (fun tsx addr n ->
        for _ = 1 to n do
          Tsx.start tsx;
          ignore (Tsx.read tsx addr);
          Tsx.write tsx addr 7;
          ignore (Tsx.read tsx (addr + 1));
          Tsx.commit tsx
        done)
  in
  (* Whole segments: start + 3 accesses + commit.  Zero: the active
     registry is flat tid arrays (shift insert/remove), so not even the
     per-segment list cons survives. *)
  check_budget "txn segment" 10_000 words 0.0

(* Protected reads under the two per-read protection schemes: one thread,
   one operation, 10k protected reads of a word that points at a live
   node.  Hazard pointers publish, fence and validate on every read;
   Hazard Eras check the era and republish only when it moved.  A closure
   built per read (several words) trips the budget. *)
let protected_read_words (type a)
    (module G : St_reclaim.Guard.S with type t = a)
    (create : St_reclaim.Guard.runtime -> a) =
  let sched =
    Sched.create ~topology:(Topology.create ~cores:4 ~smt:2 ()) ~seed:13 ()
  in
  let heap = Heap.create ~shadow:(Shadow.create ()) () in
  let tsx = Tsx.create ~sched ~heap () in
  let scheme = create (St_reclaim.Guard.make_runtime ~sched ~tsx) in
  let words = ref infinity in
  let _ =
    Sched.add_thread sched (fun tid ->
        let th = G.create_thread scheme ~tid in
        let src = Tsx.alloc tsx ~size:4 in
        Tsx.nt_write tsx src (Tsx.alloc tsx ~size:4);
        G.run_op th ~op_id:1 (fun env ->
            let reads n =
              for _ = 1 to n do
                ignore (G.protected_read env ~slot:0 src)
              done
            in
            reads 100;
            let w0 = Gc.minor_words () in
            reads 10_000;
            words := Gc.minor_words () -. w0))
  in
  Sched.run sched;
  !words

let test_alloc_budget_hazard () =
  check_budget "hazard protected read" 10_000
    (protected_read_words (module St_reclaim.Hazard) (fun rt ->
         St_reclaim.Hazard.create rt))
    0.5

let test_alloc_budget_hazard_eras () =
  check_budget "hazard-eras protected read" 10_000
    (protected_read_words (module St_reclaim.Hazard_eras) (fun rt ->
         St_reclaim.Hazard_eras.create rt))
    0.5

(* The trampoline consume fast path: a charge that does not cross the
   event-wheel horizon is a plain function call — three int updates and a
   compare — and must allocate NOTHING.  One thread on the machine means
   [next_event] stays at [max_int], so none of the 10k charges performs
   the scheduling effect; the only tolerated words are the [Gc.minor_words]
   result boxes themselves (a few words total, not per charge). *)
let test_alloc_budget_consume () =
  let sched =
    Sched.create ~topology:(Topology.create ~cores:4 ~smt:2 ()) ~seed:3 ()
  in
  let words = ref infinity in
  let _ =
    Sched.add_thread sched (fun _tid ->
        Sched.consume sched 100;
        let w0 = Gc.minor_words () in
        for _ = 1 to 10_000 do
          Sched.consume sched 7
        done;
        words := Gc.minor_words () -. w0)
  in
  Sched.run sched;
  Alcotest.(check bool)
    (Printf.sprintf "no-effect consume allocates nothing (%.1f words/10k)"
       !words)
    true
    (!words <= 8.0)

(* The scheduler switch: two threads on two single-thread lcores run in
   lockstep, so every [consume 1] crosses the other lcore's clock and
   performs the scheduling effect (2n yields for n charges per thread).
   A yield may allocate no more than a bare Deep perform/continue round
   trip, which allocates only the continuation.  Both sides are measured
   as the difference between two run lengths, which cancels thread start,
   handler set-up and teardown. *)
type _ Effect.t += Bare_yield : unit Effect.t

let bare_round_trip_words n =
  let open Effect.Deep in
  let resume = Some (fun (k : (unit, unit) continuation) -> continue k ()) in
  let w0 = Gc.minor_words () in
  match_with
    (fun () ->
      for _ = 1 to n do
        Effect.perform Bare_yield
      done)
    ()
    {
      retc = (fun () -> ());
      exnc = raise;
      effc =
        (fun (type a) (e : a Effect.t) ->
          match e with
          | Bare_yield -> (resume : ((a, unit) continuation -> unit) option)
          | _ -> None);
    };
  Gc.minor_words () -. w0

let switch_words n =
  let sched =
    Sched.create ~topology:(Topology.create ~cores:2 ~smt:1 ()) ~seed:5 ()
  in
  (* A charge that returns to a different thread than the last one to
     return proves the yield. *)
  let last = ref (-1) and handovers = ref 0 in
  let body tid =
    for _ = 1 to n do
      Sched.consume sched 1;
      if !last <> tid then incr handovers;
      last := tid
    done
  in
  ignore (Sched.add_thread sched body);
  ignore (Sched.add_thread sched body);
  let w0 = Gc.minor_words () in
  Sched.run sched;
  let words = Gc.minor_words () -. w0 in
  Alcotest.(check int) "every charge hands over" (2 * n) !handovers;
  words

(* The same lockstep with every iteration a deferred charge and then a
   plain one: the deferred charge crosses, and the plain one yields for
   it, owing its own cycle.  [dispatch] applies that cycle when it picks
   the thread again; it crosses the other lcore's clock in turn, so the
   thread yields again there without resuming, and the next pick resumes
   it.  One effect per iteration where [switch_words] performs two, and
   the owed charge's yield allocates nothing.  Returns the words and the
   yields. *)
let deferred_switch_words n =
  let sched =
    Sched.create ~topology:(Topology.create ~cores:2 ~smt:1 ()) ~seed:5 ()
  in
  let body _ =
    for _ = 1 to n do
      Sched.consume_deferred sched 1;
      Sched.consume sched 1
    done
  in
  ignore (Sched.add_thread sched body);
  ignore (Sched.add_thread sched body);
  let w0 = Gc.minor_words () in
  Sched.run sched;
  (Gc.minor_words () -. w0, Sched.yields sched)

let test_alloc_budget_switch () =
  let n1 = 5_000 and n2 = 15_000 in
  ignore (bare_round_trip_words n2);
  let bare =
    (bare_round_trip_words n2 -. bare_round_trip_words n1)
    /. float_of_int (n2 - n1)
  in
  let per_yield =
    (switch_words n2 -. switch_words n1) /. float_of_int (2 * (n2 - n1))
  in
  (* The 0.01 is rounding slack only: one more box per yield is 2 words. *)
  Alcotest.(check bool)
    (Printf.sprintf "switch: %.4f minor words/yield <= bare round trip %.4f"
       per_yield bare)
    true
    (per_yield <= bare +. 0.01);
  let w1, y1 = deferred_switch_words n1 and w2, y2 = deferred_switch_words n2 in
  Alcotest.(check int) "one yield per deferred crossing" (2 * (n2 - n1))
    (y2 - y1);
  let per_crossing = (w2 -. w1) /. float_of_int (2 * (n2 - n1)) in
  Alcotest.(check bool)
    (Printf.sprintf
       "deferred crossing: %.4f minor words <= one bare round trip %.4f"
       per_crossing bare)
    true
    (per_crossing <= bare +. 0.01)

(* ------------------------------------------------------------------ *)
(* Same-seed identity goldens                                          *)
(* ------------------------------------------------------------------ *)

(* The one mirror of bin/stacktrack_bench.exe's [run] defaults, at the
   identity runs' duration.  Every result golden below is [run] of this
   config with the options its row sets. *)
let identity_cfg structure scheme threads =
  {
    Experiment.default_config with
    structure;
    scheme;
    threads;
    duration = 250_000;
    key_range = 1024;
    init_size = 512;
    mutation_pct = 20;
    seed = 0xC0FFEE;
    n_buckets = 512;
  }

let hash_scan_scheme =
  Experiment.Stacktrack_s
    { Stacktrack.St_config.default with hash_scan = true; max_free = 4 }

(* [run --duration 300000]: StackTrack on the list with 8 threads. *)
let list_st_run =
  {
    (identity_cfg Experiment.List_s Experiment.stacktrack_default 8) with
    Experiment.duration = 300_000;
  }

(* A crashed thread on the list: thread 0 of 8 stops at 25% of 2000000
   cycles, with the lifecycle ledger on. *)
let crash_lifecycle scheme =
  {
    (identity_cfg Experiment.List_s scheme 8) with
    Experiment.duration = 2_000_000;
    crash_tids = [ 0 ];
    lifecycle = true;
  }

(* Every pinned result run: its golden, its config, and its scheduling
   counts, [Sched.yields] (fiber round trips) and [Sched.dispatches]
   (threads run, the eager schedule's switch count).  The counts are in no
   JSON but exact per seed, so a scheduler change that keeps every result
   but costs more switches shows here. *)
let identity_rows =
  [
    ( "goldens/identity_list_st.json",
      identity_cfg Experiment.List_s Experiment.stacktrack_default 12,
      (152786, 247485) );
    ( "goldens/identity_list_st_hashscan.json",
      identity_cfg Experiment.List_s hash_scan_scheme 12,
      (151807, 246495) );
    ( "goldens/identity_list_hazards.json",
      identity_cfg Experiment.List_s Experiment.Hazards 12,
      (89304, 110386) );
    ( "goldens/identity_list_epoch.json",
      identity_cfg Experiment.List_s Experiment.Epoch 12,
      (220255, 220267) );
    ( "goldens/identity_list_dta.json",
      identity_cfg Experiment.List_s Experiment.Dta 12,
      (218634, 218646) );
    ( "goldens/identity_queue_st.json",
      identity_cfg Experiment.Queue_s Experiment.stacktrack_default 8,
      (22482, 24147) );
    ( "goldens/identity_queue_hazards.json",
      identity_cfg Experiment.Queue_s Experiment.Hazards 8,
      (79587, 92730) );
    ( "goldens/identity_queue_epoch.json",
      identity_cfg Experiment.Queue_s Experiment.Epoch 8,
      (114668, 114676) );
    ( "goldens/identity_list_debra.json",
      identity_cfg Experiment.List_s Experiment.Debra 12,
      (183564, 183576) );
    ( "goldens/identity_list_debra_plus.json",
      identity_cfg Experiment.List_s Experiment.Debra_plus 12,
      (190529, 190541) );
    ( "goldens/identity_list_hazard_eras.json",
      identity_cfg Experiment.List_s Experiment.Hazard_eras 12,
      (183041, 183053) );
    (* The lifecycle ledger rides the same run: its sampler and per-object
       event stream are schedule-sensitive, so this golden also pins the
       sampler timed-wait path ([Sched.sleep_until]). *)
    ( "goldens/identity_list_st_lifecycle.json",
      {
        (identity_cfg Experiment.List_s Experiment.stacktrack_default 12) with
        Experiment.lifecycle = true;
      },
      (142746, 225987) );
    (* The observed views of the per-line contention record: the heat rows
       of [profile] and the doomed lines of [forensics], in their orders. *)
    ( "goldens/identity_queue_st_observed.json",
      {
        (identity_cfg Experiment.Queue_s Experiment.stacktrack_default 8) with
        Experiment.profile = true;
        forensics = true;
      },
      (22482, 24147) );
    (* [run --duration 300000], unflagged and observed.  The first document,
       less its closing brace, is the second's byte prefix, so the pair pins
       that [profile] and [forensics] leave the run alone and only append
       sections: latency histogram, cycle accounts and heat rows, then the
       who-doomed-whom matrix, wasted-cycle split, retry depths and
       predictor timeline. *)
    ("goldens/golden_run_st.json", list_st_run, (182873, 299146));
    ( "goldens/identity_list_st_observed.json",
      { list_st_run with Experiment.profile = true; forensics = true },
      (182873, 299146) );
    (* The stagnation contrast of a crashed thread, series included: under
       Epoch the limbo backlog grows and the watchdog is still open at
       exit; DEBRA+ neutralizes the crashed thread, its backlog drains and
       the watchdog stays quiet. *)
    ( "goldens/identity_list_epoch_crash_lifecycle.json",
      crash_lifecycle Experiment.Epoch,
      (1227710, 1227720) );
    ( "goldens/identity_list_debra_plus_crash_lifecycle.json",
      crash_lifecycle Experiment.Debra_plus,
      (1206554, 1206564) );
    (* The queue under Epoch with fewer threads than lcores. *)
    ( "goldens/golden_run_epoch.json",
      {
        (identity_cfg Experiment.Queue_s Experiment.Epoch 6) with
        Experiment.duration = 200_000;
      },
      (72416, 72422) );
    (* The hash table's raw build and census.  The first is the benchmark's
       hash-1m run: 10^6 initial objects.  The other two span several heap
       chunks with more buckets than the census has lanes; RefCount is the
       one scheme that primes its counts from the build's links. *)
    ( "goldens/identity_hash_st.json",
      {
        (identity_cfg Experiment.Hash_s Experiment.stacktrack_default 16) with
        Experiment.duration = 150_000;
        key_range = 2_000_000;
        init_size = 1_000_000;
        n_buckets = 250_000;
      },
      (92169, 110827) );
    ( "goldens/identity_hash_refcount.json",
      {
        (identity_cfg Experiment.Hash_s Experiment.Refcount_s 12) with
        Experiment.key_range = 80_000;
        init_size = 40_000;
        n_buckets = 1000;
      },
      (69539, 69551) );
    ( "goldens/identity_hash_hazards.json",
      {
        (identity_cfg Experiment.Hash_s Experiment.Hazards 12) with
        Experiment.key_range = 80_000;
        init_size = 40_000;
        n_buckets = 1000;
      },
      (88496, 107986) );
  ]

let check_rows rows =
  List.iter
    (fun (golden, cfg, (yields, dispatches)) ->
      let r = Experiment.run cfg in
      Alcotest.(check string)
        (golden ^ " byte-identical")
        (read_file golden)
        (Result_json.to_string r ^ "\n");
      Alcotest.(check int) (golden ^ ": yields") yields r.Experiment.yields;
      Alcotest.(check int)
        (golden ^ ": dispatches")
        dispatches r.Experiment.dispatches)
    rows

(* The [golden_run_*] rows are the analyzer's sample artifacts (test_analyze
   reparses them and diffs against [golden_run_st.json]); they are checked
   under their own name, every other row under the identity one. *)
let artifact_rows, scheme_rows =
  List.partition
    (fun (golden, _, _) ->
      String.starts_with ~prefix:"goldens/golden_run_" golden)
    identity_rows

let test_identity_goldens () = check_rows scheme_rows
let test_artifact_goldens () = check_rows artifact_rows

let test_identity_trace_golden () =
  let trace = Trace.create ~capacity:4096 ~enabled:true () in
  let cfg =
    {
      (identity_cfg Experiment.List_s Experiment.stacktrack_default 4) with
      Experiment.duration = 60_000;
      trace = Some trace;
    }
  in
  let _ = Experiment.run cfg in
  Alcotest.(check string)
    "goldens/identity_trace_list_st.json byte-identical"
    (read_file "goldens/identity_trace_list_st.json")
    (Chrome_trace.to_string trace ^ "\n");
  (* Every other scheme's trace on one small list: DTA crashes thread 0 so
     its freeze path runs. *)
  List.iter
    (fun (name, scheme, crash_tids) ->
      let golden = Printf.sprintf "goldens/identity_trace_list_%s.json" name in
      let trace = Trace.create ~capacity:(1 lsl 16) ~enabled:true () in
      let cfg =
        {
          (identity_cfg Experiment.List_s scheme 4) with
          Experiment.duration = 200_000;
          key_range = 128;
          init_size = 64;
          mutation_pct = 60;
          crash_tids;
          trace = Some trace;
        }
      in
      let _ = Experiment.run cfg in
      Alcotest.(check int) (golden ^ ": nothing dropped") 0 (Trace.dropped trace);
      Alcotest.(check string)
        (golden ^ " byte-identical")
        (read_file golden)
        (Chrome_trace.to_string trace ^ "\n"))
    [
      ("original", Experiment.Original, []);
      ("hazards", Experiment.Hazards, []);
      ("epoch", Experiment.Epoch, []);
      ("dta", Experiment.Dta, [ 0 ]);
      ("refcount", Experiment.Refcount_s, []);
      ("immediate", Experiment.Immediate_unsafe, []);
      ("debra", Experiment.Debra, []);
      ("debra_plus", Experiment.Debra_plus, []);
      ("hazard_eras", Experiment.Hazard_eras, []);
    ]

let () =
  Alcotest.run "perf_identity"
    [
      ( "packed_log",
        [
          QCheck_alcotest.to_alcotest prop_roundtrip;
          QCheck_alcotest.to_alcotest prop_pack_payload;
          quick "payload range edges" test_roundtrip_extremes;
          QCheck_alcotest.to_alcotest prop_replay_equivalence;
        ] );
      ( "alloc_budget",
        [
          quick "nt access path" test_alloc_budget_nt;
          quick "txn segment path" test_alloc_budget_txn;
          quick "consume fast path" test_alloc_budget_consume;
          quick "scheduler switch" test_alloc_budget_switch;
          quick "hazard protected read" test_alloc_budget_hazard;
          quick "hazard-eras protected read" test_alloc_budget_hazard_eras;
        ] );
      ( "identity",
        [
          quick "result JSON across schemes" test_identity_goldens;
          quick "chrome trace" test_identity_trace_golden;
        ] );
      ( "goldens",
        [ quick "re-run reproduces artifacts" test_artifact_goldens ] );
    ]
