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
     of one small list run is pinned the same way.  A failure names every
     golden that moved, with its first differing leaf.  Most of these goldens
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

(* One reclamation pass of one thread over [n] retired nodes, in minor
   words.  The nodes were allocated, freed and allocated again, so the
   heap's free list (no quarantine) has grown outside the measured
   window. *)
let pass_words n =
  let module Guard = St_reclaim.Guard in
  let sched =
    Sched.create ~topology:(Topology.create ~cores:4 ~smt:2 ()) ~seed:17 ()
  in
  let heap = Heap.create ~quarantine:0 ~shadow:(Shadow.create ()) () in
  let tsx = Tsx.create ~sched ~heap () in
  let rt = Guard.make_runtime ~sched ~tsx in
  let stats = Guard.make_stats () in
  let words = ref infinity in
  let _ =
    Sched.add_thread sched (fun _tid ->
        let alloc () = Array.init n (fun _ -> Tsx.alloc tsx ~size:4) in
        Array.iter (Tsx.free tsx) (alloc ());
        let nodes = alloc () in
        Array.iter (Guard.retire rt stats ~pending:0) nodes;
        let body pass =
          Array.iter (Guard.free pass) nodes;
          0
        in
        let w0 = Gc.minor_words () in
        Guard.scan rt stats ~pending:n body;
        words := Gc.minor_words () -. w0;
        Alcotest.(check int) "all freed" n stats.Guard.freed)
  in
  Sched.run sched;
  !words

(* A free allocates nothing, so a pass that frees 1000 nodes allocates no
   more than one that frees 10; and a pass allocates only a constant. *)
let test_alloc_budget_pass () =
  let small = pass_words 10 and large = pass_words 1000 in
  Alcotest.(check bool)
    (Printf.sprintf "free: %.4f minor words each"
       ((large -. small) /. 990.))
    true
    (large -. small <= 0.);
  Alcotest.(check bool)
    (Printf.sprintf "pass: %.0f minor words <= 16" small)
    true (small <= 16.)

(* Raw set-up allocates a constant on the OCaml heap, not one record per
   bucket or one free list per size class: the hash table's sentinels are
   one heap run, and an object larger than every size class seen so far
   takes no free list.  The heap directory is pre-sized, so a new chunk
   is its four tables alone, allocated directly in the major heap. *)
let test_alloc_budget_setup () =
  let words f =
    let heap =
      Heap.create ~initial_words:(1 lsl 20) ~shadow:(Shadow.create ()) ()
    in
    let w0 = Gc.minor_words () in
    f heap;
    Gc.minor_words () -. w0
  in
  let table n_buckets heap =
    ignore (St_dslib.Hash_table.create_raw heap ~n_buckets)
  in
  let small = words (table 10) and large = words (table 10_000) in
  Alcotest.(check bool)
    (Printf.sprintf "create_raw: %.0f minor words for 10 buckets, %.0f for \
                     10,000"
       small large)
    true
    (large = small && large <= 16.);
  let one = words (fun heap -> ignore (Heap.alloc heap ~tid:0 ~size:250_000)) in
  Alcotest.(check bool)
    (Printf.sprintf "a 250,000-word alloc: %.0f minor words <= 8" one)
    true (one <= 8.)

(* A build and census above [Halves.threshold] run their passes in two
   halves on two domains where there is more than one CPU.  The calling
   domain's minor words are a constant, not per key or per bucket: the
   two spawns, the halves' scratch records and the build's fixed arrays
   come to 210 words, against 43 on one CPU.  One spawn first, so the
   process's one-time domain set-up is not counted. *)
let test_alloc_budget_two_domains () =
  Domain.join (Domain.spawn ignore);
  let n = St_sim.Halves.threshold + 3 in
  let keys =
    St_workload.Workload.initial_keys ~rng:(St_sim.Rng.create ~seed:0x5EED)
      ~key_range:(2 * n) ~size:n
  in
  let heap = Heap.create ~initial_words:(1 lsl 23) ~shadow:(Shadow.create ()) () in
  let t = St_dslib.Hash_table.create_raw heap ~n_buckets:n in
  let w0 = Gc.minor_words () in
  St_dslib.Hash_table.populate_raw heap t ~keys ~note_link:ignore;
  let census = St_dslib.Hash_table.length_raw heap t in
  let words = Gc.minor_words () -. w0 in
  Alcotest.(check int) "census" n census;
  Alcotest.(check bool)
    (Printf.sprintf "build and census: %.0f minor words <= 256" words)
    true (words <= 256.)

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

(* [run]'s defaults at the identity runs' duration.  Every result golden
   below is [run] of this config with the options its row sets. *)
let identity_cfg structure scheme threads =
  {
    Experiment.run_defaults with
    structure;
    scheme;
    threads;
    duration = 250_000;
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
    (* The queue under Hazard Eras: its scan's visit order moves this run. *)
    ( "goldens/identity_queue_hazard_eras.json",
      identity_cfg Experiment.Queue_s Experiment.Hazard_eras 8,
      (92095, 92103) );
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

(* How a re-run's text differs from its golden: nothing when they are
   byte-identical, else the first leaf that differs, with both values. *)
let mismatch golden actual =
  let expected = read_file golden in
  if expected = actual then []
  else
    match Analyze.diff (Json_in.parse expected) (Json_in.parse actual) with
    | d :: _ -> [ Format.asprintf "first differing leaf %a" Analyze.pp_drift d ]
    | [] -> [ "the text differs, no leaf does" ]
    | exception Json_in.Parse_error (msg, at) ->
        [ Printf.sprintf "unreadable at byte %d: %s" at msg ]

(* One failure that names every golden with a difference, so a change
   that moves several pinned runs lists them all. *)
let check_all what goldens =
  match
    List.filter_map
      (fun (golden, problems) ->
        if problems = [] then None
        else Some (golden ^ ": " ^ String.concat "; " problems))
      goldens
  with
  | [] -> ()
  | moved ->
      Alcotest.failf "%d %s moved:\n%s" (List.length moved) what
        (String.concat "\n" moved)

let check_rows rows =
  check_all "pinned run(s)"
    (List.map
       (fun (golden, cfg, (yields, dispatches)) ->
         let r = Experiment.run cfg in
         let counts = (r.Experiment.yields, r.Experiment.dispatches) in
         ( golden,
           mismatch golden (Result_json.to_string r ^ "\n")
           @
           if counts = (yields, dispatches) then []
           else
             [
               Printf.sprintf "yields %d, dispatches %d (pinned %d, %d)"
                 (fst counts) (snd counts) yields dispatches;
             ] ))
       rows)

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

(* Every pinned trace: its golden and the config of the small list run that
   records it, one per scheme.  DTA crashes thread 0 so its freeze path
   runs. *)
let trace_rows =
  ( "goldens/identity_trace_list_st.json",
    {
      (identity_cfg Experiment.List_s Experiment.stacktrack_default 4) with
      Experiment.duration = 60_000;
    } )
  :: List.map
       (fun (name, scheme, crash_tids) ->
         ( Printf.sprintf "goldens/identity_trace_list_%s.json" name,
           {
             (identity_cfg Experiment.List_s scheme 4) with
             Experiment.duration = 200_000;
             key_range = 128;
             init_size = 64;
             mutation_pct = 60;
             crash_tids;
           } ))
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

let test_identity_trace_golden () =
  check_all "trace golden(s)"
    (List.map
       (fun (golden, cfg) ->
         let trace = Trace.create ~capacity:(1 lsl 16) ~enabled:true () in
         let _ = Experiment.run { cfg with Experiment.trace = Some trace } in
         let dropped = Trace.dropped trace in
         ( golden,
           (if dropped = 0 then []
            else [ Printf.sprintf "%d events dropped" dropped ])
           @ mismatch golden (Chrome_trace.to_string trace ^ "\n") ))
       trace_rows)

(* [run] accepts every pinned config and every figure's, unchanged: each
   is a recipe the command line can state. *)
let test_configs_validate () =
  let figure_configs speed =
    List.concat_map
      (fun (f : Figures.figure) -> List.concat_map snd (f.configs speed))
      Figures.registry
  in
  List.iter
    (fun (name, cfg) ->
      match Experiment.validate cfg with
      | Ok c -> Alcotest.(check bool) (name ^ " unchanged") true (c == cfg)
      | Error e -> Alcotest.failf "%s refused: %s" name e)
    ((("run_defaults", Experiment.run_defaults)
     :: List.map (fun (golden, cfg, _) -> (golden, cfg)) identity_rows)
    @ trace_rows
    @ List.map (fun c -> ("Quick point", c)) (figure_configs Figures.Quick)
    @ List.map (fun c -> ("Full point", c)) (figure_configs Figures.Full))

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
          quick "reclaim pass" test_alloc_budget_pass;
          quick "raw set-up" test_alloc_budget_setup;
          quick "two-domain build and census" test_alloc_budget_two_domains;
        ] );
      ( "identity",
        [
          quick "result JSON across schemes" test_identity_goldens;
          quick "chrome trace" test_identity_trace_golden;
          quick "configs pass validate" test_configs_validate;
        ] );
      ( "goldens",
        [ quick "re-run reproduces artifacts" test_artifact_goldens ] );
    ]
