(* Abort forensics: the who-doomed-whom ledger must attribute every doom
   and delivered abort without perturbing the run, and its books must
   balance against the two independent records kept elsewhere — the Tsx
   per-line contention record and the profiler's wasted-cycle account.

   Four groups:

   - Ledger unit tests: the disabled singleton records nothing; matrices,
     per-cause buckets, segment aggregates, depth clamping, and the
     bounded decision timeline all count exactly what was stamped.

   - Predictor decisions: the [on_adjust] callback fires exactly on limit
     changes (not on clamped adjustments), and the limits it reports
     match [Predictor.limit].

   - Full-run conservation: all ten schemes, plus crashed-thread and
     oversubscribed schedules, each balance delivered aborts against
     [Htm_stats], the conflict matrix against the per-line record's
     conflict counts, and the per-cause wasted split against the
     profiler.  (Experiment.run itself cross-checks the wasted split and
     raises on divergence, so completing at all is part of the test.)

   - Flag gating: htm_forensics appears in result JSON iff the flag was
     set, and an unflagged identity run still reproduces its committed
     golden byte-for-byte. *)

open St_htm
open St_harness

let quick name f = Alcotest.test_case name `Quick f

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* ------------------------------------------------------------------ *)
(* Ledger unit tests                                                   *)
(* ------------------------------------------------------------------ *)

let test_disabled_singleton () =
  let t = Forensics.disabled in
  Alcotest.(check bool) "disabled" false (Forensics.enabled t);
  (* Every hook must be a no-op, not a crash. *)
  Forensics.on_conflict_doom t ~victim:1 ~aborter:2;
  Forensics.on_capacity_doom t ~victim:1 ~aborter:2;
  Forensics.on_interrupt_doom t ~victim:1;
  Forensics.on_abort_delivered t ~tid:1 ~cause:Htm_stats.Conflict ~wasted:99;
  Forensics.on_unresolved t ~wasted:7;
  Forensics.on_segment_abort t ~op_id:1 ~split:2;
  Forensics.on_retry_chain t ~op_id:1 ~split:2 ~depth:3;
  Forensics.on_limit_change t ~time:0 ~tid:0 ~op_id:1 ~split:2 ~old_limit:5
    ~limit:4 ~grow:false;
  Alcotest.(check int) "no conflict dooms" 0 (Forensics.conflict_dooms t);
  Alcotest.(check int) "no wasted" 0 (Forensics.wasted_total t);
  Alcotest.(check int) "no timeline" 0 (Forensics.timeline_length t);
  Alcotest.(check (list pass)) "no segments" [] (Forensics.segments t)

let test_matrices () =
  let t = Forensics.create () in
  Forensics.on_conflict_doom t ~victim:3 ~aborter:1;
  Forensics.on_conflict_doom t ~victim:3 ~aborter:1;
  Forensics.on_conflict_doom t ~victim:0 ~aborter:2;
  Forensics.on_capacity_doom t ~victim:5 ~aborter:5;
  Forensics.on_interrupt_doom t ~victim:4;
  Alcotest.(check int) "conflict dooms" 3 (Forensics.conflict_dooms t);
  Alcotest.(check int) "capacity dooms" 1 (Forensics.capacity_dooms t);
  Alcotest.(check int) "interrupt dooms" 1 (Forensics.interrupt_dooms t);
  let pairs = ref [] in
  Forensics.iter_conflict_pairs t (fun ~victim ~aborter n ->
      pairs := (victim, aborter, n) :: !pairs);
  Alcotest.(check (list (triple int int int)))
    "conflict matrix, victim-major ascending"
    [ (0, 2, 1); (3, 1, 2) ]
    (List.rev !pairs)

let test_wasted_buckets () =
  let t = Forensics.create () in
  Forensics.on_abort_delivered t ~tid:0 ~cause:Htm_stats.Conflict ~wasted:10;
  Forensics.on_abort_delivered t ~tid:1 ~cause:Htm_stats.Conflict ~wasted:5;
  Forensics.on_abort_delivered t ~tid:2 ~cause:Htm_stats.Capacity ~wasted:7;
  Forensics.on_unresolved t ~wasted:3;
  Alcotest.(check int)
    "conflict delivered" 2
    (Forensics.delivered t Htm_stats.Conflict);
  Alcotest.(check int)
    "conflict wasted" 15
    (Forensics.wasted_by_cause t Htm_stats.Conflict);
  Alcotest.(check int)
    "capacity wasted" 7
    (Forensics.wasted_by_cause t Htm_stats.Capacity);
  Alcotest.(check int) "unresolved" 3 (Forensics.wasted_unresolved t);
  Alcotest.(check int) "total conserves" 25 (Forensics.wasted_total t)

let test_segments_and_depths () =
  let t = Forensics.create () in
  Forensics.on_segment_abort t ~op_id:1 ~split:2;
  Forensics.on_segment_abort t ~op_id:1 ~split:2;
  Forensics.on_segment_abort t ~op_id:0 ~split:0;
  Forensics.on_retry_chain t ~op_id:1 ~split:2 ~depth:2;
  Forensics.on_retry_chain t ~op_id:1 ~split:2 ~depth:0;
  Forensics.on_retry_chain t ~op_id:0 ~split:0 ~depth:1;
  (* Depth clamping: beyond max_retry_depth lands in the last bucket. *)
  Forensics.on_retry_chain t ~op_id:0 ~split:0
    ~depth:(Forensics.max_retry_depth + 50);
  (match Forensics.segments t with
  | [ a; b ] ->
      Alcotest.(check (pair int int))
        "hottest first" (1, 2)
        (a.Forensics.op_id, a.Forensics.split);
      Alcotest.(check int) "aborts" 2 a.Forensics.aborts;
      Alcotest.(check int) "chains" 2 a.Forensics.chains;
      Alcotest.(check int) "depth sum" 2 a.Forensics.depth_sum;
      Alcotest.(check int) "depth max" 2 a.Forensics.depth_max;
      Alcotest.(check int) "second aborts" 1 b.Forensics.aborts
  | l -> Alcotest.failf "expected 2 segments, got %d" (List.length l));
  let hist = ref [] in
  Forensics.iter_retry_depths t (fun ~depth n -> hist := (depth, n) :: !hist);
  Alcotest.(check (list (pair int int)))
    "depth histogram with clamp"
    [ (0, 1); (1, 1); (2, 1); (Forensics.max_retry_depth, 1) ]
    (List.rev !hist)

(* A segment index is a per-operation counter with no upper bound: split
   4096 of op 1 must not alias split 0 of op 2. *)
let test_segment_keys_unbounded () =
  let t = Forensics.create () in
  Forensics.on_segment_abort t ~op_id:1 ~split:4096;
  Alcotest.(check (list (pair int int)))
    "op 1, split 4096"
    [ (1, 4096) ]
    (List.map
       (fun (s : Forensics.segment) -> (s.Forensics.op_id, s.Forensics.split))
       (Forensics.segments t))

let test_timeline_capacity () =
  let t = Forensics.create ~timeline_capacity:2 () in
  for i = 0 to 4 do
    Forensics.on_limit_change t ~time:i ~tid:0 ~op_id:1 ~split:0
      ~old_limit:(10 - i)
      ~limit:(9 - i)
      ~grow:false
  done;
  Alcotest.(check int) "kept capacity" 2 (Forensics.timeline_length t);
  Alcotest.(check int) "dropped the rest" 3 (Forensics.timeline_dropped t);
  let ds = ref [] in
  Forensics.iter_timeline t (fun d -> ds := d :: !ds);
  match List.rev !ds with
  | [ d0; d1 ] ->
      Alcotest.(check int) "first time" 0 d0.Forensics.d_time;
      Alcotest.(check int) "first old limit" 10 d0.Forensics.d_old_limit;
      Alcotest.(check int) "first new limit" 9 d0.Forensics.d_limit;
      Alcotest.(check bool) "shrink" false d0.Forensics.d_grow;
      Alcotest.(check int) "second time" 1 d1.Forensics.d_time
  | l -> Alcotest.failf "expected 2 decisions, got %d" (List.length l)

(* ------------------------------------------------------------------ *)
(* Predictor decision notifications                                    *)
(* ------------------------------------------------------------------ *)

let test_predictor_notify () =
  let cfg = Stacktrack.St_config.default in
  let decisions = ref [] in
  let p =
    Stacktrack.Predictor.create
      ~on_adjust:(fun ~op_id ~split ~old_limit ~limit ~grow ->
        decisions := (op_id, split, old_limit, limit, grow) :: !decisions)
      cfg
  in
  let initial = Stacktrack.Predictor.limit p ~op_id:3 ~split:1 in
  (* One shy of the threshold: no decision yet. *)
  for _ = 1 to cfg.Stacktrack.St_config.consec_threshold - 1 do
    Stacktrack.Predictor.on_abort p ~op_id:3 ~split:1
  done;
  Alcotest.(check int) "below threshold: silent" 0 (List.length !decisions);
  Stacktrack.Predictor.on_abort p ~op_id:3 ~split:1;
  Alcotest.(check (list (pair int bool)))
    "one shrink decision"
    [ (initial - 1, false) ]
    (List.map (fun (_, _, _, l, g) -> (l, g)) !decisions);
  Alcotest.(check int)
    "reported limit matches Predictor.limit" (initial - 1)
    (Stacktrack.Predictor.limit p ~op_id:3 ~split:1);
  (* Shrink all the way to min_limit: clamped adjustments are silent. *)
  for _ = 1 to 100 * cfg.Stacktrack.St_config.consec_threshold do
    Stacktrack.Predictor.on_abort p ~op_id:3 ~split:1
  done;
  Alcotest.(check int)
    "clamped at min_limit" cfg.Stacktrack.St_config.min_limit
    (Stacktrack.Predictor.limit p ~op_id:3 ~split:1);
  List.iter
    (fun (_, _, old_l, l, _) ->
      if old_l = l then Alcotest.fail "notified a no-op adjustment")
    !decisions;
  (* Every notified limit must have been the live limit at that moment:
     replay the decision list backwards and land on the initial value. *)
  (match !decisions with
  | (_, _, _, last, _) :: _ ->
      Alcotest.(check int)
        "last decision is the final limit" last
        (Stacktrack.Predictor.limit p ~op_id:3 ~split:1)
  | [] -> Alcotest.fail "expected shrink decisions");
  let first_old =
    List.nth !decisions (List.length !decisions - 1) |> fun (_, _, o, _, _) -> o
  in
  Alcotest.(check int) "chain starts at the initial limit" initial first_old

(* ------------------------------------------------------------------ *)
(* Full-run conservation                                               *)
(* ------------------------------------------------------------------ *)

let forensics_cfg ?(crash = []) ?(threads = 8) scheme =
  {
    Experiment.default_config with
    scheme;
    threads;
    duration = 300_000;
    crash_tids = crash;
    forensics = true;
  }

(* Forensics with the profiler's heat rows too: the third view of the
   per-line record that [check_books] compares. *)
let profiled (cfg : Experiment.config) = { cfg with profile = true }

let summary_of (r : Experiment.result) =
  match r.Experiment.forensics with
  | Some fx -> fx
  | None -> Alcotest.fail "flagged run lost its forensics summary"

let check_books name (r : Experiment.result) =
  let fx = summary_of r in
  let chk what = Alcotest.(check int) (name ^ ": " ^ what) in
  (* Delivered aborts: the forensics funnel and Htm_stats.record_abort
     live at the same do_abort site, so the per-cause counts agree. *)
  let h = r.Experiment.htm in
  chk "delivered conflict aborts" h.Htm_stats.conflict_aborts
    (List.assoc "conflict" fx.Experiment.fx_delivered);
  chk "delivered capacity aborts" h.Htm_stats.capacity_aborts
    (List.assoc "capacity" fx.Experiment.fx_delivered);
  chk "delivered interrupt aborts" h.Htm_stats.interrupt_aborts
    (List.assoc "interrupt" fx.Experiment.fx_delivered);
  chk "delivered explicit aborts" h.Htm_stats.explicit_aborts
    (List.assoc "explicit" fx.Experiment.fx_delivered);
  (* Conflict matrix vs the Tsx per-line record (the two are counted at
     the same doom site): matrix total = the conflict dooms = the doomed
     lines' total, the record's conflict total. *)
  let matrix_total =
    List.fold_left
      (fun acc (p : Experiment.doomed_pair) -> acc + p.Experiment.dooms)
      0 fx.Experiment.fx_conflict_pairs
  in
  chk "matrix total = conflict dooms" fx.Experiment.fx_conflict_dooms
    matrix_total;
  chk "doomed lines total = matrix total" matrix_total
    (List.fold_left
       (fun acc (l : Experiment.doomed_line_row) -> acc + l.Experiment.dl_dooms)
       0 fx.Experiment.fx_doomed_lines);
  (* With the profiler on, the heat rows are a third view of the same
     record: each row's conflicts are its line's doomed-lines count. *)
  Option.iter
    (List.iter (fun (row : Experiment.heat_row) ->
         let line = row.Experiment.heat.Tsx.line in
         chk
           (Printf.sprintf "heat row %d conflicts = its doomed-line dooms"
              line)
           (match
              List.find_opt
                (fun (l : Experiment.doomed_line_row) ->
                  l.Experiment.dl_line = line)
                fx.Experiment.fx_doomed_lines
            with
           | Some l -> l.Experiment.dl_dooms
           | None -> 0)
           row.Experiment.heat.Tsx.conflicts))
    r.Experiment.heatmap;
  (* Wasted-cycle conservation: per-cause buckets + unresolved residue =
     the profiler's independent wasted account. *)
  chk "wasted split sums to total" fx.Experiment.fx_wasted_total
    (List.fold_left (fun acc (_, n) -> acc + n) 0 fx.Experiment.fx_wasted);
  chk "wasted total = profiler wasted" fx.Experiment.fx_profile_wasted
    fx.Experiment.fx_wasted_total;
  (* Retry chains: the histogram and the per-segment aggregates are two
     views of the same on_retry_chain stream. *)
  chk "retry hist count = segment chains"
    (List.fold_left
       (fun acc (s : Forensics.segment) -> acc + s.Forensics.chains)
       0 fx.Experiment.fx_segments)
    (Latency.count fx.Experiment.fx_retry_hist);
  (* Predictor tables: one final-limit row per tracked segment. *)
  chk "one limit row per tracked segment" fx.Experiment.fx_segments_tracked
    (List.length fx.Experiment.fx_limits);
  if r.Experiment.st = None then
    chk "non-stacktrack tracks nothing" 0 fx.Experiment.fx_segments_tracked;
  (* Timeline vs final limits: the last decision for a segment must
     report the limit the predictor ended on. *)
  let final = Hashtbl.create 64 in
  List.iter
    (fun (d : Forensics.decision) ->
      Hashtbl.replace final
        (d.Forensics.d_tid, d.Forensics.d_op_id, d.Forensics.d_split)
        d.Forensics.d_limit)
    fx.Experiment.fx_timeline;
  if fx.Experiment.fx_timeline_dropped = 0 then
    List.iter
      (fun (l : Stacktrack.Engine.limit_row) ->
        match
          Hashtbl.find_opt final
            ( l.Stacktrack.Engine.l_tid,
              l.Stacktrack.Engine.l_op_id,
              l.Stacktrack.Engine.l_split )
        with
        | Some limit ->
            chk
              (Printf.sprintf "final limit of tid%d op%d/%d"
                 l.Stacktrack.Engine.l_tid l.Stacktrack.Engine.l_op_id
                 l.Stacktrack.Engine.l_split)
              limit l.Stacktrack.Engine.l_limit
        | None -> ())
      fx.Experiment.fx_limits

let all_schemes =
  [
    ("original", Experiment.Original);
    ("hazards", Experiment.Hazards);
    ("epoch", Experiment.Epoch);
    ("stacktrack", Experiment.stacktrack_default);
    ("dta", Experiment.Dta);
    ("refcount", Experiment.Refcount_s);
    ("immediate", Experiment.Immediate_unsafe);
    ("debra", Experiment.Debra);
    ("debra+", Experiment.Debra_plus);
    ("hazard-eras", Experiment.Hazard_eras);
  ]

let test_books_all_schemes () =
  List.iter
    (fun (name, scheme) ->
      check_books name (Experiment.run (forensics_cfg scheme)))
    all_schemes

let test_books_crash () =
  (* Crashed threads doom without delivering: the unresolved bucket picks
     up their pending pots, so the books must still balance. *)
  List.iter
    (fun (name, scheme) ->
      check_books (name ^ "+crash")
        (Experiment.run (forensics_cfg ~crash:[ 0 ] scheme)))
    [
      ("epoch", Experiment.Epoch);
      ("stacktrack", Experiment.stacktrack_default);
      ("debra", Experiment.Debra);
      ("debra+", Experiment.Debra_plus);
      ("hazard-eras", Experiment.Hazard_eras);
    ]

let test_books_oversubscribed () =
  (* threads > logical cores: preemption dooms in-flight transactions, so
     interrupt attribution and the wasted split both see real traffic. *)
  List.iter
    (fun (name, scheme) ->
      check_books (name ^ " x12")
        (Experiment.run (profiled (forensics_cfg ~threads:12 scheme))))
    [
      ("epoch", Experiment.Epoch);
      ("stacktrack", Experiment.stacktrack_default);
      ("hazard-eras", Experiment.Hazard_eras);
    ]

let test_stacktrack_has_traffic () =
  (* The conservation checks must not be vacuous: a contended StackTrack
     run actually dooms transactions, attributes wasted cycles, and moves
     predictor limits. *)
  let r =
    Experiment.run
      (profiled (forensics_cfg ~threads:12 Experiment.stacktrack_default))
  in
  let fx = summary_of r in
  Alcotest.(check bool)
    "saw dooms" true
    (fx.Experiment.fx_conflict_dooms + fx.Experiment.fx_capacity_dooms
     + fx.Experiment.fx_interrupt_dooms
    > 0);
  Alcotest.(check bool)
    "saw wasted cycles" true
    (fx.Experiment.fx_wasted_total > 0);
  Alcotest.(check bool)
    "tracked segments" true
    (fx.Experiment.fx_segments_tracked > 0);
  Alcotest.(check bool)
    "recorded retry chains" true
    (Latency.count fx.Experiment.fx_retry_hist > 0);
  Alcotest.(check bool)
    "predictor made decisions" true
    (fx.Experiment.fx_timeline <> []);
  Alcotest.(check bool)
    "heat rows carry conflict dooms" true
    (List.exists
       (fun (row : Experiment.heat_row) ->
         row.Experiment.heat.Tsx.conflicts > 0)
       (Option.value ~default:[] r.Experiment.heatmap))

(* ------------------------------------------------------------------ *)
(* Flag gating                                                         *)
(* ------------------------------------------------------------------ *)

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let test_json_gating () =
  let base = forensics_cfg Experiment.stacktrack_default in
  let flagged = Result_json.to_string (Experiment.run base) in
  let unflagged =
    Result_json.to_string
      (Experiment.run { base with Experiment.forensics = false })
  in
  Alcotest.(check bool)
    "flagged JSON has htm_forensics" true
    (contains flagged "\"htm_forensics\"");
  Alcotest.(check bool)
    "flagged JSON has the matrix" true
    (contains flagged "\"conflict_pairs\"");
  Alcotest.(check bool)
    "flagged JSON has the timeline" true
    (contains flagged "\"predictor\"");
  Alcotest.(check bool)
    "unflagged JSON omits it" false
    (contains unflagged "\"htm_forensics\"")

let test_flag_does_not_perturb () =
  (* The ledger is pure arithmetic at existing charge sites: a flagged
     run must produce the identical simulation (the JSON differs only by
     the appended htm_forensics section). *)
  let base = forensics_cfg Experiment.stacktrack_default in
  let flagged = Experiment.run base in
  let unflagged = Experiment.run { base with Experiment.forensics = false } in
  Alcotest.(check int)
    "same total ops" unflagged.Experiment.total_ops
    flagged.Experiment.total_ops;
  Alcotest.(check int)
    "same makespan" unflagged.Experiment.makespan flagged.Experiment.makespan;
  Alcotest.(check int)
    "same commits" unflagged.Experiment.htm.Htm_stats.commits
    flagged.Experiment.htm.Htm_stats.commits;
  Alcotest.(check string)
    "identical unflagged JSON prefix"
    (Result_json.to_string unflagged)
    (Result_json.to_string { flagged with Experiment.forensics = None })

(* Unflagged identity run: the disabled ledger hooks must leave the
   committed golden byte-for-byte intact (mirror of test_perf_identity's
   pinned configuration). *)
let test_unflagged_identity () =
  let cfg =
    {
      Experiment.default_config with
      structure = Experiment.List_s;
      scheme = Experiment.stacktrack_default;
      threads = 12;
      duration = 250_000;
      key_range = 1024;
      init_size = 512;
      mutation_pct = 20;
      seed = 0xC0FFEE;
      n_buckets = 512;
    }
  in
  let r = Experiment.run cfg in
  Alcotest.(check string)
    "goldens/identity_list_st.json byte-identical"
    (read_file "goldens/identity_list_st.json")
    (Result_json.to_string r ^ "\n")

let () =
  Alcotest.run "forensics"
    [
      ( "ledger",
        [
          quick "disabled singleton records nothing" test_disabled_singleton;
          quick "doom counters and conflict matrix" test_matrices;
          quick "wasted buckets conserve" test_wasted_buckets;
          quick "segments and depth histogram" test_segments_and_depths;
          quick "segment keys past 4096 splits" test_segment_keys_unbounded;
          quick "timeline capacity bound" test_timeline_capacity;
        ] );
      ( "predictor",
        [ quick "on_adjust fires exactly on changes" test_predictor_notify ] );
      ( "conservation",
        [
          quick "books balance across all schemes" test_books_all_schemes;
          quick "books balance under crashes" test_books_crash;
          quick "books balance oversubscribed" test_books_oversubscribed;
          quick "stacktrack run has real traffic" test_stacktrack_has_traffic;
        ] );
      ( "gating",
        [
          quick "htm_forensics appears iff flagged" test_json_gating;
          quick "flag does not perturb the run" test_flag_does_not_perturb;
          quick "unflagged identity golden" test_unflagged_identity;
        ] );
    ]
