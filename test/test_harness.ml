(* Tests for the harness layer: the latency histogram math, experiment
   configuration knobs (topology, distribution, crash injection), result
   bookkeeping consistency, the run CLI's rejection of bad set-up sizes,
   and a smoke pass over a figure preset. *)

open St_harness

let checki = Alcotest.check Alcotest.int
let checkb = Alcotest.check Alcotest.bool

(* ------------------------------------------------------------------ *)
(* Latency histogram                                                   *)
(* ------------------------------------------------------------------ *)

let test_latency_basics () =
  let l = Latency.create () in
  List.iter (Latency.record l) [ 10; 20; 30; 40; 1000 ];
  checki "count" 5 (Latency.count l);
  checki "max" 1000 (Latency.max_value l);
  checkb "mean" true (abs_float (Latency.mean l -. 220.) < 1.);
  checkb "p50 in bucket of 20-30" true
    (Latency.percentile l 50. >= 16 && Latency.percentile l 50. <= 32);
  checkb "p99 reaches the tail" true (Latency.percentile l 99. >= 512)

let test_latency_percentile_monotone () =
  let l = Latency.create () in
  let rng = St_sim.Rng.create ~seed:3 in
  for _ = 1 to 10_000 do
    Latency.record l (St_sim.Rng.int rng 100_000)
  done;
  let prev = ref 0 in
  List.iter
    (fun p ->
      let v = Latency.percentile l p in
      checkb (Printf.sprintf "p%.0f >= previous" p) true (v >= !prev);
      prev := v)
    [ 1.; 25.; 50.; 75.; 90.; 99.; 100. ]

let test_latency_merge () =
  let a = Latency.create () and b = Latency.create () in
  Latency.record a 10;
  Latency.record b 1000;
  let m = Latency.merge [ a; b ] in
  checki "merged count" 2 (Latency.count m);
  checki "merged max" 1000 (Latency.max_value m)

(* Boundary behaviour of the half-power-of-two bucketing. *)
let test_latency_bucket_boundaries () =
  (* Degenerate small values all land in bucket 0. *)
  checki "v=0" 0 (Latency.bucket_of 0);
  checki "v=1" 0 (Latency.bucket_of 1);
  (* Exact powers of two: 2^k lands in bucket 2k - 1 (so v=2 reaches
     bucket 1 — every index is populated). *)
  List.iter
    (fun k ->
      checki
        (Printf.sprintf "2^%d" k)
        ((2 * k) - 1)
        (Latency.bucket_of (1 lsl k)))
    [ 1; 2; 3; 10; 20; 30 ];
  (* Half-step values: 1.5 * 2^k lands in bucket 2k. *)
  List.iter
    (fun k ->
      checki (Printf.sprintf "1.5*2^%d" k) (2 * k)
        (Latency.bucket_of (3 lsl (k - 1))))
    [ 1; 2; 3; 10; 20 ];
  (* Just below a power of two stays in the upper half-bucket below it. *)
  checki "2^10 - 1" (2 * 9) (Latency.bucket_of ((1 lsl 10) - 1));
  (* Saturation: enormous values clamp to the last bucket. *)
  checki "max_int saturates" (Latency.n_buckets - 1) (Latency.bucket_of max_int);
  checki "2^60 saturates" (Latency.n_buckets - 1) (Latency.bucket_of (1 lsl 60))

let test_latency_bucket_low_roundtrip () =
  (* bucket_low i is the smallest value in bucket i: it maps back to i, and
     the value just below the next bucket's low bound still maps to i. *)
  checki "bucket_low 0" 0 (Latency.bucket_low 0);
  checki "bucket_low 1" 2 (Latency.bucket_low 1);
  for i = 0 to Latency.n_buckets - 2 do
    checki
      (Printf.sprintf "roundtrip %d" i)
      i
      (Latency.bucket_of (Latency.bucket_low i));
    checki
      (Printf.sprintf "upper edge of %d" i)
      i
      (Latency.bucket_of (Latency.bucket_low (i + 1) - 1))
  done

let test_latency_bucket_low_strictly_increasing () =
  for i = 1 to Latency.n_buckets - 1 do
    checkb
      (Printf.sprintf "bucket_low %d > bucket_low %d" i (i - 1))
      true
      (Latency.bucket_low i > Latency.bucket_low (i - 1))
  done

(* The containment law over a dense small-value sweep plus random large
   values: every recorded value lies inside its bucket's bounds. *)
let test_latency_bucket_invariant_sweep () =
  let check_v v =
    let b = Latency.bucket_of v in
    checkb (Printf.sprintf "low(bucket %d) <= %d" b v) true
      (Latency.bucket_low b <= v);
    if b < Latency.n_buckets - 1 then
      checkb
        (Printf.sprintf "%d < low(bucket %d)" v (b + 1))
        true
        (v < Latency.bucket_low (b + 1))
  in
  for v = 0 to 4096 do
    check_v v
  done;
  let rng = St_sim.Rng.create ~seed:11 in
  for _ = 1 to 2_000 do
    check_v (St_sim.Rng.int rng (1 lsl 50))
  done

(* Merging per-thread histograms must be indistinguishable from recording
   every value into a single histogram. *)
let test_latency_merge_equals_record_all () =
  let rng = St_sim.Rng.create ~seed:7 in
  let parts = Array.init 4 (fun _ -> Latency.create ()) in
  let all = Latency.create () in
  for i = 0 to 4_999 do
    let v = St_sim.Rng.int rng 5_000_000 in
    Latency.record parts.(i mod 4) v;
    Latency.record all v
  done;
  let m = Latency.merge (Array.to_list parts) in
  checki "count" (Latency.count all) (Latency.count m);
  checki "max" (Latency.max_value all) (Latency.max_value m);
  checkb "mean" true (Latency.mean all = Latency.mean m);
  List.iter
    (fun p ->
      checki
        (Printf.sprintf "p%.1f" p)
        (Latency.percentile all p)
        (Latency.percentile m p))
    [ 0.; 1.; 25.; 50.; 75.; 90.; 99.; 99.9; 100. ];
  checkb "nonzero buckets" true
    (Latency.nonzero_buckets all = Latency.nonzero_buckets m)

let test_latency_percentile_empty_singleton () =
  let empty = Latency.create () in
  List.iter
    (fun p -> checki (Printf.sprintf "empty p%.0f" p) 0 (Latency.percentile empty p))
    [ 0.; 50.; 100. ];
  checki "empty count" 0 (Latency.count empty);
  checkb "empty mean" true (Latency.mean empty = 0.);
  (* Singleton: every percentile reports the lone value's bucket bound. *)
  let single = Latency.create () in
  Latency.record single 100;
  let expected = Latency.bucket_low (Latency.bucket_of 100) in
  List.iter
    (fun p ->
      checki (Printf.sprintf "singleton p%.0f" p) expected
        (Latency.percentile single p))
    [ 1.; 50.; 99.; 100. ]

let prop_latency_percentile_bounds =
  QCheck.Test.make ~name:"percentile bounded by max, count preserved" ~count:100
    QCheck.(list_of_size (QCheck.Gen.int_range 1 50) (int_bound 1_000_000))
    (fun vs ->
      let l = Latency.create () in
      List.iter (Latency.record l) vs;
      Latency.count l = List.length vs
      && Latency.percentile l 100. <= Latency.max_value l + 1
      && Latency.percentile l 0. >= 0)

(* ------------------------------------------------------------------ *)
(* Experiment knobs                                                    *)
(* ------------------------------------------------------------------ *)

let base =
  {
    Experiment.default_config with
    threads = 4;
    duration = 150_000;
    key_range = 64;
    init_size = 32;
    mutation_pct = 40;
  }

let test_result_consistency () =
  let r = Experiment.run { base with scheme = Experiment.stacktrack_default } in
  checki "ops sum" r.Experiment.total_ops
    (Array.fold_left ( + ) 0 r.Experiment.ops_per_thread);
  checki "latency count = ops" r.Experiment.total_ops
    (Latency.count r.Experiment.latency);
  checkb "throughput consistent" true
    (abs_float
       (r.Experiment.throughput
       -. (float_of_int r.Experiment.total_ops
          *. 1e6
          /. float_of_int r.Experiment.makespan))
    < 0.01);
  checkb "allocs >= frees" true (r.Experiment.allocs + 1000 >= r.Experiment.frees);
  checki "live = allocs - frees"
    (r.Experiment.allocs - r.Experiment.frees)
    r.Experiment.live_at_end

let test_single_core_topology () =
  (* 1 core, no SMT: everything serializes; still correct. *)
  let r =
    Experiment.run
      { base with cores = 1; smt = 1; threads = 3; scheme = Experiment.Epoch }
  in
  checki "no violations" 0 r.Experiment.violations;
  checkb "context switches on one core" true (r.Experiment.context_switches > 0)

let test_zipf_dist () =
  let r =
    Experiment.run
      {
        base with
        dist = St_workload.Workload.Zipf 0.9;
        scheme = Experiment.stacktrack_default;
      }
  in
  checki "no violations" 0 r.Experiment.violations;
  checkb "progress" true (r.Experiment.total_ops > 100)

let test_crash_injection_runs () =
  let r =
    Experiment.run
      { base with crash_tids = [ 1 ]; scheme = Experiment.stacktrack_default }
  in
  checki "no violations" 0 r.Experiment.violations;
  (* The crashed thread completed fewer ops than survivors on average. *)
  let dead = r.Experiment.ops_per_thread.(1) in
  let live = r.Experiment.ops_per_thread.(0) in
  checkb "victim stopped early" true (dead <= live)

let test_structures_all_run () =
  List.iter
    (fun structure ->
      let r =
        Experiment.run { base with structure; scheme = Experiment.Epoch }
      in
      checkb
        (Experiment.structure_name structure ^ " progresses")
        true
        (r.Experiment.total_ops > 50);
      checki "no violations" 0 r.Experiment.violations)
    [ Experiment.List_s; Experiment.Skiplist_s; Experiment.Queue_s; Experiment.Hash_s ]

(* ------------------------------------------------------------------ *)
(* Scheme names                                                        *)
(* ------------------------------------------------------------------ *)

let test_scheme_parser () =
  let open Experiment in
  let expected =
    [
      ("original", Original);
      ("none", Original);
      ("hazards", Hazards);
      ("hp", Hazards);
      ("epoch", Epoch);
      ("stacktrack", stacktrack_default);
      ("st", stacktrack_default);
      ("dta", Dta);
      ("refcount", Refcount_s);
      ("rc", Refcount_s);
      ("immediate", Immediate_unsafe);
      ("debra", Debra);
      ("debra+", Debra_plus);
      ("debra-plus", Debra_plus);
      ("hazard-eras", Hazard_eras);
      ("he", Hazard_eras);
      ("ibr", Hazard_eras);
    ]
  in
  List.iter
    (fun (name, kind) ->
      checkb (name ^ " parses") true (scheme_of_string name = Ok kind))
    expected;
  (* Every kind has a canonical name that parses back; the match below
     stops compiling when a kind is added without listing it here. *)
  let kinds =
    [
      Original; Hazards; Epoch; stacktrack_default; Dta; Refcount_s;
      Immediate_unsafe; Debra; Debra_plus; Hazard_eras;
    ]
  in
  List.iter
    (fun kind ->
      (match kind with
      | Original | Hazards | Epoch | Stacktrack_s _ | Dta | Refcount_s
      | Immediate_unsafe | Debra | Debra_plus | Hazard_eras ->
          ());
      match List.find_opt (fun (_, k) -> k = kind) scheme_aliases with
      | None -> Alcotest.failf "%s has no command-line name" (scheme_name kind)
      | Some (name, _) ->
          checkb (name ^ " round-trips") true (scheme_of_string name = Ok kind))
    kinds;
  List.iter
    (fun bad ->
      checkb (bad ^ " rejected") true (Result.is_error (scheme_of_string bad)))
    [ "leak"; ""; "StackTrack"; "hazard_eras" ]

(* ------------------------------------------------------------------ *)
(* Figures through the registry driver                                 *)
(* ------------------------------------------------------------------ *)

let run_quick name =
  match Figures.find name with
  | Some fig -> (fig, Figures.run ~speed:Figures.Quick fig)
  | None -> Alcotest.failf "no figure %S in the registry" name

let first_table (fig : Figures.figure) rows =
  match fig.Figures.tables with
  | t :: _ -> t.Figures.cells rows
  | [] -> Alcotest.failf "figure %s has no table" fig.Figures.name

let test_memory_profile_smoke () =
  (* The epoch curve must end higher than it starts (leak after crash);
     the non-blocking schemes must not. *)
  let _, rows = run_quick "memory" in
  List.iter
    (fun (r : Experiment.result) ->
      let live =
        List.map (fun (s : Metrics.sample) -> s.live_objects) r.Experiment.metrics
      in
      match (live, List.rev live) with
      | first :: _, last :: _ -> (
          match r.Experiment.cfg.Experiment.scheme with
          | Experiment.Epoch ->
              checkb "epoch leaks after crash" true (last > first + 20)
          | _ -> checkb "non-blocking stays bounded" true (last < first + 60))
      | _ -> Alcotest.fail "no samples")
    (List.concat_map snd rows)

let test_stm_figure_smoke () =
  let fig, rows = run_quick "stm" in
  List.iter
    (fun (_, values) ->
      match values with
      | [ htm; stm; pct ] ->
          checkb "htm faster than stm" true (htm > stm);
          checkb "ratio sane" true (pct > 5. && pct < 95.)
      | _ -> Alcotest.fail "row shape")
    (first_table fig rows)

(* One figure preset end-to-end (tiny thread set via Quick). *)
let test_figure_smoke () =
  let fig, rows = run_quick "fig4-splits" in
  let table = first_table fig rows in
  checkb "rows produced" true (List.length table >= 5);
  List.iter
    (fun (_, values) ->
      match values with
      | [ splits; len ] ->
          checkb "splits positive" true (splits > 0.);
          checkb "length in range" true (len > 0. && len <= 400.)
      | _ -> Alcotest.fail "unexpected row shape")
    table

(* ------------------------------------------------------------------ *)
(* The CLI: out-of-range inputs are usage errors                      *)
(* ------------------------------------------------------------------ *)

let bench = "../bin/stacktrack_bench.exe"

let contains text sub =
  let n = String.length sub in
  let rec at i =
    i + n <= String.length text && (String.sub text i n = sub || at (i + 1))
  in
  at 0

(* Run [exe] with [args], stdout and stderr into one file, and kill it if
   it is still running after [seconds]: [None] then stands for a hang. *)
let run_exe ?(seconds = 30.) exe args =
  let out = Filename.temp_file "run" ".txt" in
  let fd = Unix.openfile out [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600 in
  let pid =
    Unix.create_process exe (Array.of_list (exe :: args)) Unix.stdin fd fd
  in
  Unix.close fd;
  let deadline = Unix.gettimeofday () +. seconds in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ when Unix.gettimeofday () < deadline ->
        Unix.sleepf 0.02;
        wait ()
    | 0, _ ->
        Unix.kill pid Sys.sigkill;
        ignore (Unix.waitpid [] pid);
        None
    | _, Unix.WEXITED code -> Some code
    | _, (Unix.WSIGNALED _ | Unix.WSTOPPED _) -> Some (-1)
  in
  let status = wait () in
  let text = In_channel.with_open_bin out In_channel.input_all in
  Sys.remove out;
  (status, text)

(* The CLI's subcommand [cmd] with [args]. *)
let run_cli ?seconds cmd args = run_exe ?seconds bench (cmd :: args)

(* A negative --init used to spin forever drawing keys; a zero key range
   or bucket count, and a mutation percentage outside 0..100, died on an
   assertion ("internal error"); more threads than the simulator's tid
   tables hold died with [Invalid_argument], and zero threads ran nothing.
   A --crash id past the workers either died out of bounds or crashed the
   crash injector itself, a trace capacity below 1 died on an assertion,
   and a negative metrics interval silently turned sampling off.  A
   negative duration ran nothing, a forced-slow percentage outside 0..100
   and a negative free-set batch were taken as given, and an unknown
   scheme and a negative --jobs exited 2 from hand-written checks.  256
   workers plus a crash injector or a sampler thread died with
   [Invalid_argument] on the 257th tid.  A NaN or infinite --zipf ran with
   every draw on key 0, and a negative one ran an inverted skew.  Each is
   now a usage error (cmdliner's exit 124) that names its flag. *)
let test_cli_bad_sizes () =
  let trace = Filename.temp_file "bad_capacity" ".json" in
  Fun.protect ~finally:(fun () -> Sys.remove trace) @@ fun () ->
  List.iter
    (fun (cmd, args, flag) ->
      let name = String.concat " " (cmd :: args) in
      match run_cli cmd args with
      | None, _ -> Alcotest.failf "%s: still running after the timeout" name
      | Some code, out ->
          checki (name ^ ": usage-error exit") 124 code;
          checkb (name ^ ": no internal error") false
            (contains out "internal error");
          checkb (name ^ ": names " ^ flag) true (contains out flag))
    [
      ("run", [ "--init=-5" ], "--init");
      ("run", [ "--keys"; "0" ], "--keys");
      ("run", [ "--structure"; "hash"; "--buckets"; "0" ], "--buckets");
      ("run", [ "--structure"; "hash"; "--buckets=-4" ], "--buckets");
      ("run", [ "--threads"; "257" ], "--threads");
      ("run", [ "--threads=-3" ], "--threads");
      ("run", [ "--threads"; "0" ], "--threads");
      ("run", [ "--mutations=-5" ], "--mutations");
      ("run", [ "--mutations"; "150" ], "--mutations");
      ("run", [ "--crash"; "9"; "--threads"; "4" ], "--crash");
      ("run", [ "--crash=-1" ], "--crash");
      ("run", [ "--crash"; "4"; "--threads"; "4" ], "--crash");
      ("run", [ "--threads"; "256"; "--crash"; "0" ], "--threads");
      ( "run",
        [
          "--threads"; "256"; "--metrics-interval"; "50000"; "--forensics";
          "--duration"; "300000"; "--scheme"; "st";
        ],
        "--threads" );
      ( "run",
        [ "--trace-capacity"; "0"; "--trace-out"; trace ],
        "--trace-capacity" );
      ( "run",
        [ "--trace-capacity=-1"; "--trace-out"; trace ],
        "--trace-capacity" );
      ("run", [ "--metrics-interval=-5" ], "--metrics-interval");
      ("run", [ "--scheme"; "bogus" ], "--scheme");
      ("run", [ "--structure"; "bogus" ], "--structure");
      ("run", [ "--forced-slow"; "150" ], "--forced-slow");
      ("run", [ "--forced-slow=-5" ], "--forced-slow");
      ("run", [ "--duration=-5" ], "--duration");
      ("run", [ "--max-free=-3" ], "--max-free");
      ("run", [ "--zipf=nan" ], "--zipf");
      ("run", [ "--zipf=inf" ], "--zipf");
      ("run", [ "--zipf=-1" ], "--zipf");
      ("figures", [ "--jobs=-1" ], "--jobs");
    ]

(* A moved golden is regenerated with its row's [run] command (README):
   each of these rows of test_perf_identity's table is that command's
   --json output, byte for byte.  Every row that differs is listed. *)
let test_cli_reproduces_rows () =
  let moved =
    List.filter_map
      (fun (golden, args) ->
        let args = String.split_on_char ' ' args @ [ "--json" ] in
        let cmd = String.concat " " ("run" :: args) in
        let golden = Printf.sprintf "goldens/%s.json" golden in
        match run_cli "run" args with
        | None, _ -> Some (cmd ^ ": still running after the timeout")
        | Some code, out ->
            let pinned = In_channel.with_open_bin golden In_channel.input_all in
            if code = 0 && out = pinned then None
            else Some (Printf.sprintf "%s (exit %d) is not %s" cmd code golden))
      [
        ("identity_list_st", "--threads 12 --duration 250000");
        ( "identity_list_st_hashscan",
          "--threads 12 --duration 250000 --hash-scan --max-free 4" );
        ("golden_run_st", "--duration 300000");
        ( "identity_list_st_observed",
          "--duration 300000 --profile --forensics" );
        ( "identity_queue_st_observed",
          "--structure queue --threads 8 --duration 250000 --profile \
           --forensics" );
        ( "golden_run_epoch",
          "--scheme epoch --structure queue --threads 6 --duration 200000" );
        ( "identity_list_epoch_crash_lifecycle",
          "--scheme epoch --duration 2000000 --crash 0 --lifecycle" );
        ( "identity_hash_st",
          "--structure hash --threads 16 --duration 150000 --keys 2000000 \
           --init 1000000 --buckets 250000" );
      ]
  in
  if moved <> [] then
    Alcotest.failf "%d pinned row(s) not reproduced by run:\n%s"
      (List.length moved) (String.concat "\n" moved)

(* The sampler stops at the duration, so a metrics interval past it can
   only sample past the run.  An interval of 10^18 cycles sent the sampler
   there in one wait: with two workers the run ended with its one sample
   at that tick, and with four an SMT sibling's penalty overflowed on the
   wait and the run hung.  An interval above --duration is now a usage
   error that names the flag; one equal to it still runs. *)
let test_cli_far_sampler_deadline () =
  let far threads =
    [
      "--duration"; "20000"; "--threads"; threads; "--metrics-interval";
      "1000000000000000000"; "--json";
    ]
  in
  List.iter
    (fun args ->
      let name = String.concat " " args in
      match run_cli "run" args with
      | None, _ -> Alcotest.failf "%s: still running after the timeout" name
      | Some code, out ->
          checki (name ^ ": usage-error exit") 124 code;
          checkb (name ^ ": names --metrics-interval") true
            (contains out "--metrics-interval"))
    [ far "2"; far "4" ];
  match
    run_cli "run"
      [ "--duration"; "20000"; "--metrics-interval"; "20000"; "--json" ]
  with
  | None, _ -> Alcotest.fail "interval = duration: still running"
  | Some code, _ -> checki "interval = duration: exit" 0 code

(* An unwritable --flame-out or --json-out used to run the whole
   simulation (every figure of [figures all]) and then die with an
   uncaught [Sys_error].  Every output path is now opened before any
   simulation: exit 2, with a message that names the flag and the file. *)
let test_cli_unwritable_outputs () =
  let bad = Filename.concat (Filename.get_temp_dir_name ()) "no-such-dir/x" in
  List.iter
    (fun (cmd, args, flag) ->
      let name = String.concat " " (cmd :: args) in
      match run_cli cmd args with
      | None, _ -> Alcotest.failf "%s: still running after the timeout" name
      | Some code, out ->
          checki (name ^ ": exit") 2 code;
          checkb (name ^ ": no internal error") false
            (contains out "internal error");
          checkb (name ^ ": cannot write") true (contains out "cannot write");
          checkb (name ^ ": names " ^ flag) true (contains out flag);
          checkb (name ^ ": names the file") true (contains out bad))
    [
      ("run", [ "--trace-out"; bad ], "--trace-out");
      ("run", [ "--flame-out"; bad ], "--flame-out");
      ("figures", [ "stm"; "--quick"; "--json-out"; bad ], "--json-out");
      ("figures", [ "all"; "--json-out"; bad ], "--json-out");
      ("figures", [ "fig1-list"; "--quick"; "--flame-out"; bad ], "--flame-out");
    ]

(* The host-time gate read its baseline line by line in one key order:
   an entry with "best_ms" first was skipped as missing, and a target with
   no entry passed unmeasured.  Any JSON entry is read now, a target with
   no entry exits 2 before anything runs, and the committed baseline
   parses. *)
let test_hosttime_gate () =
  let hosttime = "../bench/hosttime.exe" in
  let baseline = Filename.temp_file "baseline" ".json"
  and summary = Filename.temp_file "summary" ".json" in
  Fun.protect ~finally:(fun () -> Sys.remove baseline; Sys.remove summary)
  @@ fun () ->
  let check_against file =
    run_exe hosttime
      [
        "--duration"; "20000"; "--json-out"; summary; "--check-against"; file;
        "fig1-list";
      ]
  in
  let gate entries =
    Out_channel.with_open_bin baseline (fun oc ->
        Printf.fprintf oc {|{ "targets": [ %s ] }|} entries);
    check_against baseline
  in
  let expect name (status, out) code shows =
    match status with
    | None -> Alcotest.failf "%s: still running after the timeout" name
    | Some c ->
        checki (name ^ ": exit") code c;
        checkb (name ^ ": says " ^ shows) true (contains out shows)
  in
  expect "reordered, slower"
    (gate {|{ "best_ms": 0.001, "target": "fig1-list" }|})
    1 "REGRESSION";
  expect "reordered, faster"
    (gate {|{ "best_ms": 1e9, "target": "fig1-list" }|})
    0 "gate: fig1-list      ok";
  (match Json_in.parse_file summary with
  | Json_out.Obj fields ->
      checkb "summary lists fig1-list" true
        (match List.assoc_opt "targets" fields with
        | Some (Json_out.List [ Json_out.Obj entry ]) ->
            List.assoc_opt "target" entry = Some (Json_out.String "fig1-list")
        | _ -> false)
  | _ -> Alcotest.fail "summary is not an object");
  expect "missing entry"
    (gate {|{ "target": "scan-list", "best_ms": 1e9 }|})
    2 "no baseline entry for target fig1-list";
  expect "committed baseline" (check_against "../BENCH_hosttime.json") 0
    "gate: fig1-list      ok";
  (* An unwritable --json-out exits 2 before any target is timed. *)
  let ((_, out) as r) =
    run_exe hosttime
      [
        "--duration"; "20000"; "--json-out"; "/nonexistent/x.json";
        "--check-against"; "../BENCH_hosttime.json"; "fig1-list";
      ]
  in
  expect "unwritable --json-out" r 2 "hosttime: --json-out: cannot write";
  checkb "unwritable --json-out: no target timed" false (contains out "host_ms");
  (* A config that [Experiment.validate] refuses exits 2, naming the
     option, before any target is timed: too many threads used to die in
     [Sched.add_thread], and no thread or a negative duration timed an
     empty run. *)
  List.iter
    (fun (args, option) ->
      let ((_, out) as r) = run_exe hosttime (args @ [ "fig1-list" ]) in
      let name = String.concat " " args in
      expect name r 2 (Printf.sprintf "option '%s'" option);
      checkb (name ^ ": no target timed") false (contains out "host_ms"))
    [
      ([ "--threads"; "300" ], "--threads");
      ([ "--threads"; "0" ], "--threads");
      ([ "--duration=-5" ], "--duration");
    ];
  (* A sweep's sampler interval scales with --duration: the memory
     figure's 375,000-cycle interval was past a 20,000-cycle run, and the
     sweep was refused. *)
  expect "sweep-memory at --duration 20000"
    (run_exe hosttime [ "--duration"; "20000"; "sweep-memory" ])
    0 "host_ms=";
  (* The program-counter sampler writes its report where it can sample,
     and refuses, naming the one target it supports, where it cannot. *)
  let profile = Filename.temp_file "pc_profile" ".txt" in
  Fun.protect ~finally:(fun () -> Sys.remove profile) @@ fun () ->
  let r =
    run_exe hosttime
      [
        "--duration"; "20000"; "--repeat"; "2"; "--pc-profile"; profile;
        "fig1-list";
      ]
  in
  match r with
  | Some 2, _ -> expect "--pc-profile unsupported" r 2 "Linux x86-64 only"
  | _ ->
      expect "--pc-profile" r 0 "pc-profile: ";
      checkb "--pc-profile: header line" true
        (String.starts_with ~prefix:"# pc-profile: "
           (In_channel.with_open_bin profile In_channel.input_all))

(* A PC above everything the executable's symbol table lists (a shared
   library's, the vDSO's) is outside the executable, not in [_fini]: the
   last text symbol, which [nm] lists without a size. *)
let test_pcprof_outside () =
  if not Pcprof.supported then Alcotest.skip ();
  let file = Filename.temp_file "pc_profile" ".txt" in
  Fun.protect ~finally:(fun () -> Sys.remove file) @@ fun () ->
  Out_channel.with_open_bin file (fun oc ->
      Pcprof.write_report oc
        { samples = [| 0x7fff_0000_0000 |]; dropped = 0; cpu_s = 1. });
  let report = In_channel.with_open_bin file In_channel.input_all in
  checkb "counted outside the executable" true
    (contains report "100.00%  (outside the executable)");
  checkb "no _fini row" false (contains report "_fini")

(* SIGPROF interrupts whichever thread runs, and its handler needs an
   alternate stack there: the set-up's helper domain has one. *)
let test_pcprof_domain_stack () =
  if not Pcprof.supported then Alcotest.skip ();
  checkb "a spawned domain's thread has an alternate signal stack" true
    (Domain.join (Domain.spawn Pcprof.has_signal_stack))

let () =
  Alcotest.run "st_harness"
    [
      ( "latency",
        [
          Alcotest.test_case "basics" `Quick test_latency_basics;
          Alcotest.test_case "monotone percentiles" `Quick
            test_latency_percentile_monotone;
          Alcotest.test_case "merge" `Quick test_latency_merge;
          Alcotest.test_case "bucket boundaries" `Quick
            test_latency_bucket_boundaries;
          Alcotest.test_case "bucket_low roundtrip" `Quick
            test_latency_bucket_low_roundtrip;
          Alcotest.test_case "bucket_low strictly increasing" `Quick
            test_latency_bucket_low_strictly_increasing;
          Alcotest.test_case "bucket invariant sweep" `Quick
            test_latency_bucket_invariant_sweep;
          Alcotest.test_case "merge = record-all" `Quick
            test_latency_merge_equals_record_all;
          Alcotest.test_case "percentile empty/singleton" `Quick
            test_latency_percentile_empty_singleton;
          QCheck_alcotest.to_alcotest prop_latency_percentile_bounds;
        ] );
      ( "experiment",
        [
          Alcotest.test_case "result consistency" `Quick test_result_consistency;
          Alcotest.test_case "single core" `Quick test_single_core_topology;
          Alcotest.test_case "zipf" `Quick test_zipf_dist;
          Alcotest.test_case "crash injection" `Quick test_crash_injection_runs;
          Alcotest.test_case "all structures" `Quick test_structures_all_run;
          Alcotest.test_case "scheme parser" `Quick test_scheme_parser;
        ] );
      ( "run cli",
        [
          Alcotest.test_case "bad set-up sizes" `Quick test_cli_bad_sizes;
          Alcotest.test_case "run reproduces the pinned rows" `Quick
            test_cli_reproduces_rows;
          Alcotest.test_case "unwritable outputs" `Quick
            test_cli_unwritable_outputs;
          Alcotest.test_case "sampler deadline past the run" `Quick
            test_cli_far_sampler_deadline;
          Alcotest.test_case "hosttime baseline gate" `Quick test_hosttime_gate;
          Alcotest.test_case "pc-profile: samples past the executable" `Quick
            test_pcprof_outside;
          Alcotest.test_case "pc-profile: a domain's signal stack" `Quick
            test_pcprof_domain_stack;
        ] );
      ( "figures",
        [
          Alcotest.test_case "fig4 smoke" `Slow test_figure_smoke;
          Alcotest.test_case "memory profile smoke" `Slow
            test_memory_profile_smoke;
          Alcotest.test_case "stm figure smoke" `Slow test_stm_figure_smoke;
        ] );
    ]
