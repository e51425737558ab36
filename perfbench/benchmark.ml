(* The benchmark named by BENCHMARK.json at the repository root.

   Usage:
     benchmark.exe --workload W [--seed S] [--seconds T] [--trace 0|1]
                   [--json-out FILE]
       Measure one workload in this process.  --trace 0 reports the
       end-to-end metrics, measured for about T seconds; --trace 1 does a
       fixed amount of work: a traced run and the per-layer metrics.  The
       last line of stdout is a JSON object with the keys correct,
       attempted, failed and metrics.
     benchmark.exe [--seed S] [--seconds T] [--json-out FILE]
       Measure every workload, untraced then traced, each in a fresh child
       process (this executable again, with --workload), so that GC counts
       and the peak heap repeat exactly.

   Every metric is printed as one "workload metric value unit" line; host
   times (ms, s, ns) are at reference speed, see Reference.
   --json-out writes workloads.<w>.{e2e,layers}.<metric> and
   fixtures.<metric>, the layout bench/analyze.exe diff compares.

   A run is failed, and counted, not asserted, when it raises, when the
   shadow checker saw a use-after-free or double free, when its simulated
   digest differs from an earlier run of the same seed and duration, traced
   or not, or when a traced run's cycle accounts do not balance. *)

open St_harness
module Json = Json_out

let seed = ref Experiment.default_config.Experiment.seed
let seconds = ref 15
let workload = ref ""
let trace = ref 0
let json_out = ref ""

let usage =
  "benchmark.exe [--workload W] [--seed S] [--seconds T] [--trace 0|1] \
   [--json-out FILE]"

let spec =
  [
    ( "--workload",
      Arg.Set_string workload,
      "W  " ^ String.concat "|" (List.map (fun w -> w.Workloads.name) Workloads.all)
      ^ " (default: all, each in a child process)" );
    ("--seed", Arg.Set_int seed, "S  Workload seed (default 0xC0FFEE)");
    ("--seconds", Arg.Set_int seconds, "T  Measuring time per workload (default 15)");
    ("--trace", Arg.Set_int trace, "0|1  End-to-end (0) or traced per-layer (1) run");
    ("--json-out", Arg.Set_string json_out, "FILE  Also write the metrics as JSON");
  ]

(* The simulator's large tables come from glibc malloc, whose default
   policy adapts to the history of frees: whether a run's fresh tables reuse
   mapped memory or fault in new pages then depends on what ran before it,
   and set-up times split into two modes 30-50% apart.  So the benchmark
   runs under a fixed policy, never trimming the heap and never mapping
   blocks below 32 MiB, and re-executes itself once to set it. *)
let malloc_policy =
  [| "MALLOC_MMAP_THRESHOLD_=33554432"; "MALLOC_TRIM_THRESHOLD_=1073741824" |]

let () =
  if Sys.getenv_opt "MALLOC_TRIM_THRESHOLD_" = None then
    Unix.execve Sys.executable_name Sys.argv
      (Array.append (Unix.environment ()) malloc_policy)

type metric = { name : string; value : float; unit : string }

let m name unit value = { name; value; unit }
let now = Unix.gettimeofday
let per x y = if y = 0 then 0. else float x /. float y

(* ------------------------------------------------------------------ *)
(* Checked runs                                                        *)
(* ------------------------------------------------------------------ *)

let attempted = ref 0
let failed = ref 0
let digests = Hashtbl.create 64

let digest (r : Experiment.result) =
  let h = r.htm in
  St_htm.Htm_stats.
    [
      r.total_ops;
      r.makespan;
      h.starts;
      h.commits;
      h.conflict_aborts;
      h.capacity_aborts;
      h.interrupt_aborts;
      h.explicit_aborts;
      r.allocs;
      r.frees;
    ]

let fail cfg msg =
  incr failed;
  Printf.eprintf "benchmark: failed run (seed %d, duration %d): %s\n%!"
    cfg.Experiment.seed cfg.Experiment.duration msg

(* One Experiment.run and its host seconds; [None] if it raised.  Every
   run starts from a collected heap, so that it pays for its own garbage
   and not for what the runs before it left; [start] runs just before the
   clock starts. *)
let run ?(start = ignore) (cfg : Experiment.config) =
  incr attempted;
  Gc.full_major ();
  start ();
  let t0 = now () in
  match Experiment.run cfg with
  | exception e ->
      fail cfg (Printexc.to_string e);
      None
  | r ->
      let s = now () -. t0 in
      let d = digest r and key = (cfg.seed, cfg.duration) in
      let same =
        match Hashtbl.find_opt digests key with
        | None ->
            Hashtbl.add digests key d;
            true
        | Some d0 -> d0 = d
      in
      let problems =
        List.filter_map Fun.id
          [
            (if same then None else Some "simulated digest differs");
            (if r.violations = 0 then None
             else Some (Printf.sprintf "%d shadow violations" r.violations));
            (match r.profile with
            | Some snap when not (St_sim.Profile.conserved snap) ->
                Some "cycle accounts do not sum to consumed cycles"
            | _ -> None);
          ]
      in
      if problems <> [] then fail cfg (String.concat "; " problems);
      Some (s, r)

let setup_cfg cfg = { cfg with Experiment.duration = 0 }

(* ------------------------------------------------------------------ *)
(* End-to-end (--trace 0)                                              *)
(* ------------------------------------------------------------------ *)

let e2e (w : Workloads.t) =
  let cfg i = { w.cfg with seed = Workloads.seed_of ~seed:!seed (i mod w.seeds) } in
  let t_start = now () in
  let full = ref [] and setup = ref [] in
  let ops = ref 0 and makespan = ref 0 and words = ref 0. in
  (* First round, one run per seed, at the start of a fresh process: its
     allocation count and peak heap are exact.  Its host times are left
     out, as the first runs in a process also grow the heap. *)
  for i = 0 to w.seeds - 1 do
    let w0 = Gc.minor_words () in
    match run (cfg i) with
    | None -> ()
    | Some (_, r) ->
        words := !words +. (Gc.minor_words () -. w0);
        ops := !ops + r.total_ops;
        makespan := !makespan + r.makespan;
        if i = 0 then
          Printf.eprintf "%s seed %d: ops %d makespan %d (%.1f ops/Mcycle)\n%!"
            w.name r.cfg.seed r.total_ops r.makespan r.throughput
  done;
  let peak_words = (Gc.quick_stat ()).top_heap_words in
  (* Then timed runs until the time is up, set-ups spread evenly over it,
     every seed run again so its digest is checked. *)
  let min_full = w.seeds + max 5 w.seeds in
  let n_full = ref w.seeds and n_setup = ref 0 in
  let budget = float !seconds in
  let continue () =
    now () -. t_start < budget || !n_full < min_full || !n_setup < w.setups
  in
  while continue () do
    Reference.refresh ();
    let due = float w.setups *. Float.min 1. ((now () -. t_start) /. budget) in
    if !n_setup < w.setups && (float !n_setup < due || !n_full >= min_full)
    then begin
      Option.iter
        (fun (s, _) -> setup := Reference.scale s :: !setup)
        (run (setup_cfg (cfg !n_setup)));
      incr n_setup
    end
    else begin
      Option.iter (fun (s, _) -> full := Reference.scale s :: !full) (run (cfg !n_full));
      incr n_full
    end
  done;
  [
    m "host_ms" "ms" (1e3 *. Reference.median !full);
    m "setup_s" "s" (Reference.median !setup);
    m "minor_words_per_op" "words/op" (!words /. float (max 1 !ops));
    m "peak_heap_mb" "MiB" (float (peak_words * (Sys.word_size / 8)) /. 1048576.);
    m "sim_ops_per_mcycle" "ops/Mcycle" (1e6 *. per !ops !makespan);
  ]

(* ------------------------------------------------------------------ *)
(* Traced run and per-layer metrics (--trace 1)                        *)
(* ------------------------------------------------------------------ *)

(* GC activity read back through an in-process Runtime_events cursor:
   collections and slices started, and host time inside outermost
   runtime phases. *)
type gc_tally = {
  mutable minors : int;
  mutable slices : int;
  mutable gc_ns : int;
  mutable lost : int;
  mutable depth : int;
  mutable since : int;
}

let gc_callbacks g =
  let ts t = Int64.to_int (Runtime_events.Timestamp.to_int64 t) in
  Runtime_events.Callbacks.create
    ~runtime_begin:(fun _ t phase ->
      (match phase with
      | Runtime_events.EV_MINOR -> g.minors <- g.minors + 1
      | Runtime_events.EV_MAJOR_SLICE -> g.slices <- g.slices + 1
      | _ -> ());
      if g.depth = 0 then g.since <- ts t;
      g.depth <- g.depth + 1)
    ~runtime_end:(fun _ t _ ->
      if g.depth > 0 then begin
        g.depth <- g.depth - 1;
        if g.depth = 0 then g.gc_ns <- g.gc_ns + (ts t - g.since)
      end)
    ~lost_events:(fun _ n -> g.lost <- g.lost + n)
    ()

let traced_metrics (r : Experiment.result) ~setup_allocs =
  let ops = r.total_ops and h = r.htm and g = r.reclaim in
  let st f = match r.st with Some s -> f s | None -> 0 in
  let open Stacktrack.Scheme_stats in
  let shares =
    match r.profile with
    | None -> []
    | Some snap ->
        let totals = St_sim.Profile.totals snap in
        let sum = Array.fold_left ( + ) 0 totals in
        List.map
          (fun a ->
            m
              ("profile." ^ St_sim.Profile.account_name a ^ "_share")
              "ratio"
              (per totals.(St_sim.Profile.account_index a) sum))
          St_sim.Profile.accounts
  in
  [
    m "sched.context_switches" "count" (float r.context_switches);
  ]
  @ shares
  @ St_htm.Htm_stats.
      [
        m "htm.commit_ratio" "ratio" (per h.commits h.starts);
        m "htm.conflict_aborts_per_op" "1/op" (per h.conflict_aborts ops);
        m "htm.capacity_aborts_per_op" "1/op" (per h.capacity_aborts ops);
        m "htm.interrupt_aborts_per_op" "1/op" (per h.interrupt_aborts ops);
        m "htm.lines_per_commit" "lines" (per h.data_set_lines h.commits);
      ]
  @ [
      m "engine.segments_per_op" "1/op" (per (st (fun s -> s.segments)) ops);
      m "engine.replays_per_op" "1/op" (per (st (fun s -> s.replays)) ops);
      m "engine.slow_op_ratio" "ratio"
        (per (st (fun s -> s.slow_ops)) (st (fun s -> s.ops)));
      m "engine.scan_restarts_per_scan" "1/scan"
        (per (st (fun s -> s.scan_restarts)) (st (fun s -> s.scans)));
      m "engine.stack_words_per_scan" "words"
        (per (st (fun s -> s.stack_words)) (st (fun s -> s.scans)));
    ]
  @ St_reclaim.Guard.
      [
        m "reclaim.freed_ratio" "ratio" (per g.freed g.retired);
        m "reclaim.scans_per_kop" "1/kop" (1e3 *. per g.scans ops);
        m "reclaim.scan_words_per_scan" "words" (per g.scan_words g.scans);
        m "reclaim.protect_fences_per_op" "1/op" (per g.protect_fences ops);
        m "reclaim.stall_cycles_per_op" "cycles/op" (per g.stall_cycles ops);
      ]
  @ [
      m "heap.allocs_per_op" "1/op" (per (r.allocs - setup_allocs) ops);
      m "heap.resident_mwords" "Mwords" (float r.resident_words /. 1e6);
      m "tsx.line_table_kwords" "Kwords" (float r.line_table_words /. 1e3);
    ]

(* One traced run: its host seconds and result, and the GC activity and
   promoted words it caused. *)
type traced = {
  host_s : float;
  result : Experiment.result;
  minor_gcs : int;
  major_slices : int;
  gc_ms : float;
  promoted : float;
}

let layers (w : Workloads.t) =
  let cfg = { w.cfg with seed = !seed } in
  let g = { minors = 0; slices = 0; gc_ns = 0; lost = 0; depth = 0; since = 0 } in
  let callbacks = gc_callbacks g in
  Runtime_events.start ();
  Runtime_events.pause ();
  let cursor = Runtime_events.create_cursor None in
  let traced_run () =
    let promoted0 = ref 0. in
    let start () =
      ignore (Runtime_events.read_poll cursor callbacks None);
      g.minors <- 0;
      g.slices <- 0;
      g.gc_ns <- 0;
      promoted0 := (Gc.quick_stat ()).promoted_words
    in
    Runtime_events.resume ();
    let res = run ~start { cfg with profile = true; forensics = true } in
    let promoted = (Gc.quick_stat ()).promoted_words -. !promoted0 in
    ignore (Runtime_events.read_poll cursor callbacks None);
    Runtime_events.pause ();
    Option.map
      (fun (s, result) ->
        {
          host_s = Reference.scale s;
          result;
          minor_gcs = g.minors;
          major_slices = g.slices;
          gc_ms = Reference.scale (float g.gc_ns /. 1e6);
          promoted;
        })
      res
  in
  (* The kernel runs before every run here, not by the clock, so that the
     process allocates the same before each traced run and its GC counts
     repeat exactly. *)
  let timed cfg =
    Reference.sample ();
    Option.map (fun (s, r) -> (Reference.scale s, r)) (run cfg)
  in
  (* Untraced and traced runs alternate, so that a change in host speed
     moves both sides of the overhead alike. *)
  let pairs =
    List.init w.traced_runs (fun _ ->
        let untraced = timed cfg in
        Reference.sample ();
        (untraced, traced_run ()))
  in
  Runtime_events.free_cursor cursor;
  let full = List.filter_map fst pairs |> List.map fst in
  let traced = List.filter_map snd pairs in
  let setups = List.filter_map (fun _ -> timed (setup_cfg cfg)) (List.init w.setups Fun.id) in
  let pieces = Layers.setup_pieces cfg in
  let fixtures = Layers.measure () in
  let host_ms = 1e3 *. Reference.median full in
  let setup_ms = 1e3 *. Reference.median (List.map fst setups) in
  let med f = Reference.median (List.map f traced) in
  let counters =
    match (List.rev traced, setups) with
    | t :: _, (_, s) :: _ ->
        let r = t.result in
        m "gc.promoted_words_per_op" "words/op" (t.promoted /. float (max 1 r.total_ops))
        :: traced_metrics r ~setup_allocs:s.Experiment.allocs
    | _ -> []
  in
  [
    m "trace.overhead_pct" "%"
      (100. *. ((med (fun t -> 1e3 *. t.host_s) /. host_ms) -. 1.));
    m "phase.simulate_ms" "ms" (host_ms -. setup_ms);
    m "phase.setup_residue_ms" "ms"
      (setup_ms -. List.fold_left (fun acc (_, v) -> acc +. v) 0. pieces);
    m "gc.minor_collections" "count" (med (fun t -> float t.minor_gcs));
    m "gc.major_slices" "count" (med (fun t -> float t.major_slices));
    m "gc.ms" "ms" (med (fun t -> t.gc_ms));
    m "gc.events_lost" "count" (float g.lost);
  ]
  @ counters
  @ List.map (fun (n, v) -> m n "ms" v) pieces
  @ List.map (fun (n, v) -> m n "ns" v) fixtures
  @ [ m "host.reference_ms" "ms" (Reference.kernel_ms ()) ]

(* ------------------------------------------------------------------ *)
(* Output                                                              *)
(* ------------------------------------------------------------------ *)

(* All the digits of a measured value, shortest form that reads back. *)
let num v =
  let s = Printf.sprintf "%.15g" v in
  if float_of_string s = v then s else Printf.sprintf "%.17g" v

let fixture_names = List.map fst Layers.fixtures

(* What one invocation on one workload reported. *)
type report = {
  workload : string;
  traced : bool;
  runs : int;
  failed_runs : int;
  metrics : metric list;
}

let json_of metrics =
  Json.Obj (List.map (fun x -> (x.name, Json.Float x.value)) metrics)

let is_fixture x = List.mem x.name fixture_names

let totals reports name =
  List.fold_left
    (fun (runs, failed) r ->
      if r.workload = name then (runs + r.runs, failed + r.failed_runs)
      else (runs, failed))
    (0, 0) reports

let write_json path reports =
  let section r =
    if r.traced then
      ("layers", json_of (List.filter (fun x -> not (is_fixture x)) r.metrics))
    else ("e2e", json_of r.metrics)
  in
  let workloads =
    List.filter_map
      (fun (w : Workloads.t) ->
        match List.filter (fun r -> r.workload = w.name) reports with
        | [] -> None
        | rs ->
            let runs, failed = totals reports w.name in
            Some
              ( w.name,
                Json.Obj
                  ([ ("runs", Json.Int runs); ("failed_runs", Json.Int failed) ]
                  @ List.map section rs) ))
      Workloads.all
  in
  let fixtures =
    match List.find_opt (fun r -> r.traced) reports with
    | Some r -> [ ("fixtures", json_of (List.filter is_fixture r.metrics)) ]
    | None -> []
  in
  Json.write_file path
    (Json.Obj
       ([ ("seed", Json.Int !seed); ("workloads", Json.Obj workloads) ] @ fixtures))

(* ------------------------------------------------------------------ *)
(* One workload in this process                                        *)
(* ------------------------------------------------------------------ *)

let run_one (w : Workloads.t) =
  let metrics = if !trace = 0 then e2e w else layers w in
  List.iter
    (fun x -> Printf.printf "%s %s %s %s\n" w.name x.name (num x.value) x.unit)
    metrics;
  if !json_out <> "" then
    write_json !json_out
      [
        {
          workload = w.name;
          traced = !trace = 1;
          runs = !attempted;
          failed_runs = !failed;
          metrics;
        };
      ];
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    (!failed = 0) !attempted !failed
    (String.concat ", "
       (List.map
          (fun x ->
            Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" x.name (num x.value)
              x.unit)
          metrics))

(* ------------------------------------------------------------------ *)
(* Every workload, each in a child process                             *)
(* ------------------------------------------------------------------ *)

(* Run this executable on one workload, echo its metric lines and read back
   its final JSON line.  A child that dies or prints no result counts as
   one failed run. *)
let child (w : Workloads.t) t =
  let args =
    [|
      Sys.executable_name;
      "--workload"; w.name;
      "--seed"; string_of_int !seed;
      "--seconds"; string_of_int !seconds;
      "--trace"; string_of_int t;
    |]
  in
  let rd, wr = Unix.pipe ~cloexec:true () in
  let pid = Unix.create_process Sys.executable_name args Unix.stdin wr Unix.stderr in
  Unix.close wr;
  let ic = Unix.in_channel_of_descr rd in
  let last = ref "" in
  (try
     while true do
       let line = input_line ic in
       if !last <> "" then print_endline !last;
       last := line
     done
   with End_of_file -> ());
  close_in ic;
  let _, status = Unix.waitpid [] pid in
  let field k = function Json.Obj kv -> List.assoc_opt k kv | _ -> None in
  let int_field k j = match field k j with Some (Json.Int n) -> n | _ -> 0 in
  let metric (name, v) =
    {
      name;
      value =
        (match field "value" v with
        | Some (Json.Int n) -> float n
        | Some (Json.Float f) -> f
        | _ -> nan);
      unit = (match field "unit" v with Some (Json.String u) -> u | _ -> "");
    }
  in
  let report =
    { workload = w.name; traced = t = 1; runs = 1; failed_runs = 1; metrics = [] }
  in
  match (status, Json_in.parse !last) with
  | Unix.WEXITED 0, j ->
      {
        report with
        runs = int_field "attempted" j;
        failed_runs = int_field "failed" j;
        metrics =
          (match field "metrics" j with
          | Some (Json.Obj kv) -> List.map metric kv
          | _ -> []);
      }
  | _ | (exception Json_in.Parse_error _) ->
      Printf.eprintf "benchmark: %s --trace %d printed no result\n%!" w.name t;
      report

let run_all () =
  let reports =
    List.concat_map
      (fun w ->
        let untraced = child w 0 in
        [ untraced; child w 1 ])
      Workloads.all
  in
  if !json_out <> "" then write_json !json_out reports;
  List.iter
    (fun (w : Workloads.t) ->
      let runs, failed = totals reports w.name in
      Printf.printf "%s runs %d count\n%s failed_runs %d count\n" w.name runs w.name
        failed)
    Workloads.all;
  exit (if List.for_all (fun r -> r.failed_runs = 0) reports then 0 else 1)

let () =
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  if !seconds < 1 || (!trace <> 0 && !trace <> 1) then begin
    prerr_endline usage;
    exit 2
  end;
  match !workload with
  | "" -> run_all ()
  | name -> (
      match Workloads.find name with
      | Some w -> run_one w
      | None ->
          Printf.eprintf "benchmark: unknown workload %S\n" name;
          exit 2)
