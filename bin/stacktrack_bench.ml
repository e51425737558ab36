(* Command-line driver for single experiments and figure reproduction.

   stacktrack_bench run --structure list --scheme stacktrack --threads 8 ...
   stacktrack_bench figures fig1-list fig3-aborts --quick *)

open Cmdliner
open St_harness

let structure_conv =
  let parse = function
    | "list" -> Ok Experiment.List_s
    | "skiplist" -> Ok Experiment.Skiplist_s
    | "queue" -> Ok Experiment.Queue_s
    | "hash" -> Ok Experiment.Hash_s
    | s -> Error (`Msg (Printf.sprintf "unknown structure %S" s))
  in
  let print ppf s = Format.fprintf ppf "%s" (Experiment.structure_name s) in
  Arg.conv (parse, print)

(* The one scheme parser, {!Experiment.scheme_of_string}: an unknown name
   is a usage error that names the option.  The printer shows the default
   in --help by its command-line name. *)
let scheme_conv =
  let parse s =
    Result.map_error (fun e -> `Msg e) (Experiment.scheme_of_string s)
  in
  let print ppf kind =
    Format.pp_print_string ppf
      (fst (List.find (fun (_, k) -> k = kind) Experiment.scheme_aliases))
  in
  Arg.conv (parse, print)

(* An integer option bounded to [lo, hi]: a value outside them is a usage
   error that names the option, like a malformed integer. *)
let int_within lo hi =
  let parse s =
    match Arg.conv_parser Arg.int s with
    | Ok n when n < lo || n > hi ->
        Error
          (`Msg
             (if hi = max_int then
                Printf.sprintf "must be at least %d, got %d" lo n
              else Printf.sprintf "must be between %d and %d, got %d" lo hi n))
    | r -> r
  in
  Arg.conv (parse, Arg.conv_printer Arg.int)

(* Open (and truncate) every output file a subcommand was given before it
   simulates anything, so an unwritable path fails at once instead of
   after the whole run: exit 2 with a message naming the flag and the
   file. *)
let check_writable outputs =
  List.iter
    (fun (flag, file) ->
      Option.iter
        (fun file ->
          try close_out (open_out file)
          with Sys_error msg ->
            Printf.eprintf "stacktrack_bench: %s: cannot write %s\n" flag msg;
            exit 2)
        file)
    outputs

(* The Zipf skew theta: a finite float at least 0.  A NaN, an infinity or
   a negative theta is a usage error that names the option; it would
   leave the inverse-CDF table all NaN or flat. *)
let zipf_theta =
  let parse s =
    match Arg.conv_parser Arg.float s with
    | Ok theta when not (Float.is_finite theta && theta >= 0.) ->
        Error
          (`Msg (Printf.sprintf "must be a finite number at least 0, got %s" s))
    | r -> r
  in
  Arg.conv (parse, Arg.conv_printer Arg.float)

let run_cmd =
  let structure =
    Arg.(
      value
      & opt structure_conv Experiment.List_s
      & info [ "structure"; "d" ] ~docv:"STRUCT"
          ~doc:"Data structure: list, skiplist, queue, hash.")
  in
  let scheme =
    Arg.(
      value
      & opt scheme_conv Experiment.stacktrack_default
      & info [ "scheme"; "s" ] ~docv:"SCHEME"
          ~doc:
            ("Reclamation scheme: "
            ^ String.concat ", " (List.map fst Experiment.scheme_aliases)
            ^ "."))
  in
  let threads =
    Arg.(
      value
      & opt (int_within 1 St_sim.Topology.max_threads) 8
      & info [ "threads"; "t" ]
          ~doc:
            (Printf.sprintf
               "Worker threads (1 to %d, less one for each helper thread: \
                --crash adds one, --lifecycle or --metrics-interval one)."
               St_sim.Topology.max_threads))
  in
  let duration =
    Arg.(
      value
      & opt (int_within 1 max_int) 1_000_000
      & info [ "duration" ] ~doc:"Virtual cycles per thread (at least 1).")
  in
  let keys =
    Arg.(
      value
      & opt (int_within 1 max_int) 1024
      & info [ "keys" ] ~doc:"Key range for sets (at least 1).")
  in
  let init =
    Arg.(
      value
      & opt (int_within 0 max_int) 512
      & info [ "init" ]
          ~doc:"Initial structure size (at least 0; capped at --keys).")
  in
  let mutations =
    Arg.(
      value
      & opt (int_within 0 100) 20
      & info [ "mutations"; "m" ] ~doc:"Mutation percentage (0 to 100).")
  in
  let seed = Arg.(value & opt int 0xC0FFEE & info [ "seed" ] ~doc:"RNG seed.") in
  let buckets =
    Arg.(
      value
      & opt (int_within 1 max_int) 512
      & info [ "buckets" ] ~doc:"Hash-table buckets (at least 1).")
  in
  let forced_slow =
    Arg.(
      value
      & opt (int_within 0 100) 0
      & info [ "forced-slow" ]
          ~doc:"StackTrack: % of operations forced slow (0 to 100).")
  in
  let max_free =
    Arg.(
      value
      & opt (int_within 0 max_int) 10
      & info [ "max-free" ]
          ~doc:"StackTrack: free-set batch size (at least 0).")
  in
  let hash_scan =
    Arg.(
      value & flag
      & info [ "hash-scan" ] ~doc:"StackTrack: single-pass hash scan (sec 5.2).")
  in
  (* The bound on --crash ids depends on --threads, so it is checked once
     both are parsed; an id outside the workers is still a usage error. *)
  let crash =
    let ids =
      Arg.(
        value & opt (list int) []
        & info [ "crash" ]
            ~doc:
              "Worker thread ids (0 to threads-1) to crash at 25% of the \
               run.")
    in
    let within threads ids =
      match List.find_opt (fun tid -> tid < 0 || tid >= threads) ids with
      | Some tid ->
          `Error
            ( true,
              Printf.sprintf
                "option '--crash': thread id %d is not a worker (0 to %d)" tid
                (threads - 1) )
      | None -> `Ok ids
    in
    Term.(ret (const within $ threads $ ids))
  in
  let zipf =
    Arg.(
      value & opt (some zipf_theta) None
      & info [ "zipf" ]
          ~doc:"Zipfian key skew theta, finite and at least 0 (default: uniform).")
  in
  let json =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:
            "Print the result as a JSON object (config, throughput, abort \
             mix, reclamation counters, latency summary, sampled time \
             series) instead of the text report, which is this object as \
             $(b,analyze.exe report) renders it.")
  in
  let trace_out =
    Arg.(
      value & opt (some string) None
      & info [ "trace-out" ] ~docv:"FILE"
          ~doc:
            "Record a typed event trace of the run and write it as Chrome \
             trace-event JSON to $(docv) (open in Perfetto or \
             chrome://tracing).")
  in
  let trace_capacity =
    Arg.(
      value
      & opt (int_within 1 max_int) 1_000_000
      & info [ "trace-capacity" ] ~docv:"N"
          ~doc:
            "Ring capacity (events, at least 1) of the recorded trace; the \
             oldest events are dropped beyond this.")
  in
  (* The sampler stops at --duration, so a later first tick could only
     sample past the run: checked once both are parsed, like the --crash
     ids. *)
  let metrics_interval =
    let interval =
      Arg.(
        value
        & opt (int_within 0 max_int) 0
        & info [ "metrics-interval" ] ~docv:"N"
            ~doc:
              "Sample machine-wide counters every $(docv) virtual cycles \
               (0 = off, else at most --duration) into a time series; \
               included in --json output.  The samples are taken by the \
               harness sampler thread, which --lifecycle shares, so the \
               schedule differs from an unsampled run.")
    in
    let within duration interval =
      if interval > duration then
        `Error
          ( true,
            Printf.sprintf
              "option '--metrics-interval': %d is past the %d-cycle \
               --duration"
              interval duration )
      else `Ok interval
    in
    Term.(ret (const within $ duration $ interval))
  in
  let profile =
    Arg.(
      value & flag
      & info [ "profile" ]
          ~doc:
            "Attribute every simulated cycle to a typed account \
             (committed/wasted transactional work, slow path, reclamation \
             scan and stall, coherence, context switches) and tally \
             per-cache-line contention; adds cycle-account and heatmap \
             sections to the text report and profile/heatmap/latency_hist \
             sections to --json output.  Pure bookkeeping: the simulated \
             run itself is unchanged.")
  in
  let flame_out =
    Arg.(
      value & opt (some string) None
      & info [ "flame-out" ] ~docv:"FILE"
          ~doc:
            "Write the profile as collapsed stacks \
             ($(i,scheme;tid;account cycles)) to $(docv), ready for \
             flamegraph.pl or speedscope.  Implies --profile.")
  in
  let lifecycle =
    Arg.(
      value & flag
      & info [ "lifecycle" ]
          ~doc:
            "Stamp every object's alloc/retire/free on a lifecycle ledger \
             and sample the limbo backlog once per scheduler quantum: adds \
             retire-to-free latency percentiles, limbo/footprint peaks and \
             a stalled-reclamation watchdog report to the text output, a \
             reclaim_lifecycle section to --json, and limbo counter tracks \
             to --trace-out.  The samples are taken by the harness sampler \
             thread, which --metrics-interval shares, so the schedule \
             differs from an unflagged run.")
  in
  let forensics =
    Arg.(
      value & flag
      & info [ "forensics" ]
          ~doc:
            "Record abort forensics: who-doomed-whom attribution (victim x \
             aborter matrix, doomed cache lines mapped to their owning \
             objects), per-cause wasted-cycle split, per-segment retry \
             chains, and the split-predictor decision timeline.  Adds an \
             abort-forensics block to the text report, an htm_forensics \
             section to --json output, and limit-change instants plus a \
             split_limit counter track to --trace-out.  Pure bookkeeping \
             at existing charge sites: the simulated run is unchanged.")
  in
  (* The helper threads share the workers' tid bound: --crash registers
     the crash injector, --lifecycle or --metrics-interval the harness
     sampler.  Checked once all four are parsed, like the --crash ids. *)
  let checked_threads =
    let within threads crash lifecycle metrics_interval =
      let helpers =
        Bool.to_int (crash <> [])
        + Bool.to_int (lifecycle || metrics_interval > 0)
      in
      if threads + helpers > St_sim.Topology.max_threads then
        `Error
          ( true,
            Printf.sprintf
              "option '--threads': %d workers and %d helper thread(s) exceed \
               the %d-thread bound"
              threads helpers St_sim.Topology.max_threads )
      else `Ok threads
    in
    Term.(ret (const within $ threads $ crash $ lifecycle $ metrics_interval))
  in
  let run structure scheme threads duration keys init mutations seed buckets
      forced_slow max_free hash_scan crash zipf json trace_out trace_capacity
      metrics_interval profile flame_out lifecycle forensics =
    let scheme =
      match scheme with
      | Experiment.Stacktrack_s st ->
          Experiment.Stacktrack_s
            { st with forced_slow_pct = forced_slow; max_free; hash_scan }
      | scheme -> scheme
    in
    check_writable [ ("--trace-out", trace_out); ("--flame-out", flame_out) ];
    let trace =
      Option.map
        (fun _ ->
          St_sim.Trace.create ~capacity:trace_capacity ~enabled:true ())
        trace_out
    in
    let cfg =
      {
        Experiment.default_config with
        structure;
        scheme;
        threads;
        duration;
        key_range = keys;
        init_size = min init keys;
        mutation_pct = mutations;
        seed;
        n_buckets = buckets;
        crash_tids = crash;
        dist =
          (match zipf with
          | None -> St_workload.Workload.Uniform
          | Some theta -> St_workload.Workload.Zipf theta);
        metrics_interval;
        trace;
        profile = profile || flame_out <> None;
        lifecycle;
        forensics;
      }
    in
    let r = Experiment.run cfg in
    let doc = Result_json.encode r in
    if json then print_endline (Json_out.to_string doc)
    else Analyze.report Format.std_formatter doc;
    (* Artifact paths go to stderr, as [figures] does, so stdout is the
       result alone. *)
    Option.iter
      (fun file ->
        Result_json.write_flame_file file [ r ];
        Format.eprintf "flame: %s@." file)
      flame_out;
    match (trace_out, trace) with
    | Some file, Some tr ->
        Chrome_trace.write_file file tr;
        let dropped = St_sim.Trace.dropped tr in
        Format.eprintf "trace: %s (%d events, %d dropped)@." file
          (St_sim.Trace.size tr) dropped;
        if dropped > 0 then
          Format.eprintf
            "stacktrack_bench: warning: trace ring dropped %d events; the \
             Chrome trace is truncated (raise --trace-capacity)@."
            dropped
    | _ -> ()
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Run a single experiment and print its statistics.")
    Term.(
      const run $ structure $ scheme $ checked_threads $ duration $ keys $ init
      $ mutations $ seed $ buckets $ forced_slow $ max_free $ hash_scan $ crash
      $ zipf $ json $ trace_out $ trace_capacity $ metrics_interval $ profile
      $ flame_out $ lifecycle $ forensics)

let figures_cmd =
  let is_ablation (f : Figures.figure) =
    String.starts_with ~prefix:"ablation-" f.name
  in
  let names =
    let targets =
      List.map (fun (f : Figures.figure) -> f.name) Figures.registry
      @ [ "ablations"; "all" ]
    in
    Arg.(
      value
      & pos_all (enum (List.map (fun n -> (n, n)) targets)) [ "all" ]
      & info [] ~docv:"FIGURE"
          ~doc:
            ("Figures to reproduce: " ^ String.concat " " targets
           ^ ".  $(b,ablations) selects every ablation-* figure, $(b,all) \
              every figure; figures run in registry order."))
  in
  let quick =
    Arg.(value & flag & info [ "quick" ] ~doc:"Coarser sweeps, shorter runs.")
  in
  let verbose =
    Arg.(
      value & flag
      & info [ "verbose"; "v" ]
          ~doc:"Per-run detail lines (and per-run host wall-clock on stderr).")
  in
  let jobs =
    Arg.(
      value
      & opt (int_within 0 max_int) 1
      & info [ "jobs"; "j" ] ~docv:"N"
          ~doc:
            "Run sweep points on a pool of $(docv) domains (default 1 = \
             sequential; 0 = the runtime's recommended domain count).  \
             Output is byte-identical for every $(docv): points are \
             seed-deterministic and reports consume results in submission \
             order.")
  in
  let json_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "json-out" ] ~docv:"FILE"
          ~doc:
            "Also write every run's result of the selected figures, in \
             report order, to $(docv) as one deterministic JSON list.")
  in
  let profile =
    Arg.(
      value & flag
      & info [ "profile" ]
          ~doc:
            "Run every point with the cycle-attribution profiler and \
             contention heatmap on (pure bookkeeping: the printed figures \
             are unchanged; the data lands in --json-out and --flame-out).")
  in
  let flame_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "flame-out" ] ~docv:"FILE"
          ~doc:
            "Write the profiles of every run as collapsed stacks to $(docv). \
             Implies --profile.")
  in
  let lifecycle =
    Arg.(
      value & flag
      & info [ "lifecycle" ]
          ~doc:
            "Run every point with the lifecycle ledger + watchdog on; the \
             thread sweeps (fig1/fig2) and the memory profile append \
             per-scheme reclamation-health notes (limbo peaks, \
             retire-to-free lag, stagnation incidents).  Adds a sampler \
             thread, so the schedule differs from an unflagged run.")
  in
  let forensics =
    Arg.(
      value & flag
      & info [ "forensics" ]
          ~doc:
            "Run every point with the abort-forensics ledger on; the \
             split-predictor figure (fig4-splits) appends per-point notes \
             (segments tracked, predictor limit changes, final limit \
             range).  Pure bookkeeping: the runs are unchanged.")
  in
  let run names quick verbose jobs json_out profile flame_out lifecycle
      forensics =
    let speed = if quick then Figures.Quick else Figures.Full in
    let want (f : Figures.figure) =
      List.mem "all" names || List.mem f.name names
      || (List.mem "ablations" names && is_ablation f)
    in
    check_writable [ ("--json-out", json_out); ("--flame-out", flame_out) ];
    let profile = profile || flame_out <> None in
    let results =
      List.concat_map
        (fun f ->
          List.concat_map snd
            (Figures.run ~verbose ~jobs ~profile ~lifecycle ~forensics ~speed f))
        (List.filter want Figures.registry)
    in
    (* Artifact paths go to stderr, so stdout stays byte-identical across
       output filenames. *)
    Option.iter
      (fun file ->
        Json_out.write_file file
          (Json_out.List (List.map Result_json.encode results));
        Format.eprintf "json: %s (%d results)@." file (List.length results))
      json_out;
    Option.iter
      (fun file ->
        Result_json.write_flame_file file results;
        Format.eprintf "flame: %s (%d results)@." file (List.length results))
      flame_out
  in
  Cmd.v
    (Cmd.info "figures" ~doc:"Reproduce the paper's figures.")
    Term.(
      const run $ names $ quick $ verbose $ jobs $ json_out $ profile
      $ flame_out $ lifecycle $ forensics)

let main =
  Cmd.group
    (Cmd.info "stacktrack_bench" ~version:"1.0.0"
       ~doc:
         "StackTrack (EuroSys 2014) reproduction: simulated-HTM concurrent \
          memory reclamation benchmarks.")
    [ run_cmd; figures_cmd ]

let () = exit (Cmd.eval main)
