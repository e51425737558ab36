(* Command-line driver for single experiments and figure reproduction.

   stacktrack_bench run --structure list --scheme stacktrack --threads 8 ...
   stacktrack_bench figures fig1-list fig3-aborts --quick *)

open Cmdliner
open St_harness

(* [conv] whose values must also pass {!Experiment.check} on [domain]: a
   value outside it is a usage error naming the option. *)
let checked domain conv =
  let parse s =
    Result.bind (Arg.conv_parser conv s) (fun v ->
        Result.map_error
          (fun e -> `Msg e)
          (Result.map (fun () -> v) (Experiment.check domain v)))
  in
  Arg.conv (parse, Arg.conv_printer conv)

let int_within lo hi = checked (Experiment.Int (lo, hi)) Arg.int

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

(* The option that sets a field of {!Experiment.fields}, if it has one.
   Its help is the field's doc and then its domain; a name prints as its
   canonical one, the first in the list. *)
let field_option (type a) (f : a Experiment.field) =
  let option ?(docv = "N") ?(domain = "") (values : a Arg.conv) =
    let default = f.get Experiment.run_defaults in
    let help = Arg.info f.flags ~docv ~doc:(f.doc ^ domain) in
    Term.(const f.set $ Arg.(value & opt values default help))
  in
  match f.domain with
  | _ when f.flags = [] -> Term.const Fun.id
  | Experiment.Bool ->
      let on = Arg.(value & flag & info f.flags ~doc:f.doc) in
      Term.(const (fun on cfg -> if on then f.set true cfg else cfg) $ on)
  | Experiment.Int (lo, hi) ->
      option (checked f.domain Arg.int)
        ~domain:
          (if lo = min_int then ""
           else if hi = max_int then Printf.sprintf " At least %d." lo
           else Printf.sprintf " %d to %d." lo hi)
  | Experiment.Tids -> option ~docv:"TIDS" Arg.(list int)
  | Experiment.Names (names, _) ->
      let parse s =
        Result.map_error (fun e -> `Msg e) (Experiment.lookup f.key names s)
      in
      let name v = fst (List.find (fun (_, named) -> named = v) names) in
      option
        (Arg.conv (parse, fun ppf v -> Format.pp_print_string ppf (name v)))
        ~docv:(String.uppercase_ascii f.key)
        ~domain:(" One of: " ^ String.concat ", " (List.map fst names) ^ ".")
  | Experiment.Theta ->
      let open St_workload.Workload in
      let parse s = Result.map (fun t -> Zipf t) Arg.(conv_parser float s) in
      let print ppf = function
        | Uniform -> Format.pp_print_string ppf "uniform"
        | Zipf theta -> Format.fprintf ppf "%g" theta
      in
      option ~docv:"THETA" (checked f.domain (Arg.conv (parse, print)))

(* The run's config: {!Experiment.run_defaults} with every field's option
   applied in table order (so --scheme before the StackTrack tuning that
   it carries), then {!Experiment.validate}d: a failure is a usage error. *)
let config =
  let set cfg (Experiment.Field f) =
    Term.(const ( |> ) $ cfg $ field_option f)
  in
  let validated cfg =
    Result.fold ~ok:(fun c -> `Ok c) ~error:(fun e -> `Error (true, e))
      (Experiment.validate cfg)
  in
  Term.(
    ret
      (const validated
      $ List.fold_left set (const Experiment.run_defaults) Experiment.fields))

let run_cmd =
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
  let flame_out =
    Arg.(
      value & opt (some string) None
      & info [ "flame-out" ] ~docv:"FILE"
          ~doc:
            "Write the profile as collapsed stacks \
             ($(i,scheme;tid;account cycles)) to $(docv), ready for \
             flamegraph.pl or speedscope.  Implies --profile.")
  in
  let run (cfg : Experiment.config) json trace_out trace_capacity flame_out =
    check_writable [ ("--trace-out", trace_out); ("--flame-out", flame_out) ];
    let trace =
      Option.map
        (fun _ ->
          St_sim.Trace.create ~capacity:trace_capacity ~enabled:true ())
        trace_out
    in
    let profile = cfg.profile || flame_out <> None in
    let r = Experiment.run { cfg with trace; profile } in
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
    Term.(const run $ config $ json $ trace_out $ trace_capacity $ flame_out)

(* A switch of {!Experiment.fields} by its key, for [figures] to turn on at
   every point: run's option names, with [doc] for help. *)
let switch key doc =
  let (Experiment.Field f) =
    List.find (fun (Experiment.Field f) -> f.key = key) Experiment.fields
  in
  Arg.(value & flag & info f.flags ~doc)

let figures_cmd =
  let is_ablation (f : Figures.figure) =
    String.starts_with ~prefix:"ablation-" f.name
  in
  let names =
    let targets =
      List.map (fun (f : Figures.figure) -> f.name) Figures.registry
      @ [ "ablations"; "all" ]
    in
    (* Exact names only, by the one lookup [--scheme] and [--structure]
       use: [Arg.enum] would take any unambiguous prefix. *)
    let figure =
      let parse s =
        Result.map_error
          (fun e -> `Msg e)
          (Experiment.lookup "figure" (List.map (fun n -> (n, n)) targets) s)
      in
      Arg.conv (parse, Format.pp_print_string)
    in
    Arg.(
      value
      & pos_all figure [ "all" ]
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
    switch "profile"
      "Run every point with the cycle-attribution profiler and contention \
       heatmap on (pure bookkeeping: the printed figures are unchanged; the \
       data lands in --json-out and --flame-out)."
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
    switch "lifecycle"
      "Run every point with the lifecycle ledger + watchdog on; the thread \
       sweeps (fig1/fig2) and the memory profile append per-scheme \
       reclamation-health notes (limbo peaks, retire-to-free lag, \
       stagnation incidents).  Adds a sampler thread, so the schedule \
       differs from an unflagged run."
  in
  let forensics =
    switch "forensics"
      "Run every point with the abort-forensics ledger on; the \
       split-predictor figure (fig4-splits) appends per-point notes \
       (segments tracked, predictor limit changes, final limit range).  \
       Pure bookkeeping: the runs are unchanged."
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
