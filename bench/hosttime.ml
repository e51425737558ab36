(* Host wall-clock harness.

   Times *figure-sized* runs so that simulator performance work (e.g. the
   O(max_threads) -> O(active) conflict-index rewrite) is measured, not
   asserted.  Each single target runs the config its figure sweeps use
   (the [Figures] config builders), at one thread count, and prints the
   host milliseconds next to the simulated throughput, so a perf
   regression shows up as a bigger [host_ms] for identical simulated
   numbers.

   Usage:
     dune exec bench/hosttime.exe -- [--threads N] [--duration D] [--seed S]
                                     [--repeat R] [--scheme NAME] [--jobs J]
                                     [target ...]

   Targets (default fig1-list): fig1-list fig1-skiplist fig2-queue fig2-hash
   fig5-slowpath scan-list scale-list all — one experiment at [--threads].
   [scan-list] is the fig1 list config with [max_free = 1], making
   reclamation scans (not per-access instrumentation) the dominant cost.
   [scale-list] is the largest fig-scale point (a hash table raw-populated
   to 10^6 live objects at a fixed short duration), timing the chunked
   heap and line tables at scale.

   Sweep targets time the *whole figure sweep* (every point of a registry
   figure at Full speed, at [--duration]) through the domain pool at
   [--jobs], so the parallel driver's host wall-clock speedup is measured,
   not asserted: run the same sweep with --jobs 1 and --jobs N and
   compare.  Targets: sweep-FIGURE for any [Figures.registry] name, and
   sweep-all (the four fig1/fig2 throughput sweeps).  A point's sampler
   interval keeps its ratio to the duration (at least 1 cycle).

   Every target's configs pass [Experiment.validate] before the first one
   is timed; a refusal exits 2 naming the target and the option.

   [--pc-profile FILE] samples the program counter on SIGPROF while the
   targets run ([Pcprof]) and writes the functions that host time went to
   into FILE.  Linux x86-64 only: elsewhere the flag exits 2. *)

open St_harness

let threads = ref 16
let duration = ref 1_500_000
let seed = ref Experiment.default_config.Experiment.seed
let repeat = ref 1
let scheme_arg = ref "stacktrack"
let jobs = ref 1
let targets = ref []
let json_out = ref ""
let check_against = ref ""
let pc_profile = ref ""

let git_rev =
  (* No subprocess: CI passes the sha through the flag or GIT_REV. *)
  ref (try Sys.getenv "GIT_REV" with Not_found -> "unknown")

let spec =
  [
    ("--threads", Arg.Set_int threads, "N  Worker threads (default 16)");
    ( "--duration",
      Arg.Set_int duration,
      "D  Virtual cycles per thread (default 1500000, the Full figure \
       duration)" );
    ("--seed", Arg.Set_int seed, "S  RNG seed");
    ("--repeat", Arg.Set_int repeat, "R  Repetitions per target (default 1)");
    ( "--scheme",
      Arg.Set_string scheme_arg,
      "NAME  "
      ^ String.concat "|" (List.map fst Experiment.scheme_aliases)
      ^ " (default stacktrack)" );
    ( "--jobs",
      Arg.Set_int jobs,
      "J  Domain-pool size for sweep-* targets (default 1 = sequential; 0 = \
       recommended domain count)" );
    ( "--json-out",
      Arg.Set_string json_out,
      "FILE  Write a machine-readable summary (per-target best-of-N ms, \
       scheme, threads, git rev)" );
    ( "--check-against",
      Arg.Set_string check_against,
      "FILE  Compare against a previously written --json-out file; exit 1 \
       if any target regressed by more than 25%, exit 2 if a target has no \
       entry there" );
    ( "--pc-profile",
      Arg.Set_string pc_profile,
      "FILE  Sample the program counter on SIGPROF while the targets run and \
       write samples, share and name per function to FILE (Linux x86-64 \
       only)" );
    ( "--git-rev",
      Arg.Set_string git_rev,
      "REV  Git revision recorded in --json-out (default: $GIT_REV or \
       \"unknown\")" );
  ]

let scheme () =
  match Experiment.scheme_of_string !scheme_arg with
  | Ok scheme -> scheme
  | Error e ->
      Printf.eprintf "hosttime: %s\n" e;
      exit 2

let single_config target =
  let open Experiment in
  let override cfg =
    {
      cfg with
      threads = !threads;
      duration = !duration;
      seed = !seed;
      scheme = scheme ();
    }
  in
  let st = Stacktrack.St_config.default in
  match target with
  | "fig1-list" -> Some (override (Figures.list_config Figures.Full))
  | "fig1-skiplist" -> Some (override (Figures.skiplist_config Figures.Full))
  | "fig2-queue" -> Some (override (Figures.queue_config Figures.Full))
  | "fig2-hash" -> Some (override (Figures.hash_config Figures.Full))
  | "fig5-slowpath" ->
      Some
        {
          (override (Figures.skiplist_config Figures.Full)) with
          scheme = Stacktrack_s { st with forced_slow_pct = 50 };
        }
  | "scale-list" ->
      (* Million-object slice: the hash structure raw-populated to the
         largest fig-scale point, then the usual mutation mix on top.
         Times the chunked-heap allocation/claim/free paths and the
         chunked line tables at a touched address space ~3 orders of
         magnitude beyond fig1-list; population cost (one claim per
         object) is part of the measurement.  [duration] is fixed rather
         than [--duration]: host time here should scale with the object
         count, not the figure-length virtual run.  Unlike the fig-scale
         points it runs at [--threads] with the lifecycle ledger off. *)
      Some
        {
          (override default_config) with
          structure = Hash_s;
          key_range = 2_000_000;
          init_size = 1_000_000;
          n_buckets = 250_000;
          mutation_pct = 20;
          duration = 150_000;
        }
  | "scan-list" ->
      (* Scan-heavy slice: with [max_free = 1] every retirement triggers a
         full stack scan, so this target times the [scan_and_free] path
         (stack walks, owner lookups, hashed scan tables) rather than the
         per-access engine path that fig1-list is dominated by. *)
      Some
        {
          (override (Figures.list_config Figures.Full)) with
          scheme = Stacktrack_s { st with max_free = 1 };
        }
  | _ -> None

(* A sampler interval at [duration], in the same ratio to it as
   [interval] to [old] (the memory figure samples a twelfth of its run),
   and at least 1 cycle; 0, no sampler, stays 0. *)
let scaled_interval ~interval ~old duration =
  if interval = 0 then 0 else Int.max 1 (duration / Int.max 1 (old / interval))

(* Every point of a registry figure's Full sweep, in the figure's own
   enumeration order, at the configured duration/seed, with any sampler
   interval scaled with the duration. *)
let sweep_configs target =
  let prefix = "sweep-" in
  let n = String.length prefix in
  if not (String.starts_with ~prefix target) then None
  else
    Option.map
      (fun (fig : Figures.figure) ->
        List.concat_map
          (fun (_, cfgs) ->
            List.map
              (fun (cfg : Experiment.config) ->
                {
                  cfg with
                  duration = !duration;
                  seed = !seed;
                  metrics_interval =
                    scaled_interval ~interval:cfg.metrics_interval
                      ~old:cfg.duration !duration;
                })
              cfgs)
          (fig.configs Figures.Full))
      (Figures.find (String.sub target n (String.length target - n)))

(* Immediate(unsafe) exists to demonstrate use-after-free: shadow
   violations are its expected output, not a harness failure. *)
let check_safe (r : Experiment.result) =
  match r.Experiment.cfg.Experiment.scheme with
  | Experiment.Immediate_unsafe -> ()
  | _ -> assert (r.Experiment.violations = 0)

(* A target's configs, each passed through [Experiment.validate]: a
   refused config or an unknown target exits 2, before anything is
   timed. *)
type plan = Single of Experiment.config | Sweep of Experiment.config list

let plan target =
  let validated cfg =
    match Experiment.validate cfg with
    | Ok cfg -> cfg
    | Error e ->
        Printf.eprintf "hosttime: %s: %s\n" target e;
        exit 2
  in
  match (sweep_configs target, single_config target) with
  | Some cfgs, _ -> Sweep (List.map validated cfgs)
  | None, Some cfg -> Single (validated cfg)
  | None, None ->
      Printf.eprintf "hosttime: unknown target %S\n" target;
      exit 2

let run_sweep target cfgs =
  let best = ref infinity in
  for _ = 1 to max 1 !repeat do
    let t0 = Unix.gettimeofday () in
    let results =
      Pool.run ~jobs:!jobs (List.map (fun cfg () -> Experiment.run cfg) cfgs)
    in
    let ms = (Unix.gettimeofday () -. t0) *. 1000. in
    if ms < !best then best := ms;
    let ops =
      List.fold_left (fun acc r -> acc + r.Experiment.total_ops) 0 results
    in
    List.iter check_safe results;
    Printf.printf
      "%-20s points=%-3d jobs=%-3d host_ms=%9.1f total_ops=%d\n%!" target
      (List.length cfgs) !jobs ms ops
  done;
  (target, !best)

let run_single target cfg =
  let best = ref infinity in
  for _ = 1 to max 1 !repeat do
    let t0 = Unix.gettimeofday () in
    let r = Experiment.run cfg in
    let ms = (Unix.gettimeofday () -. t0) *. 1000. in
    if ms < !best then best := ms;
    check_safe r;
    Printf.printf
      "%-14s threads=%-3d scheme=%-10s host_ms=%9.1f ops=%-8d \
       makespan=%-9d tput=%8.1f ops/Mcycle\n%!"
      target !threads !scheme_arg ms r.Experiment.total_ops
      r.Experiment.makespan r.Experiment.throughput
  done;
  (target, !best)

let run_target (target, plan) =
  match plan with
  | Sweep cfgs -> run_sweep target cfgs
  | Single cfg -> run_single target cfg

(* ------------------------------------------------------------------ *)
(* JSON summary + soft perf gate                                       *)
(* ------------------------------------------------------------------ *)

let write_json path results =
  Json_out.write_file path
    (Json_out.Obj
       [
         ("git_rev", Json_out.String !git_rev);
         ("scheme", Json_out.String !scheme_arg);
         ("threads", Json_out.Int !threads);
         ("repeat", Json_out.Int (max 1 !repeat));
         ( "targets",
           Json_out.List
             (List.map
                (fun (t, ms) ->
                  Json_out.Obj
                    [
                      ("target", Json_out.String t);
                      ("best_ms", Json_out.Float ms);
                    ])
                results) );
       ]);
  Printf.printf "wrote %s\n%!" path

(* Soft host-performance gate: alarm on a clear regression, stay quiet
   through CI-runner noise.  25% is far above run-to-run jitter on one
   machine but small enough to catch an accidentally reintroduced
   per-access allocation or scan. *)
let tolerance_pct = 25.

(* The baseline best_ms of each of [targets], from a --json-out summary.
   A target without an entry would pass the gate unmeasured, so it exits 2
   like an unreadable file; read before any target runs, so a bad
   baseline fails at once. *)
let read_baseline path targets =
  let fail msg =
    Printf.eprintf "hosttime: %s: %s\n" path msg;
    exit 2
  in
  let field k = function
    | Json_out.Obj fields -> List.assoc_opt k fields
    | _ -> None
  in
  let doc =
    try Json_in.parse_file path with
    | Json_in.Parse_error (msg, pos) ->
        fail (Printf.sprintf "parse error at byte %d: %s" pos msg)
    | Sys_error msg -> fail msg
  in
  let entries =
    match field "targets" doc with
    | Some (Json_out.List entries) -> entries
    | _ -> fail "no \"targets\" list"
  in
  let best_ms t =
    match
      List.find_opt
        (fun e -> field "target" e = Some (Json_out.String t))
        entries
    with
    | None -> fail ("no baseline entry for target " ^ t)
    | Some e -> (
        match field "best_ms" e with
        | Some (Json_out.Float ms) -> ms
        | Some (Json_out.Int ms) -> float_of_int ms
        | _ -> fail ("no best_ms for target " ^ t))
  in
  List.map (fun t -> (t, best_ms t)) targets

let check_regressions baseline_path baseline results =
  let failed = ref false in
  List.iter
    (fun (t, ms) ->
      let base = List.assoc t baseline in
      let delta_pct = (ms -. base) /. base *. 100. in
      if delta_pct > tolerance_pct then begin
        failed := true;
        Printf.printf
          "gate: %-14s REGRESSION %9.1f ms vs baseline %9.1f ms (%+.1f%% > \
           %.0f%% tolerance)\n"
          t ms base delta_pct tolerance_pct
      end
      else
        Printf.printf "gate: %-14s ok %9.1f ms vs baseline %9.1f ms (%+.1f%%)\n"
          t ms base delta_pct)
    results;
  if !failed then begin
    Printf.printf
      "gate: FAILED — host wall-clock regressed beyond %.0f%% (baseline %s, \
       rev %s).  If the slowdown is intentional, regenerate the baseline \
       with --json-out.\n"
      tolerance_pct baseline_path !git_rev;
    exit 1
  end

let () =
  Arg.parse spec (fun t -> targets := t :: !targets) "hosttime [options] targets";
  let all = [ "fig1-list"; "fig1-skiplist"; "fig2-queue"; "fig2-hash" ] in
  let sweep_all =
    [
      "sweep-fig1-list";
      "sweep-fig1-skiplist";
      "sweep-fig2-queue";
      "sweep-fig2-hash";
    ]
  in
  let ts =
    match List.rev !targets with
    | [] -> [ "fig1-list" ]
    | l when List.mem "all" l -> all
    | l when List.mem "sweep-all" l -> sweep_all
    | l -> l
  in
  let plans = List.map (fun t -> (t, plan t)) ts in
  let baseline =
    if !check_against = "" then [] else read_baseline !check_against ts
  in
  (* Open --json-out before any target runs, so a bad path fails at once
     instead of after the whole timing; without truncating it, since it may
     be the --check-against file. *)
  if !json_out <> "" then begin
    try close_out (open_out_gen [ Open_wronly; Open_creat ] 0o644 !json_out)
    with Sys_error msg ->
      Printf.eprintf "hosttime: --json-out: cannot write %s\n" msg;
      exit 2
  end;
  let profile_oc =
    if !pc_profile = "" then None
    else if not Pcprof.supported then begin
      Printf.eprintf
        "hosttime: --pc-profile: no program-counter sampling on %s (Linux \
         x86-64 only)\n"
        Pcprof.platform;
      exit 2
    end
    else
      try Some (open_out !pc_profile)
      with Sys_error msg ->
        Printf.eprintf "hosttime: --pc-profile: cannot write %s\n" msg;
        exit 2
  in
  Option.iter (fun _ -> Pcprof.start ()) profile_oc;
  let results = List.map run_target plans in
  Option.iter
    (fun oc ->
      let p = Pcprof.stop () in
      Pcprof.write_report oc p;
      close_out oc;
      Printf.printf "pc-profile: %s (%d samples)\n%!" !pc_profile
        (Array.length p.Pcprof.samples))
    profile_oc;
  Printf.printf "\nbest-of-%d summary:\n" (max 1 !repeat);
  List.iter (fun (t, ms) -> Printf.printf "  %-14s %9.1f ms\n" t ms) results;
  if !json_out <> "" then write_json !json_out results;
  if !check_against <> "" then
    check_regressions !check_against baseline results
