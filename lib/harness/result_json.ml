(** Machine-readable encoding of {!Experiment.result}.

    One JSON object per run: the configuration that produced it, the
    headline numbers (throughput, abort mix, reclamation counters), the
    latency distribution summary, and the sampled time series — everything
    a figure script or perf-trajectory tracker needs without scraping the
    text tables.  Output is deterministic for a given seed/configuration
    (see {!Json_out}). *)

open St_sim
open St_htm
open St_reclaim

let of_config (c : Experiment.config) =
  Json_out.Obj
    [
      ("structure", Json_out.String (Experiment.structure_name c.structure));
      ("scheme", Json_out.String (Experiment.scheme_name c.scheme));
      ("threads", Json_out.Int c.threads);
      ("duration", Json_out.Int c.duration);
      ("key_range", Json_out.Int c.key_range);
      ("init_size", Json_out.Int c.init_size);
      ("mutation_pct", Json_out.Int c.mutation_pct);
      ("n_buckets", Json_out.Int c.n_buckets);
      ("seed", Json_out.Int c.seed);
      ("cores", Json_out.Int c.cores);
      ("smt", Json_out.Int c.smt);
      ("quantum", Json_out.Int c.quantum);
      ( "backend",
        Json_out.String (match c.backend with Tsx.Htm -> "htm" | Tsx.Stm -> "stm")
      );
      ("crash_tids", Json_out.List (List.map (fun t -> Json_out.Int t) c.crash_tids));
      ("metrics_interval", Json_out.Int c.metrics_interval);
    ]

let of_htm (h : Htm_stats.t) =
  Json_out.Obj
    [
      ("starts", Json_out.Int h.starts);
      ("commits", Json_out.Int h.commits);
      ( "aborts",
        Json_out.Obj
          [
            ("conflict", Json_out.Int h.conflict_aborts);
            ("capacity", Json_out.Int h.capacity_aborts);
            ("interrupt", Json_out.Int h.interrupt_aborts);
            ("explicit", Json_out.Int h.explicit_aborts);
            ("total", Json_out.Int (Htm_stats.aborts h));
          ] );
      ("data_set_lines", Json_out.Int h.data_set_lines);
    ]

let of_reclaim (g : Guard.stats) =
  Json_out.Obj
    [
      ("retired", Json_out.Int g.retired);
      ("freed", Json_out.Int g.freed);
      ("scans", Json_out.Int g.scans);
      ("scan_words", Json_out.Int g.scan_words);
      ("stall_cycles", Json_out.Int g.stall_cycles);
      ("protect_fences", Json_out.Int g.protect_fences);
      ("mean_lag", Json_out.Float (Guard.mean_lag g));
      ("max_lag", Json_out.Int g.lag_max);
    ]

let of_scheme_stats (st : Stacktrack.Scheme_stats.t) =
  Json_out.Obj
    [
      ("ops", Json_out.Int st.ops);
      ("fast_ops", Json_out.Int st.fast_ops);
      ("slow_ops", Json_out.Int st.slow_ops);
      ("segments", Json_out.Int st.segments);
      ("avg_splits_per_op", Json_out.Float (Stacktrack.Scheme_stats.avg_splits_per_op st));
      ("avg_segment_length", Json_out.Float (Stacktrack.Scheme_stats.avg_segment_length st));
      ("replays", Json_out.Int st.replays);
      ("scans", Json_out.Int st.scans);
      ("scan_restarts", Json_out.Int st.scan_restarts);
      ("inspections", Json_out.Int st.inspections);
      ("stack_words", Json_out.Int st.stack_words);
      ("slow_reads", Json_out.Int st.slow_reads);
      ("slow_validation_failures", Json_out.Int st.slow_validation_failures);
    ]

let of_latency l =
  Json_out.Obj
    [
      ("count", Json_out.Int (Latency.count l));
      ("mean", Json_out.Float (Latency.mean l));
      ("p50", Json_out.Int (Latency.percentile l 50.));
      ("p95", Json_out.Int (Latency.percentile l 95.));
      ("p99", Json_out.Int (Latency.percentile l 99.));
      ("max", Json_out.Int (Latency.max_value l));
    ]

let of_metrics_sample (s : Metrics.sample) =
  Json_out.Obj
    [
      ("time", Json_out.Int s.time);
      ("ops", Json_out.Int s.ops);
      ("live_objects", Json_out.Int s.live_objects);
      ("allocs", Json_out.Int s.allocs);
      ("frees", Json_out.Int s.frees);
      ("retired", Json_out.Int s.retired);
      ("freed", Json_out.Int s.freed);
      ("pending_frees", Json_out.Int s.pending_frees);
      ("starts", Json_out.Int s.starts);
      ("commits", Json_out.Int s.commits);
      ( "aborts",
        Json_out.Obj
          [
            ("conflict", Json_out.Int s.conflict_aborts);
            ("capacity", Json_out.Int s.capacity_aborts);
            ("interrupt", Json_out.Int s.interrupt_aborts);
            ("explicit", Json_out.Int s.explicit_aborts);
          ] );
      ("scans", Json_out.Int s.scans);
      ("scan_restarts", Json_out.Int s.scan_restarts);
      ("stall_cycles", Json_out.Int s.stall_cycles);
      ("context_switches", Json_out.Int s.context_switches);
      ("wasted_cycles", Json_out.Int s.wasted_cycles);
    ]

let account_fields cycles =
  List.mapi
    (fun i a -> (Profile.account_name a, Json_out.Int cycles.(i)))
    Profile.accounts

let of_profile (p : Profile.snapshot) =
  let thread (th : Profile.thread_snapshot) =
    Json_out.Obj
      (("tid", Json_out.Int th.tid)
       :: account_fields th.cycles
      @ [ ("consumed", Json_out.Int th.consumed);
          ("idle", Json_out.Int th.idle) ])
  in
  Json_out.Obj
    [
      ("makespan", Json_out.Int p.makespan);
      ("totals", Json_out.Obj (account_fields (Profile.totals p)));
      ("threads", Json_out.List (List.map thread p.threads));
    ]

let of_heat_row (h : Experiment.heat_row) =
  Json_out.Obj
    [
      ("line", Json_out.Int h.heat.Tsx.line);
      ("touches", Json_out.Int h.heat.Tsx.touches);
      ("conflicts", Json_out.Int h.heat.Tsx.conflicts);
      ("capacity", Json_out.Int h.heat.Tsx.capacity);
      ( "owner",
        match h.owner with
        | Some s -> Json_out.String s
        | None -> Json_out.Null );
    ]

(* Renders a precomputed sparse bucket list; [encode] calls
   [Latency.nonzero_buckets] once per histogram and shares the result
   between every section that needs it, instead of re-scanning the 96
   buckets at each emit site. *)
let hist_of_buckets buckets =
  Json_out.List
    (List.map
       (fun (low, n) ->
         Json_out.Obj [ ("low", Json_out.Int low); ("count", Json_out.Int n) ])
       buckets)

let of_latency_hist l = hist_of_buckets (Latency.nonzero_buckets l)

let of_lifecycle_sample (s : Metrics.lifecycle_sample) =
  Json_out.Obj
    [
      ("time", Json_out.Int s.lc_time);
      ("limbo_objects", Json_out.Int s.limbo_objects);
      ("limbo_words", Json_out.Int s.limbo_words);
      ("live_words", Json_out.Int s.live_words);
      ("peak_limbo_words", Json_out.Int s.peak_limbo_words);
      ("quarantine", Json_out.Int s.quarantine);
      ("retired", Json_out.Int s.lc_retired);
      ("freed", Json_out.Int s.lc_freed);
    ]

let of_incident (i : Watchdog.incident) =
  Json_out.Obj
    [
      ("start", Json_out.Int i.start_time);
      ( "end",
        if i.end_time >= 0 then Json_out.Int i.end_time else Json_out.Null );
      ("backlog_at_start", Json_out.Int i.backlog_at_start);
      ("peak_backlog", Json_out.Int i.peak_backlog);
      ("stalled_observations", Json_out.Int i.stalled_observations);
    ]

let of_watchdog (w : Watchdog.report) =
  Json_out.Obj
    [
      ("incidents", Json_out.Int w.n_incidents);
      ("total_stalled_cycles", Json_out.Int w.total_stalled_cycles);
      ("max_backlog", Json_out.Int w.max_backlog);
      ("ongoing", Json_out.Bool w.ongoing);
      ("observations", Json_out.Int w.n_observations);
      ("events", Json_out.List (List.map of_incident w.incidents));
    ]

let of_lifecycle (lc : Experiment.lifecycle_summary) =
  let lag_buckets = Latency.nonzero_buckets lc.lag_hist in
  Json_out.Obj
    [
      ("allocs", Json_out.Int lc.lc_allocs);
      ("retires", Json_out.Int lc.lc_retires);
      ("frees", Json_out.Int lc.lc_frees);
      ("live_at_end", Json_out.Int lc.lc_live_at_end);
      ("limbo_at_end", Json_out.Int lc.limbo_at_end);
      ("limbo_words_at_end", Json_out.Int lc.limbo_words_at_end);
      ("peak_limbo_objects", Json_out.Int lc.peak_limbo_objects);
      ("peak_limbo_words", Json_out.Int lc.peak_limbo_words);
      ("peak_live_words", Json_out.Int lc.peak_live_words);
      ("lag", of_latency lc.lag_hist);
      ("lag_hist", hist_of_buckets lag_buckets);
      ("series", Json_out.List (List.map of_lifecycle_sample lc.lc_series));
      ("watchdog", of_watchdog lc.watchdog);
    ]

let of_doomed_pair (p : Experiment.doomed_pair) =
  Json_out.Obj
    [
      ("victim", Json_out.Int p.victim);
      ("aborter", Json_out.Int p.aborter);
      ("dooms", Json_out.Int p.dooms);
    ]

let of_doomed_line (l : Experiment.doomed_line_row) =
  Json_out.Obj
    [
      ("line", Json_out.Int l.dl_line);
      ("dooms", Json_out.Int l.dl_dooms);
      ( "owner",
        match l.dl_owner with
        | Some s -> Json_out.String s
        | None -> Json_out.Null );
    ]

let of_fx_segment (s : Forensics.segment) =
  Json_out.Obj
    [
      ("op_id", Json_out.Int s.Forensics.op_id);
      ("split", Json_out.Int s.Forensics.split);
      ("aborts", Json_out.Int s.Forensics.aborts);
      ("chains", Json_out.Int s.Forensics.chains);
      ( "mean_depth",
        Json_out.Float
          (if s.Forensics.chains = 0 then 0.
           else
             float_of_int s.Forensics.depth_sum
             /. float_of_int s.Forensics.chains) );
      ("max_depth", Json_out.Int s.Forensics.depth_max);
    ]

let of_fx_decision (d : Forensics.decision) =
  Json_out.Obj
    [
      ("time", Json_out.Int d.Forensics.d_time);
      ("tid", Json_out.Int d.Forensics.d_tid);
      ("op_id", Json_out.Int d.Forensics.d_op_id);
      ("split", Json_out.Int d.Forensics.d_split);
      ("from", Json_out.Int d.Forensics.d_old_limit);
      ("to", Json_out.Int d.Forensics.d_limit);
      ("grow", Json_out.Bool d.Forensics.d_grow);
    ]

let of_limit_row (l : Stacktrack.Engine.limit_row) =
  Json_out.Obj
    [
      ("tid", Json_out.Int l.Stacktrack.Engine.l_tid);
      ("op_id", Json_out.Int l.Stacktrack.Engine.l_op_id);
      ("split", Json_out.Int l.Stacktrack.Engine.l_split);
      ("limit", Json_out.Int l.Stacktrack.Engine.l_limit);
    ]

let of_forensics (fx : Experiment.forensics_summary) =
  let ints kvs = List.map (fun (k, v) -> (k, Json_out.Int v)) kvs in
  Json_out.Obj
    [
      ( "dooms",
        Json_out.Obj
          (ints
             [
               ("conflict", fx.fx_conflict_dooms);
               ("capacity", fx.fx_capacity_dooms);
               ("interrupt", fx.fx_interrupt_dooms);
             ]) );
      ( "conflict_pairs",
        Json_out.List (List.map of_doomed_pair fx.fx_conflict_pairs) );
      ( "capacity_pairs",
        Json_out.List (List.map of_doomed_pair fx.fx_capacity_pairs) );
      ("doomed_lines", Json_out.List (List.map of_doomed_line fx.fx_doomed_lines));
      ("delivered", Json_out.Obj (ints fx.fx_delivered));
      ( "wasted",
        Json_out.Obj
          (ints
             (fx.fx_wasted
             @ [
                 ("total", fx.fx_wasted_total);
                 ("profile_wasted", fx.fx_profile_wasted);
               ])) );
      ( "retry_depths",
        Json_out.Obj
          [
            ("summary", of_latency fx.fx_retry_hist);
            ("hist", of_latency_hist fx.fx_retry_hist);
          ] );
      ("segments", Json_out.List (List.map of_fx_segment fx.fx_segments));
      ( "predictor",
        Json_out.Obj
          [
            ("segments_tracked", Json_out.Int fx.fx_segments_tracked);
            ("timeline_dropped", Json_out.Int fx.fx_timeline_dropped);
            ("timeline", Json_out.List (List.map of_fx_decision fx.fx_timeline));
            ( "final_limits",
              Json_out.List (List.map of_limit_row fx.fx_limits) );
          ] );
    ]

(* New sections are appended at the end and only when their feature is
   enabled, so artifacts from runs without --trace/--profile stay
   byte-identical to the pre-profiler goldens. *)
let encode (r : Experiment.result) =
  let tail =
    (match r.cfg.trace with
    | Some tr -> [ ("trace_dropped", Json_out.Int (Trace.dropped tr)) ]
    | None -> [])
    @ (match r.profile with
      | Some p ->
          [
            ("latency_hist", of_latency_hist r.latency);
            ("profile", of_profile p);
            ( "heatmap",
              Json_out.List
                (List.map of_heat_row (Option.value ~default:[] r.heatmap)) );
          ]
      | None -> [])
    @ (match r.lifecycle with
      | Some lc -> [ ("reclaim_lifecycle", of_lifecycle lc) ]
      | None -> [])
    @ (match r.forensics with
      | Some fx -> [ ("htm_forensics", of_forensics fx) ]
      | None -> [])
    @
    (* Only the modern schemes (DEBRA+, Hazard Eras) report extras, so
       classic-scheme artifacts stay byte-identical to their goldens. *)
    match r.extras with
    | [] -> []
    | kvs ->
        [
          ( "scheme_extras",
            Json_out.Obj (List.map (fun (k, v) -> (k, Json_out.Int v)) kvs) );
        ]
  in
  Json_out.Obj
    ([
      ("config", of_config r.cfg);
      ("total_ops", Json_out.Int r.total_ops);
      ( "ops_per_thread",
        Json_out.List
          (Array.to_list (Array.map (fun n -> Json_out.Int n) r.ops_per_thread))
      );
      ("makespan", Json_out.Int r.makespan);
      ("throughput", Json_out.Float r.throughput);
      ("htm", of_htm r.htm);
      ("reclaim", of_reclaim r.reclaim);
      ( "stacktrack",
        match r.st with Some st -> of_scheme_stats st | None -> Json_out.Null );
      ("latency", of_latency r.latency);
      ("allocs", Json_out.Int r.allocs);
      ("frees", Json_out.Int r.frees);
      ("live_at_end", Json_out.Int r.live_at_end);
      ("peak_live", Json_out.Int r.peak_live);
      ("context_switches", Json_out.Int r.context_switches);
      ("final_size", Json_out.Int r.final_size);
      ("leaked", Json_out.Int r.leaked);
      ("violations", Json_out.Int r.violations);
      ("metrics", Json_out.List (List.map of_metrics_sample r.metrics));
    ]
    @ tail)

let to_string r = Json_out.to_string (encode r)

(* ------------------------------------------------------------------ *)
(* Flamegraph collapsed-stack export                                   *)
(* ------------------------------------------------------------------ *)

(* One line per (thread, account) with nonzero cycles, in tid order then
   account order, plus an idle frame — feed to flamegraph.pl or
   speedscope.  Empty when the run was not profiled. *)
let flame_lines (r : Experiment.result) =
  match r.profile with
  | None -> []
  | Some p ->
      let scheme = Experiment.scheme_name r.cfg.scheme in
      List.concat_map
        (fun (th : Profile.thread_snapshot) ->
          let accts =
            List.filteri (fun i _ -> th.cycles.(i) > 0) Profile.accounts
            |> List.map (fun a ->
                   (Profile.account_name a,
                    th.cycles.(Profile.account_index a)))
          in
          let accts =
            if th.idle > 0 then accts @ [ ("idle", th.idle) ] else accts
          in
          List.map
            (fun (name, c) ->
              Printf.sprintf "%s;tid%d;%s %d" scheme th.tid name c)
            accts)
        p.threads

let flame_string r =
  match flame_lines r with
  | [] -> ""
  | lines -> String.concat "\n" lines ^ "\n"

let write_flame_file path rs =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> List.iter (fun r -> output_string oc (flame_string r)) rs)
