(** The paper's evaluation (§6) as data: one {!figure} record per table or
    figure, one {!registry}, one driver ({!run}).

    Workload scale note: the simulator executes every memory access of every
    simulated thread, so structure sizes are scaled down from the paper's
    (5K-node list -> 1K keys, 100K-node skip list -> 8K keys, 10K-node hash
    -> 4K keys) to keep each data point to seconds of wall clock.  The
    *relative* behaviour the figures demonstrate — scheme ordering, the
    HyperThreading knee at 4 threads, the preemption cliff at 8 — is
    preserved; see EXPERIMENTS.md for paper-vs-measured deltas.

    Driver structure: every figure runs in three phases so that the middle
    one can run on a {!Pool} of domains —
    (1) *enumerate* the figure's rows of configurations (submission order is
        the report order);
    (2) *run* them through [Pool.run ~jobs] (each point is a deterministic
        function of its seeded config; no state is shared between points);
    (3) *report*: verbose per-run lines, violation checks, tables, CSV and
        notes all consume the ordered result rows after every point has
        finished.
    With [jobs = 1] (the default) phase 2 runs in the calling domain, and
    because phase 3 is order-preserving the printed artifacts are
    byte-identical for any [jobs]. *)

open Experiment

type speed = Quick | Full

let thread_points = function
  | Quick -> [ 1; 2; 4; 6; 8; 12; 16 ]
  | Full -> [ 1; 2; 3; 4; 5; 6; 7; 8; 9; 10; 11; 12; 13; 14; 15; 16 ]

let duration = function Quick -> 400_000 | Full -> 1_500_000

let list_config speed =
  {
    default_config with
    structure = List_s;
    key_range = 1024;
    init_size = 512;
    mutation_pct = 20;
    duration = duration speed;
  }

let skiplist_config speed =
  {
    default_config with
    structure = Skiplist_s;
    key_range = 8192;
    init_size = 4096;
    mutation_pct = 20;
    duration = duration speed;
  }

let queue_config speed =
  {
    default_config with
    structure = Queue_s;
    key_range = 1024;
    init_size = 64;
    mutation_pct = 20;
    duration = duration speed;
  }

let hash_config speed =
  {
    default_config with
    structure = Hash_s;
    key_range = 4096;
    init_size = 2048;
    n_buckets = 512;
    mutation_pct = 20;
    duration = duration speed;
  }

type rows = (int * Experiment.result list) list

type table = {
  title : string;
  subtitle : string;
  x_label : string;
  columns : string list;
  csv : (string * string list) option;
  cells : rows -> (int * float list) list;
}

type figure = {
  name : string;
  configs : speed -> (int * Experiment.config list) list;
  tables : table list;
  notes : rows -> unit;
}

(* ------------------------------------------------------------------ *)
(* Building blocks                                                     *)
(* ------------------------------------------------------------------ *)

let table ?(x_label = "threads") ?csv ~title ~subtitle columns cells =
  { title; subtitle; x_label; columns; csv; cells }

(* A table with no columns renders only its heading: the note-only
   figures print their rows as notes under it. *)
let heading ~title ~subtitle = table ~title ~subtitle [] (fun _ -> [])

(* Rows keyed by [xs], one config per column. *)
let grid xs columns make = List.map (fun x -> (x, List.map (make x) columns)) xs

(* One table row per figure row, its cells computed from that row's
   results; [each] concatenates the cells of every result in the row. *)
let per_row f rows = List.map (fun (x, rs) -> (x, f rs)) rows
let each f = per_row (List.concat_map f)
let throughput (r : result) = [ r.throughput ]

(* Time-series figures run one row, one column per config: table row [i]
   is the [i]-th sample of every column, keyed by the first column's
   sample time. *)
let time_series sample rows =
  let series = List.map sample (List.concat_map snd rows) in
  let n = List.fold_left (fun acc s -> max acc (List.length s)) 0 series in
  List.init n (fun i ->
      let t =
        match List.nth_opt (List.hd series) i with Some (t, _) -> t | None -> 0
      in
      ( t,
        List.map
          (fun s ->
            match List.nth_opt s i with Some (_, v) -> v | None -> Float.nan)
          series ))

(* [f x r] for every result [r] of every row [x]. *)
let iter_results f rows = List.iter (fun (x, rs) -> List.iter (f x) rs) rows
let last_row rows = match List.rev rows with [] -> [] | row :: _ -> [ row ]
let name_of (r : result) = scheme_name r.cfg.scheme

let pp_ongoing (wd : St_sim.Watchdog.report) =
  if wd.St_sim.Watchdog.ongoing then ", ongoing at exit" else ""

(* With the lifecycle ledger on, one reclamation-health line per scheme at
   the last row: the limbo backlog/footprint and watchdog columns behind
   the per-scheme curves (EXPERIMENTS.md).  Silent for unflagged runs, so
   figure output stays byte-identical. *)
let lifecycle_notes rows =
  iter_results
    (fun t (r : result) ->
      Option.iter
        (fun lc ->
          Report.note
            "%-12s @%dthr limbo: peak=%d objs/%d words, end=%d | lag p50=%d \
             p99=%d | watchdog: %d incident(s)%s"
            (name_of r) t lc.peak_limbo_objects lc.peak_limbo_words
            lc.limbo_at_end
            (Latency.percentile lc.lag_hist 50.)
            (Latency.percentile lc.lag_hist 99.)
            lc.watchdog.St_sim.Watchdog.n_incidents (pp_ongoing lc.watchdog))
        r.lifecycle)
    (last_row rows)

(* Threads x schemes throughput sweep over one workload family. *)
let sweep ~name ~title ~subtitle ~base schemes =
  let columns = List.map scheme_name schemes in
  let csv =
    String.lowercase_ascii (String.map (function ' ' -> '_' | c -> c) title)
  in
  {
    name;
    configs =
      (fun speed ->
        grid (thread_points speed) schemes (fun t scheme ->
            { (base speed) with scheme; threads = t }));
    tables =
      [ table ~csv:(csv, columns) ~title ~subtitle columns (each throughput) ];
    notes = lifecycle_notes;
  }

let set_schemes = [ Original; Hazards; Epoch; stacktrack_default ]

(* StackTrack configuration variants on the list at 4/8/16 threads. *)
let st_variants ~name ~title ~subtitle variants =
  {
    name;
    configs =
      (fun speed ->
        grid [ 4; 8; 16 ] variants (fun t (_, st) ->
            { (list_config speed) with scheme = Stacktrack_s st; threads = t }));
    tables = [ table ~title ~subtitle (List.map fst variants) (each throughput) ];
    notes = ignore;
  }

let crash_schemes = [ Epoch; Hazards; stacktrack_default ]

let robustness_schemes =
  [ Epoch; Debra; Debra_plus; Hazard_eras; stacktrack_default ]

let st = Stacktrack.St_config.default

let fixed_limit n = { st with initial_limit = n; min_limit = n; max_limit = n }

(* StackTrack on the list at every thread point, with 3x longer runs: the
   +-1-per-5-consecutive predictor (§5.3) converges slowly ("able to
   achieve a good performance after 2 seconds"), so the split-length trend
   needs volume. *)
let long_st_list speed =
  let base = list_config speed in
  grid (thread_points speed) [ stacktrack_default ] (fun t scheme ->
      { base with duration = base.duration * 3; scheme; threads = t })

(* A crashed-thread list workload: thread 0 crashes at 25% of the run. *)
let crashed speed ~threads =
  {
    (list_config speed) with
    mutation_pct = 80;
    key_range = 256;
    init_size = 128;
    threads;
    duration = duration speed * 3;
    crash_tids = [ 0 ];
  }

let scale_points = function
  | Quick -> [ 10_000; 50_000 ]
  | Full -> [ 10_000; 100_000; 1_000_000 ]

let scale_schemes = [ Epoch; Hazards; Debra; stacktrack_default ]

let scale_config ~live =
  {
    default_config with
    structure = Hash_s;
    key_range = live * 2;
    init_size = live;
    n_buckets = max 256 (live / 4);
    mutation_pct = 20;
    threads = 8;
    duration = 150_000;
    lifecycle = true;
  }

(* ------------------------------------------------------------------ *)
(* The registry                                                        *)
(* ------------------------------------------------------------------ *)

let registry =
  [
    (* Figure 1: list and skip-list throughput *)
    sweep ~name:"fig1-list" ~title:"Figure 1a -- List: throughput vs threads"
      ~subtitle:"1K keys (scaled from 5K), 20% mutations; ops per Mcycle"
      ~base:list_config (set_schemes @ [ Dta ]);
    sweep ~name:"fig1-skiplist"
      ~title:"Figure 1b -- Skip list: throughput vs threads"
      ~subtitle:"8K keys (scaled from 100K), 20% mutations; ops per Mcycle"
      ~base:skiplist_config set_schemes;
    (* Figure 2: queue and hash-table throughput *)
    sweep ~name:"fig2-queue" ~title:"Figure 2a -- Queue: throughput vs threads"
      ~subtitle:"20% mutations (enqueue/dequeue), 80% peek; ops per Mcycle"
      ~base:queue_config set_schemes;
    sweep ~name:"fig2-hash"
      ~title:"Figure 2b -- Hash table: throughput vs threads"
      ~subtitle:
        "4K keys (scaled from 10K), 512 buckets, 20% mutations; ops per Mcycle"
      ~base:hash_config set_schemes;
    (* Figure 3: HTM contention and capacity aborts (list, StackTrack) *)
    {
      name = "fig3-aborts";
      configs = long_st_list;
      tables =
        [
          table
            ~csv:
              ( "fig3_aborts",
                [ "conflict"; "capacity"; "conf_per_kseg"; "cap_per_kseg" ] )
            ~title:
              "Figure 3 -- List: HTM contention and capacity aborts (StackTrack)"
            ~subtitle:
              "totals over the run, and per 1000 transactional segments started"
            [ "conflict"; "capacity"; "conf/1k-seg"; "cap/1k-seg" ]
            (each (fun r ->
                 let h = r.htm in
                 let segs = float_of_int (max 1 h.St_htm.Htm_stats.starts) in
                 let conflict = float_of_int h.St_htm.Htm_stats.conflict_aborts
                 and capacity = float_of_int h.St_htm.Htm_stats.capacity_aborts in
                 [
                   conflict;
                   capacity;
                   conflict /. segs *. 1000.;
                   capacity /. segs *. 1000.;
                 ]));
        ];
      notes = ignore;
    };
    (* Figure 4: average splits per operation and split lengths (list) *)
    {
      name = "fig4-splits";
      configs = long_st_list;
      tables =
        [
          table
            ~csv:("fig4_splits", [ "splits_per_op"; "split_len" ])
            ~title:
              "Figure 4 -- List: HTM splits per operation and split lengths"
            ~subtitle:"averages over committed segments (predictor-converged)"
            [ "splits/op"; "split-len" ]
            (each (fun r ->
                 match r.st with
                 | None -> [ Float.nan; Float.nan ]
                 | Some st ->
                     [
                       Stacktrack.Scheme_stats.avg_splits_per_op st;
                       Stacktrack.Scheme_stats.avg_segment_length st;
                     ]));
        ];
      (* With the abort-forensics ledger on: per-point predictor notes. *)
      notes =
        iter_results (fun t (r : result) ->
            Option.iter
              (fun fx ->
                let limits =
                  List.map
                    (fun (l : Stacktrack.Engine.limit_row) ->
                      l.Stacktrack.Engine.l_limit)
                    fx.fx_limits
                in
                let lo = List.fold_left min max_int limits
                and hi = List.fold_left max 0 limits in
                Report.note
                  "forensics t=%d: %d segment(s) tracked, %d limit change(s), \
                   final limits %s"
                  t fx.fx_segments_tracked (List.length fx.fx_timeline)
                  (if limits = [] then "-" else Printf.sprintf "%d..%d" lo hi))
              r.forensics);
    };
    (* Figure 5: slow-path fallback impact (skip list) *)
    {
      name = "fig5-slowpath";
      configs =
        (fun speed ->
          let threads =
            match speed with
            | Quick -> [ 1; 2; 4; 8; 12 ]
            | Full -> [ 1; 2; 4; 6; 8; 10; 12; 14 ]
          in
          grid threads [ 0; 10; 50; 100 ] (fun t pct ->
              {
                (skiplist_config speed) with
                scheme = Stacktrack_s { st with forced_slow_pct = pct };
                threads = t;
              }));
      tables =
        [
          table
            ~csv:
              ( "fig5_slowpath",
                [ "slow0_thr"; "slow10_pct"; "slow50_pct"; "slow100_pct" ] )
            ~title:"Figure 5 -- Skip list: slow-path fallback impact"
            ~subtitle:
              "column 1: StackTrack-0 throughput (ops/Mcycle); others: % of \
               slow-0"
            [ "slow-0"; "slow-10 %"; "slow-50 %"; "slow-100 %" ]
            (per_row (function
              | [] -> []
              | (r0 : result) :: rs ->
                  let base = r0.throughput in
                  base
                  :: List.map
                       (fun (r : result) ->
                         if base = 0. then 0. else r.throughput /. base *. 100.)
                       rs));
        ];
      notes = ignore;
    };
    (* §6 "Scan behavior": scans, stack depth, amortization *)
    {
      name = "scan-behavior";
      configs =
        (fun speed ->
          let threads =
            match speed with
            | Quick -> [ 1; 2; 4; 8; 16 ]
            | Full -> thread_points speed
          in
          grid threads [ 1; 32 ] (fun t max_free ->
              {
                (skiplist_config speed) with
                scheme = Stacktrack_s { st with max_free };
                threads = t;
              }));
      tables =
        [
          table ~title:"Scan behavior (sec. 6) -- skip list"
            ~subtitle:
              "scan-per-free vs batched (max_free=32): depth grows with \
               threads; batching amortizes the scan"
            [ "scans(b=1)"; "words/scan"; "thr(b=1)"; "thr(b=32)"; "penalty %" ]
            (per_row (fun rs ->
                 let scans (r : result) =
                   match r.st with
                   | None -> Float.nan
                   | Some st -> float_of_int st.Stacktrack.Scheme_stats.scans
                 in
                 (* Words inspected per scan pass: grows with the thread
                    count, the paper's "average stack depth inspected
                    increases linearly with the number of threads". *)
                 let words_per_scan (r : result) =
                   match r.st with
                   | None -> Float.nan
                   | Some { Stacktrack.Scheme_stats.scans = 0; _ } -> 0.
                   | Some st ->
                       float_of_int st.Stacktrack.Scheme_stats.stack_words
                       /. float_of_int st.Stacktrack.Scheme_stats.scans
                 in
                 match rs with
                 | [ r1; r32 ] ->
                     let thr1 = r1.throughput and thr32 = r32.throughput in
                     [
                       scans r1;
                       words_per_scan r32;
                       thr1;
                       thr32;
                       (if thr32 = 0. then 0.
                        else (thr32 -. thr1) /. thr32 *. 100.);
                     ]
                 | _ -> invalid_arg "scan-behavior: two runs per row"));
        ];
      notes = ignore;
    };
    (* Ablations beyond the paper's figures *)
    st_variants ~name:"ablation-predictor"
      ~title:"Ablation -- split-length predictor"
      ~subtitle:"adaptive vs fixed split lengths (list, ops/Mcycle)"
      [
        ("adaptive", st);
        ("fixed-1", { st with initial_limit = 1; max_limit = 1 });
        ("fixed-10", fixed_limit 10);
        ("fixed-200", fixed_limit 200);
      ];
    st_variants ~name:"ablation-scan"
      ~title:"Ablation -- scan variant and final expose"
      ~subtitle:
        "per-pointer scan (Alg.1) vs single-pass hash scan (sec. 5.2) vs \
         expose-on-final-commit (list, ops/Mcycle)"
      [
        ("per-ptr", st);
        ("hash-scan", { st with hash_scan = true });
        ("expose-final", { st with expose_on_final = true });
      ];
    (* Contended queue: effect of committing at CAS linearization points and
       of conflict backoff (both on by default; see St_config). *)
    (let variants =
       [
         ("default", st);
         ("no-cas-commit", { st with commit_after_cas = false });
         ("no-backoff", { st with conflict_backoff = 0 });
         ("neither", { st with commit_after_cas = false; conflict_backoff = 0 });
       ]
     in
     {
       name = "ablation-contention";
       configs =
         (fun _ ->
           grid [ 8 ] variants (fun threads (_, st) ->
               {
                 default_config with
                 structure = Queue_s;
                 scheme = Stacktrack_s st;
                 threads;
                 duration = 400_000;
                 init_size = 64;
                 mutation_pct = 100;
               }));
       tables =
         [
           heading
             ~title:
               "Ablation -- contention countermeasures (queue, 8 threads, \
                100% enq/deq)"
             ~subtitle:
               "CAS-point commits and conflict backoff vs doom-replay storms";
         ];
       notes =
         List.iter (fun (_, rs) ->
             List.iter2
               (fun (name, _) (r : result) ->
                 Report.note "%-14s thr=%-9.1f conflicts=%-7d replays=%d" name
                   r.throughput r.htm.St_htm.Htm_stats.conflict_aborts
                   (match r.st with
                   | Some st -> st.Stacktrack.Scheme_stats.replays
                   | None -> 0))
               variants rs);
     });
    (* Epoch stalls after a crash (unbounded leak); StackTrack and hazard
       pointers keep reclaiming — the paper's §1/§6 robustness claim. *)
    {
      name = "crash";
      configs =
        (fun _ ->
          grid [ 4 ] crash_schemes (fun threads scheme ->
              {
                (list_config Quick) with
                scheme;
                threads;
                duration = 1_200_000;
                mutation_pct = 40;
                crash_tids = [ 0 ];
              }));
      tables =
        [
          heading ~title:"Crash resilience -- list, thread 0 crashed mid-run"
            ~subtitle:
              "frees after crash; Epoch stops reclaiming, non-blocking schemes \
               continue";
        ];
      notes =
        iter_results (fun _ (r : result) ->
            Report.note "%-12s frees=%-8d live-at-end=%-8d violations=%d"
              (name_of r) r.frees r.live_at_end r.violations);
    };
    (* Stalled-thread robustness, the modern-SMR contrast figure.  One thread
       crashes mid-operation at 25% of the run; the lifecycle ledger samples
       the limbo backlog every quantum.  Epoch and DEBRA stop reclaiming at
       the crash (the corpse pins the epoch — unbounded backlog, an open
       watchdog incident), DEBRA+ neutralizes the corpse and recovers,
       Hazard Eras and StackTrack only ever pin what the corpse could reach
       and stay bounded. *)
    {
      name = "robustness";
      configs =
        (fun speed ->
          grid [ 8 ] robustness_schemes (fun threads scheme ->
              { (crashed speed ~threads) with scheme; lifecycle = true }));
      tables =
        [
          table ~x_label:"time"
            ~title:"Robustness -- limbo backlog under a stalled thread (list)"
            ~subtitle:
              "thread 0 crashes mid-op at 25%; retired-but-unfreed objects \
               over time"
            (List.map scheme_name robustness_schemes)
            ~csv:("robustness_limbo", List.map scheme_name robustness_schemes)
            (time_series (fun (r : result) ->
                 match r.lifecycle with
                 | None -> []
                 | Some lc ->
                     List.map
                       (fun s ->
                         ( s.Metrics.lc_time,
                           float_of_int s.Metrics.limbo_objects ))
                       lc.lc_series));
        ];
      notes =
        iter_results (fun _ (r : result) ->
            Option.iter
              (fun lc ->
                let extras =
                  match r.extras with
                  | [] -> ""
                  | kvs ->
                      " | "
                      ^ String.concat " "
                          (List.map
                             (fun (k, v) -> Printf.sprintf "%s=%d" k v)
                             kvs)
                in
                Report.note
                  "%-12s limbo peak=%d end=%d | freed=%d/%d | watchdog: %d \
                   incident(s)%s%s"
                  (name_of r) lc.peak_limbo_objects lc.limbo_at_end
                  r.reclaim.St_reclaim.Guard.freed
                  r.reclaim.St_reclaim.Guard.retired
                  lc.watchdog.St_sim.Watchdog.n_incidents
                  (pp_ongoing lc.watchdog) extras)
              r.lifecycle);
    };
    (* Tail latency separates the schemes more sharply than throughput: the
       epoch reclaimer's grace-period waits appear as multi-quantum p99
       spikes, hazard pointers inflate the median (a fence per node),
       StackTrack's aborted-and-replayed segments widen the p95. *)
    {
      name = "latency";
      configs =
        (fun speed ->
          grid [ 12 ] [ Original; Hazards; Epoch; stacktrack_default; Dta ]
            (fun threads scheme ->
              { (list_config speed) with mutation_pct = 40; scheme; threads }));
      tables =
        [
          heading
            ~title:
              "Extension -- operation latency distribution (list, 12 threads)"
            ~subtitle:
              "cycles per operation; epoch pays its grace waits in the tail";
        ];
      notes =
        (fun rows ->
          Format.printf "%-12s %10s %10s %10s %10s %12s@." "scheme" "mean"
            "p50" "p95" "p99" "max";
          iter_results
            (fun _ (r : result) ->
              let l = r.latency in
              Format.printf "%-12s %10.0f %10d %10d %10d %12d@." (name_of r)
                (Latency.mean l) (Latency.percentile l 50.)
                (Latency.percentile l 95.) (Latency.percentile l 99.)
                (Latency.max_value l))
            rows);
    };
    (* The paper's qualitative claim made quantitative: "a thread crash can
       result in an unbounded amount of unreclaimed memory" for quiescence
       schemes (sec 1).  Live objects are sampled over time: epoch's curve
       climbs from the crash onward while the non-blocking schemes stay
       flat. *)
    {
      name = "memory";
      configs =
        (fun speed ->
          grid [ 4 ] crash_schemes (fun threads scheme ->
              let base = crashed speed ~threads in
              { base with scheme; metrics_interval = base.duration / 12 }));
      tables =
        [
          table ~x_label:"time"
            ~title:
              "Extension -- live objects over time (list, thread 0 crashes at \
               25%)"
            ~subtitle:
              "epoch stops reclaiming at the crash; non-blocking schemes stay \
               flat"
            (List.map scheme_name crash_schemes)
            (time_series (fun (r : result) ->
                 List.map
                   (fun (s : Metrics.sample) ->
                     (s.time, float_of_int s.live_objects))
                   r.metrics));
        ];
      notes =
        (fun rows ->
          iter_results
            (fun _ (r : result) ->
              Report.note
                "%-12s mean reclamation lag=%-9.0f max=%-9d peak live=%d"
                (name_of r)
                (St_reclaim.Guard.mean_lag r.reclaim)
                r.reclaim.St_reclaim.Guard.lag_max r.peak_live)
            rows;
          (* With the ledger on, the crash figure gains its watchdog column:
             epoch stagnates (the crashed thread pins the epoch), the
             non-blocking schemes report no incidents. *)
          iter_results
            (fun _ (r : result) ->
              Option.iter
                (fun lc ->
                  Report.note
                    "%-12s limbo peak=%d objs/%d words end=%d | watchdog: %d \
                     incident(s), %d stalled cycles%s"
                    (name_of r) lc.peak_limbo_objects lc.peak_limbo_words
                    lc.limbo_at_end lc.watchdog.St_sim.Watchdog.n_incidents
                    lc.watchdog.St_sim.Watchdog.total_stalled_cycles
                    (pp_ongoing lc.watchdog))
                r.lifecycle)
            rows);
    };
    (* Sec 7: "While StackTrack can also be executed using software
       transactional memory, hardware support is essential for performance."
       Same scheme, same workload, TL2-style STM backend: correctness carries
       over (zero violations), throughput does not. *)
    {
      name = "stm";
      configs =
        (fun speed ->
          let threads =
            match speed with
            | Quick -> [ 1; 4; 8 ]
            | Full -> [ 1; 2; 4; 8; 12; 16 ]
          in
          grid threads [ St_htm.Tsx.Htm; St_htm.Tsx.Stm ] (fun t backend ->
              {
                (list_config speed) with
                scheme = stacktrack_default;
                threads = t;
                backend;
              }));
      tables =
        [
          table ~title:"Extension -- StackTrack over HTM vs STM (list)"
            ~subtitle:
              "TL2-style software transactions: safe but slow (paper sec 7)"
            [ "HTM"; "STM"; "STM %" ]
            (per_row (function
              | [ (htm : result); (stm : result) ] ->
                  let htm = htm.throughput and stm = stm.throughput in
                  [ htm; stm; (if htm = 0. then 0. else stm /. htm *. 100.) ]
              | _ -> invalid_arg "stm: two runs per row"));
        ];
      notes = ignore;
    };
    (* Scale: the sweep ramps the live-object count rather than the thread
       count — the structure is raw-populated to [live] keys, then a fixed
       simulated duration runs on top.  The interesting columns are
       therefore not throughput curves but footprint: the chunked heap's
       resident backing store should track the touched address space
       (about four payload words per object plus table granularity), where
       the old dense arrays held a doubled capacity in four parallel
       copies. *)
    {
      name = "fig-scale";
      configs =
        (fun speed ->
          grid (scale_points speed) scale_schemes (fun live scheme ->
              { (scale_config ~live) with scheme }));
      tables =
        (let columns = List.map scheme_name scale_schemes in
         [
           table ~x_label:"live" ~csv:("scale_throughput", columns)
             ~title:"Scale -- throughput vs live objects (hash)"
             ~subtitle:
               "raw-populated to N live objects, 20% mutations, 8 threads; \
                ops per Mcycle"
             columns (each throughput);
           table ~x_label:"live" ~csv:("scale_resident", columns)
             ~title:"Scale -- resident heap footprint (Kwords)"
             ~subtitle:
               "backing store of the chunked per-address tables at end of \
                run; grows with touched chunks, not allocator doubling"
             columns
             (each (fun r -> [ float_of_int r.resident_words /. 1024. ]));
         ]);
      notes =
        (fun rows ->
          iter_results
            (fun live (r : result) ->
              Option.iter
                (fun lc ->
                  Report.note
                    "%-12s @%d live: resident=%dK words, line tables=%dK | peak \
                     live=%d objs | limbo peak=%d objs/%d words, end=%d"
                    (name_of r) live (r.resident_words / 1024)
                    (r.line_table_words / 1024) r.peak_live
                    lc.peak_limbo_objects lc.peak_limbo_words lc.limbo_at_end)
                r.lifecycle)
            (last_row rows));
    };
  ]

let find name = List.find_opt (fun f -> f.name = name) registry

(* ------------------------------------------------------------------ *)
(* The driver                                                          *)
(* ------------------------------------------------------------------ *)

(* Split the flat, ordered results back into the rows that enumerated
   them. *)
let regroup configs results =
  snd
    (List.fold_left_map
       (fun rs (x, cfgs) ->
         let n = List.length cfgs in
         ( List.filteri (fun i _ -> i >= n) rs,
           (x, List.filteri (fun i _ -> i < n) rs) ))
       results configs)

let run ?(verbose = false) ?(jobs = 1) ?(profile = false) ?(lifecycle = false)
    ?(forensics = false) ~speed fig =
  (* Observability flags only ever switch a ledger on: a config that
     forces one (robustness, fig-scale) keeps it. *)
  let observe (c : config) =
    {
      c with
      profile = c.profile || profile;
      lifecycle = c.lifecycle || lifecycle;
      forensics = c.forensics || forensics;
    }
  in
  let configs =
    List.map (fun (x, cfgs) -> (x, List.map observe cfgs)) (fig.configs speed)
  in
  let timed =
    Pool.run ~jobs
      (List.concat_map
         (fun (_, cfgs) ->
           List.map
             (fun cfg () ->
               let t0 = Unix.gettimeofday () in
               let r = Experiment.run cfg in
               (r, (Unix.gettimeofday () -. t0) *. 1000.))
             cfgs)
         configs)
  in
  let rows =
    List.map
      (fun (x, rts) ->
        List.iter
          (fun ((r : result), ms) ->
            if verbose then begin
              Report.run_line r;
              (* Host wall-clock is machine-dependent: stderr, so stdout
                 stays byte-identical across runs and [jobs] values. *)
              Format.eprintf "%s: %-12s x=%-8d host=%8.1f ms@." fig.name
                (name_of r) x ms
            end;
            if r.violations <> 0 then
              failwith
                (Printf.sprintf
                   "figure %s: %s/%s x=%d: %d shadow-checker violation(s)"
                   fig.name (structure_name r.cfg.structure) (name_of r) x
                   r.violations))
          rts;
        (x, List.map fst rts))
      (regroup configs timed)
  in
  List.iter
    (fun t ->
      Report.header ~title:t.title ~subtitle:t.subtitle;
      if t.columns <> [] then begin
        let cells = t.cells rows in
        Report.series ~x_label:t.x_label ~columns:t.columns cells;
        Option.iter
          (fun (name, columns) ->
            Report.csv ~name ~x_label:t.x_label ~columns cells)
          t.csv
      end)
    fig.tables;
  fig.notes rows;
  rows
