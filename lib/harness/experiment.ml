(** Experiment runner: builds a simulated machine, a data structure, a
    reclamation scheme, and a set of worker threads; runs the schedule to
    completion and collects every statistic the paper's figures need. *)

open St_sim
open St_mem
open St_htm
open St_reclaim

type structure = List_s | Skiplist_s | Queue_s | Hash_s

let structures =
  [
    ("list", List_s); ("skiplist", Skiplist_s); ("queue", Queue_s);
    ("hash", Hash_s);
  ]

let structure_name s = fst (List.find (fun (_, named) -> named = s) structures)

type scheme_kind =
  | Original  (** no reclamation *)
  | Hazards
  | Epoch
  | Stacktrack_s of Stacktrack.St_config.t
  | Dta
  | Refcount_s
  | Immediate_unsafe
  | Debra
  | Debra_plus
  | Hazard_eras

let stacktrack_default = Stacktrack_s Stacktrack.St_config.default

let scheme_name = function
  | Original -> "Original"
  | Hazards -> "Hazards"
  | Epoch -> "Epoch"
  | Stacktrack_s _ -> "StackTrack"
  | Dta -> "DTA"
  | Refcount_s -> "RefCount"
  | Immediate_unsafe -> "Immediate(unsafe)"
  | Debra -> "DEBRA"
  | Debra_plus -> "DEBRA+"
  | Hazard_eras -> "HazardEras"

let scheme_aliases =
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

let lookup what names s =
  match List.assoc_opt s names with
  | Some v -> Ok v
  | None ->
      Error
        (Printf.sprintf "unknown %s %S (known: %s)" what s
           (String.concat ", " (List.map fst names)))

let scheme_of_string = lookup "scheme" scheme_aliases

(* Each field is documented in experiment.mli; {!fields} gives its option,
   domain and key. *)
type config = {
  structure : structure;
  scheme : scheme_kind;
  threads : int;
  duration : int;
  key_range : int;
  init_size : int;
  mutation_pct : int;
  dist : St_workload.Workload.key_dist;
  n_buckets : int;
  seed : int;
  cores : int;
  smt : int;
  quantum : int;
  backend : Tsx.backend;
  crash_tids : int list;
  metrics_interval : int;
  trace : St_sim.Trace.t option;
  profile : bool;
  lifecycle : bool;
  forensics : bool;
}

let default_config =
  {
    structure = List_s;
    scheme = Original;
    threads = 4;
    duration = 2_000_000;
    key_range = 512;
    init_size = 256;
    mutation_pct = 20;
    dist = St_workload.Workload.Uniform;
    n_buckets = 64;
    seed = 0xC0FFEE;
    cores = 4;
    smt = 2;
    quantum = 100_000;
    backend = Tsx.Htm;
    crash_tids = [];
    metrics_interval = 0;
    trace = None;
    profile = false;
    lifecycle = false;
    forensics = false;
  }

(* The config schema: one entry per field of a run's recipe. *)

type _ domain =
  | Int : int * int -> int domain
  | Bool : bool domain
  | Names : (string * 'a) list * ('a -> string) -> 'a domain
  | Tids : int list domain
  | Theta : St_workload.Workload.key_dist domain

type recorded = Always | Unless_default | By_section

type 'a field = {
  key : string;
  flags : string list;
  doc : string;
  domain : 'a domain;
  recorded : recorded;
  get : config -> 'a;
  set : 'a -> config -> config;
}

type any_field = Field : 'a field -> any_field

let run_defaults =
  {
    default_config with
    scheme = stacktrack_default;
    threads = 8;
    duration = 1_000_000;
    key_range = 1024;
    init_size = 512;
    n_buckets = 512;
  }

let field key ?(flags = []) ?(doc = "") ?(recorded = Always) domain get set =
  Field { key; flags; doc; domain; recorded; get; set }

module St = Stacktrack.St_config

(* A StackTrack tuning field: read from the default tuning under any other
   scheme, set under a StackTrack scheme only. *)
let st_field key ?flags ?doc domain get set =
  field key ?flags ?doc ~recorded:Unless_default domain
    (fun c -> get (match c.scheme with Stacktrack_s st -> st | _ -> St.default))
    (fun v c ->
      match c.scheme with
      | Stacktrack_s st -> { c with scheme = Stacktrack_s (set v st) }
      | _ -> c)

let at_least lo = Int (lo, max_int)

let fields =
  [
    field "structure" ~flags:[ "structure"; "d" ] ~doc:"Data structure."
      (Names (structures, structure_name))
      (fun c -> c.structure) (fun structure c -> { c with structure });
    field "scheme" ~flags:[ "scheme"; "s" ] ~doc:"Reclamation scheme."
      (Names (scheme_aliases, scheme_name))
      (fun c -> c.scheme) (fun scheme c -> { c with scheme });
    field "threads" ~flags:[ "threads"; "t" ]
      ~doc:
        "Worker threads; each helper thread (--crash adds one, --lifecycle \
         or --metrics-interval one) lowers the bound by one."
      (Int (1, Topology.max_threads))
      (fun c -> c.threads) (fun threads c -> { c with threads });
    field "duration" ~flags:[ "duration" ] ~doc:"Virtual cycles per thread."
      (at_least 1)
      (fun c -> c.duration) (fun duration c -> { c with duration });
    field "key_range" ~flags:[ "keys" ] ~doc:"Key range for sets." (at_least 1)
      (fun c -> c.key_range) (fun key_range c -> { c with key_range });
    field "init_size" ~flags:[ "init" ]
      ~doc:"Initial structure size, capped at --keys." (at_least 0)
      (fun c -> c.init_size) (fun init_size c -> { c with init_size });
    field "mutation_pct" ~flags:[ "mutations"; "m" ]
      ~doc:"Mutation percentage." (Int (0, 100))
      (fun c -> c.mutation_pct) (fun mutation_pct c -> { c with mutation_pct });
    field "n_buckets" ~flags:[ "buckets" ] ~doc:"Hash-table buckets."
      (at_least 1)
      (fun c -> c.n_buckets) (fun n_buckets c -> { c with n_buckets });
    field "seed" ~flags:[ "seed" ] ~doc:"RNG seed." (Int (min_int, max_int))
      (fun c -> c.seed) (fun seed c -> { c with seed });
    field "cores" (at_least 1)
      (fun c -> c.cores) (fun cores c -> { c with cores });
    field "smt" (Int (1, 2)) (fun c -> c.smt) (fun smt c -> { c with smt });
    field "quantum" (at_least 1)
      (fun c -> c.quantum) (fun quantum c -> { c with quantum });
    field "backend"
      (Names
         ( [ ("htm", Tsx.Htm); ("stm", Tsx.Stm) ],
           function Tsx.Htm -> "htm" | Tsx.Stm -> "stm" ))
      (fun c -> c.backend) (fun backend c -> { c with backend });
    field "crash_tids" ~flags:[ "crash" ]
      ~doc:"Worker thread ids (0 to threads-1) to crash at 25% of the run."
      Tids (fun c -> c.crash_tids) (fun crash_tids c -> { c with crash_tids });
    field "metrics_interval" ~flags:[ "metrics-interval" ]
      ~doc:
        "Sample counters every N cycles (0 = off, at most --duration) into \
         --json's series; adds the sampler thread, so the schedule changes."
      (at_least 0)
      (fun c -> c.metrics_interval)
      (fun metrics_interval c -> { c with metrics_interval });
    field "zipf" ~flags:[ "zipf" ] ~recorded:Unless_default
      ~doc:"Zipfian key skew theta, finite and at least 0."
      Theta (fun c -> c.dist) (fun dist c -> { c with dist });
    st_field "initial_limit" (at_least 1)
      (fun s -> s.St.initial_limit)
      (fun v s -> { s with St.initial_limit = v });
    st_field "min_limit" (at_least 1)
      (fun s -> s.St.min_limit) (fun v s -> { s with St.min_limit = v });
    st_field "max_limit" (at_least 1)
      (fun s -> s.St.max_limit) (fun v s -> { s with St.max_limit = v });
    st_field "consec_threshold" (at_least 1)
      (fun s -> s.St.consec_threshold)
      (fun v s -> { s with St.consec_threshold = v });
    st_field "max_free" ~flags:[ "max-free" ]
      ~doc:"StackTrack: free-set batch size." (at_least 0)
      (fun s -> s.St.max_free) (fun v s -> { s with St.max_free = v });
    st_field "slow_path_after" (at_least 0)
      (fun s -> s.St.slow_path_after)
      (fun v s -> { s with St.slow_path_after = v });
    st_field "forced_slow_pct" ~flags:[ "forced-slow" ]
      ~doc:"StackTrack: % of operations forced slow." (Int (0, 100))
      (fun s -> s.St.forced_slow_pct)
      (fun v s -> { s with St.forced_slow_pct = v });
    st_field "expose_on_final" Bool
      (fun s -> s.St.expose_on_final)
      (fun v s -> { s with St.expose_on_final = v });
    st_field "hash_scan" ~flags:[ "hash-scan" ]
      ~doc:"StackTrack: single-pass hash scan (sec 5.2)." Bool
      (fun s -> s.St.hash_scan) (fun v s -> { s with St.hash_scan = v });
    st_field "conflict_backoff" (at_least 0)
      (fun s -> s.St.conflict_backoff)
      (fun v s -> { s with St.conflict_backoff = v });
    st_field "commit_after_cas" Bool
      (fun s -> s.St.commit_after_cas)
      (fun v s -> { s with St.commit_after_cas = v });
    field "profile" ~flags:[ "profile" ] ~recorded:By_section
      ~doc:
        "Attribute every cycle to an account and tally per-line contention \
         in the report and --json.  Pure bookkeeping: the run is unchanged."
      Bool (fun c -> c.profile) (fun profile c -> { c with profile });
    field "lifecycle" ~flags:[ "lifecycle" ] ~recorded:By_section
      ~doc:
        "Keep an object lifecycle ledger and limbo watchdog (report, --json, \
         --trace-out); adds the sampler thread, so the schedule changes."
      Bool (fun c -> c.lifecycle) (fun lifecycle c -> { c with lifecycle });
    field "forensics" ~flags:[ "forensics" ] ~recorded:By_section
      ~doc:
        "Record who doomed whom, wasted cycles, retry chains and split \
         decisions (report, --json, --trace-out).  Pure bookkeeping."
      Bool (fun c -> c.forensics) (fun forensics c -> { c with forensics });
  ]

let check : type a. a domain -> a -> (unit, string) result =
 fun domain v ->
  match (domain, v) with
  | Int (lo, hi), v when v < lo || v > hi ->
      Error
        (if hi = max_int then Printf.sprintf "must be at least %d, got %d" lo v
         else Printf.sprintf "must be between %d and %d, got %d" lo hi v)
  | Theta, St_workload.Workload.Zipf theta
    when not (Float.is_finite theta && theta >= 0.) ->
      Error (Printf.sprintf "must be a finite number at least 0, got %g" theta)
  | _ -> Ok ()

let validate c =
  let out_of_domain (Field f) =
    match (check f.domain (f.get c), f.flags) with
    | Ok (), _ -> None
    | Error e, flag :: _ -> Some (Printf.sprintf "option '--%s': %s" flag e)
    | Error e, [] -> Some (Printf.sprintf "field '%s': %s" f.key e)
  in
  let helpers =
    Bool.to_int (c.crash_tids <> [])
    + Bool.to_int (c.lifecycle || c.metrics_interval > 0)
  in
  let fail fmt = Printf.ksprintf Result.error fmt in
  match
    ( List.find_map out_of_domain fields,
      List.find_opt (fun t -> t < 0 || t >= c.threads) c.crash_tids )
  with
  | Some e, _ -> Error e
  | None, Some tid ->
      fail "option '--crash': thread id %d is not a worker (0 to %d)" tid
        (c.threads - 1)
  | None, None when c.metrics_interval > c.duration ->
      fail "option '--metrics-interval': %d is past the %d-cycle --duration"
        c.metrics_interval c.duration
  | None, None when c.threads + helpers > Topology.max_threads ->
      fail
        "option '--threads': %d workers and %d helper thread(s) exceed the \
         %d-thread bound"
        c.threads helpers Topology.max_threads
  | None, None when c.init_size > c.key_range ->
      Ok { c with init_size = c.key_range }
  | None, None -> Ok c

type heat_row = { heat : Tsx.line_stats; owner : string option }

type doomed_pair = { victim : int; aborter : int; dooms : int }

type doomed_line_row = {
  dl_line : int;
  dl_dooms : int;
  dl_owner : string option;  (** Live object owning the line, if any. *)
}

(* Everything [cfg.forensics] adds to a run, gathered so the JSON encoder
   can emit (or omit) it as one tail section — the same shape as
   [lifecycle_summary]. *)
type forensics_summary = {
  fx_conflict_dooms : int;
  fx_capacity_dooms : int;
  fx_interrupt_dooms : int;
  fx_conflict_pairs : doomed_pair list;
  fx_capacity_pairs : doomed_pair list;
  fx_doomed_lines : doomed_line_row list;
  fx_delivered : (string * int) list;  (** Delivered aborts per cause. *)
  fx_wasted : (string * int) list;
      (** Wasted cycles per cause, plus the [unresolved] residue. *)
  fx_wasted_total : int;
  fx_profile_wasted : int;  (** The profiler's independent wasted account. *)
  fx_retry_hist : Latency.t;
  fx_segments : Forensics.segment list;
  fx_timeline : Forensics.decision list;
  fx_timeline_dropped : int;
  fx_segments_tracked : int;
  fx_limits : Stacktrack.Engine.limit_row list;
}

(* Everything [cfg.lifecycle] adds to a run, gathered so the JSON encoder
   can emit (or omit) it as one tail section. *)
type lifecycle_summary = {
  lc_allocs : int;
  lc_retires : int;
  lc_frees : int;
  lc_live_at_end : int;
  limbo_at_end : int;  (** Objects still retired-but-unfreed at exit. *)
  limbo_words_at_end : int;
  peak_limbo_objects : int;
  peak_limbo_words : int;  (** Peak unreclaimed footprint (words). *)
  peak_live_words : int;
  lag_hist : Latency.t;  (** Retire→free latency distribution (cycles). *)
  lc_series : Metrics.lifecycle_sample list;
      (** One snapshot per scheduler quantum. *)
  watchdog : Watchdog.report;
}

type result = {
  cfg : config;
  total_ops : int;
  ops_per_thread : int array;
  makespan : int;  (** Max logical-core clock at completion. *)
  throughput : float;  (** Operations per million virtual cycles. *)
  htm : Htm_stats.t;
  reclaim : Guard.stats;
  st : Stacktrack.Scheme_stats.t option;  (** StackTrack runs only. *)
  violations : int;
  violation_samples : Shadow.violation list;
  allocs : int;
  frees : int;
  live_at_end : int;
  context_switches : int;
  final_size : int;  (** Structure size after the run (raw count). *)
  leaked : int;  (** Live heap objects beyond the structure's final needs. *)
  latency : Latency.t;  (** Per-operation latency distribution (cycles). *)
  metrics : Metrics.sample list;
      (** Full counter time series when [metrics_interval] > 0. *)
  peak_live : int;
  profile : St_sim.Profile.snapshot option;
      (** Per-thread cycle accounts; [Some] iff [cfg.profile]. *)
  heatmap : heat_row list option;
      (** The 16 hottest lines of the per-line record, annotated with the
          live object owning them; [Some] iff [cfg.profile]. *)
  lifecycle : lifecycle_summary option;  (** [Some] iff [cfg.lifecycle]. *)
  forensics : forensics_summary option;  (** [Some] iff [cfg.forensics]. *)
  extras : (string * int) list;
      (** Scheme-specific end-of-run counters (DEBRA+ neutralizations,
          Hazard Eras era clock...); [[]] for the classic schemes, so
          their JSON output is unchanged. *)
  resident_words : int;
      (** Words of heap backing store at end of run ({!Heap.resident_words}:
          proportional to the touched chunks, across the four per-address
          tables).  Never emitted to JSON; the scale figure reports it. *)
  line_table_words : int;
      (** Words held by the HTM layer's chunked line directory
          ({!Tsx.line_table_words}); never emitted to JSON. *)
  yields : int;
      (** Scheduling effects performed ({!Sched.yields}); never emitted to
          JSON. *)
  dispatches : int;
      (** Threads the scheduler ran ({!Sched.dispatches}); never emitted to
          JSON. *)
}

let throughput_of ~ops ~makespan =
  if makespan = 0 then 0. else Float.of_int ops *. 1e6 /. Float.of_int makespan

(* Existentially packed scheme, plus concrete handles where a scheme needs
   special treatment (no Obj.magic). *)
type packed = Packed : (module Guard.S with type t = 'a) * 'a -> packed

type instance = {
  packed : packed;
  note_link : int -> unit;  (** prime link counts during raw population *)
  st_handle : Stacktrack.Engine.t option;
  extras : unit -> (string * int) list;
      (** Scheme-specific counters sampled at end of run (e.g. DEBRA+
          neutralizations); empty for the classic schemes so their JSON
          stays byte-identical. *)
}

module None_scheme = St_reclaim.None

(* A scheme with no special treatment; the others override one field. *)
let instance (type a) (module G : Guard.S with type t = a) (s : a) =
  {
    packed = Packed ((module G), s);
    note_link = ignore;
    st_handle = None;
    extras = (fun () -> []);
  }

let make_instance rt = function
  | Original -> instance (module None_scheme) (None_scheme.create rt)
  | Hazards -> instance (module Hazard) (Hazard.create rt)
  | Epoch -> instance (module Epoch) (Epoch.create rt)
  | Stacktrack_s cfg ->
      let s = Stacktrack.Engine.create ~cfg rt in
      { (instance (module Stacktrack.Engine) s) with st_handle = Some s }
  | Dta -> instance (module Dta) (Dta.create rt)
  | Refcount_s ->
      let s = Refcount.create rt in
      { (instance (module Refcount) s) with note_link = Refcount.note_initial_link s }
  | Immediate_unsafe -> instance (module Immediate) (Immediate.create rt)
  | Debra -> instance (module Debra) (Debra.create ~blocked:Wait rt)
  | Debra_plus ->
      let s = Debra.create ~blocked:(Neutralize 100_000) rt in
      {
        (instance (module Debra) s) with
        extras =
          (fun () ->
            [
              ("neutralizations", Debra.neutralizations s);
              ("recoveries", Debra.recoveries s);
            ]);
      }
  | Hazard_eras ->
      let s = Hazard_eras.create rt in
      {
        (instance (module Hazard_eras) s) with
        extras = (fun () -> [ ("era", Hazard_eras.era s) ]);
      }

let run cfg =
  let topo = Topology.create ~cores:cfg.cores ~smt:cfg.smt () in
  (* Forensics needs the pending-transaction pot to split wasted cycles per
     abort cause, so it turns the profiler's bookkeeping on internally;
     [result.profile] stays gated on [cfg.profile] alone. *)
  let profile = Profile.create ~enabled:(cfg.profile || cfg.forensics) () in
  let forensics =
    if cfg.forensics then Forensics.create () else Forensics.disabled
  in
  let sched =
    Sched.create ~topology:topo ~quantum:cfg.quantum ?trace:cfg.trace ~profile
      ~seed:cfg.seed ()
  in
  let shadow = Shadow.create () in
  let heap = Heap.create ~initial_words:(1 lsl 18) ~shadow () in
  let tsx =
    Tsx.create ~backend:cfg.backend ~forensics ~sched ~heap ()
  in
  let rt = Guard.make_runtime ~sched ~tsx in
  let setup_rng = Rng.create ~seed:(cfg.seed lxor 0x5EED) in
  let inst = make_instance rt cfg.scheme in
  let reclaim = match inst.packed with Packed ((module G), s) -> G.stats s in

  (* Memory-lifecycle ledger + stalled-reclamation watchdog.  The ledger
     hooks are permanently wired into [Heap.claim]/[Heap.free] and
     [Guard.retire]; attaching an enabled ledger here is what turns
     them on.  [now_or_global] makes alloc stamps valid during raw
     population/teardown too, when no simulated thread is current. *)
  let ledger =
    if cfg.lifecycle then
      Lifecycle.create
        ~now:(fun () -> Sched.now_or_global sched)
        ~resolve:(Heap.birth_ix heap) ()
    else Lifecycle.disabled
  in
  let watchdog = Watchdog.create ~trace:(Sched.trace sched) () in
  if cfg.lifecycle then begin
    Heap.set_lifecycle heap ledger;
    reclaim.Guard.lifecycle <- ledger
  end;

  let init_keys =
    St_workload.Workload.initial_keys ~rng:setup_rng ~key_range:cfg.key_range
      ~size:cfg.init_size
  in
  let ops_per_thread = Array.make cfg.threads 0 in
  let latency = Latency.create () in

  (* The metrics probe snapshots every machine-wide counter.  Counters are
     cumulative; consumers difference consecutive samples. *)
  let metrics_acc = ref [] in
  let metrics_probe ~tid:_ now =
    let htm = Tsx.total_stats tsx in
    metrics_acc :=
      {
        Metrics.time = now;
        ops = Array.fold_left ( + ) 0 ops_per_thread;
        live_objects = Heap.live_objects heap;
        allocs = Heap.allocs heap;
        frees = Heap.frees heap;
        retired = reclaim.Guard.retired;
        freed = reclaim.Guard.freed;
        pending_frees =
          (match inst.st_handle with
          | Some e -> Stacktrack.Engine.total_pending_frees e
          | None -> reclaim.Guard.retired - reclaim.Guard.freed);
        starts = htm.Htm_stats.starts;
        commits = htm.Htm_stats.commits;
        conflict_aborts = htm.Htm_stats.conflict_aborts;
        capacity_aborts = htm.Htm_stats.capacity_aborts;
        interrupt_aborts = htm.Htm_stats.interrupt_aborts;
        explicit_aborts = htm.Htm_stats.explicit_aborts;
        scans = reclaim.Guard.scans;
        scan_restarts =
          (match inst.st_handle with
          | Some e ->
              (Stacktrack.Engine.scheme_stats e).Stacktrack.Scheme_stats
                .scan_restarts
          | None -> 0);
        stall_cycles = reclaim.Guard.stall_cycles;
        context_switches = Sched.context_switches sched;
        wasted_cycles =
          Profile.wasted_cycles profile ~n_threads:(Sched.n_threads sched);
      }
      :: !metrics_acc
  in
  (* The lifecycle probe feeds the limbo/footprint time series, the Chrome
     counter tracks, and the watchdog (whose threshold is therefore "N
     quanta without progress"). *)
  let lifecycle_acc = ref [] in
  let lifecycle_probe ~tid now =
    let limbo = Lifecycle.limbo_objects ledger in
    let limbo_w = Lifecycle.limbo_words ledger in
    let live_w = Lifecycle.live_words ledger in
    lifecycle_acc :=
      {
        Metrics.lc_time = now;
        limbo_objects = limbo;
        limbo_words = limbo_w;
        live_words = live_w;
        peak_limbo_words = Lifecycle.peak_limbo_words ledger;
        quarantine = Heap.quarantined heap;
        lc_retired = reclaim.Guard.retired;
        lc_freed = reclaim.Guard.freed;
      }
      :: !lifecycle_acc;
    Watchdog.observe watchdog ~time:now ~tid ~progress:reclaim.Guard.freed
      ~backlog:(reclaim.Guard.retired - reclaim.Guard.freed);
    let tr = Sched.trace sched in
    if Trace.on tr then begin
      Trace.counter tr ~time:now ~tid Trace.Reclaim "limbo_objects" limbo;
      Trace.counter tr ~time:now ~tid Trace.Reclaim "limbo_words" limbo_w;
      Trace.counter tr ~time:now ~tid Trace.Reclaim "live_words" live_w
    end
  in
  (* One harness sampler thread runs every enabled probe, each with its
     interval: metrics every [metrics_interval] cycles, lifecycle once per
     scheduler quantum.  It aims at absolute tick times: its core clock is
     shared with co-scheduled workers, so consuming a fixed interval per
     round would drift by everything the workers consume in between.  Each
     round sleeps to the earliest due tick and runs the due probes in list
     order; each then aims at the next multiple of its own interval. *)
  let probes =
    (if cfg.metrics_interval > 0 then [ (cfg.metrics_interval, metrics_probe) ]
     else [])
    @ if cfg.lifecycle then [ (cfg.quantum, lifecycle_probe) ] else []
  in
  let sampler tid =
    let due = List.map (fun (interval, _) -> ref interval) probes in
    while Sched.now sched < cfg.duration do
      Sched.sleep_until sched
        ~deadline:(List.fold_left (fun d next -> min d !next) max_int due);
      let now = Sched.now sched in
      List.iter2
        (fun (interval, probe) next ->
          if now >= !next then begin
            probe ~tid now;
            next := ((now / interval) + 1) * interval
          end)
        probes due
    done
  in
  let worker_rng tid = Rng.create ~seed:(cfg.seed + (7919 * (tid + 1))) in

  let final_size =
    match inst.packed with
    | Packed ((module G), scheme) -> (
        (* Workers first, then the crash injector, then the sampler: the
           registration order is the tid order, which the schedule depends
           on.  The sampler is only registered when a probe is on — the
           extra thread perturbs the schedule, and unflagged runs must stay
           byte-identical. *)
        let run_workers ~next ~do_op =
          let worker tid =
            let th = G.create_thread scheme ~tid in
            while Sched.now sched < cfg.duration do
              let t0 = Sched.now sched in
              do_op th (next tid);
              Latency.record latency (Sched.now sched - t0);
              ops_per_thread.(tid) <- ops_per_thread.(tid) + 1
            done;
            G.quiesce th
          in
          for _ = 1 to cfg.threads do
            ignore (Sched.add_thread sched worker)
          done;
          if cfg.crash_tids <> [] then
            ignore
              (Sched.add_thread sched (fun _ ->
                   Sched.consume sched (cfg.duration / 4);
                   List.iter (fun tid -> Sched.crash sched tid) cfg.crash_tids));
          if probes <> [] then ignore (Sched.add_thread sched sampler);
          Sched.run sched
        in
        (* The three sets differ only in the structure's module, its raw
           population and its final census. *)
        let run_set ~contains ~insert ~delete =
          let profile =
            St_workload.Workload.set_profile ~dist:cfg.dist
              ~key_range:cfg.key_range ~mutation_pct:cfg.mutation_pct ()
          in
          let gens =
            Array.init cfg.threads (fun tid ->
                St_workload.Workload.set_gen profile (worker_rng tid))
          in
          run_workers
            ~next:(fun tid -> St_workload.Workload.next_set_op gens.(tid))
            ~do_op:(fun th -> function
              | St_workload.Workload.Contains k -> ignore (contains th k)
              | St_workload.Workload.Insert k -> ignore (insert th k)
              | St_workload.Workload.Delete k -> ignore (delete th k))
        in
        match cfg.structure with
        | List_s ->
            let module S = St_dslib.Harris_list.Make (G) in
            let t = St_dslib.Harris_list.create_raw heap in
            St_dslib.Harris_list.populate_raw heap t ~keys:init_keys
              ~note_link:inst.note_link;
            run_set ~contains:(S.contains t) ~insert:(S.insert t)
              ~delete:(S.delete t);
            List.length (St_dslib.Harris_list.to_list_raw heap t)
        | Hash_s ->
            let module S = St_dslib.Hash_table.Make (G) in
            let t = St_dslib.Hash_table.create_raw heap ~n_buckets:cfg.n_buckets in
            St_dslib.Hash_table.populate_raw heap t ~keys:init_keys
              ~note_link:inst.note_link;
            run_set ~contains:(S.contains t) ~insert:(S.insert t)
              ~delete:(S.delete t);
            St_dslib.Hash_table.length_raw heap t
        | Skiplist_s ->
            let module S = St_dslib.Skiplist.Make (G) in
            let t = St_dslib.Skiplist.create_raw heap in
            St_dslib.Skiplist.populate_raw heap t ~keys:init_keys ~rng:setup_rng
              ~note_link:inst.note_link;
            run_set ~contains:(S.contains t) ~insert:(S.insert t)
              ~delete:(S.delete t);
            List.length (St_dslib.Skiplist.to_list_raw heap t)
        | Queue_s ->
            let module S = St_dslib.Ms_queue.Make (G) in
            let t = St_dslib.Ms_queue.create_raw heap in
            St_dslib.Ms_queue.populate_raw heap t
              ~values:(List.init cfg.init_size (fun i -> i))
              ~note_link:inst.note_link;
            let gens =
              Array.init cfg.threads (fun tid ->
                  St_workload.Workload.queue_gen ~mutation_pct:cfg.mutation_pct
                    ~value_range:1024 (worker_rng tid))
            in
            run_workers
              ~next:(fun tid -> St_workload.Workload.next_queue_op gens.(tid))
              ~do_op:(fun th -> function
                | St_workload.Workload.Enqueue v -> S.enqueue t th v
                | St_workload.Workload.Dequeue -> ignore (S.dequeue t th)
                | St_workload.Workload.Peek -> ignore (S.peek t th));
            List.length (St_dslib.Ms_queue.to_list_raw heap t))
  in

  let total_ops = Array.fold_left ( + ) 0 ops_per_thread in
  let makespan = Sched.global_time sched in
  (* Resolve each hot line back to the live object owning its first word.
     The allocator aligns objects to line size, so the line-start address
     either falls inside one object or in dead/unused space; the birth
     (allocation sequence) number is the seed-deterministic object name. *)
  let owner_of_line line =
    let addr = line lsl (Tsx.cache tsx).Cache.line_shift in
    let base = Heap.owner_of heap addr in
    if base = 0 then None
    else begin
      (* [birth_ix] is 1 + the externally visible 0-based birth number. *)
      let bix = Heap.birth_ix heap base in
      let birth = if bix = 0 then 0 else bix - 1 in
      Some (Printf.sprintf "obj#%d@%d+%d" birth base (addr - base))
    end
  in
  let profile_snap =
    if cfg.profile then
      Some
        (Profile.snapshot profile
           ~consumed:(Sched.consumed_by_thread sched)
           ~makespan)
    else None
  in
  (* The per-line record's two views (heat rows and the forensics doomed
     lines) are each one fold and one sort, built only when the run emits
     them.  Heat rows put the hottest lines first: conflicts are what the
     paper's abort analysis cares about, so they dominate the order, and
     the line number breaks ties. *)
  let heatmap_rows =
    if not cfg.profile then None
    else begin
      let rec top n = function
        | (s : Tsx.line_stats) :: rest when n > 0 ->
            { heat = s; owner = owner_of_line s.line } :: top (n - 1) rest
        | _ -> []
      in
      Some
        (top 16
           (List.sort
              (fun (a : Tsx.line_stats) b ->
                if a.conflicts <> b.conflicts then
                  compare b.conflicts a.conflicts
                else if a.touches <> b.touches then compare b.touches a.touches
                else compare a.line b.line)
              (Tsx.fold_lines tsx List.cons [])))
    end
  in
  let lifecycle_summary =
    if not cfg.lifecycle then None
    else begin
      (* The ledger and the heap/shadow state are two independent censuses
         of the same objects; any disagreement (freed-but-live, leaked at
         exit) means an instrumentation hole, and the run is invalid. *)
      (match
         Lifecycle.cross_check ledger ~heap_allocs:(Heap.allocs heap)
           ~heap_frees:(Heap.frees heap) ~heap_live:(Heap.live_objects heap)
       with
      | Some msg -> failwith ("lifecycle ledger diverged from heap: " ^ msg)
      | None -> ());
      let lag_hist = Latency.create () in
      Lifecycle.iter_lags ledger (Latency.record lag_hist);
      Some
        {
          lc_allocs = Lifecycle.allocs ledger;
          lc_retires = Lifecycle.retires ledger;
          lc_frees = Lifecycle.frees ledger;
          lc_live_at_end = Lifecycle.live_objects ledger;
          limbo_at_end = Lifecycle.limbo_objects ledger;
          limbo_words_at_end = Lifecycle.limbo_words ledger;
          peak_limbo_objects = Lifecycle.peak_limbo_objects ledger;
          peak_limbo_words = Lifecycle.peak_limbo_words ledger;
          peak_live_words = Lifecycle.peak_live_words ledger;
          lag_hist;
          lc_series = List.rev !lifecycle_acc;
          watchdog = Watchdog.report watchdog ~now:makespan;
        }
    end
  in
  let forensics_summary =
    if not cfg.forensics then None
    else begin
      (* Crashed-mid-transaction threads never deliver their abort: their
         still-pending pots resolve to wasted at snapshot time, so sweep
         them into the [unresolved] bucket before checking conservation. *)
      for tid = 0 to Sched.n_threads sched - 1 do
        let pot = Profile.pending_txn profile ~tid in
        if pot > 0 then Forensics.on_unresolved forensics ~wasted:pot
      done;
      (* The per-cause wasted-cycle split must equal the profiler's
         independent wasted account; a divergence is an instrumentation
         hole, not a property of the scheme under test, so it is fatal. *)
      let snap =
        Profile.snapshot profile
          ~consumed:(Sched.consumed_by_thread sched)
          ~makespan
      in
      let profile_wasted =
        (Profile.totals snap).(Profile.account_index Profile.Wasted_txn)
      in
      let wasted_total = Forensics.wasted_total forensics in
      if wasted_total <> profile_wasted then
        failwith
          (Printf.sprintf
             "abort forensics conservation violated: per-cause wasted sums \
              to %d, profiler wasted account is %d"
             wasted_total profile_wasted);
      let retry_hist = Latency.create () in
      Forensics.iter_retry_depths forensics (fun ~depth n ->
          for _ = 1 to n do
            Latency.record retry_hist depth
          done);
      let pairs_of iter =
        let acc = ref [] in
        iter forensics (fun ~victim ~aborter dooms ->
            acc := { victim; aborter; dooms } :: !acc);
        List.rev !acc
      in
      let doomed_lines =
        List.sort
          (fun a b -> compare a.dl_line b.dl_line)
          (Tsx.fold_lines tsx
             (fun s acc ->
               if s.conflicts = 0 then acc
               else
                 {
                   dl_line = s.line;
                   dl_dooms = s.conflicts;
                   dl_owner = owner_of_line s.line;
                 }
                 :: acc)
             [])
      in
      let causes =
        [
          Htm_stats.Conflict;
          Htm_stats.Capacity;
          Htm_stats.Interrupt;
          Htm_stats.Explicit;
        ]
      in
      let timeline = ref [] in
      Forensics.iter_timeline forensics (fun d -> timeline := d :: !timeline);
      Some
        {
          fx_conflict_dooms = Forensics.conflict_dooms forensics;
          fx_capacity_dooms = Forensics.capacity_dooms forensics;
          fx_interrupt_dooms = Forensics.interrupt_dooms forensics;
          fx_conflict_pairs = pairs_of Forensics.iter_conflict_pairs;
          fx_capacity_pairs = pairs_of Forensics.iter_capacity_pairs;
          fx_doomed_lines = doomed_lines;
          fx_delivered =
            List.map
              (fun c ->
                (Htm_stats.reason_to_string c, Forensics.delivered forensics c))
              causes;
          fx_wasted =
            List.map
              (fun c ->
                ( Htm_stats.reason_to_string c,
                  Forensics.wasted_by_cause forensics c ))
              causes
            @ [ ("unresolved", Forensics.wasted_unresolved forensics) ];
          fx_wasted_total = wasted_total;
          fx_profile_wasted = profile_wasted;
          fx_retry_hist = retry_hist;
          fx_segments = Forensics.segments forensics;
          fx_timeline = List.rev !timeline;
          fx_timeline_dropped = Forensics.timeline_dropped forensics;
          fx_segments_tracked =
            (match inst.st_handle with
            | Some e -> Stacktrack.Engine.segments_tracked e
            | None -> 0);
          fx_limits =
            (match inst.st_handle with
            | Some e -> Stacktrack.Engine.predictor_limits e
            | None -> []);
        }
    end
  in
  {
    cfg;
    total_ops;
    ops_per_thread;
    makespan;
    throughput = throughput_of ~ops:total_ops ~makespan;
    htm = Tsx.total_stats tsx;
    reclaim;
    st = Option.map Stacktrack.Engine.scheme_stats inst.st_handle;
    violations = Shadow.count shadow;
    violation_samples = Shadow.first shadow;
    allocs = Heap.allocs heap;
    frees = Heap.frees heap;
    live_at_end = Heap.live_objects heap;
    context_switches = Sched.context_switches sched;
    final_size;
    leaked = Heap.live_objects heap - final_size;
    latency;
    metrics = List.rev !metrics_acc;
    peak_live = Heap.peak_live heap;
    profile = profile_snap;
    heatmap = heatmap_rows;
    lifecycle = lifecycle_summary;
    forensics = forensics_summary;
    extras = inst.extras ();
    resident_words = Heap.resident_words heap;
    line_table_words = Tsx.line_table_words tsx;
    yields = Sched.yields sched;
    dispatches = Sched.dispatches sched;
  }
