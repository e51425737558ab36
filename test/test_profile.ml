(* Cycle-attribution profiler and contention heatmap.

   Three properties carry the whole feature:

   - conservation: every simulated cycle a thread consumes lands in
     exactly one account — the accounts sum to both the profiler's own
     charge ledger and the scheduler's independent consumed counter, for
     every scheme, with crashes, and when threads oversubscribe lcores;

   - transparency: profiling is pure bookkeeping — a profiled run
     produces the same result (and the same JSON, minus the appended
     profile sections) as an unprofiled one;

   - determinism: profile and heatmap sections are identical whether the
     runs execute sequentially or on a domain pool. *)

open St_harness
module Profile = St_sim.Profile

let quick name f = Alcotest.test_case name `Quick f

let base =
  {
    Experiment.default_config with
    duration = 100_000;
    threads = 4;
    profile = true;
  }

let all_schemes =
  [
    ("original", Experiment.Original);
    ("hazards", Experiment.Hazards);
    ("epoch", Experiment.Epoch);
    ("stacktrack", Experiment.stacktrack_default);
    ("dta", Experiment.Dta);
    ("refcount", Experiment.Refcount_s);
    ("immediate", Experiment.Immediate_unsafe);
  ]

let snapshot_of (r : Experiment.result) =
  match r.profile with
  | Some p -> p
  | None -> Alcotest.fail "profiled run returned no profile snapshot"

let check_conserved name (r : Experiment.result) =
  let p = snapshot_of r in
  if not (Profile.conserved p) then
    Alcotest.failf "%s: accounts do not balance:@.%a" name Profile.pp_snapshot p;
  (* And the accounts are not trivially empty: a run that does work must
     charge cycles somewhere. *)
  let sum = Array.fold_left ( + ) 0 (Profile.totals p) in
  if r.total_ops > 0 && sum = 0 then
    Alcotest.failf "%s: %d ops but zero accounted cycles" name r.total_ops

(* Conservation across every scheme on the list structure. *)
let test_conservation_schemes () =
  List.iter
    (fun (name, scheme) ->
      check_conserved name (Experiment.run { base with scheme }))
    all_schemes

(* Conservation on a non-set structure and under crashes: a thread that
   dies mid-transaction leaves a pending pot the snapshot must still
   account (as wasted speculative work). *)
let test_conservation_queue_and_crash () =
  check_conserved "queue/epoch"
    (Experiment.run { base with structure = Queue_s; scheme = Epoch });
  check_conserved "queue/stacktrack"
    (Experiment.run
       { base with structure = Queue_s; scheme = Experiment.stacktrack_default });
  check_conserved "crash/stacktrack"
    (Experiment.run
       {
         base with
         scheme = Experiment.stacktrack_default;
         threads = 6;
         crash_tids = [ 0; 3 ];
       });
  check_conserved "crash/epoch"
    (Experiment.run { base with scheme = Epoch; threads = 6; crash_tids = [ 1 ] })

(* More runnable threads than logical cores: context-switch charging and
   idle accounting still balance. *)
let test_conservation_oversubscribed () =
  check_conserved "oversubscribed/stacktrack"
    (Experiment.run
       {
         base with
         scheme = Experiment.stacktrack_default;
         threads = 10;
         quantum = 5_000;
       });
  check_conserved "oversubscribed/hazards"
    (Experiment.run
       { base with scheme = Experiment.Hazards; threads = 10; quantum = 5_000 })

(* Drop the sections the profiler appends, keeping everything else. *)
let strip_profile_sections = function
  | Json_out.Obj fields ->
      Json_out.Obj
        (List.filter
           (fun (k, _) ->
             k <> "latency_hist" && k <> "profile" && k <> "heatmap")
           fields)
  | v -> v

(* Profiling must not perturb the simulation: same seed with profile
   on/off gives the same result document outside the appended
   sections. *)
let test_profile_transparency () =
  List.iter
    (fun (name, scheme) ->
      let cfg = { base with scheme } in
      let on = Experiment.run cfg in
      let off = Experiment.run { cfg with profile = false } in
      let on_doc = strip_profile_sections (Result_json.encode on) in
      let off_doc = Result_json.encode off in
      Alcotest.(check string)
        (name ^ " profile on/off")
        (Json_out.to_string off_doc)
        (Json_out.to_string on_doc))
    [ ("stacktrack", Experiment.stacktrack_default); ("epoch", Experiment.Epoch) ]

(* Profiled artifacts — profile and heatmap sections included — are
   byte-identical whether runs execute sequentially or on a pool. *)
let test_jobs_determinism () =
  let cfgs =
    List.concat_map
      (fun scheme ->
        List.map
          (fun threads -> { base with scheme; threads })
          [ 2; 4 ])
      [ Experiment.stacktrack_default; Experiment.Epoch ]
  in
  let tasks = List.map (fun cfg () -> Experiment.run cfg) cfgs in
  let seq = Pool.run ~jobs:1 tasks in
  let par = Pool.run ~jobs:2 tasks in
  List.iteri
    (fun i (a, b) ->
      Alcotest.(check string)
        (Printf.sprintf "cfg %d jobs=1 vs jobs=2" i)
        (Result_json.to_string a) (Result_json.to_string b))
    (List.combine seq par)

(* The flame export agrees with the snapshot it renders. *)
let test_flame_lines () =
  let r =
    Experiment.run { base with scheme = Experiment.stacktrack_default }
  in
  let p = snapshot_of r in
  let lines = Result_json.flame_lines r in
  Alcotest.(check bool) "nonempty" true (lines <> []);
  List.iter
    (fun line ->
      match String.split_on_char ';' line with
      | [ scheme; _tid; frame ] ->
          Alcotest.(check string) "scheme frame" "StackTrack" scheme;
          (match String.split_on_char ' ' frame with
          | [ _account; cycles ] ->
              Alcotest.(check bool)
                "positive cycles" true
                (int_of_string cycles > 0)
          | _ -> Alcotest.failf "malformed frame %S" frame)
      | _ -> Alcotest.failf "malformed line %S" line)
    lines;
  (* Total flame cycles = accounted + idle, by construction. *)
  let flame_total =
    List.fold_left
      (fun acc line ->
        match String.rindex_opt line ' ' with
        | Some i ->
            acc
            + int_of_string
                (String.sub line (i + 1) (String.length line - i - 1))
        | None -> acc)
      0 lines
  in
  let idle =
    List.fold_left
      (fun acc (th : Profile.thread_snapshot) -> acc + th.idle)
      0 p.threads
  in
  let accounted = Array.fold_left ( + ) 0 (Profile.totals p) in
  Alcotest.(check int) "flame total" (accounted + idle) flame_total;
  let unprofiled =
    Experiment.run { base with profile = false }
  in
  Alcotest.(check (list string))
    "unprofiled run has no flame" []
    (Result_json.flame_lines unprofiled)

(* Heat rows are capped, sorted by conflicts then touches, and carry
   owner names for live objects. *)
let test_heatmap_shape () =
  let r =
    Experiment.run { base with scheme = Experiment.stacktrack_default }
  in
  match r.heatmap with
  | None -> Alcotest.fail "profiled run returned no heatmap"
  | Some rows ->
      Alcotest.(check bool) "nonempty" true (rows <> []);
      Alcotest.(check bool) "top-N cap" true (List.length rows <= 16);
      let keys =
        List.map
          (fun (row : Experiment.heat_row) ->
            ( row.heat.St_htm.Tsx.conflicts,
              row.heat.St_htm.Tsx.touches ))
          rows
      in
      let sorted_desc =
        List.sort (fun a b -> compare b a) keys
      in
      Alcotest.(check bool) "sorted by contention" true (keys = sorted_desc);
      Alcotest.(check bool)
        "some rows resolve to owning objects" true
        (List.exists
           (fun (row : Experiment.heat_row) -> row.owner <> None)
           rows)

let () =
  Alcotest.run "profile"
    [
      ( "conservation",
        [
          quick "all schemes (list)" test_conservation_schemes;
          quick "queue + crashes" test_conservation_queue_and_crash;
          quick "oversubscribed lcores" test_conservation_oversubscribed;
        ] );
      ( "transparency",
        [
          quick "profile on/off same result" test_profile_transparency;
          quick "jobs=2 byte-identical" test_jobs_determinism;
        ] );
      ( "export",
        [
          quick "flame lines" test_flame_lines;
          quick "heatmap shape" test_heatmap_shape;
        ] );
    ]
