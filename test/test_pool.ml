(* Tests for the parallel experiment driver.

   Two layers: the Pool itself (ordered collection, exception propagation,
   the in-domain jobs=1 fallback), and the property the whole PR rests on —
   experiment points are domain-safe and seed-deterministic, so a parallel
   sweep produces byte-identical artifacts to the sequential one. *)

open St_harness

let checki = Alcotest.check Alcotest.int
let checkb = Alcotest.check Alcotest.bool
let checks = Alcotest.check Alcotest.string

(* ------------------------------------------------------------------ *)
(* Pool mechanics                                                      *)
(* ------------------------------------------------------------------ *)

let test_empty_and_singleton () =
  Alcotest.(check (list int)) "empty" [] (Pool.run ~jobs:4 []);
  Alcotest.(check (list int)) "singleton" [ 7 ] (Pool.run ~jobs:4 [ (fun () -> 7) ]);
  Alcotest.(check (list int)) "jobs=0 resolves" [ 1; 2 ]
    (Pool.run ~jobs:0 [ (fun () -> 1); (fun () -> 2) ])

(* Task 0 cannot finish until task 3 has: completion order is forced to be
   out of submission order, and the result list must still be [0;1;2;3]. *)
let test_ordered_under_out_of_order_completion () =
  let last_done = Atomic.make false in
  let tasks =
    [
      (fun () ->
        while not (Atomic.get last_done) do
          Domain.cpu_relax ()
        done;
        0);
      (fun () -> 1);
      (fun () -> 2);
      (fun () ->
        Atomic.set last_done true;
        3);
    ]
  in
  Alcotest.(check (list int)) "submission order" [ 0; 1; 2; 3 ]
    (Pool.run ~jobs:4 tasks)

exception Boom of int

let test_exception_propagates () =
  Alcotest.check_raises "worker exception reraised" (Boom 2) (fun () ->
      ignore
        (Pool.run ~jobs:2
           [ (fun () -> 0); (fun () -> 1); (fun () -> raise (Boom 2)); (fun () -> 3) ]))

(* Several failures: the earliest by submission order wins, regardless of
   which domain hit its exception first. *)
let test_first_exception_by_submission_order () =
  Alcotest.check_raises "earliest submission wins" (Boom 1) (fun () ->
      ignore
        (Pool.run ~jobs:4
           [
             (fun () -> 0);
             (fun () ->
               (* Give the later failing task a head start. *)
               for _ = 1 to 10_000 do
                 Domain.cpu_relax ()
               done;
               raise (Boom 1));
             (fun () -> raise (Boom 2));
             (fun () -> 3);
           ]))

let test_jobs1_runs_in_calling_domain () =
  let self = Domain.self () in
  let r =
    Pool.run ~jobs:1
      [ (fun () -> Domain.self () = self); (fun () -> Domain.self () = self) ]
  in
  checkb "no domain spawned for jobs=1" true (List.for_all Fun.id r)

let test_jobs1_exception_propagates () =
  Alcotest.check_raises "in-domain path raises too" (Boom 9) (fun () ->
      ignore (Pool.run ~jobs:1 [ (fun () -> raise (Boom 9)) ]))

let test_negative_jobs_rejected () =
  Alcotest.check_raises "negative jobs" (Invalid_argument "Pool.run: jobs must be >= 0")
    (fun () -> ignore (Pool.run ~jobs:(-1) [ (fun () -> ()) ]))

let test_more_tasks_than_jobs () =
  let n = 23 in
  Alcotest.(check (list int)) "all tasks run, in order"
    (List.init n (fun i -> i * i))
    (Pool.run ~jobs:3 (List.init n (fun i () -> i * i)))

(* ------------------------------------------------------------------ *)
(* Parallel-vs-sequential experiment goldens                           *)
(* ------------------------------------------------------------------ *)

let small_cfg ?(scheme = Experiment.stacktrack_default)
    ?(structure = Experiment.List_s) seed =
  {
    Experiment.default_config with
    structure;
    scheme;
    threads = 4;
    duration = 120_000;
    key_range = 64;
    init_size = 32;
    mutation_pct = 40;
    seed;
  }

(* The audit test: two simulations in two concurrent domains, each checked
   byte-for-byte against its own sequential golden.  Anything reachable
   from Experiment.run that touched domain-shared mutable state (a global
   tally, a shared trace, a shared RNG) would make one of the JSON
   encodings diverge. *)
let test_two_domains_match_sequential_goldens () =
  let c1 = small_cfg 11
  and c2 =
    small_cfg ~scheme:Experiment.Hazards ~structure:Experiment.Queue_s 22
  in
  let golden1 = Result_json.to_string (Experiment.run c1) in
  let golden2 = Result_json.to_string (Experiment.run c2) in
  let d1 = Domain.spawn (fun () -> Result_json.to_string (Experiment.run c1)) in
  let d2 = Domain.spawn (fun () -> Result_json.to_string (Experiment.run c2)) in
  let r1 = Domain.join d1 and r2 = Domain.join d2 in
  checks "domain 1 matches sequential golden" golden1 r1;
  checks "domain 2 matches sequential golden" golden2 r2

(* A/B golden over a mixed bag of points (schemes x structures x seeds),
   run through the pool both ways. *)
let test_pool_vs_sequential_byte_identical () =
  let cfgs =
    [
      small_cfg 1;
      small_cfg ~scheme:Experiment.Epoch 2;
      small_cfg ~scheme:Experiment.Hazards ~structure:Experiment.Skiplist_s 3;
      small_cfg ~scheme:Experiment.Original ~structure:Experiment.Hash_s 4;
      small_cfg ~scheme:Experiment.Dta 5;
      small_cfg ~structure:Experiment.Queue_s 6;
    ]
  in
  let tasks = List.map (fun cfg () -> Experiment.run cfg) cfgs in
  let seq = Pool.run ~jobs:1 tasks in
  let par = Pool.run ~jobs:4 tasks in
  checki "same cardinality" (List.length seq) (List.length par);
  List.iteri
    (fun i (a, b) ->
      checks
        (Printf.sprintf "point %d byte-identical" i)
        (Result_json.to_string a) (Result_json.to_string b))
    (List.combine seq par)

(* Figure-level A/B: the restructured sweep driver itself (enumerate, pool,
   ordered report) returns identical results for jobs=1 and jobs=2. *)
let test_sweep_jobs_invariant () =
  let base =
    {
      Experiment.default_config with
      duration = 60_000;
      key_range = 64;
      init_size = 32;
    }
  in
  let schemes = [ Experiment.Epoch; Experiment.stacktrack_default ] in
  let fig =
    {
      Figures.name = "sweep";
      configs =
        (fun _ ->
          List.map
            (fun t ->
              (t, List.map (fun scheme -> { base with scheme; threads = t }) schemes))
            [ 1; 2; 4; 6; 8; 12; 16 ]);
      tables = [];
      notes = ignore;
    }
  in
  let sweep jobs = Figures.run ~jobs ~speed:Figures.Quick fig in
  let enc rows =
    String.concat "\n"
      (List.concat_map
         (fun (t, rs) ->
           List.map
             (fun r -> Printf.sprintf "t=%d %s" t (Result_json.to_string r))
             rs)
         rows)
  in
  checks "jobs=2 sweep identical to jobs=1" (enc (sweep 1)) (enc (sweep 2))

let () =
  Alcotest.run "st_pool"
    [
      ( "pool",
        [
          Alcotest.test_case "empty/singleton/jobs=0" `Quick
            test_empty_and_singleton;
          Alcotest.test_case "ordered under out-of-order completion" `Quick
            test_ordered_under_out_of_order_completion;
          Alcotest.test_case "exception propagates" `Quick
            test_exception_propagates;
          Alcotest.test_case "first exception by submission order" `Quick
            test_first_exception_by_submission_order;
          Alcotest.test_case "jobs=1 stays in-domain" `Quick
            test_jobs1_runs_in_calling_domain;
          Alcotest.test_case "jobs=1 exception" `Quick
            test_jobs1_exception_propagates;
          Alcotest.test_case "negative jobs rejected" `Quick
            test_negative_jobs_rejected;
          Alcotest.test_case "more tasks than jobs" `Quick
            test_more_tasks_than_jobs;
        ] );
      ( "parallel goldens",
        [
          Alcotest.test_case "two domains vs sequential goldens" `Quick
            test_two_domains_match_sequential_goldens;
          Alcotest.test_case "pool vs sequential byte-identical" `Slow
            test_pool_vs_sequential_byte_identical;
          Alcotest.test_case "sweep jobs-invariant" `Slow
            test_sweep_jobs_invariant;
        ] );
    ]
