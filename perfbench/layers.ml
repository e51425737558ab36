(* Per-layer fixtures.  Each drives one layer of the simulator through its
   own public API on a small synthetic world (scheduler + heap + HTM
   manager, built the way test/test_htm.ml builds one), so that a host-time
   regression can be pinned on the layer it came from.  Nothing is
   instrumented inside the library: every number is host time around calls
   made from here.

   A fixture is one batch returning host nanoseconds per call; [measure]
   runs one warm-up batch and reports the median of five more, at reference
   speed (see Reference).  The
   set-up pieces instead time the four calls Experiment.run makes to build
   and tear down a workload's structure, at that workload's own sizes, so
   that with the residue they add up to its set-up time. *)

open St_sim
open St_mem
open St_htm
open St_reclaim
module Engine = Stacktrack.Engine

let time f =
  let t0 = Unix.gettimeofday () in
  let x = f () in
  (x, Unix.gettimeofday () -. t0)

let ns ~calls seconds = seconds *. 1e9 /. float calls

(* Host ns per call of [loop], which makes [calls] calls. *)
let ns_per ~calls loop = ns ~calls (snd (time loop))

let world ?(cores = 4) ?(smt = 2) ?(quantum = 50_000) () =
  let sched =
    Sched.create ~topology:(Topology.create ~cores ~smt ()) ~quantum ~seed:7 ()
  in
  let heap = Heap.create ~shadow:(Shadow.create ()) () in
  (sched, heap, Tsx.create ~sched ~heap ())

(* Run [body] as the only simulated thread; return what it returns. *)
let in_thread sched body =
  let out = ref 0. in
  ignore (Sched.add_thread sched (fun tid -> out := body tid));
  Sched.run sched;
  !out

(* One-line objects: size 8 words = one modelled cache line. *)
let lines heap n = Array.init n (fun _ -> Heap.alloc heap ~tid:0 ~size:8)

(* --- Sched --- *)

let consume_fast () =
  let sched, _, _ = world () in
  let calls = 2_000_000 in
  in_thread sched (fun _ ->
      ns_per ~calls (fun () ->
          for _ = 1 to calls do
            Sched.consume sched 1
          done))

(* Two threads on one logical core with a one-cycle quantum: every consume
   preempts and switches to the other thread. *)
let consume_switch () =
  let sched, _, _ = world ~cores:1 ~smt:1 ~quantum:1 () in
  let per_thread = 100_000 in
  let body _ =
    for _ = 1 to per_thread do
      Sched.consume sched 1
    done
  in
  ignore (Sched.add_thread sched body);
  ignore (Sched.add_thread sched body);
  ns_per ~calls:(2 * per_thread) (fun () -> Sched.run sched)

(* --- Tsx --- *)

(* [rounds] transactions of [per_txn] calls of [access i]; ns per call, with
   start and commit amortised over the calls. *)
let in_txn ~rounds ~per_txn access () =
  let sched, heap, tsx = world () in
  let a = lines heap 64 in
  in_thread sched (fun _ ->
      ns_per ~calls:(rounds * per_txn) (fun () ->
          for _ = 1 to rounds do
            try
              Tsx.start tsx;
              for i = 0 to per_txn - 1 do
                access tsx a i
              done;
              Tsx.commit tsx
            with Tsx.Abort _ -> ()
          done))

let txn_read = in_txn ~rounds:5_000 ~per_txn:64 (fun tsx a i ->
    ignore (Tsx.read tsx a.(i)))

let txn_read_same_line = in_txn ~rounds:5_000 ~per_txn:64 (fun tsx a i ->
    ignore (Tsx.read tsx (a.(0) + (i land 7))))

let txn_write = in_txn ~rounds:5_000 ~per_txn:64 (fun tsx a i ->
    Tsx.write tsx a.(i) i)

(* A minimal transaction: start, one write, commit. *)
let commit = in_txn ~rounds:100_000 ~per_txn:1 (fun tsx a i ->
    Tsx.write tsx a.(0) i)

(* Eight readers hold one line in live transactions while a ninth thread
   stores to it non-transactionally; ns of the dooming stores per
   transaction doomed, counted at the doom site by the conflict tally. *)
let doom_walk () =
  let sched, heap, tsx = world ~cores:8 ~smt:2 () in
  let a = Heap.alloc heap ~tid:0 ~size:8 in
  let line = a lsr (Tsx.cache tsx).Cache.line_shift in
  let tally () =
    Option.value ~default:0 (Hashtbl.find_opt (Tsx.conflict_tally tsx) line)
  in
  let rounds = 2_000 in
  for _ = 1 to 8 do
    ignore
      (Sched.add_thread sched (fun _ ->
           for _ = 1 to rounds do
             try
               Tsx.start tsx;
               ignore (Tsx.read tsx a);
               Sched.consume sched 10_000;
               Tsx.commit tsx
             with Tsx.Abort _ -> ()
           done))
  done;
  let spent = ref 0. and dooms = ref 0 in
  ignore
    (Sched.add_thread sched (fun _ ->
         for i = 1 to rounds do
           Sched.consume sched 10_000;
           let before = tally () in
           let (), dt = time (fun () -> Tsx.nt_write tsx a i) in
           let doomed = tally () - before in
           if doomed > 0 then begin
             spent := !spent +. dt;
             dooms := !dooms + doomed
           end
         done));
  Sched.run sched;
  ns ~calls:(max 1 !dooms) !spent

let non_txn op () =
  let sched, heap, tsx = world () in
  let a = lines heap 64 in
  let calls = 200_000 in
  in_thread sched (fun _ ->
      ns_per ~calls (fun () ->
          for i = 1 to calls do
            op tsx a i
          done))

let nt_read = non_txn (fun tsx a i -> ignore (Tsx.nt_read tsx a.(i land 63)))

let nt_cas =
  non_txn (fun tsx a i -> ignore (Tsx.nt_cas tsx a.(0) ~expect:(i - 1) i))

let fence = non_txn (fun tsx _ _ -> Tsx.fence tsx)

(* --- Heap (charges no cycles, so no simulated thread is needed) --- *)

let fresh_heap () = Heap.create ~shadow:(Shadow.create ()) ()

(* Steady state: the quarantine is full, so every alloc pops a free list. *)
let alloc_free () =
  let heap = fresh_heap () in
  let cycle () = Heap.free heap ~tid:0 (Heap.alloc heap ~tid:0 ~size:4) in
  for _ = 1 to 1_000 do
    cycle ()
  done;
  let calls = 500_000 in
  ns_per ~calls (fun () ->
      for _ = 1 to calls do
        cycle ()
      done)

let owner_of () =
  let heap = fresh_heap () in
  let a = lines heap 1024 in
  let calls = 1_000_000 in
  ns_per ~calls (fun () ->
      for i = 1 to calls do
        ignore (Heap.owner_of heap (a.(i land 1023) + (i land 7)))
      done)

(* 10^6 fresh allocations from an empty heap, across chunk growth. *)
let alloc_grow () =
  let heap = fresh_heap () in
  let calls = 1_000_000 in
  ns_per ~calls (fun () ->
      for _ = 1 to calls do
        ignore (Heap.alloc heap ~tid:0 ~size:4)
      done)

(* --- StackTrack engine and hazard pointers, through Guard.S --- *)

let engine_world ?cfg () =
  let sched, heap, tsx = world () in
  (sched, heap, Engine.create ?cfg (Guard.make_runtime ~sched ~tsx))

let read_body obj n env =
  let s = ref 0 in
  for i = 0 to n - 1 do
    s := !s + Engine.read env (obj + i)
  done;
  !s

(* Host seconds of [ops] operations running [body]. *)
let engine_ops ~ops body th =
  snd
    (time (fun () ->
         for _ = 1 to ops do
           ignore (Engine.run_op th ~op_id:0 body)
         done))

let engine_op () =
  let sched, heap, e = engine_world () in
  let obj = Heap.alloc heap ~tid:0 ~size:64 in
  let ops = 20_000 in
  in_thread sched (fun tid ->
      ns ~calls:ops
        (engine_ops ~ops (read_body obj 1) (Engine.create_thread e ~tid)))

(* The marginal cost of a read: a 64-read body against a 1-read body. *)
let engine_read () =
  let sched, heap, e = engine_world () in
  let obj = Heap.alloc heap ~tid:0 ~size:64 in
  let ops = 5_000 in
  in_thread sched (fun tid ->
      let th = Engine.create_thread e ~tid in
      let one = engine_ops ~ops (read_body obj 1) th in
      let many = engine_ops ~ops (read_body obj 64) th in
      ns ~calls:(63 * ops) (many -. one))

(* [max_free = 1]: every retirement runs a scan and frees the node. *)
let engine_retire_scan () =
  let sched, _, e =
    engine_world ~cfg:{ Stacktrack.St_config.default with max_free = 1 } ()
  in
  let ops = 10_000 in
  in_thread sched (fun tid ->
      ns ~calls:ops
        (engine_ops ~ops
           (fun env -> Engine.retire env (Engine.alloc env ~size:4))
           (Engine.create_thread e ~tid)))

let hazard_ops ~ops ~calls_per_op body =
  let sched, heap, tsx = world () in
  let h = Hazard.create (Guard.make_runtime ~sched ~tsx) in
  let cell = Heap.alloc heap ~tid:0 ~size:8 in
  Heap.write heap ~tid:0 cell (Heap.alloc heap ~tid:0 ~size:8);
  in_thread sched (fun tid ->
      let th = Hazard.create_thread h ~tid in
      ns_per ~calls:(ops * calls_per_op) (fun () ->
          for _ = 1 to ops do
            Hazard.run_op th ~op_id:0 (body cell)
          done))

let hazard_protected_read () =
  hazard_ops ~ops:5_000 ~calls_per_op:64 (fun cell env ->
      for i = 0 to 63 do
        ignore (Hazard.protected_read env ~slot:(i land 1) cell)
      done)

let hazard_retire () =
  hazard_ops ~ops:20_000 ~calls_per_op:1 (fun _ env ->
      Hazard.retire env (Hazard.alloc env ~size:4))

(* --- Workload --- *)

let next_set_op () =
  let g =
    St_workload.Workload.set_gen
      (St_workload.Workload.set_profile ~key_range:1024 ~mutation_pct:20 ())
      (Rng.create ~seed:1)
  in
  let calls = 1_000_000 in
  ns_per ~calls (fun () ->
      for _ = 1 to calls do
        ignore (St_workload.Workload.next_set_op g)
      done)

let fixtures =
  [
    ("sched.consume_fast_ns", consume_fast);
    ("sched.consume_switch_ns", consume_switch);
    ("tsx.txn_read_ns", txn_read);
    ("tsx.txn_read_same_line_ns", txn_read_same_line);
    ("tsx.commit_ns", commit);
    ("tsx.txn_write_ns", txn_write);
    ("tsx.doom_walk_ns", doom_walk);
    ("tsx.nt_read_ns", nt_read);
    ("tsx.nt_cas_ns", nt_cas);
    ("tsx.fence_ns", fence);
    ("heap.alloc_free_ns", alloc_free);
    ("heap.owner_of_ns", owner_of);
    ("heap.alloc_grow_ns", alloc_grow);
    ("engine.op_ns", engine_op);
    ("engine.read_ns", engine_read);
    ("engine.retire_scan_ns", engine_retire_scan);
    ("hazard.protected_read_ns", hazard_protected_read);
    ("hazard.retire_ns", hazard_retire);
    ("workload.next_set_op_ns", next_set_op);
  ]

let batches = 5

(* Like the benchmark's runs, every batch starts from a collected heap, and
   its time is reported at reference speed. *)
let batch f x =
  Reference.refresh ();
  Gc.full_major ();
  f x

let of_batches f =
  ignore (batch f ());
  Reference.median (List.init batches (fun _ -> Reference.scale (batch f ())))

let measure () = List.map (fun (name, f) -> (name, of_batches f)) fixtures

(* --- Set-up pieces --- *)

let setup_names =
  [
    "setup.initial_keys_ms";
    "setup.create_raw_ms";
    "setup.populate_raw_ms";
    "setup.to_list_raw_ms";
  ]

(* One set-up of [cfg]'s structure, as Experiment.run performs it: ms per
   piece, in [setup_names] order. *)
let setup_batch (cfg : St_harness.Experiment.config) =
  let open St_dslib in
  let ms s = s *. 1e3 in
  let keys, t_keys =
    time (fun () ->
        St_workload.Workload.initial_keys
          ~rng:(Rng.create ~seed:(cfg.seed lxor 0x5EED))
          ~key_range:cfg.key_range ~size:cfg.init_size)
  in
  let heap = Heap.create ~initial_words:(1 lsl 18) ~shadow:(Shadow.create ()) () in
  let pieces create populate to_list =
    let t, t_create = time (fun () -> create heap) in
    let (), t_populate = time (fun () -> populate heap t) in
    let _, t_to_list = time (fun () -> to_list heap t) in
    List.map ms [ t_keys; t_create; t_populate; t_to_list ]
  in
  match cfg.structure with
  | St_harness.Experiment.List_s ->
      pieces Harris_list.create_raw
        (fun h t -> Harris_list.populate_raw h t ~keys ~note_link:ignore)
        Harris_list.to_list_raw
  | St_harness.Experiment.Hash_s ->
      pieces
        (fun h -> Hash_table.create_raw h ~n_buckets:cfg.n_buckets)
        (fun h t -> Hash_table.populate_raw h t ~keys ~note_link:ignore)
        Hash_table.to_list_raw
  | St_harness.Experiment.Queue_s ->
      pieces Ms_queue.create_raw
        (fun h t ->
          Ms_queue.populate_raw h t
            ~values:(List.init cfg.init_size Fun.id)
            ~note_link:ignore)
        Ms_queue.to_list_raw
  | St_harness.Experiment.Skiplist_s ->
      invalid_arg "Layers.setup_batch: no skiplist workload"

(* Median per piece over the batches, after one warm-up batch. *)
let setup_pieces cfg =
  ignore (batch setup_batch cfg);
  let runs =
    List.init batches (fun _ -> List.map Reference.scale (batch setup_batch cfg))
  in
  List.mapi
    (fun i name -> (name, Reference.median (List.map (fun r -> List.nth r i) runs)))
    setup_names
