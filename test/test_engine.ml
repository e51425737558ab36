(* Unit tests for the StackTrack engine: split-length predictor rules,
   segment splitting and commit accounting, abort -> replay semantics
   (including allocation rollback and single-retire), the forced slow path,
   and the free/scan visibility protocol. *)

open St_sim
open St_mem
open St_htm
open St_reclaim
open Stacktrack

let checki = Alcotest.check Alcotest.int
let checkb = Alcotest.check Alcotest.bool

(* ------------------------------------------------------------------ *)
(* Predictor                                                           *)
(* ------------------------------------------------------------------ *)

let test_predictor_initial () =
  let p = Predictor.create St_config.default in
  checki "initial" 50 (Predictor.limit p ~op_id:1 ~split:0)

let test_predictor_decrease_after_5_aborts () =
  let p = Predictor.create St_config.default in
  for _ = 1 to 4 do
    Predictor.on_abort p ~op_id:1 ~split:0
  done;
  checki "not yet" 50 (Predictor.limit p ~op_id:1 ~split:0);
  Predictor.on_abort p ~op_id:1 ~split:0;
  checki "after 5" 49 (Predictor.limit p ~op_id:1 ~split:0)

let test_predictor_increase_after_5_commits () =
  let p = Predictor.create St_config.default in
  for _ = 1 to 5 do
    Predictor.on_commit p ~op_id:1 ~split:0
  done;
  checki "after 5 commits" 51 (Predictor.limit p ~op_id:1 ~split:0)

let test_predictor_mixed_resets_run () =
  let p = Predictor.create St_config.default in
  for _ = 1 to 4 do
    Predictor.on_abort p ~op_id:1 ~split:0
  done;
  Predictor.on_commit p ~op_id:1 ~split:0;
  (* The abort run was broken; 4 more aborts are not enough. *)
  for _ = 1 to 4 do
    Predictor.on_abort p ~op_id:1 ~split:0
  done;
  checki "run was reset" 50 (Predictor.limit p ~op_id:1 ~split:0)

let test_predictor_clamps () =
  let cfg = { St_config.default with initial_limit = 2; min_limit = 1 } in
  let p = Predictor.create cfg in
  for _ = 1 to 100 do
    Predictor.on_abort p ~op_id:1 ~split:0
  done;
  checki "floor" 1 (Predictor.limit p ~op_id:1 ~split:0);
  let cfg = { St_config.default with initial_limit = 399; max_limit = 400 } in
  let p = Predictor.create cfg in
  for _ = 1 to 100 do
    Predictor.on_commit p ~op_id:1 ~split:0
  done;
  checki "ceiling" 400 (Predictor.limit p ~op_id:1 ~split:0)

let test_predictor_per_segment () =
  let p = Predictor.create St_config.default in
  for _ = 1 to 5 do
    Predictor.on_abort p ~op_id:1 ~split:0
  done;
  checki "segment (1,0) shrunk" 49 (Predictor.limit p ~op_id:1 ~split:0);
  checki "segment (1,1) untouched" 50 (Predictor.limit p ~op_id:1 ~split:1);
  checki "segment (2,0) untouched" 50 (Predictor.limit p ~op_id:2 ~split:0);
  checki "two segments tracked" 3 (Predictor.segments_tracked p)

(* Reference model: the predictor as a hash table keyed by (op_id, split),
   one cell per segment seen.  The dense table must agree with it on every
   limit, the tracked count, the set of segments [iter] visits and every
   [on_adjust] call. *)
module Ref_predictor = struct
  type cell = { mutable limit : int; mutable consec : int }

  type t = {
    cfg : St_config.t;
    cells : (int * int, cell) Hashtbl.t;
    adjusts : (int * int * int * int * bool) list ref;
  }

  let create cfg = { cfg; cells = Hashtbl.create 64; adjusts = ref [] }

  let cell t ~op_id ~split =
    match Hashtbl.find_opt t.cells (op_id, split) with
    | Some c -> c
    | None ->
        let c = { limit = t.cfg.St_config.initial_limit; consec = 0 } in
        Hashtbl.add t.cells (op_id, split) c;
        c

  let limit t ~op_id ~split = (cell t ~op_id ~split).limit

  let adjust t ~op_id ~split c limit ~grow =
    let old_limit = c.limit in
    c.limit <- limit;
    c.consec <- 0;
    if limit <> old_limit then
      t.adjusts := (op_id, split, old_limit, limit, grow) :: !(t.adjusts)

  let on_commit t ~op_id ~split =
    let c = cell t ~op_id ~split in
    c.consec <- (if c.consec > 0 then c.consec + 1 else 1);
    if c.consec >= t.cfg.St_config.consec_threshold then
      adjust t ~op_id ~split c ~grow:true
        (min t.cfg.St_config.max_limit (c.limit + 1))

  let on_abort t ~op_id ~split =
    let c = cell t ~op_id ~split in
    c.consec <- (if c.consec < 0 then c.consec - 1 else -1);
    if -c.consec >= t.cfg.St_config.consec_threshold then
      adjust t ~op_id ~split c ~grow:false
        (max t.cfg.St_config.min_limit (c.limit - 1))

  let rows t =
    List.sort compare
      (Hashtbl.fold (fun (o, s) c acc -> (o, s, c.limit) :: acc) t.cells [])
end

(* Random (op_id, split, commit | abort) steps on a few hot segments, so
   runs cross the threshold, plus sparse ones with splits past 4095 and
   op ids past the first row block, under a random threshold and limit
   range narrow enough to hit both clamps. *)
let prop_predictor_matches_reference =
  let open QCheck.Gen in
  let step =
    triple
      (frequency [ (6, int_bound 3); (1, int_bound 70) ])
      (frequency
         [ (6, int_bound 3); (2, int_range 4094 4097); (1, int_bound 20_000) ])
      bool
  in
  let cfg =
    map
      (fun (threshold, (lo, span, init)) ->
        {
          St_config.default with
          consec_threshold = threshold;
          min_limit = lo;
          max_limit = lo + span;
          initial_limit = lo + min span init;
        })
      (pair (int_range 1 4)
         (triple (int_range 1 3) (int_bound 4) (int_bound 4)))
  in
  QCheck.Test.make ~name:"dense predictor = hash-table reference" ~count:300
    (QCheck.make (pair cfg (list_size (int_bound 400) step)))
    (fun (cfg, steps) ->
      let adjusts = ref [] in
      let p =
        Predictor.create cfg ~on_adjust:(fun ~op_id ~split ~old_limit ~limit
                                               ~grow ->
            adjusts := (op_id, split, old_limit, limit, grow) :: !adjusts)
      in
      let r = Ref_predictor.create cfg in
      List.iter
        (fun (op_id, split, commit) ->
          if commit then begin
            Predictor.on_commit p ~op_id ~split;
            Ref_predictor.on_commit r ~op_id ~split
          end
          else begin
            Predictor.on_abort p ~op_id ~split;
            Ref_predictor.on_abort r ~op_id ~split
          end;
          let l = Predictor.limit p ~op_id ~split
          and l' = Ref_predictor.limit r ~op_id ~split in
          if l <> l' then
            QCheck.Test.fail_reportf "limit (%d, %d): %d, reference %d" op_id
              split l l')
        steps;
      let rows = ref [] in
      Predictor.iter p (fun ~op_id ~split ~limit ->
          rows := (op_id, split, limit) :: !rows);
      Predictor.segments_tracked p = Hashtbl.length r.Ref_predictor.cells
      && List.sort compare !rows = Ref_predictor.rows r
      && !adjusts = !(r.Ref_predictor.adjusts))

let test_predictor_negative_segment () =
  let p = Predictor.create St_config.default in
  List.iter
    (fun (op_id, split) ->
      match Predictor.limit p ~op_id ~split with
      | _ -> Alcotest.failf "segment (%d, %d) accepted" op_id split
      | exception Invalid_argument _ -> ())
    [ (-1, 0); (0, -1) ];
  checki "nothing tracked" 0 (Predictor.segments_tracked p)

(* ------------------------------------------------------------------ *)
(* Engine worlds                                                       *)
(* ------------------------------------------------------------------ *)

let world ?(cfg = St_config.default) ?(quantum = 1_000_000) ?(cores = 4)
    ?(smt = 1) () =
  let sched =
    Sched.create ~topology:(Topology.create ~cores ~smt ()) ~quantum ~seed:11 ()
  in
  let heap = Heap.create ~shadow:(Shadow.create ()) () in
  (* Deterministic HTM: no random evictions in unit tests. *)
  let cache =
    Cache.create ~sibling_evict_denom:1_000_000 ~self_evict_denom:1_000_000 ()
  in
  let tsx = Tsx.create ~cache ~sched ~heap () in
  let rt = Guard.make_runtime ~sched ~tsx in
  let engine = Engine.create ~cfg rt in
  (sched, heap, tsx, engine)

(* A chain of [n] single-word cells for scripted traversals. *)
let make_chain heap n =
  let cells = Array.init n (fun _ -> Heap.alloc heap ~tid:0 ~size:2) in
  Array.iteri
    (fun i a ->
      Heap.write heap ~tid:0 a i;
      Heap.write heap ~tid:0 (a + 1)
        (if i + 1 < n then cells.(i + 1) else Word.null))
    cells;
  cells

let test_segments_split_by_limit () =
  let cfg = { St_config.default with initial_limit = 10 } in
  let sched, heap, _tsx, engine = world ~cfg () in
  let cells = make_chain heap 60 in
  let _ =
    Sched.add_thread sched (fun tid ->
        let th = Engine.create_thread engine ~tid in
        Engine.run_op th ~op_id:1 (fun env ->
            (* 60 reads at limit 10 -> 6 segment boundaries. *)
            Array.iter (fun a -> ignore (Engine.read env a)) cells))
  in
  Sched.run sched;
  let st = Engine.scheme_stats engine in
  checki "ops" 1 st.Scheme_stats.ops;
  (* Steps are counted after each access, so 60 reads at limit 10 are
     exactly six full segments (the last one committed by its own
     checkpoint; the operation ends with no transaction open). *)
  checki "segments" 6 st.Scheme_stats.segments;
  checki "no replays" 0 st.Scheme_stats.replays

let test_oper_and_splits_counters () =
  let cfg = { St_config.default with initial_limit = 10 } in
  let sched, heap, _tsx, engine = world ~cfg () in
  let cells = make_chain heap 25 in
  let _ =
    Sched.add_thread sched (fun tid ->
        let th = Engine.create_thread engine ~tid in
        for _ = 1 to 3 do
          Engine.run_op th ~op_id:1 (fun env ->
              Array.iter (fun a -> ignore (Engine.read env a)) cells)
        done)
  in
  Sched.run sched;
  match Engine.context engine ~tid:0 with
  | None -> Alcotest.fail "no ctx registered"
  | Some ctx ->
      checki "three ops completed" 3 (St_machine.Ctx.oper_counter ctx);
      checkb "splits advanced" true (St_machine.Ctx.splits ctx >= 6)

let test_conflict_abort_replays_correctly () =
  (* Thread 0 reads a long chain; thread 1 overwrites an unrelated value in
     the chain's first cell mid-traversal, dooming thread 0's segment.
     After replay the operation must still complete exactly once with a
     consistent read count. *)
  let cfg = { St_config.default with initial_limit = 200 } in
  let sched, heap, tsx, engine = world ~cfg () in
  let cells = make_chain heap 40 in
  let sum = ref 0 and completions = ref 0 in
  let _ =
    Sched.add_thread sched (fun tid ->
        let th = Engine.create_thread engine ~tid in
        let r =
          Engine.run_op th ~op_id:1 (fun env ->
              let acc = ref 0 in
              Array.iter (fun a -> acc := !acc + Engine.read env a) cells;
              !acc)
        in
        sum := r;
        incr completions)
  in
  let _ =
    Sched.add_thread sched (fun _ ->
        Sched.consume sched 120;
        (* Same value write still dooms the reader's txn (line conflict). *)
        Tsx.nt_write tsx cells.(0) 0)
  in
  Sched.run sched;
  checki "completed once" 1 !completions;
  checki "sum of 0..39" (39 * 40 / 2) !sum;
  let st = Engine.scheme_stats engine in
  checkb "at least one replay" true (st.Scheme_stats.replays >= 1);
  checki "no violations" 0 (Shadow.count (Heap.shadow heap))

let test_alloc_rolled_back_on_abort () =
  (* An allocation inside an aborted segment must be returned to the heap
     (no leak from segment retries). *)
  let cfg = { St_config.default with initial_limit = 200 } in
  let sched, heap, tsx, engine = world ~cfg () in
  let cells = make_chain heap 30 in
  let live_before = Heap.live_objects heap in
  let _ =
    Sched.add_thread sched (fun tid ->
        let th = Engine.create_thread engine ~tid in
        ignore
          (Engine.run_op th ~op_id:1 (fun env ->
               let node = Engine.alloc env ~size:2 in
               Engine.write env node 1;
               Array.iter (fun a -> ignore (Engine.read env a)) cells;
               node)))
  in
  let _ =
    Sched.add_thread sched (fun _ ->
        Sched.consume sched 150;
        Tsx.nt_write tsx cells.(0) 0)
  in
  Sched.run sched;
  let st = Engine.scheme_stats engine in
  checkb "replayed" true (st.Scheme_stats.replays >= 1);
  (* Exactly one allocation survives (the one from the successful attempt);
     retried attempts' allocations were rolled back.  Note the replayed
     prefix reuses the logged allocation, so across N attempts exactly one
     block may remain live per commit boundary crossed. *)
  checki "exactly one net allocation" (live_before + 1)
    (Heap.live_objects heap);
  checki "no violations" 0 (Shadow.count (Heap.shadow heap))

let test_retire_exactly_once_across_replays () =
  let cfg = { St_config.default with initial_limit = 5; max_free = 1000 } in
  let sched, heap, tsx, engine = world ~cfg () in
  let cells = make_chain heap 40 in
  let victim = Heap.alloc heap ~tid:0 ~size:2 in
  let handle = ref None in
  let _ =
    Sched.add_thread sched (fun tid ->
        let th = Engine.create_thread engine ~tid in
        handle := Some th;
        Engine.run_op th ~op_id:1 (fun env ->
            (* Retire early, then traverse (with segment splits and a forced
               replay): the retire must not be re-executed. *)
            Engine.retire env victim;
            Array.iter (fun a -> ignore (Engine.read env a)) cells))
  in
  let _ =
    Sched.add_thread sched (fun _ ->
        (* Sweep stores across the whole chain so that whichever segment is
           active gets a line conflict (values are unchanged; the conflict
           is at line granularity). *)
        for round = 1 to 3 do
          ignore round;
          Sched.consume sched 120;
          for j = 0 to 9 do
            Tsx.nt_write tsx cells.(j * 4) (j * 4)
          done
        done)
  in
  Sched.run sched;
  checkb "a replay happened" true
    ((Engine.scheme_stats engine).Scheme_stats.replays >= 1);
  checki "retired exactly once" 1 (Engine.stats engine).Guard.retired;
  match !handle with
  | Some th -> checki "still buffered (batch not reached)" 1 (Engine.pending_frees th)
  | None -> Alcotest.fail "no handle"

let test_forced_slow_path () =
  let cfg = { St_config.default with forced_slow_pct = 100 } in
  let sched, heap, _tsx, engine = world ~cfg () in
  let cells = make_chain heap 20 in
  let _ =
    Sched.add_thread sched (fun tid ->
        let th = Engine.create_thread engine ~tid in
        for _ = 1 to 5 do
          Engine.run_op th ~op_id:1 (fun env ->
              Array.iter (fun a -> ignore (Engine.read env a)) cells)
        done)
  in
  Sched.run sched;
  let st = Engine.scheme_stats engine in
  checki "all ops slow" 5 st.Scheme_stats.slow_ops;
  checkb "slow reads recorded" true (st.Scheme_stats.slow_reads >= 100);
  checki "no fast ops" 0 st.Scheme_stats.fast_ops;
  checki "no violations" 0 (Shadow.count (Heap.shadow heap))

let test_scan_respects_exposed_pointer () =
  (* Thread 0 exposes a pointer to N (frame local, committed segment) and
     parks mid-operation.  Thread 1 retires N and scans: N must survive.
     After thread 0's operation completes, a second scan frees it. *)
  let cfg = { St_config.default with initial_limit = 2; max_free = 0 } in
  let sched, heap, _tsx, engine = world ~cfg () in
  let n = Heap.alloc heap ~tid:0 ~size:2 in
  let cells = make_chain heap 8 in
  let freed_while_held = ref true and freed_after = ref false in
  let _ =
    Sched.add_thread sched (fun tid ->
        let th = Engine.create_thread engine ~tid in
        Engine.run_op th ~op_id:1 (fun env ->
            Engine.local_set env 0 n;
            (* Force split commits so the local gets exposed. *)
            Array.iter (fun a -> ignore (Engine.read env a)) cells;
            (* Park long enough for the reclaimer to scan. *)
            Sched.consume sched 5_000))
  in
  let _ =
    Sched.add_thread sched (fun tid ->
        let th = Engine.create_thread engine ~tid in
        Sched.consume sched 1_000;
        Engine.run_op th ~op_id:2 (fun env -> Engine.retire env n);
        freed_while_held := not (Heap.is_allocated heap n);
        (* Wait for thread 0 to finish, then scan again. *)
        Sched.consume sched 50_000;
        Engine.quiesce th;
        freed_after := not (Heap.is_allocated heap n))
  in
  Sched.run sched;
  checkb "not freed while exposed" false !freed_while_held;
  checkb "freed after holder finished" true !freed_after;
  checki "no violations" 0 (Shadow.count (Heap.shadow heap))

(* The same, with thread 0 calling [create_thread] a second time and
   exposing N from the second thread record: the scan must read the
   latest registration's context, not the first one's. *)
let test_scan_sees_reregistered_thread () =
  let cfg = { St_config.default with initial_limit = 2; max_free = 0 } in
  let sched, heap, _tsx, engine = world ~cfg () in
  let n = Heap.alloc heap ~tid:0 ~size:2 in
  let cells = make_chain heap 8 in
  let freed_while_held = ref true in
  let _ =
    Sched.add_thread sched (fun tid ->
        ignore (Engine.create_thread engine ~tid);
        let th = Engine.create_thread engine ~tid in
        Engine.run_op th ~op_id:1 (fun env ->
            Engine.local_set env 0 n;
            Array.iter (fun a -> ignore (Engine.read env a)) cells;
            Sched.consume sched 5_000))
  in
  let _ =
    Sched.add_thread sched (fun tid ->
        let th = Engine.create_thread engine ~tid in
        Sched.consume sched 1_000;
        Engine.run_op th ~op_id:2 (fun env -> Engine.retire env n);
        freed_while_held := not (Heap.is_allocated heap n))
  in
  Sched.run sched;
  checkb "not freed while exposed" false !freed_while_held;
  checki "no violations" 0 (Shadow.count (Heap.shadow heap))

let test_atomic_region_no_split () =
  (* A user-defined transactional region (sec 5.5) must execute inside a
     single segment even when it is longer than the split limit. *)
  let cfg = { St_config.default with initial_limit = 4 } in
  let sched, heap, _tsx, engine = world ~cfg () in
  let cells = make_chain heap 30 in
  let _ =
    Sched.add_thread sched (fun tid ->
        let th = Engine.create_thread engine ~tid in
        Engine.run_op th ~op_id:1 (fun env ->
            Engine.atomic_region env (fun () ->
                Array.iter (fun a -> ignore (Engine.read env a)) cells)))
  in
  Sched.run sched;
  let st = Engine.scheme_stats engine in
  (* One commit at region end (with the mandatory expose) + possibly the
     final commit; never the ~8 splits the limit would have produced. *)
  checkb "region not split" true (st.Scheme_stats.segments <= 2)

let test_atomic_region_is_atomic () =
  (* Two increments of disjoint counters inside a region: a concurrent
     observer must never see one applied without the other. *)
  let cfg = { St_config.default with initial_limit = 1 } in
  let sched, heap, tsx, engine = world ~cfg () in
  let c1 = Heap.alloc heap ~tid:0 ~size:1 in
  let c2 = Heap.alloc heap ~tid:0 ~size:4 in
  let tear = ref false in
  let _ =
    Sched.add_thread sched (fun tid ->
        let th = Engine.create_thread engine ~tid in
        for _ = 1 to 20 do
          Engine.run_op th ~op_id:1 (fun env ->
              Engine.atomic_region env (fun () ->
                  let v1 = Engine.read env c1 in
                  Engine.write env c1 (v1 + 1);
                  let v2 = Engine.read env c2 in
                  Engine.write env c2 (v2 + 1)))
        done)
  in
  let _ =
    Sched.add_thread sched (fun _ ->
        for _ = 1 to 200 do
          let v1 = Tsx.nt_read tsx c1 in
          let v2 = Tsx.nt_read tsx c2 in
          (* v2 may lag v1 by the observer's own interleaving of the two
             reads, but only within one region's worth. *)
          if abs (v1 - v2) > 1 then tear := true;
          Sched.consume sched 37
        done)
  in
  Sched.run sched;
  checkb "no torn region" false !tear;
  checki "all increments applied" 20 (Heap.peek heap c1);
  checki "no violations" 0 (Shadow.count (Heap.shadow heap))

let test_deterministic_engine () =
  let run () =
    let cfg = { St_config.default with initial_limit = 7 } in
    let sched, heap, _tsx, engine = world ~cfg () in
    let cells = make_chain heap 50 in
    let acc = ref 0 in
    for w = 0 to 2 do
      ignore w;
      ignore
        (Sched.add_thread sched (fun tid ->
             let th = Engine.create_thread engine ~tid in
             for _ = 1 to 5 do
               Engine.run_op th ~op_id:1 (fun env ->
                   Array.iter (fun a -> ignore (Engine.read env a)) cells)
             done;
             acc := !acc + Sched.now sched))
    done;
    Sched.run sched;
    (!acc, (Engine.scheme_stats engine).Scheme_stats.segments)
  in
  let a = run () and b = run () in
  checkb "deterministic" true (a = b)

let () =
  Alcotest.run "stacktrack_engine"
    [
      ( "predictor",
        [
          Alcotest.test_case "initial" `Quick test_predictor_initial;
          Alcotest.test_case "decrease after 5 aborts" `Quick
            test_predictor_decrease_after_5_aborts;
          Alcotest.test_case "increase after 5 commits" `Quick
            test_predictor_increase_after_5_commits;
          Alcotest.test_case "mixed resets run" `Quick
            test_predictor_mixed_resets_run;
          Alcotest.test_case "clamps" `Quick test_predictor_clamps;
          Alcotest.test_case "per segment" `Quick test_predictor_per_segment;
          Alcotest.test_case "negative segment" `Quick
            test_predictor_negative_segment;
          QCheck_alcotest.to_alcotest prop_predictor_matches_reference;
        ] );
      ( "engine",
        [
          Alcotest.test_case "segments split by limit" `Quick
            test_segments_split_by_limit;
          Alcotest.test_case "counters" `Quick test_oper_and_splits_counters;
          Alcotest.test_case "conflict abort replays" `Quick
            test_conflict_abort_replays_correctly;
          Alcotest.test_case "alloc rollback" `Quick
            test_alloc_rolled_back_on_abort;
          Alcotest.test_case "retire exactly once" `Quick
            test_retire_exactly_once_across_replays;
          Alcotest.test_case "forced slow path" `Quick test_forced_slow_path;
          Alcotest.test_case "scan respects exposure" `Quick
            test_scan_respects_exposed_pointer;
          Alcotest.test_case "scan sees a re-registered thread" `Quick
            test_scan_sees_reregistered_thread;
          Alcotest.test_case "atomic region no split" `Quick
            test_atomic_region_no_split;
          Alcotest.test_case "atomic region atomicity" `Quick
            test_atomic_region_is_atomic;
          Alcotest.test_case "deterministic" `Quick test_deterministic_engine;
        ] );
    ]
