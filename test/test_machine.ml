(* Unit tests for the thread-context machinery: register rotation, frame
   locals, atomic expose snapshots, the splits/oper counters, and the
   activity array — plus qcheck properties over random load/expose
   sequences. *)

open St_machine

let checki = Alcotest.check Alcotest.int
let checkb = Alcotest.check Alcotest.bool

let exposed_list ctx =
  let acc = ref [] in
  Ctx.exposed_iter ctx (fun w -> acc := w :: !acc);
  List.rev !acc

let test_note_load_rotates () =
  let ctx = Ctx.create () in
  (* Load more values than registers: the oldest rotate out. *)
  for i = 1 to Ctx.n_registers + 5 do
    Ctx.note_load ctx (1000 + i)
  done;
  ignore (Ctx.expose ctx);
  let exposed = exposed_list ctx in
  checkb "recent load exposed" true
    (List.mem (1000 + Ctx.n_registers + 5) exposed);
  checkb "rotated-out load gone" false (List.mem 1001 exposed)

let test_locals_round_trip () =
  let ctx = Ctx.create () in
  Ctx.local_set ctx 0 42;
  Ctx.local_set ctx 7 99;
  checki "slot 0" 42 (Ctx.local_get ctx 0);
  checki "slot 7" 99 (Ctx.local_get ctx 7)

let test_expose_is_snapshot () =
  let ctx = Ctx.create () in
  Ctx.local_set ctx 0 11;
  let n = Ctx.expose ctx in
  checkb "word count includes frame" true (n >= Ctx.n_registers + 1);
  (* Mutating the working state does not change the exposed snapshot. *)
  Ctx.local_set ctx 0 22;
  Ctx.note_load ctx 33;
  checkb "snapshot stable" true (List.mem 11 (exposed_list ctx));
  checkb "working change invisible" false (List.mem 22 (exposed_list ctx))

let test_splits_and_oper_counters () =
  let ctx = Ctx.create () in
  checki "splits start 0" 0 (Ctx.splits ctx);
  ignore (Ctx.expose ctx);
  ignore (Ctx.expose ctx);
  checki "splits count exposes" 2 (Ctx.splits ctx);
  Ctx.begin_operation ctx ~op_id:3;
  checkb "active" true (Ctx.op_active ctx);
  checki "op id" 3 (Ctx.op_id ctx);
  Ctx.end_operation ctx;
  checkb "inactive" false (Ctx.op_active ctx);
  checki "oper counter" 1 (Ctx.oper_counter ctx)

let test_begin_clears_working () =
  let ctx = Ctx.create () in
  Ctx.local_set ctx 3 77;
  Ctx.note_load ctx 88;
  Ctx.begin_operation ctx ~op_id:1;
  checki "frame cleared" 0 (Ctx.local_get ctx 3);
  ignore (Ctx.expose ctx);
  checkb "registers cleared" false (List.mem 88 (exposed_list ctx))

(* The registration order of an 8-thread run on 4 cores x 2 SMT, then tid
   4 again with a new record: the three visit orders, and the replaced
   record in each. *)
let test_activity_register () =
  let a = Activity.create () in
  List.iter
    (fun tid -> Activity.register a ~tid (tid, 0))
    [ 0; 4; 1; 5; 2; 6; 3; 7 ];
  Activity.register a ~tid:4 (4, 1);
  checki "count" 8 (Activity.count a);
  checkb "get 4" true (Activity.get a ~tid:4 = Some (4, 1));
  checkb "get 8" true (Activity.get a ~tid:8 = None);
  let visit iter =
    let seen = ref [] in
    iter (fun r -> seen := r :: !seen);
    List.rev !seen
  in
  let records = Alcotest.(list (pair int int)) in
  Alcotest.check records "ascending tid"
    (List.init 8 (fun tid -> (tid, if tid = 4 then 1 else 0)))
    (visit (Activity.iter a));
  Alcotest.check Alcotest.(list int) "newest first" [ 7; 3; 6; 2; 5; 1; 4; 0 ]
    (List.map fst (visit (Activity.iter_newest a)));
  Alcotest.check Alcotest.(list int) "by index" [ 0; 4; 1; 5; 2; 6; 3; 7 ]
    (List.init 8 (fun i -> fst (Activity.nth a i)))

(* Property: after any sequence of loads and frame writes followed by an
   expose, every frame-local value written to a slot is present in the
   exposed snapshot. *)
let prop_expose_covers_locals =
  QCheck.Test.make ~name:"expose covers all frame locals" ~count:200
    QCheck.(list_of_size (QCheck.Gen.int_bound 20) (pair (int_bound 63) small_int))
    (fun writes ->
      let ctx = Ctx.create () in
      List.iter (fun (slot, v) -> Ctx.local_set ctx slot (v + 1)) writes;
      ignore (Ctx.expose ctx);
      let exposed = exposed_list ctx in
      List.for_all (fun (slot, _) ->
          List.mem (Ctx.local_get ctx slot) exposed)
        writes)

(* Property: the last min(n, n_registers) loads are all exposed. *)
let prop_expose_covers_recent_loads =
  QCheck.Test.make ~name:"expose covers recent loads" ~count:200
    QCheck.(small_list small_int)
    (fun loads ->
      let ctx = Ctx.create () in
      List.iteri (fun i _ -> Ctx.note_load ctx (i + 1)) loads;
      ignore (Ctx.expose ctx);
      let exposed = exposed_list ctx in
      let n = List.length loads in
      let recent =
        List.init (min n Ctx.n_registers) (fun i -> n - i)
      in
      List.for_all (fun v -> List.mem v exposed) recent)

let () =
  Alcotest.run "st_machine"
    [
      ( "ctx",
        [
          Alcotest.test_case "register rotation" `Quick test_note_load_rotates;
          Alcotest.test_case "locals" `Quick test_locals_round_trip;
          Alcotest.test_case "expose snapshot" `Quick test_expose_is_snapshot;
          Alcotest.test_case "counters" `Quick test_splits_and_oper_counters;
          Alcotest.test_case "begin clears" `Quick test_begin_clears_working;
        ] );
      ( "activity",
        [ Alcotest.test_case "register/iter" `Quick test_activity_register ] );
      ( "props",
        [
          QCheck_alcotest.to_alcotest prop_expose_covers_locals;
          QCheck_alcotest.to_alcotest prop_expose_covers_recent_loads;
        ] );
    ]
