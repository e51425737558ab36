(* Tests for the workload generators: mix ratios, key distributions
   (uniform and zipfian), initial-key drawing (against the hash-table
   version it replaced), and the Ivec helper behind the heap free lists
   and the reclamation buffers. *)

open St_sim
open St_workload

let checki = Alcotest.check Alcotest.int
let checkb = Alcotest.check Alcotest.bool

let test_set_mix_ratio () =
  let profile = Workload.set_profile ~key_range:100 ~mutation_pct:30 () in
  let g = Workload.set_gen profile (Rng.create ~seed:4) in
  let muts = ref 0 and n = 20_000 in
  for _ = 1 to n do
    match Workload.next_set_op g with
    | Workload.Insert _ | Workload.Delete _ -> incr muts
    | Workload.Contains _ -> ()
  done;
  let ratio = float_of_int !muts /. float_of_int n in
  checkb "mutation ratio near 30%" true (ratio > 0.28 && ratio < 0.32)

let test_set_keys_in_range () =
  let profile = Workload.set_profile ~key_range:37 ~mutation_pct:50 () in
  let g = Workload.set_gen profile (Rng.create ~seed:5) in
  for _ = 1 to 5_000 do
    let k =
      match Workload.next_set_op g with
      | Workload.Insert k | Workload.Delete k | Workload.Contains k -> k
    in
    checkb "in range" true (k >= 0 && k < 37)
  done

let test_insert_delete_balance () =
  let profile = Workload.set_profile ~key_range:100 ~mutation_pct:100 () in
  let g = Workload.set_gen profile (Rng.create ~seed:6) in
  let ins = ref 0 and del = ref 0 in
  for _ = 1 to 10_000 do
    match Workload.next_set_op g with
    | Workload.Insert _ -> incr ins
    | Workload.Delete _ -> incr del
    | Workload.Contains _ -> ()
  done;
  checkb "inserts ~ deletes" true
    (abs (!ins - !del) < 1_000)

let test_zipf_skew () =
  let profile =
    Workload.set_profile ~dist:(Workload.Zipf 0.99) ~key_range:1000
      ~mutation_pct:0 ()
  in
  let g = Workload.set_gen profile (Rng.create ~seed:7) in
  let counts = Array.make 1000 0 in
  for _ = 1 to 50_000 do
    match Workload.next_set_op g with
    | Workload.Contains k -> counts.(k) <- counts.(k) + 1
    | _ -> ()
  done;
  (* Key 0 must be much hotter than the tail under theta=0.99. *)
  checkb "head hot" true (counts.(0) > 2_000);
  let tail = Array.fold_left ( + ) 0 (Array.sub counts 900 100) in
  checkb "tail cold" true (tail < counts.(0))

(* A NaN, infinite or negative theta used to build an all-NaN or flat
   inverse-CDF table that sent every draw to key 0; a bad key range or
   mutation percentage failed an assertion. *)
let test_set_profile_bad () =
  List.iter
    (fun (name, dist, key_range, mutation_pct) ->
      match Workload.set_profile ~dist ~key_range ~mutation_pct () with
      | _ -> Alcotest.failf "%s: accepted" name
      | exception Invalid_argument _ -> ())
    [
      ("zipf nan", Workload.Zipf Float.nan, 100, 20);
      ("zipf inf", Workload.Zipf Float.infinity, 100, 20);
      ("zipf -inf", Workload.Zipf Float.neg_infinity, 100, 20);
      ("zipf -1", Workload.Zipf (-1.), 100, 20);
      ("key range 0", Workload.Uniform, 0, 20);
      ("mutations -1", Workload.Uniform, 100, -1);
      ("mutations 101", Workload.Uniform, 100, 101);
    ];
  (* The edges are accepted. *)
  ignore
    (Workload.set_profile ~dist:(Workload.Zipf 0.) ~key_range:1 ~mutation_pct:0
       ());
  ignore (Workload.set_profile ~key_range:1 ~mutation_pct:100 ())

let test_queue_mix () =
  let g = Workload.queue_gen ~mutation_pct:40 ~value_range:100 (Rng.create ~seed:8) in
  let enq = ref 0 and deq = ref 0 and peek = ref 0 in
  for _ = 1 to 10_000 do
    match Workload.next_queue_op g with
    | Workload.Enqueue _ -> incr enq
    | Workload.Dequeue -> incr deq
    | Workload.Peek -> incr peek
  done;
  (* Alternation keeps enqueue/dequeue balanced (queue size stable). *)
  checkb "balanced" true (abs (!enq - !deq) <= 1);
  let muts = !enq + !deq in
  checkb "mutation ratio" true
    (muts > 3_600 && muts < 4_400)

let test_initial_keys_distinct () =
  let keys =
    Array.to_list
      (Workload.initial_keys ~rng:(Rng.create ~seed:9) ~key_range:64 ~size:32)
  in
  checki "count" 32 (List.length keys);
  checki "distinct" 32 (List.length (List.sort_uniq compare keys));
  List.iter (fun k -> checkb "range" true (k >= 0 && k < 64)) keys

let prop_initial_keys =
  QCheck.Test.make ~name:"initial keys distinct and in range" ~count:100
    QCheck.(pair (int_range 1 64) (int_range 0 1000))
    (fun (range, seed) ->
      let size = max 1 (range / 2) in
      let keys =
        Array.to_list
          (Workload.initial_keys ~rng:(Rng.create ~seed) ~key_range:range ~size)
      in
      List.length keys = size
      && List.length (List.sort_uniq compare keys) = size
      && List.for_all (fun k -> k >= 0 && k < range) keys)

(* Reference: the hash-table seen-set, list-building [initial_keys] that
   the bit set and the array replaced, ported verbatim.  The production
   version must make the same draws and so hold the same keys in the same
   order. *)
let initial_keys_oracle ~rng ~key_range ~size =
  assert (size <= key_range);
  let seen = Hashtbl.create size in
  let rec draw acc n =
    if n = 0 then acc
    else
      let k = Rng.int rng key_range in
      if Hashtbl.mem seen k then draw acc n
      else begin
        Hashtbl.add seen k ();
        draw (k :: acc) (n - 1)
      end
  in
  draw [] size

(* [pct] of the range; both ends (size 0 and size = key_range) are drawn
   as often as the whole interior. *)
let prop_initial_keys_oracle =
  QCheck.Test.make ~name:"initial keys = hash-table oracle" ~count:200
    QCheck.(
      triple (int_range 1 2000)
        (oneof [ always 0; always 100; int_range 0 100 ])
        (int_range 0 10_000))
    (fun (range, pct, seed) ->
      let size = range * pct / 100 in
      Array.to_list
        (Workload.initial_keys ~rng:(Rng.create ~seed) ~key_range:range ~size)
      = initial_keys_oracle ~rng:(Rng.create ~seed) ~key_range:range ~size)

let test_initial_keys_bad_sizes () =
  List.iter
    (fun (key_range, size) ->
      match Workload.initial_keys ~rng:(Rng.create ~seed:1) ~key_range ~size with
      | _ ->
          Alcotest.failf "key_range %d, size %d: accepted" key_range size
      | exception Invalid_argument _ -> ())
    [ (10, -5); (10, 11); (0, 1); (-3, 0) ];
  Alcotest.(check (array int))
    "empty range, nothing asked" [||]
    (Workload.initial_keys ~rng:(Rng.create ~seed:1) ~key_range:0 ~size:0)

(* Ivec behaviour (heap free lists, reclamation buffers, the replay log). *)
let test_vec_basics () =
  let v = Ivec.create () in
  checki "empty" 0 (Ivec.length v);
  for i = 1 to 100 do
    Ivec.push v i
  done;
  checki "length" 100 (Ivec.length v);
  checki "get" 50 (Ivec.get v 49);
  Ivec.set v 0 999;
  checki "set" 999 (Ivec.get v 0);
  Ivec.truncate v 10;
  checki "truncate" 10 (Ivec.length v);
  let sum = ref 0 in
  Ivec.iter (fun x -> sum := !sum + x) v;
  checki "iter" (999 + 2 + 3 + 4 + 5 + 6 + 7 + 8 + 9 + 10) !sum;
  Ivec.filter_in_place (fun x -> x mod 2 = 0) v;
  Alcotest.(check (list int)) "filtered" [ 2; 4; 6; 8; 10 ] (Ivec.to_list v);
  Ivec.clear v;
  checki "clear" 0 (Ivec.length v)

let prop_vec_push_get =
  QCheck.Test.make ~name:"vec push/to_list round trip" ~count:200
    QCheck.(small_list small_int)
    (fun xs ->
      let v = Ivec.create () in
      List.iter (Ivec.push v) xs;
      Ivec.to_list v = xs)

let prop_vec_filter =
  QCheck.Test.make ~name:"vec filter_in_place = List.filter" ~count:200
    QCheck.(small_list small_int)
    (fun xs ->
      let v = Ivec.create () in
      List.iter (Ivec.push v) xs;
      Ivec.filter_in_place (fun x -> x mod 3 = 0) v;
      Ivec.to_list v = List.filter (fun x -> x mod 3 = 0) xs)

let () =
  Alcotest.run "st_workload"
    [
      ( "generators",
        [
          Alcotest.test_case "set mix" `Quick test_set_mix_ratio;
          Alcotest.test_case "keys in range" `Quick test_set_keys_in_range;
          Alcotest.test_case "ins/del balance" `Quick test_insert_delete_balance;
          Alcotest.test_case "zipf skew" `Quick test_zipf_skew;
          Alcotest.test_case "set profile bad inputs" `Quick
            test_set_profile_bad;
          Alcotest.test_case "queue mix" `Quick test_queue_mix;
          Alcotest.test_case "initial keys" `Quick test_initial_keys_distinct;
          QCheck_alcotest.to_alcotest prop_initial_keys;
          QCheck_alcotest.to_alcotest prop_initial_keys_oracle;
          Alcotest.test_case "initial keys bad sizes" `Quick
            test_initial_keys_bad_sizes;
        ] );
      ( "vec",
        [
          Alcotest.test_case "basics" `Quick test_vec_basics;
          QCheck_alcotest.to_alcotest prop_vec_push_get;
          QCheck_alcotest.to_alcotest prop_vec_filter;
        ] );
    ]
