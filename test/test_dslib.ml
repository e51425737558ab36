(* Data-structure semantics tests.

   Sequential: every structure, driven through the Guard API on one
   simulated thread, must behave exactly like a reference model (qcheck
   over random operation scripts).

   Concurrent: set semantics imply a per-key conservation law — the final
   membership of key k equals the initial membership plus successful
   inserts minus successful deletes of k (each success toggles presence).
   The queue obeys multiset conservation: initial + enqueued = dequeued +
   final.  These hold under every reclamation scheme and any schedule. *)

open St_sim
open St_mem
open St_htm
open St_reclaim

let checki = Alcotest.check Alcotest.int
let checkb = Alcotest.check Alcotest.bool

let world ?(cores = 4) ?(smt = 2) ?(seed = 3) () =
  let sched =
    Sched.create ~topology:(Topology.create ~cores ~smt ()) ~quantum:50_000 ~seed ()
  in
  let heap = Heap.create ~shadow:(Shadow.create ()) () in
  let tsx = Tsx.create ~sched ~heap () in
  let rt = Guard.make_runtime ~sched ~tsx in
  (sched, heap, rt)

module GO = St_reclaim.None
module L = St_dslib.Harris_list.Make (GO)
module SL = St_dslib.Skiplist.Make (GO)
module H = St_dslib.Hash_table.Make (GO)
module Q = St_dslib.Ms_queue.Make (GO)
module TS = St_dslib.Treiber_stack.Make (GO)

type script_op = S_ins of int | S_del of int | S_mem of int

let script_gen =
  QCheck.Gen.(
    list_size (int_bound 60)
      (map2
         (fun op k ->
           let k = abs k mod 16 in
           match abs op mod 3 with
           | 0 -> S_ins k
           | 1 -> S_del k
           | _ -> S_mem k)
         int int))

let script_arb =
  QCheck.make ~print:(fun s -> string_of_int (List.length s)) script_gen

(* Run a script through a set structure on one simulated thread and through
   a reference model, comparing every result. *)
let run_set_script ~mk_set script =
  let sched, heap, rt = world () in
  let scheme = GO.create rt in
  let ok = ref true in
  let model = Hashtbl.create 16 in
  let _ =
    Sched.add_thread sched (fun tid ->
        let th = GO.create_thread scheme ~tid in
        let ins, del, mem = mk_set heap th in
        List.iter
          (fun op ->
            let expect, got =
              match op with
              | S_ins k ->
                  let e = not (Hashtbl.mem model k) in
                  if e then Hashtbl.replace model k ();
                  (e, ins k)
              | S_del k ->
                  let e = Hashtbl.mem model k in
                  if e then Hashtbl.remove model k;
                  (e, del k)
              | S_mem k -> (Hashtbl.mem model k, mem k)
            in
            if expect <> got then ok := false)
          script)
  in
  Sched.run sched;
  !ok && Shadow.count (Heap.shadow heap) = 0

let list_ops heap th =
  let t = St_dslib.Harris_list.create_raw heap in
  ((fun k -> L.insert t th k), (fun k -> L.delete t th k), fun k -> L.contains t th k)

let skiplist_ops heap th =
  let t = St_dslib.Skiplist.create_raw heap in
  ((fun k -> SL.insert t th k), (fun k -> SL.delete t th k), fun k ->
    SL.contains t th k)

let hash_ops heap th =
  let t = St_dslib.Hash_table.create_raw heap ~n_buckets:4 in
  ((fun k -> H.insert t th k), (fun k -> H.delete t th k), fun k ->
    H.contains t th k)

let prop_sequential name mk_set =
  QCheck.Test.make ~name:(name ^ " matches reference model") ~count:60
    script_arb
    (fun script -> run_set_script ~mk_set script)

(* Queue sequential check: FIFO order against a reference Queue. *)
let test_queue_sequential () =
  let sched, heap, rt = world () in
  let scheme = GO.create rt in
  let model = Queue.create () in
  let ok = ref true in
  let _ =
    Sched.add_thread sched (fun tid ->
        let th = GO.create_thread scheme ~tid in
        let t = St_dslib.Ms_queue.create_raw heap in
        let rng = Rng.create ~seed:99 in
        for i = 1 to 300 do
          if Rng.bool rng then begin
            Q.enqueue t th i;
            Queue.push i model
          end
          else begin
            let expect = if Queue.is_empty model then None else Some (Queue.pop model) in
            if Q.dequeue t th <> expect then ok := false
          end;
          (* Peek agrees with the model head. *)
          let expect_peek = if Queue.is_empty model then None else Some (Queue.peek model) in
          if Q.peek t th <> expect_peek then ok := false
        done)
  in
  Sched.run sched;
  checkb "queue follows FIFO model" true !ok;
  checki "no violations" 0 (Shadow.count (Heap.shadow heap))

(* Stack sequential check: LIFO order against a reference Stack. *)
let test_stack_sequential () =
  let sched, heap, rt = world () in
  let scheme = GO.create rt in
  let model = Stack.create () in
  let ok = ref true in
  let _ =
    Sched.add_thread sched (fun tid ->
        let th = GO.create_thread scheme ~tid in
        let t = St_dslib.Treiber_stack.create_raw heap in
        let rng = Rng.create ~seed:123 in
        for i = 1 to 300 do
          if Rng.bool rng then begin
            TS.push t th i;
            Stack.push i model
          end
          else begin
            let expect = if Stack.is_empty model then None else Some (Stack.pop model) in
            if TS.pop t th <> expect then ok := false
          end;
          let expect_top = if Stack.is_empty model then None else Some (Stack.top model) in
          if TS.top t th <> expect_top then ok := false
        done)
  in
  Sched.run sched;
  checkb "stack follows LIFO model" true !ok;
  checki "no violations" 0 (Shadow.count (Heap.shadow heap))

(* Concurrent stack conservation under StackTrack. *)
let test_stack_conservation () =
  let sched, heap, rt = world ~seed:91 () in
  let scheme = Stacktrack.Engine.create rt in
  let module S = St_dslib.Treiber_stack.Make (Stacktrack.Engine) in
  let t = St_dslib.Treiber_stack.create_raw heap in
  St_dslib.Treiber_stack.populate_raw heap t ~values:[ 9001; 9002 ]
    ~note_link:ignore;
  let pushed = Array.make 8 [] and popped = Array.make 8 [] in
  for w = 0 to 7 do
    ignore
      (Sched.add_thread sched (fun tid ->
           let th = Stacktrack.Engine.create_thread scheme ~tid in
           let rng = Rng.create ~seed:(700 + tid) in
           for i = 1 to 80 do
             if Rng.bool rng then begin
               let v = (tid * 1000) + i in
               S.push t th v;
               pushed.(tid) <- v :: pushed.(tid)
             end
             else
               match S.pop t th with
               | Some v -> popped.(tid) <- v :: popped.(tid)
               | None -> ()
           done;
           Stacktrack.Engine.quiesce th));
    ignore w
  done;
  Sched.run sched;
  let final = St_dslib.Treiber_stack.to_list_raw heap t in
  let all_in =
    List.sort compare ([ 9001; 9002 ] @ List.concat (Array.to_list pushed))
  in
  let all_out =
    List.sort compare (final @ List.concat (Array.to_list popped))
  in
  checkb "stack multiset conservation" true (all_in = all_out);
  checki "no violations" 0 (Shadow.count (Heap.shadow heap))

(* The stack is the classic ABA victim: the unsafe scheme must get caught
   on it. *)
let test_stack_unsafe_detected () =
  let tripped = ref false in
  List.iter
    (fun seed ->
      let sched, heap, rt = world ~seed () in
      let scheme = Immediate.create rt in
      let module S = St_dslib.Treiber_stack.Make (Immediate) in
      let t = St_dslib.Treiber_stack.create_raw heap in
      St_dslib.Treiber_stack.populate_raw heap t
        ~values:(List.init 8 (fun i -> i))
        ~note_link:ignore;
      for _ = 0 to 7 do
        ignore
          (Sched.add_thread sched (fun tid ->
               let th = Immediate.create_thread scheme ~tid in
               let rng = Rng.create ~seed:(seed + tid) in
               for i = 1 to 150 do
                 if Rng.bool rng then S.push t th i
                 else ignore (S.pop t th)
               done))
      done;
      Sched.run sched;
      if Shadow.count (Heap.shadow heap) > 0 then tripped := true)
    [ 11; 22; 33 ];
  checkb "unsafe scheme caught on stack" true !tripped

(* ------------------------------------------------------------------ *)
(* Concurrent conservation laws                                        *)
(* ------------------------------------------------------------------ *)

(* Worker threads record per-key successful inserts/deletes; at the end,
   final membership must equal initial + net.  Runs the same check under
   several schemes. *)
let conservation_set (type a) (module G : Guard.S with type t = a)
    (mk_scheme : Guard.runtime -> a) ~structure ~seed () =
  let sched, heap, rt = world ~seed () in
  let scheme = mk_scheme rt in
  let key_range = 32 in
  let n_threads = 6 in
  let ins = Array.make key_range 0 and del = Array.make key_range 0 in
  let init_keys = [| 1; 3; 5; 7; 9; 11 |] in
  let final_of, ops =
    match structure with
    | `List ->
        let t = St_dslib.Harris_list.create_raw heap in
        St_dslib.Harris_list.populate_raw heap t ~keys:init_keys
          ~note_link:ignore;
        let module S = St_dslib.Harris_list.Make (G) in
        ( (fun () -> St_dslib.Harris_list.to_list_raw heap t),
          fun th k -> function
            | 0 -> ignore (S.contains t th k)
            | 1 -> if S.insert t th k then ins.(k) <- ins.(k) + 1
            | _ -> if S.delete t th k then del.(k) <- del.(k) + 1 )
    | `Skiplist ->
        let t = St_dslib.Skiplist.create_raw heap in
        St_dslib.Skiplist.populate_raw heap t ~keys:init_keys
          ~rng:(Rng.create ~seed:5) ~note_link:ignore;
        let module S = St_dslib.Skiplist.Make (G) in
        ( (fun () -> St_dslib.Skiplist.to_list_raw heap t),
          fun th k -> function
            | 0 -> ignore (S.contains t th k)
            | 1 -> if S.insert t th k then ins.(k) <- ins.(k) + 1
            | _ -> if S.delete t th k then del.(k) <- del.(k) + 1 )
    | `Hash ->
        let t = St_dslib.Hash_table.create_raw heap ~n_buckets:4 in
        St_dslib.Hash_table.populate_raw heap t ~keys:init_keys
          ~note_link:ignore;
        let module S = St_dslib.Hash_table.Make (G) in
        ( (fun () ->
            (* The run can leave marked nodes; the census counts what the
               list walk visits, marked nodes included. *)
            let final = St_dslib.Hash_table.to_list_raw heap t in
            checki "length_raw = to_list_raw length" (List.length final)
              (St_dslib.Hash_table.length_raw heap t);
            final),
          fun th k -> function
            | 0 -> ignore (S.contains t th k)
            | 1 -> if S.insert t th k then ins.(k) <- ins.(k) + 1
            | _ -> if S.delete t th k then del.(k) <- del.(k) + 1 )
  in
  for _ = 1 to n_threads do
    ignore
      (Sched.add_thread sched (fun tid ->
           let th = G.create_thread scheme ~tid in
           let rng = Rng.create ~seed:(seed + (131 * tid)) in
           for _ = 1 to 120 do
             ops th (Rng.int rng key_range) (Rng.int rng 3)
           done;
           G.quiesce th))
  done;
  Sched.run sched;
  let final = final_of () in
  checki "no violations" 0 (Shadow.count (Heap.shadow heap));
  checkb "sorted, duplicate-free" true (List.sort_uniq compare final = final);
  for k = 0 to key_range - 1 do
    let initially = if Array.mem k init_keys then 1 else 0 in
    let expected = initially + ins.(k) - del.(k) in
    let actual = if List.mem k final then 1 else 0 in
    if expected <> actual then
      Alcotest.failf "conservation broken for key %d: init=%d ins=%d del=%d final=%d"
        k initially ins.(k) del.(k) actual
  done

let conservation_cases =
  let mk name structure =
    [
      Alcotest.test_case (name ^ "/original") `Quick (fun () ->
          conservation_set (module GO) GO.create ~structure ~seed:21 ());
      Alcotest.test_case (name ^ "/hazards") `Quick (fun () ->
          conservation_set (module Hazard) (fun rt -> Hazard.create rt) ~structure ~seed:22 ());
      Alcotest.test_case (name ^ "/epoch") `Quick (fun () ->
          conservation_set (module Epoch) (fun rt -> Epoch.create rt) ~structure ~seed:23 ());
      Alcotest.test_case (name ^ "/stacktrack") `Quick (fun () ->
          conservation_set
            (module Stacktrack.Engine)
            (fun rt -> Stacktrack.Engine.create rt)
            ~structure ~seed:24 ());
      Alcotest.test_case (name ^ "/refcount") `Quick (fun () ->
          conservation_set (module Refcount) (fun rt -> Refcount.create rt) ~structure ~seed:25 ());
    ]
  in
  mk "list" `List @ mk "skiplist" `Skiplist @ mk "hash" `Hash

let test_queue_conservation () =
  let sched, heap, rt = world ~seed:77 () in
  let scheme = Stacktrack.Engine.create rt in
  let module S = St_dslib.Ms_queue.Make (Stacktrack.Engine) in
  let t = St_dslib.Ms_queue.create_raw heap in
  let init = [ 1001; 1002; 1003 ] in
  St_dslib.Ms_queue.populate_raw heap t ~values:init ~note_link:ignore;
  let enqueued = Array.make 8 [] and dequeued = Array.make 8 [] in
  for w = 0 to 7 do
    ignore
      (Sched.add_thread sched (fun tid ->
           let th = Stacktrack.Engine.create_thread scheme ~tid in
           let rng = Rng.create ~seed:(500 + tid) in
           for i = 1 to 80 do
             if Rng.bool rng then begin
               let v = (tid * 1000) + i in
               S.enqueue t th v;
               enqueued.(tid) <- v :: enqueued.(tid)
             end
             else
               match S.dequeue t th with
               | Some v -> dequeued.(tid) <- v :: dequeued.(tid)
               | None -> ()
           done;
           Stacktrack.Engine.quiesce th));
    ignore w
  done;
  Sched.run sched;
  let final = St_dslib.Ms_queue.to_list_raw heap t in
  let all_in =
    List.sort compare (init @ List.concat (Array.to_list enqueued))
  in
  let all_out =
    List.sort compare (final @ List.concat (Array.to_list dequeued))
  in
  checkb "multiset conservation" true (all_in = all_out);
  checki "no violations" 0 (Shadow.count (Heap.shadow heap))

(* White-box postcondition of the Michael-style find: pred.key < key and
   (curr = null or curr.key >= key), with found iff curr.key = key. *)
let prop_find_position =
  QCheck.Test.make ~name:"list find postcondition" ~count:80
    QCheck.(pair (list (int_bound 31)) (int_bound 31))
    (fun (keys, probe) ->
      let sched, heap, rt = world () in
      let scheme = GO.create rt in
      let ok = ref true in
      let _ =
        Sched.add_thread sched (fun tid ->
            let th = GO.create_thread scheme ~tid in
            let t = St_dslib.Harris_list.create_raw heap in
            St_dslib.Harris_list.populate_raw heap t ~keys:(Array.of_list keys)
              ~note_link:ignore;
            GO.run_op th ~op_id:1 (fun env ->
                let pos = L.find env t probe in
                let pred_key =
                  Heap.peek heap (pos.L.pred + St_dslib.Harris_list.key_off)
                in
                if pred_key >= probe then ok := false;
                (match pos.L.curr with
                | 0 -> if pos.L.found then ok := false
                | c ->
                    let ck = Heap.peek heap (c + St_dslib.Harris_list.key_off) in
                    if ck < probe then ok := false;
                    if pos.L.found <> (ck = probe) then ok := false);
                if pos.L.found <> List.mem probe keys then ok := false))
      in
      Sched.run sched;
      !ok)

(* Skip-list search agrees with membership on random populations. *)
let prop_skiplist_search =
  QCheck.Test.make ~name:"skiplist search agrees with membership" ~count:60
    QCheck.(pair (list (int_bound 63)) (int_bound 63))
    (fun (keys, probe) ->
      let sched, heap, rt = world () in
      let scheme = GO.create rt in
      let ok = ref true in
      let _ =
        Sched.add_thread sched (fun tid ->
            let th = GO.create_thread scheme ~tid in
            let t = St_dslib.Skiplist.create_raw heap in
            St_dslib.Skiplist.populate_raw heap t ~keys:(Array.of_list keys)
              ~rng:(Rng.create ~seed:41) ~note_link:ignore;
            let found = SL.contains t th probe in
            if found <> List.mem probe keys then ok := false)
      in
      Sched.run sched;
      !ok)

(* Raw populate helpers behave. *)
let test_populate_sorted () =
  let _, heap, _ = world () in
  let t = St_dslib.Harris_list.create_raw heap in
  St_dslib.Harris_list.populate_raw heap t ~keys:[| 5; 1; 9; 1; 3 |]
    ~note_link:ignore;
  Alcotest.check
    Alcotest.(list int)
    "sorted unique" [ 1; 3; 5; 9 ]
    (St_dslib.Harris_list.to_list_raw heap t);
  Alcotest.check
    Alcotest.(option int)
    "check_raw counts" (Some 4)
    (St_dslib.Harris_list.check_raw heap t)

(* ------------------------------------------------------------------ *)
(* Hash-table bulk populate vs the incremental oracle                  *)
(* ------------------------------------------------------------------ *)

(* Reference: the one-sorted-insert-per-key [Hash_table.populate_raw] that
   the bulk build replaced, and the one-sentinel-at-a-time [create_raw]
   that the sentinel run replaced, ported verbatim.  Apart from
   [note_link] (see [test_hash_populate_links_once]) the bulk build must
   leave the same heap image: same allocation order, addresses, birth
   indices and words. *)
module Incremental_oracle = struct
  open St_dslib
  open Hash_table

  let create_raw heap ~n_buckets =
    let buckets = Heap.alloc heap ~tid:0 ~size:n_buckets in
    for b = 0 to n_buckets - 1 do
      let l = Harris_list.create_raw heap in
      Heap.write heap ~tid:0 (buckets + b) l.Harris_list.head
    done;
    { buckets; n_buckets }

  let bucket_head_raw heap t b = Heap.peek heap (t.buckets + b)

  let populate_raw heap t ~keys ~note_link =
    Array.iter
      (fun k ->
        let b = bucket_of t k in
        let head = bucket_head_raw heap t b in
        (* Insert in front order then rely on sortedness per bucket: reuse the
           list populate per key (cheap since buckets are short). *)
        let rec find_spot prev =
          let next = Heap.peek heap (prev + Harris_list.next_off) in
          if next = Word.null || Heap.peek heap (next + Harris_list.key_off) > k
          then prev
          else if Heap.peek heap (next + Harris_list.key_off) = k then -1
          else find_spot next
        in
        let spot = find_spot head in
        if spot >= 0 then begin
          let n = Heap.alloc heap ~tid:0 ~size:Harris_list.node_size in
          Heap.write heap ~tid:0 (n + Harris_list.key_off) k;
          Heap.write heap ~tid:0
            (n + Harris_list.next_off)
            (Heap.peek heap (spot + Harris_list.next_off));
          (let succ = Heap.peek heap (n + Harris_list.next_off) in
           if succ <> Word.null then note_link succ);
          Heap.write heap ~tid:0 (spot + Harris_list.next_off) n;
          note_link n
        end)
      keys
end

(* Build a fresh table with [create] and [populate] on its own heap. *)
let populated ?(create = St_dslib.Hash_table.create_raw) populate ~n_buckets
    ~keys =
  let heap = Heap.create ~shadow:(Shadow.create ()) () in
  let t = create heap ~n_buckets in
  populate heap t ~keys ~note_link:ignore;
  (heap, t)

(* Every address of every touched chunk: word, owning object, birth. *)
let same_heap_image ha hb =
  Heap.touched_chunks ha = Heap.touched_chunks hb
  && Heap.allocs ha = Heap.allocs hb
  &&
  let ok = ref true in
  for a = 0 to (Heap.touched_chunks ha * Heap.chunk_words) - 1 do
    if
      Heap.peek ha a <> Heap.peek hb a
      || Heap.owner_of ha a <> Heap.owner_of hb a
      || Heap.birth_ix ha a <> Heap.birth_ix hb a
    then ok := false
  done;
  !ok

let check_bulk_matches_oracle ~n_buckets ~keys =
  let ho, t_o =
    populated ~create:Incremental_oracle.create_raw
      Incremental_oracle.populate_raw ~n_buckets ~keys
  in
  let hn, t_n = populated St_dslib.Hash_table.populate_raw ~n_buckets ~keys in
  same_heap_image ho hn
  && St_dslib.Hash_table.to_list_raw ho t_o
     = St_dslib.Hash_table.to_list_raw hn t_n
  && St_dslib.Hash_table.length_raw hn t_n
     = List.length (List.sort_uniq compare (Array.to_list keys))
  && Shadow.count (Heap.shadow hn) = 0

(* Short key ranges force duplicates; few buckets force long buckets, which
   take the bulk build's merge-sort path.  Many buckets outnumber the
   census's lanes and leave most buckets empty. *)
let bulk_arb =
  QCheck.(
    pair (int_range 1 300)
      (map Array.of_list (list_of_size Gen.(0 -- 400) (int_bound 300))))

let prop_bulk_populate =
  QCheck.Test.make ~name:"populate = incremental oracle" ~count:150 bulk_arb
    (fun (n_buckets, keys) -> check_bulk_matches_oracle ~n_buckets ~keys)

(* A partition is the least power of two of consecutive buckets that
   leaves at most 512 of them, so 515 to 5001 buckets make partitions of 2
   to 16.  The count is odd, never a multiple of the partition width, so
   the last partition is partial.  The key range is at most four times the
   bucket count, so keys repeat and many buckets stay empty.  One bucket
   gets 17 to 60 more keys, some repeated: longer than the insertion-sort
   cut-off (16), beside the other buckets of its partition. *)
let partitioned_arb =
  let open QCheck.Gen in
  let gen =
    let* half = int_range 257 2500 in
    let n_buckets = (2 * half) + 1 in
    let* range = int_range 1 (4 * n_buckets) in
    let* keys = list_size (0 -- 3000) (int_bound range) in
    let* long_bucket = int_bound (n_buckets - 1) in
    let* long_len = int_range 17 60 in
    let* long =
      list_repeat long_len
        (map (fun q -> long_bucket + (q * n_buckets)) (int_bound 40))
    in
    let* keys = shuffle_l (keys @ long) in
    return (n_buckets, Array.of_list keys)
  in
  QCheck.make
    ~print:(fun (n_buckets, keys) ->
      Printf.sprintf "%d buckets, keys [|%s|]" n_buckets
        (String.concat "; " (Array.to_list (Array.map string_of_int keys))))
    gen

let prop_bulk_populate_partitions =
  QCheck.Test.make ~name:"populate = incremental oracle, across partitions"
    ~count:60 partitioned_arb (fun (n_buckets, keys) ->
      check_bulk_matches_oracle ~n_buckets ~keys)

(* Mark the [next] word of a random subset of the nodes (each then reads as
   logically deleted but still linked): the census still counts every node
   the list walk visits. *)
let prop_length_raw_marked =
  QCheck.Test.make ~name:"census counts marked nodes" ~count:150
    QCheck.(pair bulk_arb (int_bound 10_000))
    (fun ((n_buckets, keys), seed) ->
      let heap, t = populated St_dslib.Hash_table.populate_raw ~n_buckets ~keys in
      let rng = Rng.create ~seed in
      let next a = a + St_dslib.Harris_list.next_off in
      let rec mark_chain a =
        if a <> Word.null then begin
          let w = Heap.peek heap (next a) in
          if Rng.bool rng then Heap.write heap ~tid:0 (next a) (Word.mark w);
          mark_chain (Word.unmark w)
        end
      in
      for b = 0 to n_buckets - 1 do
        let head = Heap.peek heap (t.St_dslib.Hash_table.buckets + b) in
        mark_chain (Heap.peek heap (next head))
      done;
      let walked = List.length (St_dslib.Hash_table.to_list_raw heap t) in
      St_dslib.Hash_table.length_raw heap t = walked
      && walked = List.length (List.sort_uniq compare (Array.to_list keys)))

(* A multi-chunk image: 40k distinct-ish keys in 64 buckets. *)
let test_bulk_populate_chunks () =
  let rng = Rng.create ~seed:17 in
  let keys = Array.init 40_000 (fun _ -> Rng.int rng 60_000) in
  let ho, _ = populated Incremental_oracle.populate_raw ~n_buckets:64 ~keys in
  checkb "spans several chunks" true (Heap.touched_chunks ho > 1);
  checkb "same heap image" true
    (check_bulk_matches_oracle ~n_buckets:64 ~keys)

(* A multi-chunk image from the benchmark's own key draw: 40k distinct
   keys, so no key is dropped and every node's address is its position's
   ([populate_raw] rewrites no position as a rank), in 10,007 buckets,
   whose sentinels alone fill most of a chunk. *)
let test_bulk_populate_distinct_chunks () =
  let keys =
    St_workload.Workload.initial_keys ~rng:(Rng.create ~seed:29)
      ~key_range:100_000 ~size:40_000
  in
  let ho, _ =
    populated Incremental_oracle.populate_raw ~n_buckets:10_007 ~keys
  in
  checkb "spans several chunks" true (Heap.touched_chunks ho > 2);
  checkb "same heap image" true
    (check_bulk_matches_oracle ~n_buckets:10_007 ~keys)

(* Above [Halves.threshold] in keys and in buckets, so on more than one
   CPU the build's partition sorts and the census each run in two halves
   on two domains: a quarter of the keys repeat, so the halves drop keys
   and the ranks are rewritten. *)
let test_bulk_populate_two_domains () =
  let n_buckets = St_sim.Halves.threshold + 3 in
  let n = St_sim.Halves.threshold + 40_000 in
  let rng = Rng.create ~seed:31 in
  let keys = Array.init n (fun _ -> Rng.int rng (3 * n)) in
  checkb "duplicate keys" true
    (List.length (List.sort_uniq compare (Array.to_list keys)) < n);
  checkb "same heap image" true (check_bulk_matches_oracle ~n_buckets ~keys);
  let heap, t = populated St_dslib.Hash_table.populate_raw ~n_buckets ~keys in
  checki "census = walk"
    (List.length (St_dslib.Hash_table.to_list_raw heap t))
    (St_dslib.Hash_table.length_raw heap t)

(* Link-counting schemes (RefCount) prime their counts from [note_link], so
   each stored link must be reported exactly once.  The incremental insert
   also reported [succ] again whenever a node went in front of it, so
   node 5 below used to be counted three times. *)
let test_hash_populate_links_once () =
  let _, heap, _ = world () in
  let t = St_dslib.Hash_table.create_raw heap ~n_buckets:1 in
  let counts = Hashtbl.create 8 in
  let note_link a =
    Hashtbl.replace counts a
      (1 + Option.value ~default:0 (Hashtbl.find_opt counts a))
  in
  St_dslib.Hash_table.populate_raw heap t ~keys:[| 5; 1; 9; 3 |] ~note_link;
  let rec nodes addr acc =
    if addr = Word.null then List.rev acc
    else nodes (Heap.peek heap (addr + St_dslib.Harris_list.next_off)) (addr :: acc)
  in
  let head = Heap.peek heap t.St_dslib.Hash_table.buckets in
  let chain = nodes (Heap.peek heap (head + St_dslib.Harris_list.next_off)) [] in
  Alcotest.(check (list int))
    "bucket in key order" [ 1; 3; 5; 9 ]
    (List.map (fun a -> Heap.peek heap (a + St_dslib.Harris_list.key_off)) chain);
  List.iter
    (fun a ->
      checki
        (Printf.sprintf "links to key %d"
           (Heap.peek heap (a + St_dslib.Harris_list.key_off)))
        1
        (Option.value ~default:0 (Hashtbl.find_opt counts a)))
    chain;
  checki "no other link reported" 4 (Hashtbl.length counts)

(* [note_link]'s order is the store order the interface promises: the
   [next] words read in address order, the bucket sentinels first, then
   the nodes, skipping null ones. *)
let test_hash_note_link_order () =
  let rng = Rng.create ~seed:23 in
  let n_buckets = 1501 in
  let keys = Array.init 4000 (fun _ -> Rng.int rng 3000) in
  let heap = Heap.create ~shadow:(Shadow.create ()) () in
  let t = St_dslib.Hash_table.create_raw heap ~n_buckets in
  let noted = ref [] in
  St_dslib.Hash_table.populate_raw heap t ~keys ~note_link:(fun a ->
      noted := a :: !noted);
  let next a = Heap.peek heap (a + St_dslib.Harris_list.next_off) in
  let sentinels =
    List.init n_buckets (fun b -> Heap.peek heap (t.St_dslib.Hash_table.buckets + b))
  in
  let rec chain a acc = if a = Word.null then acc else chain (next a) (a :: acc) in
  let nodes =
    List.sort compare (List.concat_map (fun s -> chain (next s) []) sentinels)
  in
  let linked = sentinels @ nodes in
  checkb "sentinels, then nodes, ascending" true
    (List.sort compare linked = linked);
  Alcotest.(check (list int))
    "note_link order"
    (List.filter (fun v -> v <> Word.null) (List.map next linked))
    (List.rev !noted)

(* A negative key is refused before the build touches anything: the heap
   still holds only the empty table. *)
let test_hash_populate_negative_key () =
  let empty () = populated (fun _ _ ~keys:_ ~note_link:_ -> ()) ~n_buckets:8 ~keys:[||] in
  let fresh, _ = empty () and heap, t = empty () in
  (match
     St_dslib.Hash_table.populate_raw heap t ~keys:[| 3; -5; 7 |]
       ~note_link:(fun _ -> Alcotest.fail "a link was reported")
   with
  | () -> Alcotest.fail "negative key accepted"
  | exception Invalid_argument msg ->
      Alcotest.(check string)
        "names the key and its index"
        "Hash_table.populate_raw: keys.(1) = -5 is negative" msg);
  checkb "heap untouched" true (same_heap_image fresh heap)

(* The build's own allocation, at the shape of the 10^6-object benchmark
   scaled down 10x: 10^5 keys drawn as the benchmark draws them, in 25,000
   buckets.  The directory is pre-sized, so the heap allocates nothing
   outside its chunks.  Minor words are a constant, not per key: 66, the
   per-bucket count of a 64-bucket partition (the [int array] build made
   16).  Scratch is every major word the build allocates beyond the heap's
   resident growth, read after a minor collection has folded the domain's
   direct major allocations into the counter: the [int array] build took
   2.50 words per key, the [Bytes] passes take 2.14. *)
let test_hash_build_allocation () =
  let n = 100_000 and n_buckets = 25_000 in
  let keys =
    St_workload.Workload.initial_keys ~rng:(Rng.create ~seed:0x5EED)
      ~key_range:(2 * n) ~size:n
  in
  let heap = Heap.create ~initial_words:(1 lsl 20) ~shadow:(Shadow.create ()) () in
  let t = St_dslib.Hash_table.create_raw heap ~n_buckets in
  let resident = Heap.resident_words heap in
  Gc.full_major ();
  let major = (Gc.quick_stat ()).Gc.major_words in
  let minor = Gc.minor_words () in
  St_dslib.Hash_table.populate_raw heap t ~keys ~note_link:ignore;
  let minor = Gc.minor_words () -. minor in
  Gc.minor ();
  let major = (Gc.quick_stat ()).Gc.major_words -. major in
  let scratch = major -. float_of_int (Heap.resident_words heap - resident) in
  if minor > 128. then Alcotest.failf "the build allocates %.0f minor words" minor;
  if scratch /. float_of_int n >= 2.25 then
    Alcotest.failf "the build's scratch is %.3f words per key"
      (scratch /. float_of_int n)

let test_hash_create_bad_buckets () =
  List.iter
    (fun n_buckets ->
      let _, heap, _ = world () in
      match St_dslib.Hash_table.create_raw heap ~n_buckets with
      | _ -> Alcotest.failf "n_buckets %d accepted" n_buckets
      | exception Invalid_argument _ -> ())
    [ 0; -4 ]

let test_skiplist_populate_invariant () =
  let _, heap, _ = world () in
  let t = St_dslib.Skiplist.create_raw heap in
  St_dslib.Skiplist.populate_raw heap t
    ~keys:(Array.init 200 (fun i -> i * 3))
    ~rng:(Rng.create ~seed:9) ~note_link:ignore;
  checkb "levels are sublists" true (St_dslib.Skiplist.check_raw heap t);
  checki "level0 complete" 200
    (List.length (St_dslib.Skiplist.to_list_raw heap t))

let () =
  Alcotest.run "st_dslib"
    [
      ( "sequential",
        [
          QCheck_alcotest.to_alcotest (prop_sequential "list" list_ops);
          QCheck_alcotest.to_alcotest (prop_sequential "skiplist" skiplist_ops);
          QCheck_alcotest.to_alcotest (prop_sequential "hash" hash_ops);
          QCheck_alcotest.to_alcotest prop_find_position;
          QCheck_alcotest.to_alcotest prop_skiplist_search;
          Alcotest.test_case "queue FIFO" `Quick test_queue_sequential;
          Alcotest.test_case "stack LIFO" `Quick test_stack_sequential;
          Alcotest.test_case "list populate" `Quick test_populate_sorted;
          Alcotest.test_case "skiplist populate" `Quick
            test_skiplist_populate_invariant;
        ] );
      ( "hash bulk",
        [
          QCheck_alcotest.to_alcotest prop_bulk_populate;
          QCheck_alcotest.to_alcotest prop_bulk_populate_partitions;
          QCheck_alcotest.to_alcotest prop_length_raw_marked;
          Alcotest.test_case "multi-chunk image" `Quick
            test_bulk_populate_chunks;
          Alcotest.test_case "two-domain build and census" `Quick
            test_bulk_populate_two_domains;
          Alcotest.test_case "multi-chunk image, distinct keys" `Quick
            test_bulk_populate_distinct_chunks;
          Alcotest.test_case "each link reported once" `Quick
            test_hash_populate_links_once;
          Alcotest.test_case "links reported in address order" `Quick
            test_hash_note_link_order;
          Alcotest.test_case "negative key refused" `Quick
            test_hash_populate_negative_key;
          Alcotest.test_case "build allocation" `Quick
            test_hash_build_allocation;
          Alcotest.test_case "bad bucket counts" `Quick
            test_hash_create_bad_buckets;
        ] );
      ("conservation", conservation_cases);
      ( "queue",
        [ Alcotest.test_case "multiset conservation" `Quick test_queue_conservation ] );
      ( "stack",
        [
          Alcotest.test_case "multiset conservation" `Quick
            test_stack_conservation;
          Alcotest.test_case "unsafe detected" `Quick test_stack_unsafe_detected;
        ] );
    ]
