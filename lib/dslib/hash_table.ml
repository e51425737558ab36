(** Lock-free hash table with Harris-list buckets (the paper's low-contention
    benchmark: "a lock-free hash-table based on the Harris lock-free list").

    The table is a fixed array of bucket sentinel pointers (one immutable
    word per bucket, set up before concurrency starts), each heading an
    independent sorted list.  All list logic is reused from
    {!Harris_list}. *)

open St_mem
open St_reclaim

type t = { buckets : Word.addr; n_buckets : int }

let bucket_of t key = key mod t.n_buckets

let create_raw heap ~n_buckets =
  if n_buckets < 1 then
    invalid_arg
      (Printf.sprintf "Hash_table.create_raw: n_buckets = %d, need at least 1"
         n_buckets);
  let buckets = Heap.alloc heap ~tid:0 ~size:n_buckets in
  for b = 0 to n_buckets - 1 do
    let l = Harris_list.create_raw heap in
    Heap.write heap ~tid:0 (buckets + b) l.Harris_list.head
  done;
  { buckets; n_buckets }

let bucket_head_raw heap t b = Heap.peek heap (t.buckets + b)

(* Stable sort of [order.(lo .. hi-1)] (key positions) by key.  Buckets are
   short, so insertion sort is the common case; a long bucket (few buckets,
   many keys) falls back to a merge sort instead of going quadratic. *)
let sort_bucket keys order lo hi =
  if hi - lo <= 16 then
    for s = lo + 1 to hi - 1 do
      let p = order.(s) in
      let k = keys.(p) in
      let j = ref (s - 1) in
      while !j >= lo && keys.(order.(!j)) > k do
        order.(!j + 1) <- order.(!j);
        decr j
      done;
      order.(!j + 1) <- p
    done
  else begin
    let slice = Array.sub order lo (hi - lo) in
    Array.stable_sort (fun p q -> Int.compare keys.(p) keys.(q)) slice;
    Array.blit slice 0 order lo (hi - lo)
  end

(* Bulk build, equivalent to inserting the keys one at a time in list
   order: positions are counting-sorted by bucket (stable, so each bucket
   keeps input order), each bucket is sorted by key (stable, so the first
   occurrence of a duplicate leads its run and is the one kept), the kept
   keys are allocated in input order (the order one-at-a-time insertion
   allocates them, hence the same addresses and birth indices), and then
   each bucket is linked in key order. *)
let populate_raw heap t ~keys ~note_link =
  let keys = Array.of_list keys in
  let n = Array.length keys in
  let nb = t.n_buckets in
  (* [start.(b)] ends as the first slot of bucket [b] in [order]; bucket
     [b] is [order.(start.(b) .. start.(b+1) - 1)]. *)
  let start = Array.make (nb + 1) 0 in
  Array.iter
    (fun k ->
      let b = bucket_of t k in
      start.(b) <- start.(b) + 1)
    keys;
  for b = 1 to nb do
    start.(b) <- start.(b) + start.(b - 1)
  done;
  let order = Array.make n 0 in
  for i = n - 1 downto 0 do
    let b = bucket_of t keys.(i) in
    start.(b) <- start.(b) - 1;
    order.(start.(b)) <- i
  done;
  let first = Bytes.make n '\000' in
  for b = 0 to nb - 1 do
    let lo = start.(b) and hi = start.(b + 1) in
    sort_bucket keys order lo hi;
    for s = lo to hi - 1 do
      if s = lo || keys.(order.(s)) <> keys.(order.(s - 1)) then
        Bytes.set first order.(s) '\001'
    done
  done;
  let node = Array.make n Word.null in
  for i = 0 to n - 1 do
    if Bytes.get first i <> '\000' then begin
      let a = Heap.alloc heap ~tid:0 ~size:Harris_list.node_size in
      Heap.write heap ~tid:0 (a + Harris_list.key_off) keys.(i);
      node.(i) <- a
    end
  done;
  (* A fresh node's [next] is already null, so only the links into kept
     nodes are stored, each reported once. *)
  for b = 0 to nb - 1 do
    let prev = ref (bucket_head_raw heap t b) in
    for s = start.(b) to start.(b + 1) - 1 do
      let a = node.(order.(s)) in
      if a <> Word.null then begin
        Heap.write heap ~tid:0 (!prev + Harris_list.next_off) a;
        note_link a;
        prev := a
      end
    done
  done

let to_list_raw heap t =
  let acc = ref [] in
  for b = t.n_buckets - 1 downto 0 do
    let head = bucket_head_raw heap t b in
    acc :=
      Harris_list.to_list_raw heap { Harris_list.head } @ !acc
  done;
  List.sort compare !acc

let length_raw heap t =
  let rec count addr n =
    if addr = Word.null then n
    else
      count (Word.unmark (Heap.peek heap (addr + Harris_list.next_off))) (n + 1)
  in
  let n = ref 0 in
  for b = 0 to t.n_buckets - 1 do
    let head = bucket_head_raw heap t b in
    n := count (Word.unmark (Heap.peek heap (head + Harris_list.next_off))) !n
  done;
  !n

module Make (G : Guard.S) = struct
  module L = Harris_list.Make (G)

  type nonrec t = t

  (* The bucket array is immutable after setup; reading it is a plain
     (uninstrumented-by-schemes) shared read. *)
  let bucket env t key =
    let b = bucket_of t key in
    { Harris_list.head = G.read env (t.buckets + b) }

  let op_contains = 31
  let op_insert = 32
  let op_delete = 33

  let contains t th key =
    G.run_op th ~op_id:op_contains (fun env ->
        L.contains_in env (bucket env t key) key)

  let insert t th key =
    G.run_op th ~op_id:op_insert (fun env ->
        L.insert_in env (bucket env t key) key)

  let delete t th key =
    G.run_op th ~op_id:op_delete (fun env ->
        L.delete_in env (bucket env t key) key)
end
