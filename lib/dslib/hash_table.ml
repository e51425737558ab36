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

(* The sentinels are one run, so sentinel [b] is at [first + b * stride].
   Their [next] words are already null, so only the keys and the bucket
   entries are stored. *)
let create_raw heap ~n_buckets =
  if n_buckets < 1 then
    invalid_arg
      (Printf.sprintf "Hash_table.create_raw: n_buckets = %d, need at least 1"
         n_buckets);
  let buckets = Heap.alloc heap ~tid:0 ~size:n_buckets in
  let first =
    Heap.alloc_run heap ~tid:0 ~size:Harris_list.node_size ~count:n_buckets
  in
  let stride = Heap.size_of heap first in
  for b = 0 to n_buckets - 1 do
    let head = first + (b * stride) in
    Heap.write heap ~tid:0 (head + Harris_list.key_off) Harris_list.head_key;
    Heap.write heap ~tid:0 (buckets + b) head
  done;
  { buckets; n_buckets }

let bucket_head_raw heap t b = Heap.peek heap (t.buckets + b)

(* The bulk build's scratch is [Bytes] of native-endian 32- and 64-bit
   slots, read and written unchecked like the heap's chunks.  Every index
   is a position below the key count, a bucket below [n_buckets] or a
   record of the widest partition, established before it is used.
   Positions, ranks and bucket offsets fit the 32-bit slots below
   [slot_limit]. *)
external get32u : Bytes.t -> int -> int32 = "%caml_bytes_get32u"
external set32u : Bytes.t -> int -> int32 -> unit = "%caml_bytes_set32u"
external get64u : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64u : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let[@inline] get32 b i = Int32.to_int (get32u b (i lsl 2))
let[@inline] set32 b i v = set32u b (i lsl 2) (Int32.of_int v)
let slot_limit = 1 lsl 31

(* A record is 12 bytes: a key, then its input position. *)
let[@inline] rec_key r s = Int64.to_int (get64u r (12 * s))
let[@inline] rec_pos r s = Int32.to_int (get32u r ((12 * s) + 8))

let[@inline] set_rec r s key pos =
  set64u r (12 * s) (Int64.of_int key);
  set32u r ((12 * s) + 8) (Int32.of_int pos)

(* A partition is a run of [1 lsl shift] consecutive buckets, with [shift]
   the least that leaves at most [max_partitions] of them: the scatter
   writes one stream per partition. *)
let max_partitions = 512

(* Buckets up to this many keys are insertion-sorted. *)
let insertion_cutoff = 16

(* [succ]'s marks: the end of a chain, and a later copy of a kept key. *)
let chain_end = -1
let dropped = -2

(* Stable sort of the records [lo, hi) of [r] by key.  Stable, so the
   first copy of a duplicate leads its run. *)
let sort_by_key r lo hi =
  if hi - lo <= insertion_cutoff then
    for s = lo + 1 to hi - 1 do
      let k = rec_key r s and p = rec_pos r s in
      let j = ref (s - 1) in
      while !j >= lo && rec_key r !j > k do
        set_rec r (!j + 1) (rec_key r !j) (rec_pos r !j);
        decr j
      done;
      set_rec r (!j + 1) k p
    done
  else begin
    let ix = Array.init (hi - lo) (fun j -> lo + j) in
    Array.stable_sort (fun p q -> Int.compare (rec_key r p) (rec_key r q)) ix;
    let ks = Array.map (rec_key r) ix and ps = Array.map (rec_pos r) ix in
    Array.iteri (fun j k -> set_rec r (lo + j) k ps.(j)) ks
  end

(* Partitions [p0, p1) of the scattered records [recs], each
   counting-sorted by bucket into [local], then each bucket sorted by key,
   giving each bucket's first kept key in [first] and each key's successor
   in [succ]; returns the count of dropped keys.  [local] holds the widest
   partition's records, then each record's bucket offset while it waits;
   [count] a slot per bucket of a partition, and one.  A partition writes
   only its own buckets' [first] slots and its own keys' [succ] slots, so
   disjoint ranges of partitions can run at once. *)
let sort_partitions ~recs ~pstart ~nb ~shift ~first ~succ (local, count) p0 p1
    =
  let off_at = 3 * (Bytes.length local / 16) in
  let w = 1 lsl shift in
  let dropped_keys = ref 0 in
  for p = p0 to p1 - 1 do
    let ps = pstart.(p) and pe = pstart.(p + 1) in
    let b0 = p lsl shift in
    let wp = Int.min w (nb - b0) in
    Array.fill count 0 (wp + 1) 0;
    for s = ps to pe - 1 do
      let off = (rec_key recs s mod nb) - b0 in
      set32 local (off_at + s - ps) off;
      Array.unsafe_set count (off + 1) (Array.unsafe_get count (off + 1) + 1)
    done;
    for j = 1 to wp do
      count.(j) <- count.(j) + count.(j - 1)
    done;
    for s = ps to pe - 1 do
      let off = get32 local (off_at + s - ps) in
      let d = Array.unsafe_get count off in
      Array.unsafe_set count off (d + 1);
      set_rec local d (rec_key recs s) (rec_pos recs s)
    done;
    (* [count.(j)] is now where bucket [b0 + j]'s records end. *)
    let lo = ref 0 in
    for j = 0 to wp - 1 do
      let hi = count.(j) in
      if hi > !lo then begin
        sort_by_key local !lo hi;
        let prev = ref (rec_pos local !lo) in
        set32 first (b0 + j) !prev;
        for s = !lo + 1 to hi - 1 do
          let i = rec_pos local s in
          if rec_key local s <> rec_key local (s - 1) then begin
            set32 succ !prev i;
            prev := i
          end
          else begin
            set32 succ i dropped;
            incr dropped_keys
          end
        done;
        set32 succ !prev chain_end
      end;
      lo := hi
    done
  done;
  !dropped_keys

(* Bulk build, equivalent to inserting the keys one at a time in array
   order, in passes that each stream through memory or stay within one
   cache-sized partition:
   + one read of the keys checks them and counts each partition's keys;
   + a stable scatter of (key, position) records by partition;
   + per partition, a counting sort by bucket into a buffer sized to the
     widest partition, then a stable sort by key within each bucket,
     which gives each bucket's first kept key and each kept key's
     successor, and drops later copies of a key ([sort_partitions], the
     two halves of the partitions on two domains for a large build);
   + the kept keys' nodes as one run from the break, in input order (the
     order one-at-a-time insertion allocates them, hence the same
     addresses and birth indices), so the node of rank [r], the [r]th
     kept key, is at [base + r * stride];
   + when a key was dropped, the positions rewritten as ranks, then the
     keys and every [next] stored in address order, the bucket sentinels'
     links first.
   It runs once per table, so it is kept out of line, where host-time
   profiles name it. *)
let[@inline never] populate_raw heap t ~keys ~note_link =
  let n = Array.length keys and nb = t.n_buckets in
  if n >= slot_limit || nb < 1 || nb >= slot_limit then
    invalid_arg
      (Printf.sprintf
         "Hash_table.populate_raw: %d keys in %d buckets, need fewer than \
          2^31 keys and 1 to 2^31 - 1 buckets"
         n nb);
  let shift = ref 0 in
  while (nb - 1) lsr !shift >= max_partitions do
    incr shift
  done;
  let shift = !shift in
  let np = ((nb - 1) lsr shift) + 1 in
  let pstart = Array.make (np + 1) 0 in
  for i = 0 to n - 1 do
    let key = keys.(i) in
    if key < 0 then
      invalid_arg
        (Printf.sprintf "Hash_table.populate_raw: keys.(%d) = %d is negative"
           i key);
    let p = ((key mod nb) lsr shift) + 1 in
    Array.unsafe_set pstart p (Array.unsafe_get pstart p + 1)
  done;
  (* [pstart.(p)] is partition [p]'s first record. *)
  for p = 1 to np do
    pstart.(p) <- pstart.(p) + pstart.(p - 1)
  done;
  let recs = Bytes.create (12 * n) in
  let cursor = Array.sub pstart 0 np in
  for i = 0 to n - 1 do
    let key = Array.unsafe_get keys i in
    let p = (key mod nb) lsr shift in
    let s = Array.unsafe_get cursor p in
    Array.unsafe_set cursor p (s + 1);
    set_rec recs s key i
  done;
  (* The chains, as key positions: [first] heads each bucket's chain and
     [succ] follows each key in its chain. *)
  let succ = Bytes.create (4 * n) and first = Bytes.make (4 * nb) '\255' in
  (* Scratch for partitions [p0, p1): 16 bytes per record of the widest,
     and the bucket counts. *)
  let scratch p0 p1 =
    let widest = ref 0 in
    for p = p0 to p1 - 1 do
      widest := Int.max !widest (pstart.(p + 1) - pstart.(p))
    done;
    (Bytes.create (16 * !widest), Array.make ((1 lsl shift) + 1) 0)
  in
  let dropped_keys =
    St_sim.Halves.sum ~work:n ~n:np ~scratch
      (sort_partitions ~recs ~pstart ~nb ~shift ~first ~succ)
  in
  let base =
    Heap.alloc_run heap ~tid:0 ~size:Harris_list.node_size
      ~count:(n - dropped_keys)
  in
  let stride = Heap.size_of heap base in
  (* Without a dropped key every position is its rank.  Otherwise the
     ranks go in the spent records' first [4 n] bytes, and the positions
     in [succ] and [first] become ranks: independent loads, no store
     depends on another. *)
  if dropped_keys > 0 then begin
    let rank = recs and r = ref 0 in
    for i = 0 to n - 1 do
      set32 rank i !r;
      if get32 succ i <> dropped then incr r
    done;
    for i = 0 to n - 1 do
      let s = get32 succ i in
      if s >= 0 then set32 succ i (get32 rank s)
    done;
    for b = 0 to nb - 1 do
      let f = get32 first b in
      if f >= 0 then set32 first b (get32 rank f)
    done
  end;
  (* A fresh node's [next] is already null, so only the links into kept
     nodes are stored, each reported once: the sentinels' links, then each
     node's key and link, in address order. *)
  for b = 0 to nb - 1 do
    let f = get32 first b in
    if f >= 0 then begin
      let head = base + (f * stride) in
      Heap.write heap ~tid:0
        (bucket_head_raw heap t b + Harris_list.next_off)
        head;
      note_link head
    end
  done;
  let a = ref base in
  for i = 0 to n - 1 do
    let s = get32 succ i in
    if s <> dropped then begin
      Heap.write heap ~tid:0 (!a + Harris_list.key_off)
        (Array.unsafe_get keys i);
      if s >= 0 then begin
        let next = base + (s * stride) in
        Heap.write heap ~tid:0 (!a + Harris_list.next_off) next;
        note_link next
      end;
      a := !a + stride
    end
  done

let to_list_raw heap t =
  let acc = ref [] in
  for b = t.n_buckets - 1 downto 0 do
    let head = bucket_head_raw heap t b in
    acc :=
      Harris_list.to_list_raw heap { Harris_list.head } @ !acc
  done;
  List.sort compare !acc

(* Each bucket's chain starts at its sentinel, which the walk counts. *)
let length_raw heap t =
  let nb = t.n_buckets in
  St_sim.Halves.sum ~work:nb ~n:nb
    ~scratch:(fun _ _ -> ())
    (fun () lo hi ->
      Heap.count_chains heap ~roots:t.buckets ~first:lo ~n:(hi - lo)
        ~next_off:Harris_list.next_off)
  - nb

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
