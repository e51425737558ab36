(** Lock-free sorted linked list (Harris 2001, with Michael's 2004
    hazard-pointer-compatible traversal), over simulated memory, functorised
    over the reclamation scheme.

    Node layout (2 words): [| key; next |].  The low bit of [next] is the
    deletion mark.  Deletion marks a node's next pointer, then unlinks it
    with a CAS on the predecessor; the thread whose CAS physically unlinks
    the node is the unique thread that retires it (the paper's "only a
    single thread may attempt to free a node").

    Traversal discipline (works under every scheme):
    - node pointers about to be traversed through are loaded with
      [protected_read] (hazard slots 0-2 rotate over pred/curr/next);
    - a marked value loaded from [pred.next] means [pred] itself is
      logically deleted, and the traversal restarts from the head — this is
      the detail that makes the algorithm safe for pointer-based schemes
      (a stale unlinked predecessor always has a marked next);
    - [pred] and [curr] are kept in frame locals so StackTrack's exposed
      stack always covers them across segment splits. *)

open St_mem
open St_reclaim

(* Word offsets within a node. *)
let key_off = 0
let next_off = 1
let node_size = 2

(* Operation ids (distinct split-length predictors per operation). *)
let op_contains = 1
let op_insert = 2
let op_delete = 3

(* Frame-local slots. *)
let l_pred = 0
let l_curr = 1
let l_next = 2
let l_node = 3

type t = { head : Word.addr }

(* ------------------------------------------------------------------ *)
(* Raw (pre-concurrency) construction                                  *)
(* ------------------------------------------------------------------ *)

(* Sentinel key smaller than any workload key. *)
let head_key = -1

let create_raw heap =
  let head = Heap.alloc heap ~tid:0 ~size:node_size in
  Heap.write heap ~tid:0 (head + key_off) head_key;
  Heap.write heap ~tid:0 (head + next_off) Word.null;
  { head }

(* Insert [keys] (deduplicated, any order) into an empty list, bypassing
   the guard: used to pre-populate benchmarks before threads start.
   [note_link] reports every pointer stored, so link-counting schemes can
   prime their counts.  A list merge sort is the fastest of the stdlib
   sorts on the few hundred keys of a list benchmark. *)
let populate_raw heap t ~keys ~note_link =
  let sorted = List.sort_uniq compare (Array.to_list keys) in
  let rec build prev = function
    | [] -> ()
    | k :: rest ->
        let n = Heap.alloc heap ~tid:0 ~size:node_size in
        Heap.write heap ~tid:0 (n + key_off) k;
        Heap.write heap ~tid:0 (n + next_off) Word.null;
        Heap.write heap ~tid:0 (prev + next_off) n;
        note_link n;
        build n rest
  in
  build t.head sorted

(* Raw sorted-order check and length, for tests. *)
let check_raw heap t =
  let rec go addr prev_key acc =
    if addr = Word.null then Some acc
    else
      let key = Heap.peek heap (addr + key_off) in
      let next = Heap.peek heap (addr + next_off) in
      if Word.is_marked next then None
      else if key <= prev_key then None
      else go next key (acc + 1)
  in
  go (Heap.peek heap (t.head + next_off)) head_key 0

let to_list_raw heap t =
  let rec go addr acc =
    if addr = Word.null then List.rev acc
    else
      let key = Heap.peek heap (addr + key_off) in
      let next = Word.unmark (Heap.peek heap (addr + next_off)) in
      go next (key :: acc)
  in
  go (Word.unmark (Heap.peek heap (t.head + next_off))) []

(* ------------------------------------------------------------------ *)
(* Concurrent operations                                               *)
(* ------------------------------------------------------------------ *)

module Make (G : Guard.S) = struct
  type nonrec t = t

  (* Result of the Michael-style find: pred/curr such that
     pred.key < key <= curr.key (curr = null at the tail), with pred and
     curr protected in the returned hazard slots. *)
  type position = {
    pred : Word.addr;
    curr : Word.addr; (* null when past the end *)
    found : bool;
    sp : int; (* slot protecting pred (-1: head sentinel, unprotected) *)
    sc : int; (* slot protecting curr *)
  }

  (* The free hazard slot among {0,1,2} given the ones protecting pred and
     curr (sp is -1 while pred is the unprotected head sentinel). *)
  let third sp sc = if sp < 0 then (sc + 1) mod 3 else 3 - sp - sc

  (* Rotating three hazard slots over pred/curr/next is the standard manual
     hazard-pointer discipline; automatic schemes ignore the slot index. *)
  let rec find env t key =
    let head = t.head in
    G.local_set env l_pred head;
    let curr_w = G.protected_read env ~slot:0 (head + next_off) in
    if Word.is_marked curr_w then find env t key
    else begin
      G.local_set env l_curr curr_w;
      walk env t key ~pred:head ~sp:(-1) ~curr:curr_w ~sc:0
    end

  and walk env t key ~pred ~sp ~curr ~sc =
    if curr = Word.null then { pred; curr = Word.null; found = false; sp; sc }
    else begin
      let ckey = G.read env (curr + key_off) in
      let sn = third sp sc in
      let next_w = G.protected_read env ~slot:sn (curr + next_off) in
      G.local_set env l_next next_w;
      if Word.is_marked next_w then begin
        (* curr is logically deleted: help unlink it.  On success the
           unlinking thread retires the node; on failure the list changed
           under us and we restart from the head. *)
        let succ = Word.unmark next_w in
        if G.cas env (pred + next_off) ~expect:curr succ then begin
          G.retire env curr;
          G.release env ~slot:sc;
          let curr_w = G.protected_read env ~slot:sc (pred + next_off) in
          if Word.is_marked curr_w then find env t key
          else begin
            G.local_set env l_curr curr_w;
            walk env t key ~pred ~sp ~curr:curr_w ~sc
          end
        end
        else find env t key
      end
      else if ckey >= key then
        { pred; curr; found = ckey = key; sp; sc }
      else begin
        (* Advance: pred <- curr, curr <- next. *)
        G.local_set env l_pred curr;
        G.local_set env l_curr next_w;
        walk env t key ~pred:curr ~sp:sc ~curr:next_w ~sc:sn
      end
    end

  (* Env-level operations, also reused by the hash table's buckets. *)

  let contains_in env t key = (find env t key).found

  let rec insert_in env t key =
    let pos = find env t key in
    if pos.found then false
    else begin
      let node = G.alloc env ~size:node_size in
      G.local_set env l_node node;
      G.write env (node + key_off) key;
      G.write env (node + next_off) pos.curr;
      if G.cas env (pos.pred + next_off) ~expect:pos.curr node then true
      else begin
        (* Lost the race: unpublish the fresh node (clearing the next field
           keeps link-counting schemes consistent) and retry. *)
        G.write env (node + next_off) Word.null;
        G.retire env node;
        insert_in env t key
      end
    end

  let rec delete_in env t key =
    let pos = find env t key in
    if not pos.found then false
    else begin
      let curr = pos.curr in
      let sn = third pos.sp pos.sc in
      let next_w = G.protected_read env ~slot:sn (curr + next_off) in
      if Word.is_marked next_w then
        (* Someone else is already deleting this node. *)
        delete_in env t key
      else if G.cas env (curr + next_off) ~expect:next_w (Word.mark next_w)
      then begin
        (* Logical deletion done; try the physical unlink.  If it fails a
           helper (or another traversal) will unlink and retire the node. *)
        if G.cas env (pos.pred + next_off) ~expect:curr next_w then
          G.retire env curr;
        true
      end
      else delete_in env t key
    end

  let contains t th key =
    G.run_op th ~op_id:op_contains (fun env -> contains_in env t key)

  let insert t th key =
    G.run_op th ~op_id:op_insert (fun env -> insert_in env t key)

  let delete t th key =
    G.run_op th ~op_id:op_delete (fun env -> delete_in env t key)

  let size t th =
    (* Read-only full traversal counting unmarked nodes; linearizable only
       in quiescent states (used by tests and examples). *)
    G.run_op th ~op_id:op_contains (fun env ->
        let rec count addr slot acc =
          if addr = Word.null then acc
          else begin
            let next_w = G.protected_read env ~slot (addr + next_off) in
            G.local_set env l_curr (Word.unmark next_w);
            let acc = if Word.is_marked next_w then acc else acc + 1 in
            count (Word.unmark next_w) ((slot + 1) mod 3) acc
          end
        in
        let first = G.protected_read env ~slot:0 (t.head + next_off) in
        G.local_set env l_curr (Word.unmark first);
        count (Word.unmark first) 1 0)
end
