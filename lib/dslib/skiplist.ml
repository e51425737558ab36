(** Fraser-Harris lock-free skip list (Fraser 2004) over simulated memory,
    functorised over the reclamation scheme — the paper's long-operation
    benchmark.

    Node layout (2 + level words): [| key; level; next_0 .. next_{l-1} |].
    Each next pointer carries its own low-bit deletion mark; once a field is
    marked it is frozen forever.  Deletion marks the tower top-down (the
    level-0 mark is the linearization point and elects the unique deleter),
    then runs a search to physically unlink every level before retiring the
    node, so a retired node really is unreachable (a requirement of
    quiescence-style schemes).

    Hazard-slot map (manual, per the pointer-scheme contract):
    - slot [pred_slot l = 3 + l] pins the level-[l] predecessor,
    - slot [succ_slot l = 3 + max_level + l] holds the current node while
      walking level [l] (and ends up pinning succs[l]),
    - slot 2 pins a freshly allocated node across its publication.
    Predecessor pinning uses [protect_value] (hazard copy: the value moves
    from the succ slot to the pred slot while continuously protected). *)

open St_mem
open St_reclaim

let max_level = 12

let key_off = 0
let level_off = 1
let next_off lvl = 2 + lvl
let node_size level = 2 + level

let op_contains = 21
let op_insert = 22
let op_delete = 23

(* Frame locals: preds in 4..15+4, succs in 24..35+4, scratch below. *)
let l_pred lvl = 4 + lvl
let l_succ lvl = 4 + max_level + lvl
let l_node = 0
let l_curr = 1

let pred_slot lvl = 3 + lvl
let succ_slot lvl = 3 + max_level + lvl
let node_slot = 2

type t = { head : Word.addr }

let head_key = -1

(* ------------------------------------------------------------------ *)
(* Raw construction                                                    *)
(* ------------------------------------------------------------------ *)

let create_raw heap =
  let head = Heap.alloc heap ~tid:0 ~size:(node_size max_level) in
  Heap.write heap ~tid:0 (head + key_off) head_key;
  Heap.write heap ~tid:0 (head + level_off) max_level;
  for l = 0 to max_level - 1 do
    Heap.write heap ~tid:0 (head + next_off l) Word.null
  done;
  { head }

(* Deterministic geometric level for pre-population. *)
let random_level rng =
  let rec go l = if l < max_level && St_sim.Rng.bool rng then go (l + 1) else l in
  go 1

let populate_raw heap t ~keys ~rng ~note_link =
  let sorted = List.sort_uniq compare (Array.to_list keys) in
  (* Build level by level: remember the last node at each level. *)
  let last = Array.make max_level t.head in
  List.iter
    (fun k ->
      let level = random_level rng in
      let n = Heap.alloc heap ~tid:0 ~size:(node_size level) in
      Heap.write heap ~tid:0 (n + key_off) k;
      Heap.write heap ~tid:0 (n + level_off) level;
      for l = 0 to level - 1 do
        Heap.write heap ~tid:0 (n + next_off l) Word.null;
        Heap.write heap ~tid:0 (last.(l) + next_off l) n;
        note_link n;
        last.(l) <- n
      done)
    sorted

let to_list_raw heap t =
  let rec go addr acc =
    if addr = Word.null then List.rev acc
    else
      let key = Heap.peek heap (addr + key_off) in
      let next = Word.unmark (Heap.peek heap (addr + next_off 0)) in
      go next (key :: acc)
  in
  go (Word.unmark (Heap.peek heap (t.head + next_off 0))) []

(* Structural invariant check (quiescent): every level sorted, and every
   level-l list a sublist of level l-1. *)
let check_raw heap t =
  let level_keys l =
    let rec go addr acc =
      if addr = Word.null then List.rev acc
      else
        let key = Heap.peek heap (addr + key_off) in
        let next = Heap.peek heap (addr + next_off l) in
        if Word.is_marked next then None |> fun _ -> List.rev acc
        else go next (key :: acc)
    in
    go (Word.unmark (Heap.peek heap (t.head + next_off l))) []
  in
  let sorted l = List.sort compare l = l in
  let rec sublist xs ys =
    match (xs, ys) with
    | [], _ -> true
    | _, [] -> false
    | x :: xs', y :: ys' -> if x = y then sublist xs' ys' else sublist xs ys'
  in
  let ok = ref (sorted (level_keys 0)) in
  for l = 1 to max_level - 1 do
    let kl = level_keys l in
    if not (sorted kl && sublist kl (level_keys (l - 1))) then ok := false
  done;
  !ok

(* ------------------------------------------------------------------ *)
(* Concurrent operations                                               *)
(* ------------------------------------------------------------------ *)

module Make (G : Guard.S) = struct
  type nonrec t = t

  (* Search: fill preds/succs frame locals for every level; returns the
     level-0 successor's address if its key equals [key] (it is then live
     and protected in succ_slot 0), or null.  Restarts from the top on any
     marked predecessor chain. *)
  let rec search env t key =
    G.local_set env (l_pred (max_level - 1)) t.head;
    level_walk env t key ~lvl:(max_level - 1) ~pred:t.head

  and level_walk env t key ~lvl ~pred =
    (* Walk level [lvl] from [pred] until succ.key >= key. *)
    let rec hop pred =
      let curr_w = G.protected_read env ~slot:(succ_slot lvl) (pred + next_off lvl) in
      if Word.is_marked curr_w then
        (* pred is logically deleted: restart the whole search. *)
        `Restart
      else if curr_w = Word.null then `Done (pred, Word.null)
      else begin
        let curr = curr_w in
        let next_w = G.read env (curr + next_off lvl) in
        if Word.is_marked next_w then begin
          (* curr deleted at this level: help unlink (safe without a hazard
             on next: success requires pred.next still = curr). *)
          if G.cas env (pred + next_off lvl) ~expect:curr (Word.unmark next_w)
          then hop pred
          else `Restart
        end
        else begin
          let ckey = G.read env (curr + key_off) in
          if ckey < key then begin
            (* Advance: curr becomes pred; move its protection over. *)
            G.protect_value env ~slot:(pred_slot lvl) curr;
            G.local_set env (l_pred lvl) curr;
            hop curr
          end
          else `Done (pred, curr)
        end
      end
    in
    match hop pred with
    | `Restart -> search env t key
    | `Done (pred, succ) ->
        G.local_set env (l_pred lvl) pred;
        G.local_set env (l_succ lvl) succ;
        if lvl = 0 then begin
          if succ <> Word.null && G.read env (succ + key_off) = key then succ
          else Word.null
        end
        else begin
          (* Descend, starting from this level's predecessor.  Its
             protection lives in pred_slot lvl (or it is the head). *)
          if pred <> t.head then G.protect_value env ~slot:(pred_slot (lvl - 1)) pred;
          G.local_set env (l_pred (lvl - 1)) pred;
          level_walk env t key ~lvl:(lvl - 1) ~pred
        end

  let contains t th key =
    G.run_op th ~op_id:op_contains (fun env ->
        search env t key <> Word.null)

  (* Pick a tower height with replay-stable randomness. *)
  let pick_level env =
    let rec go l = if l < max_level && G.rand env 2 = 1 then go (l + 1) else l in
    go 1

  let rec insert t th key =
    G.run_op th ~op_id:op_insert (fun env ->
        let rec attempt () =
          if search env t key <> Word.null then false
          else begin
            let level = pick_level env in
            let node = G.alloc env ~size:(node_size level) in
            G.local_set env l_node node;
            G.protect_value env ~slot:node_slot node;
            G.write env (node + key_off) key;
            G.write env (node + level_off) level;
            for l = 0 to level - 1 do
              G.write env (node + next_off l) (G.local_get env (l_succ l))
            done;
            let succ0 = G.local_get env (l_succ 0) in
            let pred0 = G.local_get env (l_pred 0) in
            if not (G.cas env (pred0 + next_off 0) ~expect:succ0 node) then begin
              (* Lost the level-0 race: unpublish and retry from scratch. *)
              for l = 0 to level - 1 do
                G.write env (node + next_off l) Word.null
              done;
              G.retire env node;
              attempt ()
            end
            else begin
              link_upper env t key ~node ~level ~lvl:1;
              true
            end
          end
        in
        attempt ())

  (* Link the node at levels 1..level-1; helping searches may already be
     unlinking it if it got deleted mid-insert, in which case we stop. *)
  and link_upper env t key ~node ~level ~lvl =
    if lvl < level then begin
      let next_w = G.read env (node + next_off lvl) in
      if Word.is_marked next_w then () (* deleted while inserting: stop *)
      else begin
        let pred = G.local_get env (l_pred lvl) in
        let succ = G.local_get env (l_succ lvl) in
        (* Make sure the node's forward pointer agrees with succ before
           swinging pred; a marked field freezes and aborts the linking. *)
        if
          next_w = succ
          || G.cas env (node + next_off lvl) ~expect:next_w succ
        then begin
          if G.cas env (pred + next_off lvl) ~expect:succ node then
            link_upper env t key ~node ~level ~lvl:(lvl + 1)
          else begin
            (* Predecessor changed: re-search to refresh (and re-protect)
               preds/succs, then retry this level; if the node got deleted
               meanwhile the marked-field check above stops the linking. *)
            ignore (search env t key);
            link_upper env t key ~node ~level ~lvl
          end
        end
        else link_upper env t key ~node ~level ~lvl
      end
    end

  let delete t th key =
    G.run_op th ~op_id:op_delete (fun env ->
        let node = search env t key in
        if node = Word.null then false
        else begin
          G.local_set env l_curr node;
          let level = G.read env (node + level_off) in
          (* Mark the tower top-down; level 0 elects the deleter. *)
          let rec mark_level l =
            if l >= 1 then begin
              let rec try_mark () =
                let w = G.read env (node + next_off l) in
                if Word.is_marked w then ()
                else if not (G.cas env (node + next_off l) ~expect:w (Word.mark w))
                then try_mark ()
              in
              try_mark ();
              mark_level (l - 1)
            end
          in
          mark_level (level - 1);
          let rec claim () =
            let w = G.read env (node + next_off 0) in
            if Word.is_marked w then `Lost
            else if G.cas env (node + next_off 0) ~expect:w (Word.mark w) then
              `Won
            else claim ()
          in
          match claim () with
          | `Lost -> false
          | `Won ->
              (* Physically unlink at every level (the search helps), then
                 retire: we are the unique level-0 marker. *)
              ignore (search env t key);
              G.retire env node;
              true
        end)

  let size t th =
    G.run_op th ~op_id:op_contains (fun env ->
        let rec count addr acc =
          if addr = Word.null then acc
          else begin
            let next_w = G.protected_read env ~slot:(succ_slot 0) (addr + next_off 0) in
            G.local_set env l_curr (Word.unmark next_w);
            let acc = if Word.is_marked next_w then acc else acc + 1 in
            count (Word.unmark next_w) acc
          end
        in
        let first = G.protected_read env ~slot:(pred_slot 0) (t.head + next_off 0) in
        G.local_set env l_curr (Word.unmark first);
        count (Word.unmark first) 0)
end
