(* Flat-int-array abort forensics ledger.  The disabled singleton makes
   every hook one load + branch; enabled recording allocates only on
   Hashtbl growth (per-line / per-segment tables) and never draws RNG or
   charges cycles, so it cannot perturb a run. *)

open St_sim

let max_retry_depth = 64

type segment = {
  op_id : int;
  split : int;
  aborts : int;
  chains : int;
  depth_sum : int;
  depth_max : int;
}

type seg_cell = {
  mutable s_aborts : int;
  mutable s_chains : int;
  mutable s_depth_sum : int;
  mutable s_depth_max : int;
}

type decision = {
  d_time : int;
  d_tid : int;
  d_op_id : int;
  d_split : int;
  d_old_limit : int;
  d_limit : int;
  d_grow : bool;
}

(* Timeline entries pack into 7 consecutive ints. *)
let ints_per_decision = 7

type t = {
  enabled : bool;
  conflict_pairs : int array;  (* victim * Topology.max_threads + aborter *)
  capacity_pairs : int array;
  interrupt_victims : int array;
  doomed_lines : (int, int) Hashtbl.t;
  mutable conflict_dooms : int;
  mutable capacity_dooms : int;
  mutable interrupt_dooms : int;
  delivered : int array;  (* indexed by cause *)
  wasted : int array;
  mutable wasted_unresolved : int;
  segments : (int, seg_cell) Hashtbl.t;  (* op_id * 4096 + split *)
  retry_depths : int array;  (* index = depth, last bucket clamps *)
  timeline : int array;
  timeline_cap : int;
  mutable timeline_len : int;
  mutable timeline_dropped : int;
}

let make ~enabled ~timeline_capacity =
  let dim =
    if enabled then Topology.max_threads * Topology.max_threads else 0
  in
  {
    enabled;
    conflict_pairs = Array.make dim 0;
    capacity_pairs = Array.make dim 0;
    interrupt_victims =
      Array.make (if enabled then Topology.max_threads else 0) 0;
    doomed_lines = Hashtbl.create (if enabled then 64 else 0);
    conflict_dooms = 0;
    capacity_dooms = 0;
    interrupt_dooms = 0;
    delivered = Array.make 4 0;
    wasted = Array.make 4 0;
    wasted_unresolved = 0;
    segments = Hashtbl.create (if enabled then 64 else 0);
    retry_depths = Array.make (if enabled then max_retry_depth + 1 else 0) 0;
    timeline =
      Array.make (if enabled then timeline_capacity * ints_per_decision else 0)
        0;
    timeline_cap = timeline_capacity;
    timeline_len = 0;
    timeline_dropped = 0;
  }

let create ?(timeline_capacity = 65536) () =
  make ~enabled:true ~timeline_capacity

let disabled = make ~enabled:false ~timeline_capacity:0
let enabled t = t.enabled

let cause_index = function
  | Htm_stats.Conflict -> 0
  | Htm_stats.Capacity -> 1
  | Htm_stats.Interrupt -> 2
  | Htm_stats.Explicit -> 3

(* ------------------------------------------------------------------ *)
(* Recording                                                           *)
(* ------------------------------------------------------------------ *)

let bump_line t line =
  let n = match Hashtbl.find_opt t.doomed_lines line with
    | Some n -> n
    | None -> 0
  in
  Hashtbl.replace t.doomed_lines line (n + 1)

let on_conflict_doom t ~victim ~aborter ~line =
  if t.enabled then begin
    let i = (victim * Topology.max_threads) + aborter in
    t.conflict_pairs.(i) <- t.conflict_pairs.(i) + 1;
    t.conflict_dooms <- t.conflict_dooms + 1;
    bump_line t line
  end

let on_capacity_doom t ~victim ~aborter =
  if t.enabled then begin
    let i = (victim * Topology.max_threads) + aborter in
    t.capacity_pairs.(i) <- t.capacity_pairs.(i) + 1;
    t.capacity_dooms <- t.capacity_dooms + 1
  end

let on_interrupt_doom t ~victim =
  if t.enabled then begin
    t.interrupt_victims.(victim) <- t.interrupt_victims.(victim) + 1;
    t.interrupt_dooms <- t.interrupt_dooms + 1
  end

let on_abort_delivered t ~tid:_ ~cause ~wasted =
  if t.enabled then begin
    let i = cause_index cause in
    t.delivered.(i) <- t.delivered.(i) + 1;
    t.wasted.(i) <- t.wasted.(i) + wasted
  end

let on_unresolved t ~wasted =
  if t.enabled then t.wasted_unresolved <- t.wasted_unresolved + wasted

let seg_key ~op_id ~split = (op_id * 4096) + split

let seg_cell t ~op_id ~split =
  let key = seg_key ~op_id ~split in
  match Hashtbl.find_opt t.segments key with
  | Some c -> c
  | None ->
      let c =
        { s_aborts = 0; s_chains = 0; s_depth_sum = 0; s_depth_max = 0 }
      in
      Hashtbl.add t.segments key c;
      c

let on_segment_abort t ~op_id ~split =
  if t.enabled then begin
    let c = seg_cell t ~op_id ~split in
    c.s_aborts <- c.s_aborts + 1
  end

let on_retry_chain t ~op_id ~split ~depth =
  if t.enabled then begin
    let d = if depth > max_retry_depth then max_retry_depth else depth in
    t.retry_depths.(d) <- t.retry_depths.(d) + 1;
    let c = seg_cell t ~op_id ~split in
    c.s_chains <- c.s_chains + 1;
    c.s_depth_sum <- c.s_depth_sum + depth;
    if depth > c.s_depth_max then c.s_depth_max <- depth
  end

let on_limit_change t ~time ~tid ~op_id ~split ~old_limit ~limit ~grow =
  if t.enabled then begin
    if t.timeline_len >= t.timeline_cap then
      t.timeline_dropped <- t.timeline_dropped + 1
    else begin
      let b = t.timeline_len * ints_per_decision in
      t.timeline.(b) <- time;
      t.timeline.(b + 1) <- tid;
      t.timeline.(b + 2) <- op_id;
      t.timeline.(b + 3) <- split;
      t.timeline.(b + 4) <- old_limit;
      t.timeline.(b + 5) <- limit;
      t.timeline.(b + 6) <- (if grow then 1 else 0);
      t.timeline_len <- t.timeline_len + 1
    end
  end

(* ------------------------------------------------------------------ *)
(* Reading                                                             *)
(* ------------------------------------------------------------------ *)

let conflict_dooms t = t.conflict_dooms
let capacity_dooms t = t.capacity_dooms
let interrupt_dooms t = t.interrupt_dooms

let iter_pairs pairs f =
  Array.iteri
    (fun i n ->
      if n <> 0 then
        f ~victim:(i / Topology.max_threads)
          ~aborter:(i mod Topology.max_threads) n)
    pairs

let iter_conflict_pairs t f = iter_pairs t.conflict_pairs f
let iter_capacity_pairs t f = iter_pairs t.capacity_pairs f

let sorted_lines tbl =
  let lines = Hashtbl.fold (fun line n acc -> (line, n) :: acc) tbl [] in
  List.sort (fun (a, _) (b, _) -> compare a b) lines

let iter_doomed_lines t f =
  List.iter (fun (line, n) -> f ~line n) (sorted_lines t.doomed_lines)

let delivered t cause = t.delivered.(cause_index cause)
let wasted_by_cause t cause = t.wasted.(cause_index cause)
let wasted_unresolved t = t.wasted_unresolved

let wasted_total t =
  Array.fold_left ( + ) t.wasted_unresolved t.wasted

let segments t =
  let rows =
    Hashtbl.fold
      (fun key c acc ->
        {
          op_id = key / 4096;
          split = key mod 4096;
          aborts = c.s_aborts;
          chains = c.s_chains;
          depth_sum = c.s_depth_sum;
          depth_max = c.s_depth_max;
        }
        :: acc)
      t.segments []
  in
  List.sort
    (fun a b ->
      match compare b.aborts a.aborts with
      | 0 -> compare (a.op_id, a.split) (b.op_id, b.split)
      | c -> c)
    rows

let iter_retry_depths t f =
  Array.iteri (fun depth n -> if n <> 0 then f ~depth n) t.retry_depths

let iter_timeline t f =
  for i = 0 to t.timeline_len - 1 do
    let b = i * ints_per_decision in
    f
      {
        d_time = t.timeline.(b);
        d_tid = t.timeline.(b + 1);
        d_op_id = t.timeline.(b + 2);
        d_split = t.timeline.(b + 3);
        d_old_limit = t.timeline.(b + 4);
        d_limit = t.timeline.(b + 5);
        d_grow = t.timeline.(b + 6) = 1;
      }
  done

let timeline_length t = t.timeline_len
let timeline_dropped t = t.timeline_dropped

let cross_check_tally t tally =
  if not t.enabled then None
  else begin
    let divergence = ref None in
    let note msg = if !divergence = None then divergence := Some msg in
    (* Per-line: every tally count must match the forensics line count. *)
    List.iter
      (fun (line, n) ->
        let tallied =
          match Hashtbl.find_opt tally line with Some n -> n | None -> 0
        in
        if tallied <> n then
          note
            (Printf.sprintf
               "line %d: forensics saw %d conflict dooms, tally saw %d" line
               n tallied))
      (sorted_lines t.doomed_lines);
    Hashtbl.iter
      (fun line n ->
        if n <> 0 && not (Hashtbl.mem t.doomed_lines line) then
          note
            (Printf.sprintf
               "line %d: tally saw %d conflict dooms, forensics saw none"
               line n))
      tally;
    (* Totals: matrix = per-line = tally. *)
    let matrix_total = Array.fold_left ( + ) 0 t.conflict_pairs in
    let tally_total = Hashtbl.fold (fun _ n acc -> acc + n) tally 0 in
    if matrix_total <> t.conflict_dooms then
      note
        (Printf.sprintf "conflict matrix sums to %d but counter says %d"
           matrix_total t.conflict_dooms);
    if tally_total <> t.conflict_dooms then
      note
        (Printf.sprintf "tally sums to %d but forensics counted %d"
           tally_total t.conflict_dooms);
    !divergence
  end
