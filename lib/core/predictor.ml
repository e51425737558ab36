(* The paper's [ctx.limits[op_id][splits]] (§5.3, Alg. 2) as a dense table
   grown on demand: row [op_id] holds two ints per split, the segment's
   limit at [2 * split] and its current run at [2 * split + 1].  The run
   counts positive for commits, negative for aborts; crossing the threshold
   adjusts the limit and resets the run.  A limit slot holding [untracked]
   belongs to a segment never seen: limits start at [initial_limit] and
   move by one within [min_limit, max_limit], so no limit is [min_int]. *)

type adjust =
  op_id:int -> split:int -> old_limit:int -> limit:int -> grow:bool -> unit

type t = {
  cfg : St_config.t;
  mutable rows : int array array;
  mutable tracked : int;
  on_adjust : adjust option;
}

let untracked = min_int
let create ?on_adjust cfg = { cfg; rows = [||]; tracked = 0; on_adjust }

let grow_rows t op_id =
  let n = Array.length t.rows in
  let rows = Array.make (max (op_id + 1) (2 * n)) [||] in
  Array.blit t.rows 0 rows 0 n;
  t.rows <- rows

let grow_row t ~op_id ~split =
  let row = t.rows.(op_id) in
  (* Twice the splits the row held: it holds two ints per split. *)
  let splits = max (split + 1) (max 8 (Array.length row)) in
  let row' = Array.make (2 * splits) untracked in
  Array.blit row 0 row' 0 (Array.length row);
  t.rows.(op_id) <- row';
  row'

(* The segment's row, grown to hold it, with the segment started at the
   initial limit on first sight; its limit is at [2 * split].  A negative
   [op_id] or [split] fails the bounds check. *)
let row t ~op_id ~split =
  if op_id >= Array.length t.rows then grow_rows t op_id;
  let row = t.rows.(op_id) in
  let i = 2 * split in
  let row = if i < Array.length row then row else grow_row t ~op_id ~split in
  if row.(i) = untracked then begin
    row.(i) <- t.cfg.St_config.initial_limit;
    row.(i + 1) <- 0;
    t.tracked <- t.tracked + 1
  end;
  row

let limit t ~op_id ~split = (row t ~op_id ~split).(2 * split)

(* The callback fires only when the limit actually moved: an adjustment
   already clamped at [min_limit]/[max_limit] is not a decision. *)
let set_limit t ~op_id ~split row limit ~grow =
  let i = 2 * split in
  let old_limit = row.(i) in
  row.(i) <- limit;
  row.(i + 1) <- 0;
  if limit <> old_limit then
    match t.on_adjust with
    | Some f -> f ~op_id ~split ~old_limit ~limit ~grow
    | None -> ()

let on_commit t ~op_id ~split =
  let row = row t ~op_id ~split in
  let i = 2 * split + 1 in
  let consec = if row.(i) > 0 then row.(i) + 1 else 1 in
  row.(i) <- consec;
  if consec >= t.cfg.St_config.consec_threshold then
    set_limit t ~op_id ~split row ~grow:true
      (min t.cfg.St_config.max_limit (row.(i - 1) + 1))

let on_abort t ~op_id ~split =
  let row = row t ~op_id ~split in
  let i = 2 * split + 1 in
  let consec = if row.(i) < 0 then row.(i) - 1 else -1 in
  row.(i) <- consec;
  if -consec >= t.cfg.St_config.consec_threshold then
    set_limit t ~op_id ~split row ~grow:false
      (max t.cfg.St_config.min_limit (row.(i - 1) - 1))

let segments_tracked t = t.tracked

let iter t f =
  Array.iteri
    (fun op_id row ->
      for split = 0 to (Array.length row / 2) - 1 do
        let limit = row.(2 * split) in
        if limit <> untracked then f ~op_id ~split ~limit
      done)
    t.rows
