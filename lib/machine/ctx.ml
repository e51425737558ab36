let n_registers = 16
let max_frame = 64

type t = {
  work_regs : int array;
  mutable reg_cursor : int;
  work_frame : int array;
  mutable frame_used : int;
  exposed_regs : int array;
  exposed_frame : int array;
  mutable exposed_frame_used : int;
  mutable splits : int;
  mutable oper_counter : int;
  mutable active : bool;
  mutable op_id : int;
}

let create () =
  {
    work_regs = Array.make n_registers 0;
    reg_cursor = 0;
    work_frame = Array.make max_frame 0;
    frame_used = 0;
    exposed_regs = Array.make n_registers 0;
    exposed_frame = Array.make max_frame 0;
    exposed_frame_used = 0;
    splits = 0;
    oper_counter = 0;
    active = false;
    op_id = 0;
  }

(* [n_registers] is a power of two and the cursor is nonnegative, so the
   wrap is a mask (this runs on every simulated shared load). *)
let note_load t v =
  t.work_regs.(t.reg_cursor) <- v;
  t.reg_cursor <- (t.reg_cursor + 1) land (n_registers - 1)

let local_set t slot v =
  assert (slot >= 0 && slot < max_frame);
  t.work_frame.(slot) <- v;
  if slot >= t.frame_used then t.frame_used <- slot + 1

let local_get t slot =
  assert (slot >= 0 && slot < max_frame);
  t.work_frame.(slot)

(* Only [local_set] writes the frame, and it keeps every slot it wrote
   below [frame_used], so the slots from [frame_used] on are already
   zero. *)
let clear_working t =
  Array.fill t.work_regs 0 n_registers 0;
  t.reg_cursor <- 0;
  Array.fill t.work_frame 0 t.frame_used 0;
  t.frame_used <- 0

let expose t =
  Array.blit t.work_regs 0 t.exposed_regs 0 n_registers;
  Array.blit t.work_frame 0 t.exposed_frame 0 t.frame_used;
  t.exposed_frame_used <- t.frame_used;
  t.splits <- t.splits + 1;
  n_registers + t.frame_used

let splits t = t.splits
let oper_counter t = t.oper_counter

let begin_operation t ~op_id =
  clear_working t;
  t.op_id <- op_id;
  t.active <- true

let end_operation t =
  t.oper_counter <- t.oper_counter + 1;
  t.active <- false

let op_active t = t.active
let op_id t = t.op_id

let exposed_iter t f =
  for i = 0 to n_registers - 1 do
    f t.exposed_regs.(i)
  done;
  for i = 0 to t.exposed_frame_used - 1 do
    f t.exposed_frame.(i)
  done

let exposed_size t = n_registers + t.exposed_frame_used
