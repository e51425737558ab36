
type t = {
  slots : Ctx.t option array;
  mutable count : int;
  mutable high : int;
      (* 1 + highest tid ever registered: [iter] scans [0, high) instead of
         all [Topology.max_threads] slots.  Monotone — a deregistered tid
         may leave a [None] hole below the watermark, which [iter] skips. *)
}

let create () =
  { slots = Array.make St_sim.Topology.max_threads None; count = 0; high = 0 }

let register t ctx =
  let tid = Ctx.tid ctx in
  if t.slots.(tid) = None then begin
    t.slots.(tid) <- Some ctx;
    t.count <- t.count + 1;
    if tid >= t.high then t.high <- tid + 1
  end

let deregister t ~tid =
  if t.slots.(tid) <> None then begin
    t.slots.(tid) <- None;
    t.count <- t.count - 1
  end

let get t ~tid = t.slots.(tid)

let iter t f =
  for tid = 0 to t.high - 1 do
    match t.slots.(tid) with Some ctx -> f ctx | None -> ()
  done

let count t = t.count
