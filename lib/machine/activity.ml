open St_sim

type 'a t = {
  slots : 'a option array; (* by tid: its latest record *)
  order : Ivec.t; (* tids, in first-registration order *)
  mutable high : int;
      (* 1 + highest registered tid: [iter] scans [0, high) instead of all
         [Topology.max_threads] slots. *)
}

let create () =
  {
    slots = Array.make Topology.max_threads None;
    order = Ivec.create ();
    high = 0;
  }

let register t ~tid x =
  if Option.is_none t.slots.(tid) then begin
    Ivec.push t.order tid;
    if tid >= t.high then t.high <- tid + 1
  end;
  t.slots.(tid) <- Some x

let count t = Ivec.length t.order
let get t ~tid = t.slots.(tid)
let nth t i = Option.get t.slots.(Ivec.get t.order i)

let iter t f =
  for tid = 0 to t.high - 1 do
    match t.slots.(tid) with Some x -> f x | None -> ()
  done

let iter_newest t f =
  for i = count t - 1 downto 0 do
    f (nth t i)
  done
