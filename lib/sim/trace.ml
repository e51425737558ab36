type category = Sched | Cache | Htm | Reclaim | Engine

let category_name = function
  | Sched -> "sched"
  | Cache -> "cache"
  | Htm -> "htm"
  | Reclaim -> "reclaim"
  | Engine -> "engine"

type phase = Instant | Begin | End | Counter

type event = {
  time : int;
  tid : int;
  category : category;
  phase : phase;
  name : string;
  detail : string;
}

type t = {
  enabled : bool;
  capacity : int;
  ring : event option array;
  mutable next : int; (* total events ever recorded *)
}

let create ?(capacity = 4096) ~enabled () =
  assert (capacity > 0);
  { enabled; capacity; ring = Array.make capacity None; next = 0 }

let[@inline] on t = t.enabled
let no_detail () = ""

let record t ~time ~tid ~phase category name detail =
  if t.enabled then begin
    t.ring.(t.next mod t.capacity) <-
      Some { time; tid; category; phase; name; detail = detail () };
    t.next <- t.next + 1
  end

let instant t ~time ~tid category name detail =
  record t ~time ~tid ~phase:Instant category name detail

let span_begin t ~time ~tid category name detail =
  record t ~time ~tid ~phase:Begin category name detail

let span_end t ~time ~tid category name detail =
  record t ~time ~tid ~phase:End category name detail

(* The value is rendered into [detail] so the event record stays a plain
   string carrier; the Chrome exporter parses it back into a numeric
   counter-track sample. *)
let counter t ~time ~tid category name value =
  if t.enabled then
    record t ~time ~tid ~phase:Counter category name (fun () ->
        string_of_int value)

let size t = min t.next t.capacity
let total t = t.next
let dropped t = t.next - size t

let iter t f =
  let n = size t in
  let first = t.next - n in
  for i = first to t.next - 1 do
    match t.ring.(i mod t.capacity) with Some e -> f e | None -> ()
  done

let events t =
  let acc = ref [] in
  iter t (fun e -> acc := e :: !acc);
  List.rev !acc

let phase_marker = function
  | Instant -> '.'
  | Begin -> '<'
  | End -> '>'
  | Counter -> '#'

let dump ?last t ppf =
  let n = size t in
  let n = match last with Some k -> min k n | None -> n in
  let first = t.next - n in
  for i = first to t.next - 1 do
    match t.ring.(i mod t.capacity) with
    | Some e ->
        Format.fprintf ppf "[%10d] t%-3d %c %-8s %-16s %s@." e.time e.tid
          (phase_marker e.phase)
          (category_name e.category)
          e.name e.detail
    | None -> ()
  done
