external supported_ : unit -> bool = "pcprof_supported"
external platform_ : unit -> string = "pcprof_platform"
external start_ : int -> int -> unit = "pcprof_start"
external stop_ : unit -> int array = "pcprof_stop"
external anchor_addr : unit -> int = "pcprof_anchor_addr"
external dropped_ : unit -> int = "pcprof_dropped"
external has_signal_stack : unit -> bool = "pcprof_has_altstack"

let supported = supported_ ()
let platform = platform_ ()

type profile = { samples : int array; dropped : int; cpu_s : float }

(* Samples asked per second of CPU time. *)
let hz = 1000

(* 2^20 samples: over an hour of CPU time at the 250 Hz a common kernel
   tick allows, in 8 MiB. *)
let capacity = 1 lsl 20

let cpu_time () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let started = ref 0.

let start () =
  start_ hz capacity;
  started := cpu_time ()

let stop () =
  let samples = stop_ () in
  { samples; dropped = dropped_ (); cpu_s = cpu_time () -. !started }

(* Function symbols of [exe], ascending by address, each with the
   address where it ends: its start plus its size when [nm] gives one,
   else the next higher address [nm] lists for a symbol of any type.  A
   sizeless symbol at the top of the listing covers nothing. *)
let text_symbols exe =
  let ic = Unix.open_process_args_in "nm" [| "nm"; "-n"; "-S"; exe |] in
  let entries = ref [] in
  let add addr size ty name =
    match int_of_string_opt ("0x" ^ addr) with
    | Some a ->
        entries := (a, int_of_string_opt ("0x" ^ size), ty, name) :: !entries
    | None -> ()
  in
  (try
     while true do
       match String.split_on_char ' ' (input_line ic) with
       | [ addr; size; ty; name ] -> add addr size ty name
       | [ addr; ty; name ] -> add addr "" ty name
       | _ -> ()
     done
   with End_of_file -> ());
  ignore (Unix.close_process_in ic);
  (* [entries] is descending by address; [above] is the least address
     listed above the current entry's, -1 until there is one. *)
  let syms = ref [] and above = ref (-1) and last = ref (-1) in
  List.iter
    (fun (a, size, ty, name) ->
      if !last > a then above := !last;
      (if ty = "T" || ty = "t" then
         let stop =
           match size with Some s -> a + s | None -> max a !above
         in
         syms := (a, stop, name) :: !syms);
      last := a)
    !entries;
  Array.of_list !syms

(* [camlSt_sim__Sched.dispatch_1234] -> [camlSt_sim__Sched.dispatch]: the
   stamp changes with any edit to the module. *)
let function_name sym =
  if not (String.contains sym '.') then sym
  else
    match String.rindex_opt sym '_' with
    | Some i
      when i + 1 < String.length sym
           && String.for_all
                (function '0' .. '9' -> true | _ -> false)
                (String.sub sym (i + 1) (String.length sym - i - 1)) ->
        String.sub sym 0 i
    | _ -> sym

let outside = "(outside the executable)"

(* The symbol holding [addr]: the last one at or below it, if [addr] is
   below its end. *)
let symbol_at syms addr =
  let rec go lo hi =
    (* invariant: syms.(lo) <= addr < syms.(hi) *)
    if hi - lo <= 1 then lo
    else
      let mid = (lo + hi) / 2 in
      let a, _, _ = syms.(mid) in
      if a <= addr then go mid hi else go lo mid
  in
  let n = Array.length syms in
  let first, _, _ = if n > 0 then syms.(0) else (max_int, 0, "") in
  if addr < first then outside
  else
    let _, stop, name = syms.(go 0 n) in
    if addr >= stop then outside else function_name name

let write_report oc p =
  let syms = text_symbols Sys.executable_name in
  let offset =
    match
      Array.find_opt (fun (_, _, name) -> name = "pcprof_anchor") syms
    with
    | Some (a, _, _) -> anchor_addr () - a
    | None -> failwith "Pcprof: nm lists no pcprof_anchor in the executable"
  in
  let counts = Hashtbl.create 256 in
  Array.iter
    (fun pc ->
      let f = symbol_at syms (pc - offset) in
      Hashtbl.replace counts f
        (1 + Option.value ~default:0 (Hashtbl.find_opt counts f)))
    p.samples;
  let rows =
    List.sort
      (fun (f, c) (g, d) -> if c <> d then compare d c else compare f g)
      (Hashtbl.fold (fun f c acc -> (f, c) :: acc) counts [])
  in
  let n = Array.length p.samples in
  Printf.fprintf oc
    "# pc-profile: %d samples over %.2f s of CPU time, %.1f Hz obtained (%d \
     Hz asked), %d dropped\n"
    n p.cpu_s
    (if p.cpu_s > 0. then float_of_int n /. p.cpu_s else 0.)
    hz p.dropped;
  Printf.fprintf oc "# %8s %7s  %s\n" "samples" "share" "function";
  List.iter
    (fun (f, c) ->
      Printf.fprintf oc "%10d %6.2f%%  %s\n" c
        (100. *. float_of_int c /. float_of_int n)
        f)
    rows
