(* Reference speed.

   A shared host changes speed by tens of percent over minutes, which would
   swamp any regression a host time is meant to show.  So every host time
   the benchmark reports is at reference speed: divided by the time of a
   fixed kernel measured just before it (at most [max_age] earlier), and
   multiplied by [reference_ms].

   The kernel is a miniature of the simulator's own host work, so that
   contention from other tenants slows it about as much as the simulator (a
   plain arithmetic loop was measured to slow down more, a pointer chase
   less): sixteen fibers on an effect handler step a generator, update a
   512 KiB array and probe a small hash table, yielding every fourth step.
   It lives here, so no change to the simulator moves it, and it allocates
   only short-lived values, so its work does not depend on what the
   simulator left on the major heap.  It takes about [reference_ms] on an
   idle host of the kind this was written on (2 vCPUs), where
   reference-speed times read close to wall times. *)

let reference_ms = 10.
let max_age = 0.2

let median = function
  | [] -> 0.
  | l ->
      let a = Array.of_list l in
      Array.sort compare a;
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

type _ Effect.t += Yield : unit Effect.t

let cells = Array.make 65536 0
let index = Hashtbl.create 4096

let () =
  for i = 0 to 4095 do
    Hashtbl.replace index (i * 7919) i
  done

let kernel () =
  let ready = Queue.create () and total = ref 0 in
  let fiber id () =
    let x = ref (id * 104729) in
    for step = 1 to 8_000 do
      x := ((!x * 1103515245) + 12345) land 0x3FFFFFFF;
      let a = !x land 65535 in
      cells.(a) <- cells.(a) + step;
      (match Hashtbl.find_opt index ((!x land 8191) * 7919) with
      | Some v -> total := !total + v
      | None -> incr total);
      if step land 3 = 0 then Effect.perform Yield
    done
  in
  let handler =
    {
      Effect.Deep.retc = Fun.id;
      exnc = raise;
      effc =
        (fun (type a) (e : a Effect.t) ->
          match e with
          | Yield ->
              Some
                (fun (k : (a, unit) Effect.Deep.continuation) ->
                  Queue.push (fun () -> Effect.Deep.continue k ()) ready)
          | _ -> None);
    }
  in
  for id = 0 to 15 do
    Queue.push (fun () -> Effect.Deep.match_with (fiber id) () handler) ready
  done;
  while not (Queue.is_empty ready) do
    (Queue.pop ready) ()
  done;
  !total

let samples = ref []
let latest_ms = ref nan
let taken = ref neg_infinity

(* Time the kernel; call it just before timing something. *)
let sample () =
  let t0 = Unix.gettimeofday () in
  ignore (Sys.opaque_identity (kernel ()));
  taken := Unix.gettimeofday ();
  latest_ms := 1e3 *. (!taken -. t0);
  samples := !latest_ms :: !samples

(* [sample] unless the kernel was timed less than [max_age] ago: the same
   for frequent short measurements, at a fraction of the cost. *)
let refresh () = if Unix.gettimeofday () -. !taken > max_age then sample ()

(* A host time measured after the last [sample], at reference speed; any
   unit. *)
let scale t = t *. reference_ms /. !latest_ms

(* The kernel's median raw time over the process so far, in ms. *)
let kernel_ms () = median !samples
