(* Tests for the simulation kernel: PRNG determinism and distribution,
   topology placement, and scheduler semantics (determinism, fairness,
   multiplexing, preemption hooks, crash injection, HT penalty, deferred
   crossings against eager yields, and the run order against the
   per-dispatch scan it replaced, kept as [Sched_ref]). *)

open St_sim

let check = Alcotest.check
let checki = Alcotest.check Alcotest.int
let checkb = Alcotest.check Alcotest.bool

(* ------------------------------------------------------------------ *)
(* Rng                                                                 *)
(* ------------------------------------------------------------------ *)

let test_rng_deterministic () =
  let a = Rng.create ~seed:42 and b = Rng.create ~seed:42 in
  for _ = 1 to 100 do
    checki "same stream" (Rng.next a) (Rng.next b)
  done

let test_rng_seed_sensitivity () =
  let a = Rng.create ~seed:1 and b = Rng.create ~seed:2 in
  let distinct = ref false in
  for _ = 1 to 10 do
    if Rng.next a <> Rng.next b then distinct := true
  done;
  checkb "different seeds differ" true !distinct

let test_rng_split_independent () =
  let a = Rng.create ~seed:7 in
  let c = Rng.split a in
  let d = Rng.split a in
  checkb "split streams differ" true (Rng.next c <> Rng.next d)

let test_rng_bounds () =
  let r = Rng.create ~seed:3 in
  for _ = 1 to 10_000 do
    let v = Rng.int r 17 in
    checkb "in range" true (v >= 0 && v < 17)
  done

let test_rng_uniformish () =
  let r = Rng.create ~seed:11 in
  let buckets = Array.make 10 0 in
  let n = 100_000 in
  for _ = 1 to n do
    let v = Rng.int r 10 in
    buckets.(v) <- buckets.(v) + 1
  done;
  Array.iteri
    (fun i c ->
      checkb (Printf.sprintf "bucket %d near 10%%" i) true
        (c > n / 10 * 9 / 10 && c < n / 10 * 11 / 10))
    buckets

let test_rng_copy () =
  let r = Rng.create ~seed:5 in
  let _ = Rng.next r in
  let c = Rng.copy r in
  checki "copy continues identically" (Rng.next r) (Rng.next c)

let test_rng_pct () =
  let r = Rng.create ~seed:9 in
  let hits = ref 0 in
  let n = 50_000 in
  for _ = 1 to n do
    if Rng.pct r 20 then incr hits
  done;
  let ratio = float_of_int !hits /. float_of_int n in
  checkb "pct 20 near 0.2" true (ratio > 0.18 && ratio < 0.22)

let rng_nonneg =
  QCheck.Test.make ~name:"rng values non-negative" ~count:1000
    QCheck.(pair small_int small_int)
    (fun (seed, steps) ->
      let r = Rng.create ~seed in
      let ok = ref true in
      for _ = 0 to steps mod 50 do
        if Rng.next r < 0 then ok := false
      done;
      !ok)

(* ------------------------------------------------------------------ *)
(* Topology                                                            *)
(* ------------------------------------------------------------------ *)

let test_topology_defaults () =
  let t = Topology.create () in
  checki "8 lcores" 8 (Topology.lcores t)

let test_topology_siblings () =
  let t = Topology.create () in
  check Alcotest.(option int) "sibling of 0" (Some 1) (Topology.sibling t 0);
  check Alcotest.(option int) "sibling of 5" (Some 4) (Topology.sibling t 5);
  let t1 = Topology.create ~smt:1 () in
  check Alcotest.(option int) "no smt" None (Topology.sibling t1 3)

let test_topology_core_of () =
  let t = Topology.create () in
  checki "core of lcore 0" 0 (Topology.core_of t 0);
  checki "core of lcore 1" 0 (Topology.core_of t 1);
  checki "core of lcore 7" 3 (Topology.core_of t 7)

let test_topology_placement_spreads () =
  let t = Topology.create () in
  (* First four threads on distinct physical cores. *)
  let cores =
    List.init 4 (fun i -> Topology.core_of t (Topology.placement t i))
  in
  check
    Alcotest.(list int)
    "distinct cores first" [ 0; 1; 2; 3 ] (List.sort compare cores);
  (* Threads 4..7 fill hyperthread siblings: all 8 lcores used once. *)
  let lcs = List.init 8 (fun i -> Topology.placement t i) in
  check
    Alcotest.(list int)
    "all lcores used" [ 0; 1; 2; 3; 4; 5; 6; 7 ] (List.sort compare lcs);
  (* Thread 8 wraps onto lcore 0's placement. *)
  checki "wraps" (Topology.placement t 0) (Topology.placement t 8)

(* ------------------------------------------------------------------ *)
(* Sched                                                               *)
(* ------------------------------------------------------------------ *)

let mk ?(quantum = 50_000) ?(seed = 1) ?(cores = 4) ?(smt = 2) () =
  Sched.create ~topology:(Topology.create ~cores ~smt ()) ~quantum ~seed ()

let test_sched_runs_all () =
  let s = mk () in
  let done_ = Array.make 5 false in
  for i = 0 to 4 do
    let _ =
      Sched.add_thread s (fun tid ->
          Sched.consume s 10;
          done_.(tid) <- true)
    in
    ignore i
  done;
  Sched.run s;
  Array.iteri (fun i d -> checkb (Printf.sprintf "thread %d ran" i) true d) done_

let test_sched_clock_advances () =
  let s = mk () in
  let t_end = ref 0 in
  let _ =
    Sched.add_thread s (fun _ ->
        Sched.consume s 100;
        Sched.consume s 50;
        t_end := Sched.now s)
  in
  Sched.run s;
  checki "clock sums costs" 150 !t_end;
  checki "global time" 150 (Sched.global_time s)

let test_sched_parallel_cores () =
  (* Two threads on distinct cores run in parallel: makespan = max, not sum. *)
  let s = mk () in
  let _ = Sched.add_thread s (fun _ -> for _ = 1 to 10 do Sched.consume s 100 done) in
  let _ = Sched.add_thread s (fun _ -> for _ = 1 to 10 do Sched.consume s 100 done) in
  Sched.run s;
  checki "parallel makespan" 1000 (Sched.global_time s)

let test_sched_multiplexing_serializes () =
  (* 16 threads on 8 lcores: two per lcore serialize. *)
  let s = mk ~quantum:1000 () in
  for _ = 1 to 16 do
    ignore (Sched.add_thread s (fun _ -> for _ = 1 to 10 do Sched.consume s 100 done))
  done;
  Sched.run s;
  (* Each lcore executes 2 threads x 1000 cycles plus context switches. *)
  checkb "multiplexed makespan >= 2000" true (Sched.global_time s >= 2000);
  checkb "context switches happened" true (Sched.context_switches s > 0)

let test_sched_no_preempt_when_alone () =
  let s = mk ~quantum:10 () in
  let _ =
    Sched.add_thread s (fun _ -> for _ = 1 to 100 do Sched.consume s 100 done)
  in
  Sched.run s;
  checki "no context switches when alone" 0 (Sched.context_switches s)

let test_sched_preempt_hook_fires () =
  let s = mk ~quantum:500 () in
  let preempted = ref [] in
  Sched.on_preempt s (fun tid -> preempted := tid :: !preempted);
  (* Two threads pinned to the same lcore: 8 full lcores means threads 0 and
     8 share lcore 0. *)
  for _ = 0 to 8 do
    ignore (Sched.add_thread s (fun _ -> for _ = 1 to 20 do Sched.consume s 100 done))
  done;
  Sched.run s;
  checkb "hooks fired" true (List.length !preempted > 0);
  checkb "thread 0 or 8 preempted" true
    (List.exists (fun t -> t = 0 || t = 8) !preempted)

let test_sched_deterministic () =
  let trace seed =
    let s = mk ~seed ~quantum:300 () in
    let events = ref [] in
    for _ = 0 to 9 do
      ignore
        (Sched.add_thread s (fun tid ->
             for i = 1 to 5 do
               Sched.consume s (50 + (tid * 7) + i);
               events := (tid, Sched.now s) :: !events
             done))
    done;
    Sched.run s;
    !events
  in
  check
    Alcotest.(list (pair int int))
    "identical traces" (trace 42) (trace 42)

let test_sched_crash () =
  let s = mk () in
  let reached = ref false in
  let victim =
    Sched.add_thread s (fun _ ->
        Sched.consume s 10;
        Sched.consume s 10;
        reached := true)
  in
  let _ =
    Sched.add_thread s (fun _ ->
        Sched.consume s 1;
        Sched.crash s victim)
  in
  Sched.run s;
  checkb "victim crashed" true (Sched.crashed s victim);
  checkb "victim did not complete" false !reached

let test_sched_crash_fires_preempt_hook () =
  let s = mk () in
  let fired = ref (-1) in
  Sched.on_preempt s (fun tid -> fired := tid);
  let victim = Sched.add_thread s (fun _ -> Sched.consume s 1000) in
  let _ =
    Sched.add_thread s (fun _ ->
        Sched.consume s 1;
        Sched.crash s victim)
  in
  Sched.run s;
  checki "hook saw victim" victim !fired

let test_sched_finished () =
  let s = mk () in
  let tid = Sched.add_thread s (fun _ -> Sched.consume s 1) in
  Sched.run s;
  checkb "finished" true (Sched.finished s tid);
  checkb "not crashed" false (Sched.crashed s tid)

let test_sched_ht_penalty () =
  (* A thread whose SMT sibling is active pays more per cycle consumed. *)
  let run n_threads =
    let s = mk ~quantum:max_int () in
    for _ = 1 to n_threads do
      ignore
        (Sched.add_thread s (fun _ ->
             for _ = 1 to 100 do Sched.consume s 100 done))
    done;
    Sched.run s;
    Sched.global_time s
  in
  let alone = run 4 in
  (* 5th thread lands on the sibling of core 0: threads 0 and 4 slow down. *)
  let shared = run 5 in
  checki "4 threads unpenalized" 10_000 alone;
  checkb "sibling pair penalized" true (shared > alone)

(* Six threads switch thousands of times before thread 3 raises, right
   after a deferred charge that certainly crosses its horizon (another
   lcore is live, and its clock is far below the charge).  The exception
   escapes [run] from wherever the handoff chain had got to, and the
   crossing dies with the thread: a later query must not take it as a
   yield outside any handler, nor see thread 3 as running. *)
let test_sched_exception_propagates () =
  let s = mk () in
  for tid = 0 to 5 do
    ignore
      (Sched.add_thread s (fun _ ->
           for _ = 1 to 4_000 do
             Sched.consume s 3
           done;
           if tid = 3 then begin
             Sched.consume_deferred s 1_000_000;
             failwith "boom"
           end;
           for _ = 1 to 4_000 do
             Sched.consume s 3
           done))
  done;
  Alcotest.check_raises "exception escapes run" (Failure "boom") (fun () ->
      Sched.run s);
  checkb "switched before the raise" true (Sched.yields s > 4_000);
  checkb "thread 3 marked crashed" true (Sched.crashed s 3);
  Alcotest.check_raises "no thread running"
    (Invalid_argument "Sched.current: no thread running") (fun () ->
      ignore (Sched.current s))

let test_sched_thread_rng_independent () =
  let s = mk () in
  let a = Sched.add_thread s (fun _ -> ()) in
  let b = Sched.add_thread s (fun _ -> ()) in
  Sched.run s;
  checkb "per-thread rngs differ" true
    (Rng.next (Sched.thread_rng s a) <> Rng.next (Sched.thread_rng s b))

let test_sched_crash_before_start () =
  (* A thread crashed before it ever ran must never execute its body. *)
  let s = mk () in
  let ran = ref false in
  let victim = Sched.add_thread s (fun _ -> ran := true) in
  let _ =
    Sched.add_thread s (fun _ -> Sched.crash s victim)
  in
  (* The killer is on another lcore; whether the victim runs first depends
     on clocks — pin determinism by giving the victim a later placement. *)
  Sched.run s;
  if Sched.crashed s victim then checkb "body never ran" false !ran
  else checkb "ran before crash" true !ran

let test_sched_many_threads_all_finish () =
  let s = mk ~quantum:500 () in
  let n = 64 in
  let count = ref 0 in
  for _ = 1 to n do
    ignore
      (Sched.add_thread s (fun _ ->
           for _ = 1 to 20 do
             Sched.consume s 17
           done;
           incr count))
  done;
  Sched.run s;
  checki "all finished" n !count

(* Every tid-indexed table has [Topology.max_threads] slots, so the
   scheduler refuses the thread that would get tid [max_threads]. *)
let test_sched_thread_bound () =
  let s = mk () in
  for _ = 1 to Topology.max_threads do
    ignore (Sched.add_thread s (fun _ -> ()))
  done;
  match Sched.add_thread s (fun _ -> ()) with
  | tid -> Alcotest.failf "thread %d registered past the bound" tid
  | exception Invalid_argument msg ->
      let sub = "Topology.max_threads" in
      let n = String.length sub in
      let rec has i =
        i + n <= String.length msg && (String.sub msg i n = sub || has (i + 1))
      in
      checkb "names the bound" true (has 0)

let test_sched_zero_cost_consume () =
  (* Zero-cost consumes are legal yield points and must not stall. *)
  let s = mk () in
  let _ =
    Sched.add_thread s (fun _ ->
        for _ = 1 to 100 do
          Sched.consume s 0
        done)
  in
  Sched.run s;
  checki "no time passed" 0 (Sched.global_time s)

(* A switch is a handoff: the handler of the thread that stops resumes
   the next thread in tail position.  Were a statement to follow a
   resume, each switch would leave a frame on the main stack, and a
   fiber's call stack (on OCaml 5.1 it runs through the fiber's parents)
   would grow with the run.  Fourteen threads on 8
   lcores with a 300-cycle quantum rotate their queues and take every
   path a turn starts or ends on: first starts, resumes, owed charges
   that cross again ([consume_deferred] then [consume]), a corpse at a
   queue head, the unwind of a thread crashed while suspended, and
   finishes.  Thread 0 lives through all of them. *)
let test_sched_handoff_stack_flat () =
  let s = mk ~quantum:300 () in
  let n = 14 and corpse = 12 and victim = 13 in
  let depth () =
    Printexc.raw_backtrace_length (Printexc.get_callstack max_int)
  in
  let d10 = ref (-1) and d10k = ref (-1) in
  let ran = Array.make n false and completed = Array.make n false in
  let worker iters =
    for _ = 1 to iters do
      Sched.consume_deferred s 7;
      Sched.consume s 3
    done
  in
  for tid = 0 to n - 1 do
    let body () =
      match tid with
      | 0 ->
          for i = 1 to 10_000 do
            Sched.consume s 10;
            if i = 10 then d10 := depth ()
            else if i = 10_000 then d10k := depth ()
          done
      | 4 ->
          (* Thread 12 waits behind thread 4 on lcore 1, not started. *)
          Sched.crash s corpse;
          worker 2_000
      | 5 ->
          (* Thread 13 shares lcore 3 and has had turns by now. *)
          worker 200;
          Sched.crash s victim;
          worker 2_000
      | 13 -> worker 5_000
      | k -> worker (500 * k)
    in
    ignore
      (Sched.add_thread s (fun _ ->
           ran.(tid) <- true;
           body ();
           completed.(tid) <- true))
  done;
  Sched.run s;
  checkb "depth read" true (!d10 > 0);
  checki "stack depth at charge 10 000 = at charge 10" !d10 !d10k;
  checkb "corpse crashed" true (Sched.crashed s corpse);
  checkb "corpse never ran" false ran.(corpse);
  checkb "victim crashed" true (Sched.crashed s victim);
  checkb "victim ran, then unwound" true
    (ran.(victim) && not completed.(victim));
  for tid = 0 to n - 1 do
    if tid <> corpse && tid <> victim then
      checkb (Printf.sprintf "thread %d finished" tid) true
        (Sched.finished s tid && completed.(tid))
  done;
  (* Every dispatch is a first start, the one resume or unwind a yield's
     continuation gets, or an owed charge that crossed again. *)
  let started = Array.fold_left (fun a r -> if r then a + 1 else a) 0 ran in
  checkb "owed charges crossed again" true
    (Sched.dispatches s - Sched.yields s - started > 0)

(* ------------------------------------------------------------------ *)
(* Deferred crossings                                                  *)
(* ------------------------------------------------------------------ *)

(* One step of a thread body.  [Defer] is the marked charge: made through
   [Sched.consume_deferred] in the deferred run and through
   [Sched.consume] in the eager one.  [Private] touches only the thread's
   own slot, which the deferral contract allows before the next [Sched]
   call; [Shared] syncs, then bumps a counter every thread sees. *)
type step =
  | Charge of int
  | Defer of int
  | Private
  | Shared
  | Crash of int
  | Signal of int

let step_to_string = function
  | Charge c -> Printf.sprintf "C%d" c
  | Defer c -> Printf.sprintf "D%d" c
  | Private -> "P"
  | Shared -> "S"
  | Crash v -> Printf.sprintf "K%d" v
  | Signal v -> Printf.sprintf "G%d" v

(* Everything a run shows: the clock after every [Charge], the shared log
   in global order (tid, clock, counter; -1 for a caught signal), both
   cycle ledgers, the preemptions, how each thread ended, the makespan,
   the dispatches, and the yields, which only the deferral may change. *)
type outcome = {
  clocks : int list array;
  shared : (int * int * int) list;
  consumed : int array;
  profile : Profile.snapshot;
  switches : int;
  ends : (bool * bool) array;
  makespan : int;
  dispatches : int;
  yields : int;
}

(* What [run_bodies] uses of a scheduler, so that the same bodies can run
   on [Sched] and on the reference [Sched_ref]. *)
module type SCHED = sig
  type t

  exception Signal_interrupt

  val create :
    ?topology:Topology.t ->
    ?costs:Costs.t ->
    ?quantum:int ->
    ?ht_penalty_pct:int ->
    ?trace:Trace.t ->
    ?profile:Profile.t ->
    seed:int ->
    unit ->
    t

  val add_thread : t -> (int -> unit) -> int
  val run : t -> unit
  val consume : t -> int -> unit
  val consume_deferred : t -> int -> unit
  val sync : t -> unit
  val now : t -> int
  val crash : t -> int -> unit
  val signal : t -> int -> unit
  val consumed_by_thread : t -> int array
  val global_time : t -> int
  val context_switches : t -> int
  val crashed : t -> int -> bool
  val finished : t -> int -> bool
  val yields : t -> int
  val dispatches : t -> int
end

let run_bodies ?(sched = (module Sched : SCHED)) ~deferred ?(cores = 2)
    ?(smt = 1) ?(quantum = 50_000) bodies =
  let module Sched = (val sched) in
  let profile = Profile.create ~enabled:true () in
  let s =
    Sched.create ~topology:(Topology.create ~cores ~smt ()) ~quantum ~profile
      ~seed:7 ()
  in
  let n = List.length bodies in
  let clocks = Array.make n [] and own = Array.make n 0 in
  let shared = ref [] and counter = ref 0 in
  let step tid = function
    | Charge c ->
        Sched.consume s c;
        clocks.(tid) <- Sched.now s :: clocks.(tid)
    | Defer c ->
        if deferred then Sched.consume_deferred s c else Sched.consume s c
    | Private -> own.(tid) <- own.(tid) + 1
    | Shared ->
        Sched.sync s;
        incr counter;
        shared := (tid, Sched.now s, !counter) :: !shared
    | Crash v -> Sched.crash s v
    | Signal v -> Sched.signal s v
  in
  (* With signals about, each body catches the unwind, and syncs before
     it leaves the handler: the contract allows no handler for [Sched]'s
     unwinding exceptions to be left with a crossing pending.  Without
     them the bodies install no handler and may return with a crossing
     pending. *)
  let signals =
    List.exists (List.exists (function Signal _ -> true | _ -> false)) bodies
  in
  List.iter
    (fun body ->
      ignore
        (Sched.add_thread s (fun tid ->
             if not signals then List.iter (step tid) body
             else
               try
                 List.iter (step tid) body;
                 Sched.sync s
               with Sched.Signal_interrupt ->
                 shared := (tid, Sched.now s, -1) :: !shared)))
    bodies;
  Sched.run s;
  let consumed = Sched.consumed_by_thread s in
  let makespan = Sched.global_time s in
  {
    clocks = Array.map List.rev clocks;
    shared = List.rev !shared;
    consumed;
    profile = Profile.snapshot profile ~consumed ~makespan;
    switches = Sched.context_switches s;
    ends = Array.init n (fun i -> (Sched.crashed s i, Sched.finished s i));
    makespan;
    dispatches = Sched.dispatches s;
    yields = Sched.yields s;
  }

let run_both ?cores ?smt ?quantum bodies =
  ( run_bodies ~deferred:false ?cores ?smt ?quantum bodies,
    run_bodies ~deferred:true ?cores ?smt ?quantum bodies )

(* The same schedule, the same dispatches, and no more yields when
   deferred. *)
let agree (eager, deferred) =
  { eager with yields = 0 } = { deferred with yields = 0 }
  && deferred.yields <= eager.yields

(* Checks [agree] and returns the deferred outcome. *)
let differential ?cores ?smt ?quantum bodies =
  let ((_, deferred) as both) = run_both ?cores ?smt ?quantum bodies in
  checkb "deferred run = eager run" true (agree both);
  deferred

(* Two SMT siblings.  Thread 0's deferred charge crosses thread 1's clock;
   thread 1 finishes before thread 0 runs again, so the charge after the
   crossing pays no SMT penalty: 150 * 1.4 + 100, where applying it before
   the yield would read the penalty too early (210 + 140). *)
let test_defer_sibling_finishes () =
  let d =
    differential ~cores:1 ~smt:2
      [ [ Defer 150; Private; Charge 100 ]; [ Charge 100 ] ]
  in
  check Alcotest.(list int) "thread 0 unpenalized after the death" [ 310 ]
    d.clocks.(0);
  check Alcotest.(list int) "thread 1 penalized while both live" [ 140 ]
    d.clocks.(1)

(* Thread 1 crashes thread 0 while thread 0 is suspended at its deferred
   crossing: thread 0 dies at the crossing's clock, and the charge it
   owes is never made. *)
let test_defer_crash_in_window () =
  let d =
    differential
      [ [ Defer 150; Private; Charge 100; Charge 100 ]; [ Charge 10; Crash 0 ] ]
  in
  checkb "thread 0 crashed" true (fst d.ends.(0));
  checki "thread 0 stopped at the crossing" 150 d.consumed.(0);
  check Alcotest.(list int) "thread 0 never charged again" [] d.clocks.(0)

(* One lcore, two threads: the deferred charge expires the quantum, so
   the yield for it preempts thread 0 before the owed charge is made. *)
let test_defer_quantum_expiry () =
  let d =
    differential ~cores:1 ~quantum:100
      [
        [ Defer 120; Private; Charge 30; Charge 30 ];
        [ Charge 50; Charge 50; Charge 50 ];
      ]
  in
  let cs = Costs.default.Costs.context_switch in
  checki "preempted at the crossing, then back" 2 d.switches;
  checki "thread 1 starts at the crossing plus the switch" (120 + cs + 50)
    (List.hd d.clocks.(1));
  check Alcotest.(list int) "thread 0 pays what it owes after switching back"
    [ 120 + cs + 100 + cs + 30; 120 + cs + 100 + cs + 60 ]
    d.clocks.(0)

(* A body that returns with a crossing pending takes it first, so its
   SMT sibling stays penalized until the crossing: 140 then 280, where
   finishing at once would leave it unpenalized (100, 200). *)
let test_defer_body_returns () =
  let d =
    differential ~cores:1 ~smt:2 [ [ Defer 150 ]; [ Charge 100; Charge 100 ] ]
  in
  check Alcotest.(list int) "sibling penalized up to the crossing"
    [ 140; 280 ] d.clocks.(1)

(* After [sync], shared state is touched in the eager order: thread 1
   runs up to thread 0's crossing before thread 0 bumps the counter. *)
let test_defer_sync_orders_shared () =
  let d =
    differential
      [
        [ Defer 150; Private; Shared; Charge 10 ];
        [ Charge 100; Shared; Charge 10 ];
      ]
  in
  check
    Alcotest.(list (triple int int int))
    "counter bumped in clock order"
    [ (1, 100, 1); (0, 150, 2) ]
    d.shared

(* Random machines and bodies: 1 to [max_cores] cores x 1-2 SMT, 2 to
   [max_threads] threads, every step kind, four quanta.  A third of the
   charges are multiples of 40, so clocks of several lcores meet.  The
   deferred run must be the eager run, with no more yields. *)
let bodies_gen ~max_cores ~max_threads =
  QCheck.Gen.(
    let* cores = int_range 1 max_cores in
    let* smt = int_range 1 2 in
    let* quantum = oneofl [ 60; 150; 500; 50_000 ] in
    let* n = int_range 2 max_threads in
    let cost =
      frequency [ (2, int_range 0 200); (1, map (( * ) 40) (int_range 0 5)) ]
    in
    let step =
      frequency
        [
          (4, map (fun c -> Charge c) cost);
          (4, map (fun c -> Defer c) cost);
          (3, return Private);
          (2, return Shared);
          (1, map (fun v -> Crash v) (int_bound (n - 1)));
          (1, map (fun v -> Signal v) (int_bound (n - 1)));
        ]
    in
    let* bodies = list_repeat n (list_size (int_range 1 14) step) in
    return (cores, smt, quantum, bodies))

let bodies_print (cores, smt, quantum, bodies) =
  Printf.sprintf "%dx%d q=%d %s" cores smt quantum
    (String.concat " | "
       (List.map (fun b -> String.concat " " (List.map step_to_string b)) bodies))

let prop_defer_matches_eager =
  QCheck.Test.make ~name:"deferred crossings = eager schedule" ~count:300
    ~long_factor:20
    (QCheck.make ~print:bodies_print (bodies_gen ~max_cores:2 ~max_threads:5))
    (fun (cores, smt, quantum, bodies) ->
      agree (run_both ~cores ~smt ~quantum bodies))

(* ------------------------------------------------------------------ *)
(* Run order against the per-dispatch scan                             *)
(* ------------------------------------------------------------------ *)

(* [Sched] keeps the runnable lcores in one (clock, lcore) order and
   re-places only the lcore that ran; [Sched_ref], the scheduler it
   replaced, scans every lcore at every dispatch.  Both must give the same
   outcome, eager and deferred. *)
let same_as_ref ?cores ?smt ?quantum bodies =
  List.for_all
    (fun deferred ->
      run_bodies ~deferred ?cores ?smt ?quantum bodies
      = run_bodies ~sched:(module Sched_ref) ~deferred ?cores ?smt ?quantum
          bodies)
    [ false; true ]

(* Checks [same_as_ref] and returns [Sched]'s eager outcome. *)
let oracle ?cores ?smt ?quantum bodies =
  checkb "run order = per-dispatch scan" true
    (same_as_ref ?cores ?smt ?quantum bodies);
  run_bodies ~deferred:false ?cores ?smt ?quantum bodies

let tids d = List.map (fun (tid, _, _) -> tid) d.shared

(* Four threads on two SMT cores: tids 0, 1, 2, 3 sit on lcores 0, 2, 1, 3.
   Every charge ties all four clocks, and at a tie the lower lcore runs
   first, so each round logs tids 0, 2, 1, 3. *)
let test_order_tie () =
  let body = [ Shared; Charge 100; Shared; Charge 100; Shared ] in
  let d = oracle ~cores:2 ~smt:2 [ body; body; body; body ] in
  check Alcotest.(list int) "lcore order at every tie"
    [ 0; 2; 1; 3; 0; 2; 1; 3; 0; 2; 1; 3 ]
    (tids d);
  check Alcotest.(list int) "penalized clocks" [ 0; 0; 0; 0; 140; 140; 140; 140 ]
    (List.filteri (fun i _ -> i < 8) (List.map (fun (_, c, _) -> c) d.shared))

(* Thread 0 (lcore 0) finishes while threads 1 (lcore 2) and 2 (lcore 1,
   its SMT sibling) are suspended mid-body: lcore 0 leaves the order from
   its middle, and thread 2's charges stop paying the SMT penalty. *)
let test_order_finish_mid_burst () =
  let three = [ Charge 100; Charge 100; Charge 100 ] in
  let d = oracle ~cores:2 ~smt:2 [ [ Charge 50 ]; three; three ] in
  check Alcotest.(list int) "thread 0" [ 70 ] d.clocks.(0);
  check Alcotest.(list int) "thread 1, no sibling" [ 100; 200; 300 ]
    d.clocks.(1);
  check Alcotest.(list int) "thread 2, penalized until thread 0 finishes"
    [ 140; 240; 340 ] d.clocks.(2);
  checki "dispatches" 10 d.dispatches

(* Thread 1 crashes thread 2 before it ever ran.  Thread 2 waits behind
   thread 0 on lcore 0, so the quantum rotation puts its corpse at the
   queue head; the scheduler drops it without running it, and thread 0
   runs on with its lcore to itself. *)
let test_order_corpse_at_head () =
  let d =
    oracle ~quantum:100
      [
        [ Charge 60; Charge 60; Shared; Charge 60; Charge 60 ];
        [ Charge 10; Crash 2; Charge 200 ];
        [ Shared ];
      ]
  in
  let cs = Costs.default.Costs.context_switch in
  checkb "thread 2 crashed" true (fst d.ends.(2));
  check Alcotest.(list int) "thread 2 never ran" [ 0 ] (tids d);
  checki "one rotation" 1 d.switches;
  check Alcotest.(list int) "thread 0 alone after the rotation"
    [ 60; 120 + cs; 180 + cs; 240 + cs ]
    d.clocks.(0)

(* Three threads on one lcore, quantum 100: each burst ends at the charge
   that takes its slice past the quantum, and the lcore rotates its queue,
   until fewer than two threads are left. *)
let test_order_quantum_rotation () =
  let body = [ Charge 60; Shared; Charge 60; Shared; Charge 60; Shared ] in
  let d = oracle ~cores:1 ~quantum:100 [ body; body; body ] in
  let cs = Costs.default.Costs.context_switch in
  check Alcotest.(list int) "rotation order" [ 0; 1; 2; 0; 0; 1; 1; 2; 2 ]
    (tids d);
  checki "three rotations" 3 d.switches;
  checki "makespan" ((9 * 60) + (3 * cs)) d.makespan

(* The run order compares clocks as plain ints, so clocks of 2^60 cycles
   (a harness sampler told to wait that long reaches them) order like
   small ones: thread 1 logs first, at clock 1, then thread 0 at 2^60,
   then thread 1 past it. *)
let test_order_huge_clocks () =
  let d =
    oracle ~cores:2
      [
        [ Charge (1 lsl 60); Shared ];
        [ Charge 1; Shared; Charge (1 lsl 60); Shared ];
      ]
  in
  check Alcotest.(list int) "order" [ 1; 0; 1 ] (tids d);
  checki "makespan" ((1 lsl 60) + 1) d.makespan

let prop_run_order_matches_scan =
  QCheck.Test.make ~name:"run order = per-dispatch scan" ~count:300
    ~long_factor:20
    (QCheck.make ~print:bodies_print (bodies_gen ~max_cores:4 ~max_threads:12))
    (fun (cores, smt, quantum, bodies) -> same_as_ref ~cores ~smt ~quantum bodies)

(* ------------------------------------------------------------------ *)
(* Trace                                                               *)
(* ------------------------------------------------------------------ *)

let test_trace_records () =
  let t = Trace.create ~capacity:4 ~enabled:true () in
  for i = 1 to 3 do
    Trace.instant t ~time:(i * 10) ~tid:i Trace.Htm "evt" (fun () ->
        string_of_int i)
  done;
  checki "size" 3 (Trace.size t);
  let out = Format.asprintf "%t" (fun ppf -> Trace.dump t ppf) in
  let contains sub s =
    let n = String.length sub and m = String.length s in
    let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
    go 0
  in
  checkb "has category" true (contains "htm" out);
  checkb "has name" true (contains "evt" out);
  checkb "has detail" true (contains "3" out)

let test_trace_ring_wraps () =
  let t = Trace.create ~capacity:4 ~enabled:true () in
  for i = 1 to 10 do
    Trace.instant t ~time:i ~tid:0 Trace.Sched "e" (fun () -> string_of_int i)
  done;
  checki "capped at capacity" 4 (Trace.size t);
  checki "total keeps counting" 10 (Trace.total t);
  checki "overflow tracked" 6 (Trace.dropped t)

let test_trace_disabled_free () =
  let t = Trace.create ~capacity:4 ~enabled:false () in
  let forced = ref false in
  Trace.instant t ~time:1 ~tid:0 Trace.Reclaim "e" (fun () ->
      forced := true;
      "x");
  checkb "detail not forced" false !forced;
  checki "nothing recorded" 0 (Trace.size t)

let test_trace_typed_events () =
  let t = Trace.create ~enabled:true () in
  Trace.span_begin t ~time:5 ~tid:1 Trace.Htm "txn" Trace.no_detail;
  Trace.span_end t ~time:9 ~tid:1 Trace.Htm "txn" (fun () -> "commit");
  Trace.instant t ~time:11 ~tid:2 Trace.Reclaim "retire" Trace.no_detail;
  match Trace.events t with
  | [ b; e; i ] ->
      checkb "begin phase" true (b.Trace.phase = Trace.Begin);
      checkb "end phase" true (e.Trace.phase = Trace.End);
      checkb "instant phase" true (i.Trace.phase = Trace.Instant);
      checki "begin time" 5 b.Trace.time;
      checkb "span name pairs" true (b.Trace.name = e.Trace.name);
      checkb "detail captured" true (e.Trace.detail = "commit");
      checkb "category label" true
        (Trace.category_name i.Trace.category = "reclaim")
  | evs -> Alcotest.failf "expected 3 events, got %d" (List.length evs)

let () =
  Alcotest.run "st_sim"
    [
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "seed sensitivity" `Quick test_rng_seed_sensitivity;
          Alcotest.test_case "split independent" `Quick test_rng_split_independent;
          Alcotest.test_case "bounds" `Quick test_rng_bounds;
          Alcotest.test_case "uniform-ish" `Quick test_rng_uniformish;
          Alcotest.test_case "copy" `Quick test_rng_copy;
          Alcotest.test_case "pct" `Quick test_rng_pct;
          QCheck_alcotest.to_alcotest rng_nonneg;
        ] );
      ( "topology",
        [
          Alcotest.test_case "defaults" `Quick test_topology_defaults;
          Alcotest.test_case "siblings" `Quick test_topology_siblings;
          Alcotest.test_case "core_of" `Quick test_topology_core_of;
          Alcotest.test_case "placement spreads" `Quick
            test_topology_placement_spreads;
        ] );
      ( "trace",
        [
          Alcotest.test_case "records" `Quick test_trace_records;
          Alcotest.test_case "ring wraps" `Quick test_trace_ring_wraps;
          Alcotest.test_case "disabled is free" `Quick test_trace_disabled_free;
          Alcotest.test_case "typed events" `Quick test_trace_typed_events;
        ] );
      ( "sched",
        [
          Alcotest.test_case "runs all" `Quick test_sched_runs_all;
          Alcotest.test_case "clock advances" `Quick test_sched_clock_advances;
          Alcotest.test_case "parallel cores" `Quick test_sched_parallel_cores;
          Alcotest.test_case "multiplexing" `Quick
            test_sched_multiplexing_serializes;
          Alcotest.test_case "no preempt alone" `Quick
            test_sched_no_preempt_when_alone;
          Alcotest.test_case "preempt hook" `Quick test_sched_preempt_hook_fires;
          Alcotest.test_case "deterministic" `Quick test_sched_deterministic;
          Alcotest.test_case "crash" `Quick test_sched_crash;
          Alcotest.test_case "crash fires hook" `Quick
            test_sched_crash_fires_preempt_hook;
          Alcotest.test_case "finished" `Quick test_sched_finished;
          Alcotest.test_case "ht penalty" `Quick test_sched_ht_penalty;
          Alcotest.test_case "exception propagates" `Quick
            test_sched_exception_propagates;
          Alcotest.test_case "thread rng independent" `Quick
            test_sched_thread_rng_independent;
          Alcotest.test_case "crash before start" `Quick
            test_sched_crash_before_start;
          Alcotest.test_case "64 threads finish" `Quick
            test_sched_many_threads_all_finish;
          Alcotest.test_case "thread bound" `Quick test_sched_thread_bound;
          Alcotest.test_case "zero-cost consume" `Quick
            test_sched_zero_cost_consume;
          Alcotest.test_case "handoff keeps the stack flat" `Quick
            test_sched_handoff_stack_flat;
        ] );
      ( "deferred",
        [
          Alcotest.test_case "sibling finishes in window" `Quick
            test_defer_sibling_finishes;
          Alcotest.test_case "crash in window" `Quick test_defer_crash_in_window;
          Alcotest.test_case "quantum expires at crossing" `Quick
            test_defer_quantum_expiry;
          Alcotest.test_case "body returns with a crossing pending" `Quick
            test_defer_body_returns;
          Alcotest.test_case "sync orders shared state" `Quick
            test_defer_sync_orders_shared;
          QCheck_alcotest.to_alcotest ~speed_level:`Quick
            prop_defer_matches_eager;
        ] );
      ( "run order",
        [
          Alcotest.test_case "equal clocks: lower lcore first" `Quick
            test_order_tie;
          Alcotest.test_case "finish mid-burst" `Quick
            test_order_finish_mid_burst;
          Alcotest.test_case "never-started corpse at a queue head" `Quick
            test_order_corpse_at_head;
          Alcotest.test_case "quantum rotation" `Quick
            test_order_quantum_rotation;
          Alcotest.test_case "clocks of 2^60 cycles" `Quick
            test_order_huge_clocks;
          QCheck_alcotest.to_alcotest ~speed_level:`Quick
            prop_run_order_matches_scan;
        ] );
    ]
