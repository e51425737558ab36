open Effect
open Effect.Deep

exception Thread_crashed
exception Signal_interrupt

type _ Effect.t += Consume : int -> unit Effect.t

(* Constant constructors only, so a state change is a plain int store with
   no write barrier.  The continuation of a [Suspended], [Owing], [Doomed]
   or [Signalled] thread lives in the scheduler's [conts] slot for its
   tid. *)
type state =
  | Not_started
  | Suspended
  | Owing
      (* suspended at a deferred crossing, with the charge of the
         [consume] that yielded recorded in [owed] and not yet applied;
         [dispatch] applies it before resuming *)
  | Running
  | Finished
  | Crashed
  | Doomed
      (* crash requested while suspended; discontinued when next picked *)
  | Signalled
      (* signal delivered while suspended; discontinued with
         [Signal_interrupt] when next picked, modelling siglongjmp out of
         the interrupted operation *)

type thread = {
  tid : int;
  lcore : int;
  sib : int; (* SMT sibling lcore, -1 if none (cached from the topology) *)
  body : int -> unit;
  mutable state : state;
  mutable slice_used : int;
  mutable consumed : int;
      (* total cycles this thread advanced its lcore clock by — the
         scheduler's own ledger, kept independent of Profile's accounting
         so the conservation invariant compares two separate sums *)
  mutable owed : int; (* the unapplied charge of an [Owing] thread *)
  rng : Rng.t;
  mutable signal_handler : (unit -> unit) option;
      (* runs synchronously at delivery (in the sender's context — the
         simulated handler only mutates shared scheme state) *)
}

(* Flat ring run queue, one per lcore.  Thread membership never grows after
   [run] starts (threads are only registered up front), so each ring is
   allocated once, at exactly the per-lcore thread count; quantum rotation
   and dead-thread removal are O(1) head/length moves, with no [Queue]
   module calls and no allocation anywhere on the scheduling path. *)
type rq = {
  mutable ring : thread array;
  mutable head : int;
  mutable rlen : int;
}

let rq_push q th =
  let cap = Array.length q.ring in
  let ix = q.head + q.rlen in
  (* head < cap and rlen <= cap always hold (rings are sized to the
     lcore's full thread count), so the wrapped index is in range. *)
  Array.unsafe_set q.ring (if ix >= cap then ix - cap else ix) th;
  q.rlen <- q.rlen + 1

let rq_pop q =
  let th = Array.unsafe_get q.ring q.head in
  let h = q.head + 1 in
  q.head <- (if h >= Array.length q.ring then 0 else h);
  q.rlen <- q.rlen - 1;
  th

let rq_peek q = Array.unsafe_get q.ring q.head

type t = {
  topo : Topology.t;
  costs : Costs.t;
  quantum : int;
  ht_penalty_pct : int;
  pen_num : int;
  pen_den : int;
      (* [ht_penalty_pct / 100] in lowest terms: the penalty multiply on
         every cycle charge becomes [cost * pen_num / pen_den], and the
         common denominators get a multiply-shift reciprocal instead of a
         hardware divide (ocamlopt does not strength-reduce division by a
         non-power-of-two constant, and this division sits on every
         simulated memory access of an SMT-contended run) *)
  rng : Rng.t;
  trace : Trace.t;
  profile : Profile.t;
  profile_on : bool;
      (* [Profile.enabled] is fixed at creation; caching it here keeps the
         disabled case to one field read on the consume fast path instead
         of a cross-module call *)
  mutable clocks : int array; (* per lcore *)
  mutable threads : thread list; (* reversed during registration *)
  mutable n_registered : int;
      (* length of [threads]; kept explicitly so tid assignment in
         [add_thread] is O(1) instead of an O(n) List.length per add *)
  mutable arr : thread array;
  mutable queues : rq array; (* per lcore, runnable order *)
  live_on : int array;
      (* per lcore: registered threads not yet Finished/Crashed.  Kept
         exact across every state transition so [sibling_active] — hit on
         every cycle charge and every HTM footprint extension — is a field
         read instead of a queue fold. *)
  order : int array;
  mutable n_order : int;
      (* The run order: the lcores whose queue is not empty, in
         [order.(0) .. order.(n_order - 1)], ascending by (clock, lcore
         index).  The head is the lcore that runs next — minimal clock,
         lowest index on ties — and the second entry is the one whose
         clock the running thread must not cross.  Between two dispatches
         only the head's clock moves and only the head's queue can shrink,
         so [settle] keeps the order by re-placing the head alone. *)
  mutable next_event : int;
      (* The event wheel's horizon for the currently-running thread: the
         lowest lcore-clock value at which that thread must surrender
         control — the min of (a) the clock at which the next lcore of the
         run order would overtake it (crossover), and (b) the clock at
         which its time slice expires while its own queue is contended
         (quantum).  Set once per dispatch by [recompute_next_event];
         valid for the whole burst because only the running thread's clock
         can move and queue membership only changes on the scheduler side.
         [consume] therefore charges and compares one int instead of
         looking at any other lcore on every cycle charge. *)
  mutable crossed : bool;
      (* The running thread's last charge, made through
         [consume_deferred], reached [next_event] and has not yielded yet.
         Only the running thread can have a crossing pending: its next
         [consume] or [sync] yields and clears it. *)
  mutable preempt_hooks : (int -> unit) list;
  mutable context_switches : int;
  mutable yields : int; (* scheduling effects performed *)
  mutable dispatches : int; (* threads picked and run, corpses excluded *)
  mutable conts : (unit, unit) continuation array;
      (* Per tid: the continuation the thread's last yield captured.
         Empty until the run's first yield, which creates it filled with
         that continuation: there is no other way to obtain a value of
         this type.  A yield thus allocates only the continuation and
         stores it with one write barrier. *)
  mutable cur : int; (* tid of the running thread, -1 in scheduler context *)
  mutable started : bool;
}

let create ?(topology = Topology.create ()) ?(costs = Costs.default)
    ?(quantum = 50_000) ?(ht_penalty_pct = 140)
    ?(trace = Trace.create ~enabled:false ())
    ?(profile = Profile.create ()) ~seed () =
  let n = Topology.lcores topology in
  let rec gcd a b = if b = 0 then a else gcd b (a mod b) in
  let g = gcd ht_penalty_pct 100 in
  let g = if g = 0 then 1 else g in
  {
    topo = topology;
    costs;
    quantum;
    ht_penalty_pct;
    pen_num = ht_penalty_pct / g;
    pen_den = 100 / g;
    rng = Rng.create ~seed;
    trace;
    profile;
    profile_on = Profile.enabled profile;
    clocks = Array.make n 0;
    threads = [];
    n_registered = 0;
    arr = [||];
    queues = Array.init n (fun _ -> { ring = [||]; head = 0; rlen = 0 });
    live_on = Array.make n 0;
    order = Array.make n 0;
    n_order = 0;
    next_event = max_int;
    crossed = false;
    preempt_hooks = [];
    context_switches = 0;
    yields = 0;
    dispatches = 0;
    conts = [||];
    cur = -1;
    started = false;
  }

let costs t = t.costs
let topology t = t.topo
let rng t = t.rng
let trace t = t.trace
let profile t = t.profile

let add_thread t body =
  assert (not t.started);
  let tid = t.n_registered in
  if tid >= Topology.max_threads then
    invalid_arg
      (Printf.sprintf
         "Sched.add_thread: tid %d would reach Topology.max_threads (%d)" tid
         Topology.max_threads);
  let lcore = Topology.placement t.topo tid in
  let th =
    {
      tid;
      lcore;
      sib = Topology.sibling_ix t.topo lcore;
      body;
      state = Not_started;
      slice_used = 0;
      consumed = 0;
      owed = 0;
      rng = Rng.split t.rng;
      signal_handler = None;
    }
  in
  t.live_on.(lcore) <- t.live_on.(lcore) + 1;
  t.threads <- th :: t.threads;
  t.n_registered <- tid + 1;
  tid

let thread_rng t tid = t.arr.(tid).rng

let on_preempt t f = t.preempt_hooks <- f :: t.preempt_hooks

let fire_preempt t tid = List.iter (fun f -> f tid) t.preempt_hooks

let current t =
  if t.cur < 0 then invalid_arg "Sched.current: no thread running";
  t.cur

(* [cur] is a registered tid whenever it is not -1, so the unchecked
   access is in range. *)
let cur_thread t =
  if t.cur < 0 then invalid_arg "Sched.consume: no thread running";
  Array.unsafe_get t.arr t.cur

(* The payload is never examined by the handler; performing a preallocated
   effect value saves one allocation per yield.  The performer sets its own
   state ([Suspended] or [Owing]) first. *)
let consume_eff = Consume 0

(* The yields, out of line: they are the cold side of calls inlined at
   every access. *)
let[@inline never] yield_suspended th =
  th.state <- Suspended;
  perform consume_eff

let[@inline never] yield_owing t th cost =
  t.crossed <- false;
  th.owed <- cost;
  th.state <- Owing;
  perform consume_eff

(* Take a pending crossing as the plain yield that [consume] would have
   made at it.  Every call that reads or changes state another thread can
   see runs this first, so what a deferring thread does before it is
   invisible to the schedule.  Outside a thread [crossed] is false. *)
let[@inline never] take_crossing t =
  t.crossed <- false;
  yield_suspended (Array.unsafe_get t.arr t.cur)

let sync t = if t.crossed then take_crossing t

let lcore_of t tid = t.arr.(tid).lcore

let now t =
  if t.cur < 0 then invalid_arg "Sched.now: no thread running";
  sync t;
  t.clocks.((Array.unsafe_get t.arr t.cur).lcore)

(* An int loop: [Array.fold_left max] compares through the polymorphic
   [compare_val], and the lifecycle ledger lands here once per object of a
   raw population. *)
let global_time t =
  sync t;
  let clocks = t.clocks in
  let m = ref 0 in
  for lc = 0 to Array.length clocks - 1 do
    let c = Array.unsafe_get clocks lc in
    if c > !m then m := c
  done;
  !m

let now_or_global t = if t.cur >= 0 then now t else global_time t

(* Every transition into Finished or Crashed must go through here exactly
   once, so the per-lcore live counts stay exact. *)
let mark_dead t th state =
  (match th.state with
  | Finished | Crashed -> ()
  | _ -> t.live_on.(th.lcore) <- t.live_on.(th.lcore) - 1);
  th.state <- state

let sibling_active t tid =
  sync t;
  let sib = t.arr.(tid).sib in
  sib >= 0 && t.live_on.(sib) > 0

let consumed_by_thread t =
  sync t;
  Array.map (fun th -> th.consumed) t.arr

let crashed t tid =
  sync t;
  t.arr.(tid).state = Crashed

let finished t tid =
  sync t;
  t.arr.(tid).state = Finished

let context_switches t =
  sync t;
  t.context_switches

let yields t =
  sync t;
  t.yields

let dispatches t =
  sync t;
  t.dispatches

let n_threads t = t.n_registered

let crash t tid =
  sync t;
  let th = t.arr.(tid) in
  Trace.instant t.trace ~time:t.clocks.(th.lcore) ~tid Trace.Sched "crash"
    Trace.no_detail;
  (match th.state with
  | Finished | Crashed -> ()
  | Not_started ->
      fire_preempt t tid;
      mark_dead t th Crashed
  | Suspended | Owing | Signalled ->
      (* A crash beats a pending signal: the victim dies before the
         handler's unwind would have resumed it.  An [Owing] victim's
         charge is dropped with it: it dies at the crossing's clock. *)
      fire_preempt t tid;
      th.state <- Doomed
  | Doomed -> ()
  | Running ->
      (* Self-crash: unwind immediately. *)
      fire_preempt t tid;
      mark_dead t th Crashed;
      raise Thread_crashed)

(* Simulated POSIX signal (the DEBRA+ neutralization primitive).  The
   registered handler runs synchronously at delivery — in the sim it only
   mutates shared scheme state, which is exactly what a real handler
   running on the victim's stack would publish.  If the victim is merely
   suspended (preempted), its continuation is additionally replaced so the
   interrupted operation unwinds with [Signal_interrupt] at its next
   resume, modelling siglongjmp out of the operation: the in-flight
   operation never completes, so it can never touch memory reclaimed after
   neutralization.  Crashed/doomed/finished victims never resume, so the
   handler's shared-state mutation is all that is delivered. *)
let set_signal_handler t ~tid f = t.arr.(tid).signal_handler <- Some f

let signal t tid =
  sync t;
  let th = t.arr.(tid) in
  if Trace.on t.trace then
    Trace.instant t.trace ~time:t.clocks.(th.lcore) ~tid Trace.Sched "signal"
      Trace.no_detail;
  (match th.signal_handler with Some f -> f () | None -> ());
  match th.state with
  | Suspended | Owing -> th.state <- Signalled
  | Signalled | Not_started | Finished | Crashed | Doomed -> ()
  | Running ->
      (* Self-signal: unwind immediately. *)
      raise Signal_interrupt

(* Event-wheel horizon for [th], about to run on its lcore [lc], the head
   of the run order.  [th] must yield at the first charge that moves its
   clock [c] to:

   - [c >= clocks.(j)]     for a runnable lcore [j < lc] (at equal clocks
                           the lower index runs first), or
   - [c >  clocks.(j)]     for a runnable lcore [j > lc], or
   - [slice_used >= quantum] while its own queue is contended; slice and
     clock advance in lockstep within a burst, so that is the fixed clock
     value [clocks.(lc) - slice_used + quantum].

   The first two terms are least for the second lcore of the run order:
   any later lcore has a greater clock, or the same clock and a greater
   index, which adds at least as much.  All three are static for the whole
   burst: no other lcore's clock can advance while [th] runs, and queue
   membership only changes in scheduler context (dispatch, quantum
   rotation, thread death) — a crash or signal delivered by the running
   thread leaves its victim queued (Doomed/Signalled) until next picked.
   So the min folds into a single int that the consume fast path compares
   against. *)
let recompute_next_event t th =
  let lc = th.lcore in
  let ne =
    if t.n_order > 1 then
      let j = Array.unsafe_get t.order 1 in
      Array.unsafe_get t.clocks j + if j > lc then 1 else 0
    else max_int
  in
  t.next_event <-
    (if t.queues.(lc).rlen > 1 then
       let qexp = t.clocks.(lc) - th.slice_used + t.quantum in
       if qexp < ne then qexp else ne
     else ne)

(* [cost * ht_penalty_pct / 100] with the division strength-reduced.  The
   fraction is pre-reduced to [pen_num / pen_den]; the two truncated
   quotients agree exactly because the rationals are equal.  The default
   penalty (140%) reduces to 7/5, and division by 5 uses the
   Granlund-Montgomery reciprocal [(y * 1717986919) lsr 33], exact for all
   [0 <= y < 2^31] (1717986919 * 5 = 2^33 + 3, within the theorem's
   tolerance for 31-bit dividends); charges are bounded by a run's virtual
   duration times a small multiplier, far under 2^31, but the guard keeps
   pathological charges correct through the generic divide. *)
let penalize t cost =
  let y = cost * t.pen_num in
  let d = t.pen_den in
  if d = 1 then y
  else if d = 5 && y >= 0 && y < 0x40000000 then (y * 1717986919) lsr 33
  else y / d

(* The one charge: SMT penalty as of now, then lcore clock, slice, the
   thread's ledger and the profiler.  True when the new clock reaches the
   horizon, i.e. when this thread must yield.  [consume],
   [consume_deferred] and [dispatch]'s owed charge all go through here. *)
let[@inline] charge t th cost =
  (* [sib] and [lcore] are topology indices fixed at registration; the
     clock/live arrays are sized by the lcore count, so the unchecked
     accesses are in range by construction. *)
  let cost =
    if th.sib >= 0 && Array.unsafe_get t.live_on th.sib > 0 then
      penalize t cost
    else cost
  in
  let lc = th.lcore in
  let c = Array.unsafe_get t.clocks lc + cost in
  Array.unsafe_set t.clocks lc c;
  th.slice_used <- th.slice_used + cost;
  th.consumed <- th.consumed + cost;
  if t.profile_on then Profile.charge t.profile ~tid:th.tid cost;
  c >= t.next_event

(* Trampoline fast path: charge the clocks and return.  The thread keeps
   control — no continuation capture, no handler round-trip — until its
   clock crosses the precomputed [next_event] horizon, i.e. until yielding
   would actually hand the machine to a different thread (clock crossover)
   or the quantum expires on a contended queue.  The schedule, hence every
   observable interleaving, is identical to yielding on every charge: each
   elided suspend/resume would have picked this same thread again.

   With a crossing pending, the yield is the crossing's, and this charge
   is the first thing the thread would do once resumed: it is recorded
   unapplied, and [dispatch] applies it when it next picks the thread. *)
let consume t cost =
  let th = cur_thread t in
  if t.crossed then yield_owing t th cost
  else if charge t th cost then yield_suspended th

(* A charge whose crossing waits for the caller's next [consume] or
   [sync]: the caller only touches thread-private state until then, so
   the yield can move there and take the next charge along. *)
let consume_deferred t cost =
  if t.crossed then consume t cost
  else if charge t (cur_thread t) cost then t.crossed <- true

(* Timed wait toward the absolute tick [deadline] (the harness sampler's
   idiom): one charge for the remaining distance, through the same horizon
   check.  [consume] scales that charge by the SMT penalty while the
   sibling lcore is live, so the wake-up can land past the deadline.
   Charging at least 1 cycle keeps a sampler that already reached its
   deadline from looping without advancing its clock. *)
let sleep_until t ~deadline =
  let rem = deadline - now t in
  consume t (if rem > 0 then rem else 1)

(* Restore the run order after its head [lc] ran or dropped a corpse.
   Nothing else moved: [lc]'s clock only grew and only [lc]'s queue can
   have shrunk.  So [lc] leaves the order if its queue emptied, and
   otherwise moves back, by insertion, past each lcore now ahead of it: a
   lower clock, or the same clock and a lower index. *)
let settle t lc =
  let o = t.order in
  let n = t.n_order in
  if t.queues.(lc).rlen = 0 then begin
    Array.blit o 1 o 0 (n - 1);
    t.n_order <- n - 1
  end
  else begin
    let clocks = t.clocks in
    let c = Array.unsafe_get clocks lc in
    let i = ref 1 in
    while
      !i < n
      &&
      let j = Array.unsafe_get o !i in
      let cj = Array.unsafe_get clocks j in
      cj < c || (cj = c && j < lc)
    do
      Array.unsafe_set o (!i - 1) (Array.unsafe_get o !i);
      incr i
    done;
    Array.unsafe_set o (!i - 1) lc
  end

let maybe_preempt t th =
  let q = t.queues.(th.lcore) in
  if th.slice_used >= t.quantum && q.rlen > 1 then begin
    if Trace.on t.trace then
      Trace.instant t.trace ~time:t.clocks.(th.lcore) ~tid:th.tid Trace.Sched
        "preempt" (fun () -> Printf.sprintf "lcore=%d" th.lcore);
    fire_preempt t th.tid;
    t.context_switches <- t.context_switches + 1;
    t.clocks.(th.lcore) <- t.clocks.(th.lcore) + t.costs.context_switch;
    th.consumed <- th.consumed + t.costs.context_switch;
    Profile.charge_switch t.profile ~tid:th.tid t.costs.context_switch;
    if Trace.on t.trace then
      Trace.instant t.trace ~time:t.clocks.(th.lcore) ~tid:th.tid Trace.Sched
        "context-switch" (fun () ->
          Printf.sprintf "lcore=%d runnable=%d" th.lcore q.rlen);
    th.slice_used <- 0;
    let head = rq_pop q in
    assert (head == th);
    rq_push q th
  end

let remove_from_queue t th =
  let head = rq_pop t.queues.(th.lcore) in
  assert (head == th)

(* A body that returns with a crossing pending first takes it, as it
   would have yielded there before returning. *)
let run_body t th =
  th.body th.tid;
  sync t

(* The handoff.  A thread's turn ends in its handler ([on_consume],
   [retc], [exnc]), and the handler itself runs the next thread: [next]
   settles the lcore [lc] that just ran and picks the head of the run
   order, dropping a corpse at a queue head (a thread crashed before it
   ever ran) without running it, and [dispatch] resumes the head.  A
   switch is therefore one [perform] and one resume.  Every call from a
   handler through [next] and [dispatch] to the resume is in tail
   position, so the handler's frame is gone before the next fiber runs
   and the main stack stays as deep as it was when [run] started the
   first thread; any statement after a resume would leave one frame per
   switch.  When every queue is empty [next] returns, and with it the
   resume [run] began. *)
let rec next t lc =
  t.cur <- -1;
  settle t lc;
  if t.n_order > 0 then begin
    let lc = Array.unsafe_get t.order 0 in
    let q = t.queues.(lc) in
    let th = rq_peek q in
    match th.state with
    | Crashed | Finished ->
        ignore (rq_pop q);
        next t lc
    | _ -> dispatch t th
  end

(* [Suspended] and [Owing] are only entered by a yield, and [Doomed] and
   [Signalled] only from those two, so in all four the thread's [conts]
   slot holds its continuation.  Each branch ends in a resume or in
   [next], in tail position. *)
and dispatch t th =
  t.dispatches <- t.dispatches + 1;
  t.cur <- th.tid;
  recompute_next_event t th;
  match th.state with
  | Not_started ->
      th.state <- Running;
      match_with (run_body t) th (handler t th)
  | Suspended ->
      th.state <- Running;
      continue (Array.unsafe_get t.conts th.tid) ()
  | Owing ->
      (* The charge the resumed thread would make first, made here: after
         this dispatch's horizon recompute and with the SMT penalty as it
         is now.  If it reaches the horizon the thread yields again, as
         its [consume] would have, without resuming the fiber. *)
      if charge t th th.owed then begin
        th.state <- Suspended;
        maybe_preempt t th;
        next t th.lcore
      end
      else begin
        th.state <- Running;
        continue (Array.unsafe_get t.conts th.tid) ()
      end
  | Doomed ->
      th.state <- Running;
      (* Unwind with Thread_crashed; the handler marks it Crashed. *)
      discontinue t.conts.(th.tid) Thread_crashed
  | Signalled ->
      th.state <- Running;
      (* Unwind with Signal_interrupt; a recovery-capable scheme catches
         it inside its operation wrapper and restarts the operation. *)
      discontinue t.conts.(th.tid) Signal_interrupt
  | Running | Finished | Crashed -> assert false

and handler t th =
  (* Hoisted out of [effc]: building this closure inside the [Consume]
     branch allocated it afresh on every single yield.  Every thread is
     registered before the first yield ([add_thread] is refused once [run]
     starts), so the [conts] it creates has a slot for every tid. *)
  let on_consume (k : (unit, unit) continuation) =
    if Array.length t.conts = 0 then t.conts <- Array.make t.n_registered k
    else Array.unsafe_set t.conts th.tid k;
    t.yields <- t.yields + 1;
    maybe_preempt t th;
    next t th.lcore
  in
  let on_consume_some = Some on_consume in
  {
    retc =
      (fun () ->
        Trace.instant t.trace ~time:t.clocks.(th.lcore) ~tid:th.tid
          Trace.Sched "finish" Trace.no_detail;
        mark_dead t th Finished;
        remove_from_queue t th;
        next t th.lcore);
    exnc =
      (fun e ->
        (* A body can die with a crossing pending; it is dropped with the
           thread, or a later [sync] would perform outside any handler.
           An exception that escapes [run] leaves no thread running. *)
        t.crossed <- false;
        t.cur <- -1;
        mark_dead t th Crashed;
        remove_from_queue t th;
        match e with Thread_crashed -> next t th.lcore | e -> raise e);
    effc =
      (fun (type a) (e : a Effect.t) ->
        match e with
        | Consume _ ->
            (on_consume_some : ((a, _) continuation -> _) option)
        | _ -> None);
  }

let run t =
  assert (not t.started);
  t.started <- true;
  t.arr <- Array.of_list (List.rev t.threads);
  if Array.length t.arr > 0 then begin
    (* Size each ring to exactly its lcore's thread count; the dummy fill
       is overwritten by the pushes below. *)
    let counts = Array.make (Array.length t.queues) 0 in
    Array.iter (fun th -> counts.(th.lcore) <- counts.(th.lcore) + 1) t.arr;
    Array.iteri
      (fun lc q ->
        if counts.(lc) > 0 then q.ring <- Array.make counts.(lc) t.arr.(0))
      t.queues;
    Array.iter (fun th -> rq_push t.queues.(th.lcore) th) t.arr
  end;
  (* Every clock is still 0, so index order is the run order. *)
  Array.iteri
    (fun lc q ->
      if q.rlen > 0 then begin
        t.order.(t.n_order) <- lc;
        t.n_order <- t.n_order + 1
      end)
    t.queues;
  (* Nothing has run, so no thread is dead yet: the head of the first
     lcore starts, and from there each thread's handler runs the next.
     This returns when every queue is empty. *)
  if t.n_order > 0 then dispatch t (rq_peek t.queues.(t.order.(0)))
