open St_sim
open St_mem
open St_htm

(* Shared simulation plumbing handed to every scheme. *)
type runtime = { sched : Sched.t; tsx : Tsx.t }

let make_runtime ~sched ~tsx = { sched; tsx }

let heap rt = Tsx.heap rt.tsx

(* Counters common to all schemes; figures and tests read these.  The
   retire/free bookkeeping also measures {e reclamation lag} — the virtual
   time between a node's retirement and its return to the allocator — which
   distinguishes prompt schemes (immediate refcount drops) from batched
   ones (scans) from stalling ones (epoch under delays). *)
type stats = {
  mutable retired : int;  (** Nodes handed to [retire]. *)
  mutable freed : int;  (** Nodes actually returned to the allocator. *)
  mutable scans : int;  (** Reclamation passes (scan/collect rounds). *)
  mutable scan_words : int;  (** Words inspected by scans. *)
  mutable stall_cycles : int;  (** Cycles spent in [stall] waits. *)
  mutable protect_fences : int;  (** Fences issued by per-read validation. *)
  retire_stamp : (int, int) Hashtbl.t;  (** addr -> retire time (pending). *)
  mutable lag_sum : int;  (** Sum of retire->free lags, freed nodes. *)
  mutable lag_max : int;
  mutable lifecycle : Lifecycle.t;
      (** Lifecycle ledger notified of retirements (default
          {!Lifecycle.disabled}); the harness attaches the run's ledger.
          Frees reach the ledger through [Heap.free], not through
          [free], so rollback frees are counted too and nothing is
          double-stamped. *)
}

let make_stats () =
  {
    retired = 0;
    freed = 0;
    scans = 0;
    scan_words = 0;
    stall_cycles = 0;
    protect_fences = 0;
    retire_stamp = Hashtbl.create 64;
    lag_sum = 0;
    lag_max = 0;
    lifecycle = Lifecycle.disabled;
  }

(* The capability to free: [scan] hands one to its body, [eager] to the
   two schemes that free outside a pass. *)
type pass = { rt : runtime; stats : stats }

let eager rt stats = { rt; stats }

(* The four calls every scheme's lifecycle goes through.  Each runs on the
   retiring thread, so [Sched.current] names the thread for the trace and
   the profiler. *)

let retire rt stats ~pending addr =
  let sched = rt.sched in
  let now = Sched.now sched in
  let tr = Sched.trace sched in
  if Trace.on tr then
    Trace.instant tr ~time:now ~tid:(Sched.current sched) Trace.Reclaim
      "retire" (fun () -> Printf.sprintf "addr=%d pending=%d" addr pending);
  stats.retired <- stats.retired + 1;
  Hashtbl.replace stats.retire_stamp addr now;
  Lifecycle.on_retire stats.lifecycle ~now addr

(* [Hashtbl.find], not [find_opt]: a free allocates nothing. *)
let free { rt; stats } addr =
  Tsx.free rt.tsx addr;
  stats.freed <- stats.freed + 1;
  match Hashtbl.find stats.retire_stamp addr with
  | t0 ->
      let lag = Sched.now rt.sched - t0 in
      Hashtbl.remove stats.retire_stamp addr;
      stats.lag_sum <- stats.lag_sum + lag;
      if lag > stats.lag_max then stats.lag_max <- lag
  | exception Not_found -> ()

(* Popped on an exception too: a crash injected mid-pass unwinds with
   [Thread_crashed] and must still pop the attribution mode.  A handler
   rather than [Fun.protect], which would cost a closure per call. *)
let in_mode sched ~tid mode body x =
  let profile = Sched.profile sched in
  Profile.push_mode profile ~tid mode;
  match body x with
  | r -> Profile.pop_mode profile ~tid; r
  | exception e -> Profile.pop_mode profile ~tid; raise e

let scan rt stats ~pending body =
  let sched = rt.sched in
  let tid = Sched.current sched in
  let tr = Sched.trace sched in
  if Trace.on tr then
    Trace.span_begin tr ~time:(Sched.now sched) ~tid Trace.Reclaim "scan"
      (fun () -> Printf.sprintf "pending=%d" pending);
  stats.scans <- stats.scans + 1;
  let held = in_mode sched ~tid Profile.Reclaim_scan body { rt; stats } in
  if Trace.on tr then
    Trace.span_end tr ~time:(Sched.now sched) ~tid Trace.Reclaim "scan"
      (fun () -> Printf.sprintf "freed=%d held=%d" (pending - held) held)

let stall rt stats body =
  let sched = rt.sched in
  let tid = Sched.current sched in
  let t0 = Sched.now sched in
  let tr = Sched.trace sched in
  if Trace.on tr then
    Trace.span_begin tr ~time:t0 ~tid Trace.Reclaim "stall" Trace.no_detail;
  let grace = in_mode sched ~tid Profile.Reclaim_stall body () in
  let cycles = Sched.now sched - t0 in
  stats.stall_cycles <- stats.stall_cycles + cycles;
  if Trace.on tr then
    Trace.span_end tr ~time:(Sched.now sched) ~tid Trace.Reclaim "stall"
      (fun () -> Printf.sprintf "cycles=%d grace=%b" cycles grace);
  grace

let mean_lag stats =
  if stats.freed = 0 then 0.
  else float_of_int stats.lag_sum /. float_of_int stats.freed

module type S = sig
  type t
  (** Scheme instance, shared by all threads of a run. *)

  type thread
  (** Per-thread reclamation state. *)

  type env
  (** Handle threaded through one data-structure operation. *)

  val create_thread : t -> tid:int -> thread
  (** Must be called from within the simulated thread's body. *)

  val run_op : thread -> op_id:int -> (env -> 'a) -> 'a
  (** Run one data-structure operation.  The body may be invoked several
      times (see the module comment); its final return value is returned. *)

  val read : env -> Word.addr -> Word.value
  val write : env -> Word.addr -> Word.value -> unit
  val cas : env -> Word.addr -> expect:Word.value -> Word.value -> bool

  val protected_read : env -> slot:int -> Word.addr -> Word.value
  (** Load a node pointer the thread is about to traverse through,
      announcing it to the scheme if the scheme needs announcements. *)

  val release : env -> slot:int -> unit
  (** Drop the protection of [slot] (no-op for automatic schemes). *)

  val protect_value : env -> slot:int -> Word.value -> unit
  (** Publish protection for a value that is {e already} safe to hold —
      either still thread-private (a freshly allocated node about to be
      published) or currently protected by another slot (Michael's
      [hp0 := hp1] hazard-copy idiom, needed by the skip list to pin
      per-level predecessors).  Unlike {!protected_read} no validation is
      required, precisely because of that precondition. *)

  val local_set : env -> int -> Word.value -> unit
  val local_get : env -> int -> Word.value

  val block : env -> unit
  (** Explicit basic-block boundary (StackTrack split checkpoint site). *)

  val rand : env -> int -> int
  (** Deterministic, replay-stable randomness in [\[0, bound)]. *)

  val alloc : env -> size:int -> Word.addr
  val retire : env -> Word.addr -> unit
  (** Hand an unlinked node to the scheme for eventual freeing. *)

  val quiesce : thread -> unit
  (** Between-operations hook: flush per-thread buffers so that a thread
      that stops issuing operations does not hold back reclamation forever
      (used at the end of benchmark runs and in tests). *)

  val stats : t -> stats
end
