(** The StackTrack scheme (paper §5), as a {!St_reclaim.Guard.S} instance.

    Structure of the implementation:

    - {b Split engine}: every operation runs as a series of hardware
      transactions (segments).  A split checkpoint is injected before every
      primitive memory access and at explicit [block] boundaries; it counts
      basic blocks and, at the predictor-chosen limit, exposes the thread's
      registers and stack frame and commits the segment (Alg. 2).

    - {b Segment restart}: a hardware abort rolls the thread back to the
      last committed split point.  Real hardware restores registers and
      restarts at [xbegin]; the simulator reproduces this by re-invoking the
      operation body and {e replaying} the committed prefix from a log of
      primitive results (reads, CAS outcomes, allocations, random draws).
      Replay is free of virtual cycles and rebuilds the working registers
      and locals, so the thread resumes with exactly the state it had at
      the split point.  The log is an [Ivec.t] of {!Packed_log} entries
      — pushed on every primitive access, it must not allocate.

    - {b Free procedure}: retirements are batched in a per-thread free set;
      when it exceeds [max_free] the thread runs a global scan over every
      active thread's exposed stack and registers, using the
      splits/oper-counter retry protocol of Alg. 1, and frees the pointers
      nobody can see.  The §5.2 hash-table single-pass variant is available
      behind [cfg.hash_scan].

    - {b Slow path}: when a segment keeps failing at length 1 (or when
      forced, for Figure 5), the operation continues on a software-only
      fallback: every shared read inserts the value into a per-thread
      reference set, fences, and validates by re-reading (Alg. 5).  A
      global counter tells scanning threads to also inspect reference
      sets. *)

open St_sim
open St_mem
open St_htm
open St_machine
open St_reclaim

type mode = Fast | Slow

type t = {
  rt : Guard.runtime;
  cfg : St_config.t;
  stats : Guard.stats;
  st : Scheme_stats.t;
  mutable slow_path_count : int; (* global: threads currently on slow path *)
  threads : thread option array; (* registry, for refs-set inspection *)
}

and thread = {
  s : t;
  tid : int;
  ctx : Ctx.t;
  predictor : Predictor.t;
  free_set : Word.addr Vec.t;
  refs_set : (int, int) Hashtbl.t; (* slow-path reference multiset *)
  scan_scratch : (int, unit) Hashtbl.t; (* hashed-scan table, reused *)
  seg_log : Ivec.t; (* packed segment log (Packed_log), reused across ops *)
  rng : Rng.t;
  mutable env_cache : env option; (* the one env, reused across ops *)
}

and env = {
  th : thread;
  (* Hot-path shortcuts: [sched]/[tsx]/[costs] sit under every primitive
     access; resolving the 3-4 load chain through [th.s.rt] once at env
     creation keeps the checkpoint path to single field reads. *)
  sc : Sched.t;
  tx : Tsx.t;
  cs : Costs.t;
  mutable op_id : int;
  log : Ivec.t; (* == th.seg_log *)
  mutable pos : int; (* next primitive index; < replay_to means replaying *)
  mutable replay_to : int;
  mutable committed : int; (* log length at last successful commit *)
  mutable live : bool; (* a fast-path segment transaction is open *)
  mutable steps : int; (* basic blocks in the current segment *)
  mutable limit : int;
  mutable split_idx : int;
  mutable mode : mode;
  mutable seg_failures : int; (* consecutive failures of current segment *)
  mutable slow_registered : bool;
  mutable region_depth : int; (* user-defined atomic regions (sec 5.5) *)
}

let stats t = t.stats
let scheme_stats t = t.st
let runtime t = t.rt

let create ?(cfg = St_config.default) rt =
  {
    rt;
    cfg;
    stats = Guard.make_stats ();
    st = Scheme_stats.create ();
    slow_path_count = 0;
    threads = Array.make Topology.max_threads None;
  }

let create_thread s ~tid =
  let ctx = Ctx.create ~tid in
  Activity.register s.rt.Guard.activity ctx;
  (* The predictor decision timeline: installed only when forensics is on,
     so an unflagged run makes no extra calls and emits no extra trace
     events (the committed trace goldens stay byte-identical).  The
     callback does no RNG draws and no cycle charges. *)
  let fx = Tsx.forensics s.rt.Guard.tsx in
  let on_adjust =
    if not (Forensics.enabled fx) then None
    else
      Some
        (fun ~op_id ~split ~old_limit ~limit ~grow ->
          let sched = s.rt.Guard.sched in
          let now = Sched.now sched in
          Forensics.on_limit_change fx ~time:now ~tid ~op_id ~split
            ~old_limit ~limit ~grow;
          let tr = Sched.trace sched in
          if Trace.on tr then begin
            Trace.instant tr ~time:now ~tid Trace.Engine
              (if grow then "limit-grow" else "limit-shrink")
              (fun () ->
                Printf.sprintf "op=%d split=%d %d->%d" op_id split old_limit
                  limit);
            Trace.counter tr ~time:now ~tid Trace.Engine "split_limit" limit
          end)
  in
  let th =
    {
      s;
      tid;
      ctx;
      predictor = Predictor.create ?on_adjust s.cfg;
      free_set = Vec.create ();
      refs_set = Hashtbl.create 32;
      scan_scratch = Hashtbl.create 256;
      seg_log = Ivec.create ();
      rng = Sched.thread_rng s.rt.Guard.sched tid;
      env_cache = None;
    }
  in
  s.threads.(tid) <- Some th;
  th

let sched env = env.sc
let tsx env = env.tx
let costs env = env.cs
let trace env = Sched.trace env.sc

(* ------------------------------------------------------------------ *)
(* Segment management (Alg. 2)                                         *)
(* ------------------------------------------------------------------ *)

let replaying env = env.pos < env.replay_to

let split_start env =
  env.steps <- 0;
  env.limit <-
    Predictor.limit env.th.predictor ~op_id:env.op_id ~split:env.split_idx;
  let tr = trace env in
  if Trace.on tr then
    Trace.span_begin tr ~time:(Sched.now (sched env)) ~tid:env.th.tid
      Trace.Engine "segment" (fun () ->
        Printf.sprintf "split=%d limit=%d" env.split_idx env.limit);
  Tsx.start (tsx env);
  env.live <- true

(* Commit-with-expose.  On hardware the expose stores are part of the
   committing transaction, so they become visible atomically with the commit
   and are rolled back if it aborts.  The simulator reproduces that exactly:
   the expose cost is charged up front (a yield point where the transaction
   can still be doomed, leaving the previous exposure intact), and the
   actual snapshot publication happens in the same uninterrupted step as
   [Tsx.commit]'s buffer application.  Publishing the snapshot early and
   rolling back would hide the pointers of the split point the thread
   rolls back to — a real use-after-free window (caught by the shadow
   checker during development). *)
let split_commit env =
  let n = Ctx.exposed_size env.th.ctx in
  Sched.consume (sched env) (n * (costs env).expose_word);
  Tsx.commit (tsx env);
  ignore (Ctx.expose env.th.ctx);
  (* The retry chain of this segment is complete: [seg_failures] aborts,
     then this commit.  Recorded before the predictor resets anything. *)
  Forensics.on_retry_chain
    (Tsx.forensics env.tx)
    ~op_id:env.op_id ~split:env.split_idx ~depth:env.seg_failures;
  Predictor.on_commit env.th.predictor ~op_id:env.op_id ~split:env.split_idx;
  let st = env.th.s.st in
  st.Scheme_stats.segments <- st.Scheme_stats.segments + 1;
  st.Scheme_stats.segment_len_sum <-
    st.Scheme_stats.segment_len_sum + env.steps;
  let tr = trace env in
  if Trace.on tr then
    Trace.span_end tr ~time:(Sched.now (sched env)) ~tid:env.th.tid
      Trace.Engine "segment" (fun () ->
        Printf.sprintf "commit split=%d steps=%d" env.split_idx env.steps);
  env.committed <- Ivec.length env.log;
  env.split_idx <- env.split_idx + 1;
  env.seg_failures <- 0;
  env.steps <- 0;
  env.live <- false

(* The split checkpoint: one call per basic block (Alg. 2 lines 17-23).
   The step is counted (and the commit decision made) AFTER the block's
   access has executed, so a segment always contains between 1 and [limit]
   accesses — committing before the access would produce empty
   transactions at limit 1, whose automatic success would reset the
   consecutive-failure count and lock out the slow-path fallback.
   Splits are suppressed inside a programmer-defined transactional region
   (sec 5.5: "the split procedure adapts to this case by ensuring that a
   split is never performed during a user-defined transaction"); the next
   access reopens a segment lazily via ensure_live. *)
let checkpoint_pre env = Sched.consume env.sc env.cs.Costs.checkpoint

let checkpoint_post env =
  env.steps <- env.steps + 1;
  if env.steps >= env.limit && env.region_depth = 0 then split_commit env

let register_slow env =
  if not env.slow_registered then begin
    env.slow_registered <- true;
    env.th.s.slow_path_count <- env.th.s.slow_path_count + 1;
    let tr = trace env in
    if Trace.on tr then
      Trace.instant tr ~time:(Sched.now (sched env)) ~tid:env.th.tid
        Trace.Engine "slow-path" (fun () ->
          Printf.sprintf "active=%d" env.th.s.slow_path_count);
    Profile.push_mode (Sched.profile (sched env)) ~tid:env.th.tid
      Profile.Slow_path;
    Sched.consume (sched env) (costs env).fetch_add;
    let st = env.th.s.st in
    st.Scheme_stats.slow_ops <- st.Scheme_stats.slow_ops + 1
  end

let deregister_slow env =
  if env.slow_registered then begin
    env.slow_registered <- false;
    env.th.s.slow_path_count <- env.th.s.slow_path_count - 1;
    Sched.consume (sched env) (costs env).fetch_add;
    Profile.pop_mode (Sched.profile (sched env)) ~tid:env.th.tid
  end

(* Entering live execution after the replayed prefix: open the segment
   transaction (fast path) or register on the slow path. *)
let ensure_live env =
  if not env.live then
    match env.mode with
    | Fast -> split_start env
    | Slow ->
        register_slow env;
        env.live <- true

(* Roll back to the last committed split point after a hardware abort:
   discard the uncommitted log suffix (freeing any allocations made in the
   aborted segment — their init writes were speculative and are gone), and
   arrange for the next invocation of the body to replay the prefix. *)
let rollback env =
  for i = env.committed to Ivec.length env.log - 1 do
    let e = Ivec.get env.log i in
    if Packed_log.tag e = Packed_log.tag_alloc then
      Heap.free (Guard.heap env.th.s.rt) ~tid:env.th.tid (Packed_log.payload e)
  done;
  Ivec.truncate env.log env.committed;
  env.replay_to <- env.committed;
  env.pos <- 0;
  env.live <- false;
  env.steps <- 0;
  Ctx.clear_working env.th.ctx;
  let tr = trace env in
  if Trace.on tr then
    Trace.instant tr ~time:(Sched.now (sched env)) ~tid:env.th.tid
      Trace.Engine "replay" (fun () ->
        Printf.sprintf "prefix=%d" env.committed);
  env.th.s.st.Scheme_stats.replays <- env.th.s.st.Scheme_stats.replays + 1

let on_hw_abort env (reason : Htm_stats.abort_reason) =
  Predictor.on_abort env.th.predictor ~op_id:env.op_id ~split:env.split_idx;
  env.seg_failures <- env.seg_failures + 1;
  (* Segment identity of the abort: which (op, split) keeps failing. *)
  Forensics.on_segment_abort
    (Tsx.forensics env.tx)
    ~op_id:env.op_id ~split:env.split_idx;
  if env.live then begin
    let tr = trace env in
    if Trace.on tr then
      Trace.span_end tr ~time:(Sched.now (sched env)) ~tid:env.th.tid
        Trace.Engine "segment" (fun () ->
          Printf.sprintf "abort:%s split=%d failures=%d"
            (Htm_stats.reason_to_string reason)
            env.split_idx env.seg_failures)
  end;
  (* Exponential backoff on contention: retrying instantly against a hot
     line just feeds the doom-replay storm. *)
  let cap = env.th.s.cfg.St_config.conflict_backoff in
  if reason = Htm_stats.Conflict && cap > 0 then begin
    let shift = min env.seg_failures 6 in
    let window = min cap (32 lsl shift) in
    Sched.consume (sched env) (1 + Rng.int env.th.rng window)
  end;
  if
    env.mode = Fast && env.limit <= env.th.s.cfg.St_config.min_limit
    && env.seg_failures >= env.th.s.cfg.St_config.slow_path_after
  then env.mode <- Slow;
  rollback env

(* ------------------------------------------------------------------ *)
(* Replay                                                              *)
(* ------------------------------------------------------------------ *)

exception Replay_mismatch

(* Next packed entry of the committed prefix; callers check the tag. *)
let replay_entry env =
  let e = Ivec.get env.log env.pos in
  env.pos <- env.pos + 1;
  e

(* ------------------------------------------------------------------ *)
(* Slow path (Alg. 5)                                                  *)
(* ------------------------------------------------------------------ *)

let refs_key env v =
  let p = Word.unmark v in
  let b = Heap.owner_of (Guard.heap env.th.s.rt) p in
  if b <> 0 then b else v

let refs_add env v =
  let key = refs_key env v in
  let n = match Hashtbl.find env.th.refs_set key with
    | n -> n
    | exception Not_found -> 0
  in
  Hashtbl.replace env.th.refs_set key (n + 1);
  Sched.consume (sched env) (costs env).store

let refs_remove env v =
  let key = refs_key env v in
  match Hashtbl.find env.th.refs_set key with
  | n when n > 1 -> Hashtbl.replace env.th.refs_set key (n - 1)
  | _ -> Hashtbl.remove env.th.refs_set key
  | exception Not_found -> ()

let refs_clear env =
  let n = Hashtbl.length env.th.refs_set in
  Hashtbl.reset env.th.refs_set;
  Sched.consume (sched env) (n * (costs env).store)

(* SLOW_READ: load, record, fence, validate by re-reading. *)
let rec slow_read_raw env addr =
  let st = env.th.s.st in
  st.Scheme_stats.slow_reads <- st.Scheme_stats.slow_reads + 1;
  let v = Tsx.nt_read (tsx env) addr in
  refs_add env v;
  Tsx.fence (tsx env);
  let v' = Tsx.nt_read (tsx env) addr in
  if v' = v then v
  else begin
    st.Scheme_stats.slow_validation_failures <-
      st.Scheme_stats.slow_validation_failures + 1;
    refs_remove env v;
    slow_read_raw env addr
  end

(* ------------------------------------------------------------------ *)
(* Guard operations                                                    *)
(* ------------------------------------------------------------------ *)

let read env addr =
  if replaying env then begin
    let e = replay_entry env in
    if Packed_log.tag e <> Packed_log.tag_read then raise Replay_mismatch;
    let v = Packed_log.payload e in
    Ctx.note_load env.th.ctx v;
    v
  end
  else begin
    ensure_live env;
    match env.mode with
    | Fast ->
        checkpoint_pre env;
        let v = Tsx.read (tsx env) addr in
        Ctx.note_load env.th.ctx v;
        Ivec.push env.log (Packed_log.read v);
        env.pos <- env.pos + 1;
        checkpoint_post env;
        v
    | Slow ->
        let v = slow_read_raw env addr in
        Ctx.note_load env.th.ctx v;
        Ivec.push env.log (Packed_log.read v);
        env.pos <- env.pos + 1;
        v
  end

let write env addr v =
  if replaying env then begin
    let e = replay_entry env in
    if Packed_log.tag e <> Packed_log.tag_write then raise Replay_mismatch
  end
  else begin
    ensure_live env;
    match env.mode with
    | Fast ->
        checkpoint_pre env;
        Tsx.write (tsx env) addr v;
        Ivec.push env.log Packed_log.write;
        env.pos <- env.pos + 1;
        checkpoint_post env
    | Slow ->
        ignore (slow_read_raw env addr);
        Tsx.nt_write (tsx env) addr v;
        Ivec.push env.log Packed_log.write;
        env.pos <- env.pos + 1
  end

let cas env addr ~expect v =
  if replaying env then begin
    let e = replay_entry env in
    if Packed_log.tag e <> Packed_log.tag_cas then raise Replay_mismatch;
    Packed_log.cas_ok e
  end
  else begin
    ensure_live env;
    match env.mode with
    | Fast ->
        checkpoint_pre env;
        let ok = Tsx.nt_cas (tsx env) addr ~expect v in
        Ivec.push env.log (Packed_log.cas ok);
        env.pos <- env.pos + 1;
        (* Make a winning CAS durable at once (see
           St_config.commit_after_cas); if the commit itself is doomed the
           entry rolls back with the segment and the CAS never happened. *)
        if
          ok && env.live && env.region_depth = 0
          && env.th.s.cfg.St_config.commit_after_cas
        then split_commit env
        else checkpoint_post env;
        ok
    | Slow ->
        ignore (slow_read_raw env addr);
        let ok = Tsx.nt_cas (tsx env) addr ~expect v in
        Ivec.push env.log (Packed_log.cas ok);
        env.pos <- env.pos + 1;
        ok
  end

(* StackTrack needs no per-pointer announcements: the HTM data set plus the
   exposed stack/registers make references visible automatically. *)
let protected_read env ~slot:_ addr = read env addr
let release _env ~slot:_ = ()

let protect_value env ~slot:_ v =
  (* No announcement needed; keep the value in the register window so scans
     see it even if the data structure does not frame-spill it. *)
  Ctx.note_load env.th.ctx v

(* Frame locals model the stack slots the compiler allocates anyway; no
   scheme charges for ordinary local assignment, so neither does this one
   (the instrumentation the paper adds is the checkpoint, not the spill). *)
let local_set env i v = Ctx.local_set env.th.ctx i v

let local_get env i = Ctx.local_get env.th.ctx i

let block env =
  if not (replaying env) then begin
    ensure_live env;
    match env.mode with
    | Fast ->
        checkpoint_pre env;
        checkpoint_post env
    | Slow -> ()
  end

let rand env bound =
  if replaying env then begin
    let e = replay_entry env in
    if Packed_log.tag e <> Packed_log.tag_rand then raise Replay_mismatch;
    Packed_log.payload e
  end
  else begin
    let v = Rng.int env.th.rng bound in
    Ivec.push env.log (Packed_log.rand v);
    env.pos <- env.pos + 1;
    v
  end

let alloc env ~size =
  if replaying env then begin
    let e = replay_entry env in
    if Packed_log.tag e <> Packed_log.tag_alloc then raise Replay_mismatch;
    Packed_log.payload e
  end
  else begin
    let a = Tsx.alloc (tsx env) ~size in
    Ivec.push env.log (Packed_log.alloc a);
    env.pos <- env.pos + 1;
    a
  end

(* ------------------------------------------------------------------ *)
(* The free procedure (Alg. 1)                                         *)
(* ------------------------------------------------------------------ *)

(* Does exposed word [w] reference the object based at [ptr]?  Resolves
   marked and interior pointers through the heap's object-extent table
   (§5.5: "hidden" pointers) via the option-free [owner_of] query — this
   predicate runs once per exposed word per pending pointer per scan. *)
let word_matches heap ~ptr w =
  w = ptr
  ||
  let p = Word.unmark w in
  p <> w && p = ptr
  ||
  (p > ptr && Heap.owner_of heap p = ptr)

(* Inspect one thread's exposed stack and registers for [ptr], with the
   splits/oper-counter consistency protocol: if the thread commits a split
   during our inspection (splits changed, operation unchanged) we must
   restart the inspection; if the operation completed we need not. *)
let inspect_thread s ~ptr ctx =
  let sched = s.rt.Guard.sched in
  let costs = Sched.costs sched in
  let heap = Guard.heap s.rt in
  let found = ref false in
  let oper_pre = Ctx.oper_counter ctx in
  Sched.consume sched costs.load;
  let rec attempt () =
    s.st.Scheme_stats.inspections <- s.st.Scheme_stats.inspections + 1;
    let splits_pre = Ctx.splits ctx in
    Sched.consume sched costs.load;
    found := false;
    Ctx.exposed_iter ctx (fun w ->
        s.st.Scheme_stats.stack_words <- s.st.Scheme_stats.stack_words + 1;
        Sched.consume sched costs.scan_word;
        if word_matches heap ~ptr w then found := true);
    let splits_post = Ctx.splits ctx in
    let oper_post = Ctx.oper_counter ctx in
    Sched.consume sched (2 * costs.load);
    if oper_pre = oper_post && splits_pre <> splits_post then begin
      s.st.Scheme_stats.scan_restarts <-
        s.st.Scheme_stats.scan_restarts + 1;
      attempt ()
    end
  in
  attempt ();
  !found

(* When any thread is on the software slow path, its reference set must be
   consulted too (§5.4 last paragraph). *)
let in_refs_set s ~ptr =
  let sched = s.rt.Guard.sched in
  let costs = Sched.costs sched in
  let found = ref false in
  Array.iter
    (function
      | Some th ->
          Sched.consume sched costs.load;
          if Hashtbl.mem th.refs_set ptr then found := true
      | None -> ())
    s.threads;
  !found

(* IS_FOUND for one pointer across all threads (Alg. 1 lines 12-30). *)
let ptr_visible s ~self ~ptr =
  let slow_active = s.slow_path_count > 0 in
  let found = ref false in
  Activity.iter s.rt.Guard.activity (fun ctx ->
      if (not !found) && Ctx.tid ctx <> self && Ctx.op_active ctx then
        if inspect_thread s ~ptr ctx then found := true);
  if (not !found) && slow_active then found := in_refs_set s ~ptr;
  !found

let scan_and_free_plain th =
  let s = th.s in
  Vec.filter_in_place
    (fun ptr ->
      if ptr_visible s ~self:th.tid ~ptr then true
      else begin
        Tsx.free s.rt.Guard.tsx ptr;
        Guard.note_free s.stats ~now:(Sched.now s.rt.Guard.sched) ptr;
        false
      end)
    th.free_set

(* §5.2 optimisation: scan all stacks once into a hash table of referenced
   object bases, then test each free-set pointer against it.  The table is
   the thread's reusable scratch ([Hashtbl.clear] keeps its bucket array),
   so a scan allocates nothing beyond genuine table growth. *)
let scan_and_free_hashed th =
  let s = th.s in
  let sched = s.rt.Guard.sched in
  let costs = Sched.costs sched in
  let heap = Guard.heap s.rt in
  let table = th.scan_scratch in
  Hashtbl.clear table;
  let add_word w =
    s.st.Scheme_stats.stack_words <- s.st.Scheme_stats.stack_words + 1;
    Sched.consume sched costs.scan_word;
    let p = Word.unmark w in
    let b = Heap.owner_of heap p in
    if b <> 0 then Hashtbl.replace table b ()
    else if w <> 0 then Hashtbl.replace table w ()
  in
  Activity.iter s.rt.Guard.activity (fun ctx ->
      if Ctx.tid ctx <> th.tid && Ctx.op_active ctx then begin
        let oper_pre = Ctx.oper_counter ctx in
        Sched.consume sched costs.load;
        let rec attempt () =
          s.st.Scheme_stats.inspections <-
            s.st.Scheme_stats.inspections + 1;
          let splits_pre = Ctx.splits ctx in
          Sched.consume sched costs.load;
          Ctx.exposed_iter ctx add_word;
          let splits_post = Ctx.splits ctx in
          let oper_post = Ctx.oper_counter ctx in
          Sched.consume sched (2 * costs.load);
          if oper_pre = oper_post && splits_pre <> splits_post then begin
            s.st.Scheme_stats.scan_restarts <-
              s.st.Scheme_stats.scan_restarts + 1;
            attempt ()
          end
        in
        attempt ()
      end);
  let slow_active = s.slow_path_count > 0 in
  Vec.filter_in_place
    (fun ptr ->
      Sched.consume sched costs.load;
      if
        Hashtbl.mem table ptr
        || (slow_active && in_refs_set s ~ptr)
      then true
      else begin
        Tsx.free s.rt.Guard.tsx ptr;
        Guard.note_free s.stats ~now:(Sched.now sched) ptr;
        false
      end)
    th.free_set

let scan_and_free th =
  let s = th.s in
  let sched = s.rt.Guard.sched in
  let tr = Sched.trace sched in
  let pending = Vec.length th.free_set in
  if Trace.on tr then
    Trace.span_begin tr ~time:(Sched.now sched) ~tid:th.tid Trace.Reclaim
      "scan" (fun () -> Printf.sprintf "pending=%d" pending);
  s.st.Scheme_stats.scans <- s.st.Scheme_stats.scans + 1;
  s.stats.Guard.scans <- s.stats.Guard.scans + 1;
  let profile = Sched.profile sched in
  Profile.push_mode profile ~tid:th.tid Profile.Reclaim_scan;
  (* Fun.protect: a crash injected mid-scan unwinds with Thread_crashed and
     must still pop the attribution mode. *)
  Fun.protect
    ~finally:(fun () -> Profile.pop_mode profile ~tid:th.tid)
    (fun () ->
      if s.cfg.St_config.hash_scan then scan_and_free_hashed th
      else scan_and_free_plain th);
  s.stats.Guard.scan_words <- s.st.Scheme_stats.stack_words;
  if Trace.on tr then
    Trace.span_end tr ~time:(Sched.now sched) ~tid:th.tid Trace.Reclaim "scan"
      (fun () ->
        Printf.sprintf "freed=%d held=%d"
          (pending - Vec.length th.free_set)
          (Vec.length th.free_set))

let free_impl th addr =
  let sched = th.s.rt.Guard.sched in
  let tr = Sched.trace sched in
  if Trace.on tr then
    Trace.instant tr ~time:(Sched.now sched) ~tid:th.tid Trace.Reclaim
      "retire" (fun () ->
        Printf.sprintf "addr=%d pending=%d" addr (Vec.length th.free_set + 1));
  Guard.note_retire th.s.stats ~now:(Sched.now sched) addr;
  Vec.push th.free_set addr;
  if Vec.length th.free_set > th.s.cfg.St_config.max_free then
    scan_and_free th

(* FREE is not transactional (§5.1): commit the current segment first, run
   the free procedure outside any transaction, and let the next access open
   a fresh segment. *)
let retire env addr =
  if replaying env then begin
    let e = replay_entry env in
    if Packed_log.tag e <> Packed_log.tag_retire then raise Replay_mismatch
  end
  else begin
    ensure_live env;
    Ivec.push env.log Packed_log.retire;
    env.pos <- env.pos + 1;
    (match env.mode with
    | Fast -> split_commit env (* may raise Abort; the entry is rolled back *)
    | Slow -> ());
    free_impl env.th addr
  end

(* ------------------------------------------------------------------ *)
(* Operation driver                                                    *)
(* ------------------------------------------------------------------ *)

let finish_op env =
  (match env.mode with
  | Fast ->
      if env.live then begin
        (* Same atomic commit+expose discipline as split_commit; the final
           expose is optional because end_operation invalidates the
           exposure for scanners anyway (the paper's "Expose can be omitted
           on final commit"). *)
        let expose_final = env.th.s.cfg.St_config.expose_on_final in
        if expose_final then
          Sched.consume (sched env)
            (Ctx.exposed_size env.th.ctx * (costs env).expose_word);
        Tsx.commit (tsx env);
        if expose_final then ignore (Ctx.expose env.th.ctx);
        Forensics.on_retry_chain
          (Tsx.forensics env.tx)
          ~op_id:env.op_id ~split:env.split_idx ~depth:env.seg_failures;
        Predictor.on_commit env.th.predictor ~op_id:env.op_id
          ~split:env.split_idx;
        let st = env.th.s.st in
        st.Scheme_stats.segments <- st.Scheme_stats.segments + 1;
        st.Scheme_stats.segment_len_sum <-
          st.Scheme_stats.segment_len_sum + env.steps;
        let tr = trace env in
        if Trace.on tr then
          Trace.span_end tr ~time:(Sched.now (sched env)) ~tid:env.th.tid
            Trace.Engine "segment" (fun () ->
              Printf.sprintf "commit-final split=%d steps=%d" env.split_idx
                env.steps);
        env.live <- false
      end
  | Slow ->
      refs_clear env;
      deregister_slow env;
      env.live <- false);
  Ctx.end_operation env.th.ctx;
  let st = env.th.s.st in
  st.Scheme_stats.ops <- st.Scheme_stats.ops + 1;
  if env.mode = Fast then st.Scheme_stats.fast_ops <- st.Scheme_stats.fast_ops + 1

(* One [env] per thread, reset at every operation start: a fresh record
   (plus a fresh log vector) per operation was minor-heap traffic scaling
   with the operation count, for state that is strictly thread-sequential. *)
let reset_env env ~op_id ~mode =
  Ivec.clear env.log;
  env.op_id <- op_id;
  env.pos <- 0;
  env.replay_to <- 0;
  env.committed <- 0;
  env.live <- false;
  env.steps <- 0;
  env.limit <- 0;
  env.split_idx <- 0;
  env.mode <- mode;
  env.seg_failures <- 0;
  env.slow_registered <- false;
  env.region_depth <- 0

let run_op th ~op_id f =
  let forced_slow =
    th.s.cfg.St_config.forced_slow_pct > 0
    && Rng.pct th.rng th.s.cfg.St_config.forced_slow_pct
  in
  let mode = if forced_slow then Slow else Fast in
  let env =
    match th.env_cache with
    | Some env ->
        reset_env env ~op_id ~mode;
        env
    | None ->
        let env =
          {
            th;
            sc = th.s.rt.Guard.sched;
            tx = th.s.rt.Guard.tsx;
            cs = Sched.costs th.s.rt.Guard.sched;
            op_id;
            log = th.seg_log;
            pos = 0;
            replay_to = 0;
            committed = 0;
            live = false;
            steps = 0;
            limit = 0;
            split_idx = 0;
            mode;
            seg_failures = 0;
            slow_registered = false;
            region_depth = 0;
          }
        in
        th.env_cache <- Some env;
        env
  in
  Ctx.begin_operation th.ctx ~op_id;
  let rec attempt () =
    match f env with
    | r -> (
        (* The final commit itself can be doomed; treat it like any other
           hardware abort and retry from the last split point. *)
        match finish_op env with
        | () -> r
        | exception Tsx.Abort reason ->
            on_hw_abort env reason;
            attempt ())
    | exception Tsx.Abort reason ->
        on_hw_abort env reason;
        attempt ()
  in
  attempt ()

(* Programmer-defined transactional region (sec 5.5): the body executes
   atomically with respect to other transactions — no split is performed
   inside it, and the mandatory register expose happens at its end (the
   region boundary commits the segment).  Like any user transaction over
   best-effort HTM it may abort and re-execute; the slow path is the
   non-transactional backup the paper requires the programmer to provide.
   The body must follow the same replay discipline as operation bodies. *)
let atomic_region env f =
  if replaying env then begin
    (* The region starts inside the committed prefix; it may cross the
       replay boundary and go live mid-way, in which case the closing
       expose still applies. *)
    env.region_depth <- env.region_depth + 1;
    let r = f () in
    env.region_depth <- env.region_depth - 1;
    if (not (replaying env)) && env.mode = Fast && env.live then
      split_commit env;
    r
  end
  else begin
    ensure_live env;
    env.region_depth <- env.region_depth + 1;
    match f () with
    | r ->
        env.region_depth <- env.region_depth - 1;
        if env.mode = Fast && env.live then split_commit env;
        r
    | exception e ->
        env.region_depth <- env.region_depth - 1;
        raise e
  end

(* ------------------------------------------------------------------ *)
(* Predictor diagnostics                                               *)
(* ------------------------------------------------------------------ *)

let segments_tracked s =
  Array.fold_left
    (fun acc -> function
      | Some th -> acc + Predictor.segments_tracked th.predictor
      | None -> acc)
    0 s.threads

type limit_row = { l_tid : int; l_op_id : int; l_split : int; l_limit : int }

let predictor_limits s =
  let rows = ref [] in
  Array.iter
    (function
      | Some th ->
          Predictor.iter th.predictor (fun ~op_id ~split ~limit ->
              rows :=
                { l_tid = th.tid; l_op_id = op_id; l_split = split;
                  l_limit = limit }
                :: !rows)
      | None -> ())
    s.threads;
  List.sort
    (fun a b ->
      compare
        (a.l_tid, a.l_op_id, a.l_split)
        (b.l_tid, b.l_op_id, b.l_split))
    !rows

let quiesce th =
  if Vec.length th.free_set > 0 then scan_and_free th

let pending_frees th = Vec.length th.free_set

let total_pending_frees s =
  Array.fold_left
    (fun acc -> function
      | Some th -> acc + Vec.length th.free_set
      | None -> acc)
    0 s.threads
