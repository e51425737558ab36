type account =
  | Committed_txn
  | Wasted_txn
  | Slow_path
  | Non_txn
  | Reclaim_scan
  | Reclaim_stall
  | Coherence
  | Ctx_switch

let n_accounts = 8

let account_index = function
  | Committed_txn -> 0
  | Wasted_txn -> 1
  | Slow_path -> 2
  | Non_txn -> 3
  | Reclaim_scan -> 4
  | Reclaim_stall -> 5
  | Coherence -> 6
  | Ctx_switch -> 7

let accounts =
  [
    Committed_txn;
    Wasted_txn;
    Slow_path;
    Non_txn;
    Reclaim_scan;
    Reclaim_stall;
    Coherence;
    Ctx_switch;
  ]

let account_name = function
  | Committed_txn -> "committed_txn"
  | Wasted_txn -> "wasted_txn"
  | Slow_path -> "slow_path"
  | Non_txn -> "non_txn"
  | Reclaim_scan -> "reclaim_scan"
  | Reclaim_stall -> "reclaim_stall"
  | Coherence -> "coherence"
  | Ctx_switch -> "ctx_switch"

(* Per-thread ledger.  [pending_txn] holds cycles charged while a
   transaction is open; they are classified only at commit (useful work) or
   abort (wasted speculation) — the distinction the paper's Figure 3 abort
   analysis needs and endpoint counters cannot provide.  [mode] is a stack
   of attribution contexts pushed by the layers (slow path, reclamation
   scan, grace-period stall); charges land on its top, or [Non_txn] when
   empty. *)
type ledger = {
  counts : int array; (* indexed by account_index *)
  mutable pending_txn : int;
  mutable in_txn : bool;
  mutable pending_coherence : int;
  mutable mode : account list;
  mutable charged : int; (* everything this ledger ever absorbed *)
}


type t = { enabled : bool; ledgers : ledger array }

let make_ledger () =
  {
    counts = Array.make n_accounts 0;
    pending_txn = 0;
    in_txn = false;
    pending_coherence = 0;
    mode = [];
    charged = 0;
  }

let create ?(enabled = false) () =
  {
    enabled;
    ledgers = Array.init Topology.max_threads (fun _ -> make_ledger ());
  }

let enabled t = t.enabled

let add l a c = l.counts.(account_index a) <- l.counts.(account_index a) + c

(* The single charge point, called by [Sched.consume] with the final
   (HT-penalty-inflated) cost.  A coherence-miss component announced just
   before the consume is peeled off into its own account; the remainder
   goes to the open transaction's pending pot or to the current mode. *)
let charge t ~tid cost =
  if t.enabled then begin
    let l = t.ledgers.(tid) in
    l.charged <- l.charged + cost;
    let coh = if l.pending_coherence < cost then l.pending_coherence else cost in
    if coh > 0 then begin
      add l Coherence coh;
      l.pending_coherence <- 0
    end;
    let rest = cost - coh in
    if rest > 0 then
      if l.in_txn then l.pending_txn <- l.pending_txn + rest
      else
        add l (match l.mode with m :: _ -> m | [] -> Non_txn) rest
  end

(* Context-switch overhead is charged by the scheduler outside [consume]
   and is never speculative work, whatever the thread was doing. *)
let charge_switch t ~tid cost =
  if t.enabled then begin
    let l = t.ledgers.(tid) in
    l.charged <- l.charged + cost;
    add l Ctx_switch cost
  end

let note_coherence t ~tid cost =
  if t.enabled && cost > 0 then
    t.ledgers.(tid).pending_coherence <-
      t.ledgers.(tid).pending_coherence + cost

let txn_begin t ~tid = if t.enabled then t.ledgers.(tid).in_txn <- true

let resolve l a =
  add l a l.pending_txn;
  l.pending_txn <- 0;
  l.in_txn <- false

let txn_commit t ~tid = if t.enabled then resolve t.ledgers.(tid) Committed_txn
let txn_abort t ~tid = if t.enabled then resolve t.ledgers.(tid) Wasted_txn

let push_mode t ~tid m =
  if t.enabled then
    let l = t.ledgers.(tid) in
    l.mode <- m :: l.mode

let pop_mode t ~tid =
  if t.enabled then
    let l = t.ledgers.(tid) in
    match l.mode with [] -> () | _ :: rest -> l.mode <- rest

let pending_txn t ~tid = if t.enabled then t.ledgers.(tid).pending_txn else 0

let wasted_cycles t ~n_threads =
  if not t.enabled then 0
  else begin
    let n = min n_threads Topology.max_threads in
    let acc = ref 0 in
    for tid = 0 to n - 1 do
      acc := !acc + t.ledgers.(tid).counts.(account_index Wasted_txn)
    done;
    !acc
  end

(* ------------------------------------------------------------------ *)
(* Snapshots                                                           *)
(* ------------------------------------------------------------------ *)

type thread_snapshot = {
  tid : int;
  cycles : int array;  (** indexed like {!accounts}. *)
  charged : int;
  consumed : int;
  idle : int;
}

type snapshot = { makespan : int; threads : thread_snapshot list }

(* A thread that crashed mid-transaction never resolves its pending pot;
   its speculation is wasted by definition. *)
let snapshot t ~consumed ~makespan =
  let threads =
    List.init
      (min (Array.length consumed) Topology.max_threads)
      (fun tid ->
        let l = t.ledgers.(tid) in
        let cycles = Array.copy l.counts in
        if l.pending_txn > 0 then
          cycles.(account_index Wasted_txn) <-
            cycles.(account_index Wasted_txn) + l.pending_txn;
        {
          tid;
          cycles;
          charged = l.charged;
          consumed = consumed.(tid);
          idle = (let i = makespan - consumed.(tid) in if i > 0 then i else 0);
        })
  in
  { makespan; threads }

let totals s =
  let acc = Array.make n_accounts 0 in
  List.iter
    (fun th -> Array.iteri (fun i c -> acc.(i) <- acc.(i) + c) th.cycles)
    s.threads;
  acc

(* The conservation invariant: every virtual cycle a thread's core advanced
   on its behalf is attributed to exactly one account.  [charged] is the
   profiler's own running sum; [consumed] is the scheduler's independent
   ledger — agreement means no charge site was missed and no cycle was
   double-booked by the txn-pending/mode machinery. *)
let conserved s =
  List.for_all
    (fun th ->
      let sum = Array.fold_left ( + ) 0 th.cycles in
      sum = th.charged && sum = th.consumed && th.idle >= 0)
    s.threads

let pp_snapshot ppf s =
  Format.fprintf ppf "makespan=%d@." s.makespan;
  List.iter
    (fun th ->
      Format.fprintf ppf "t%-3d consumed=%-10d idle=%-10d" th.tid th.consumed
        th.idle;
      List.iteri
        (fun i a ->
          if th.cycles.(i) > 0 then
            Format.fprintf ppf " %s=%d" (account_name a) th.cycles.(i))
        accounts;
      Format.fprintf ppf "@.")
    s.threads
