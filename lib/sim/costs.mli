(** Cycle-cost model for simulated machine primitives.

    The absolute values are not meant to match any particular silicon; what
    matters for reproducing the paper's figures is the *relative* magnitude of
    the costs (a memory fence is an order of magnitude more expensive than a
    cached load, a context switch is three orders of magnitude more
    expensive).  Defaults follow published Haswell latencies (David,
    Guerraoui, Trigonakis, SOSP'13). *)

type t = {
  load : int;  (** Average pointer-chase load (L1/L2 mix). *)
  store : int;  (** L1-hit store. *)
  cas : int;  (** Atomic compare-and-swap (locked instruction). *)
  fence : int;  (** Full memory fence / store-buffer drain. *)
  fetch_add : int;  (** Atomic fetch-and-add. *)
  htm_begin : int;  (** [xbegin]. *)
  htm_commit : int;  (** [xend], includes the implicit fence. *)
  htm_abort : int;  (** Fixed penalty for an abort, on top of wasted work. *)
  checkpoint : int;  (** StackTrack split checkpoint: local counter bump. *)
  local_op : int;  (** Register-to-register / thread-local work per block. *)
  context_switch : int;  (** OS preemption at quantum expiry. *)
  expose_word : int;  (** Copying one word into the exposed snapshot. *)
  scan_word : int;  (** One word comparison during a stack scan. *)
  alloc : int;  (** Heap allocation fast path. *)
  free : int;  (** Returning a block to the heap. *)
  coherence_miss : int;
      (** Extra latency when an access misses because another core owns the
          line (MESI invalidate / dirty-forward).  This is what makes
          contended CAS loops "over-throttle" a queue (paper §6.2, citing
          Dice-Hendler-Mirsky). *)
}

val default : t
