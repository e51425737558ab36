(** The StackTrack reclamation scheme (the paper's contribution, §5).

    StackTrack makes memory reclamation for lock-free data structures both
    {e automatic} (no per-structure protection code) and {e efficient} (no
    per-access announcement fences) by running every data-structure
    operation as a series of hardware transactions ({e segments}) and
    exposing the thread's registers and stack frame atomically at every
    segment commit.  A reclaiming thread then simply scans the exposed
    stacks/registers of active threads: a live reference is either visible
    there, or lives in an uncommitted transaction's data set — in which
    case freeing the object conflicts with and aborts that transaction.
    Either way no live node is freed, with no per-access bookkeeping on
    the fast path.

    This module implements the scheme against the simulated machine and
    satisfies {!St_reclaim.Guard.S}, so every structure in [st_dslib] runs
    under it unchanged.  Implementation pillars (details in the .ml):

    - split engine with per-basic-block checkpoints and the dynamic
      split-length predictor (Alg. 2, §5.3);
    - segment restart via a record/replay log, reproducing hardware
      register rollback exactly;
    - the batched free procedure with the splits/oper-counter scan
      consistency protocol (Alg. 1), in both per-pointer and single-pass
      hashed variants (§5.2);
    - the software-only slow path with per-read reference-set
      announcement and fence validation (Alg. 5, §5.4);
    - extensions: programmer-defined transactional regions (§5.5),
      commit-at-CAS, and conflict backoff (see {!St_config}). *)

include St_reclaim.Guard.S

val create : ?cfg:St_config.t -> St_reclaim.Guard.runtime -> t
(** Create a scheme instance for one simulated machine. *)

val scheme_stats : t -> Scheme_stats.t
(** StackTrack-specific counters (segments, split lengths, scans, slow-path
    traffic) behind Figures 3-5. *)

val runtime : t -> St_reclaim.Guard.runtime

val atomic_region : env -> (unit -> 'a) -> 'a
(** Programmer-defined transactional region (§5.5): the body executes
    inside a single segment — no split checkpoint commits within it — and
    the mandatory register expose is performed at its end.  The body must
    follow the same determinism/replay discipline as operation bodies, and
    may re-execute if the enclosing transaction aborts (the software slow
    path is the non-transactional backup). *)

val segments_tracked : t -> int
(** Sum over registered threads of {!Predictor.segments_tracked}: how many
    distinct (op id, split index) segments the split-length predictors are
    adapting. *)

type limit_row = { l_tid : int; l_op_id : int; l_split : int; l_limit : int }

val predictor_limits : t -> limit_row list
(** Final per-segment split-length limits across every registered thread's
    predictor, sorted by (tid, op id, split index) — the end state of the
    Figure 4 convergence that the forensics decision timeline replays. *)

val pending_frees : thread -> int
(** Number of retired pointers buffered in this thread's free set, awaiting
    the next global scan. *)

val total_pending_frees : t -> int
(** Sum of {!pending_frees} over every registered thread — the scheme-wide
    backlog of retired-but-unfreed memory, sampled by the harness's
    metrics time series. *)
