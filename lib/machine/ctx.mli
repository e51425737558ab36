(** Simulated per-thread execution context: register file and stack frame.

    This models the part of a real thread's state that StackTrack's global
    scan inspects (paper §5.1-5.2).  Each thread has:

    - a {e working} register file and stack frame, private to the thread.
      Every value loaded from shared memory is recorded in a rotating
      register (conservatively modelling values the compiled code keeps in
      registers), and operations store longer-lived locals in named frame
      slots (modelling compiler-allocated stack slots);
    - an {e exposed} snapshot of both, published atomically by
      {!expose} at every transactional segment commit
      (EXPOSE_REGISTERS, Alg. 2).  A reclaiming thread only ever reads the
      exposed snapshot;
    - the published [splits] and [oper_counter] counters used by the scan's
      consistency protocol (Alg. 1, lines 14-29).

    The context performs no synchronization itself; atomicity of [expose]
    comes from it being called inside a single scheduler step (as on
    hardware, where the expose stores belong to the committing
    transaction's write set). *)

type t

val n_registers : int
(** Size of the modelled register file (16, as on x86-64). *)

val max_frame : int
(** Maximum locals per operation frame. *)

val create : unit -> t

(** {2 Working state (private to the owning thread)} *)

val note_load : t -> St_mem.Word.value -> unit
(** Record a value loaded from shared memory into the next rotating
    register. *)

val local_set : t -> int -> St_mem.Word.value -> unit
(** [local_set t slot v] writes a named stack-frame local. *)

val local_get : t -> int -> St_mem.Word.value

val clear_working : t -> unit
(** Reset registers and frame (operation start, and before a replay). *)

(** {2 Publication} *)

val expose : t -> int
(** Publish the working registers and frame as the exposed snapshot and
    bump the [splits] counter.  Returns the number of words copied (the
    caller charges the cycle cost). *)

val splits : t -> int
val oper_counter : t -> int

val begin_operation : t -> op_id:int -> unit
(** Clears the working state, records the operation id, marks the thread
    active. *)

val end_operation : t -> unit
(** Bumps [oper_counter] and marks the thread inactive (scans skip it). *)

val op_active : t -> bool
val op_id : t -> int

(** {2 Scanning (read by other threads)} *)

val exposed_iter : t -> (St_mem.Word.value -> unit) -> unit
(** Iterate over every word of the exposed snapshot (registers then stack
    frame). *)

val exposed_size : t -> int
(** Number of exposed words ("stack depth" in the paper's scan-behaviour
    analysis). *)
