(** Typed event tracing for simulated schedules.

    A bounded ring buffer of timestamped, typed events.  Each event carries
    a layer {!category}, a {!phase} (instant marker or span begin/end), a
    static [name], and an optional free-form [detail] string supplied as a
    thunk — the thunk is only forced when the trace is enabled, so
    instrumentation can stay in the code at zero cost in ordinary runs.

    Spans are keyed by thread id: a [Begin]/[End] pair with the same [tid]
    and [name] delimits one span on that thread's timeline, which is
    exactly the pairing rule of the Chrome trace-event format the harness
    exports to (see [St_harness.Chrome_trace]).

    Because the simulator is deterministic, the recorded event stream is a
    pure function of the seed and configuration: two runs with the same
    seed produce identical traces, making exported traces testable
    artifacts. *)

type category =
  | Sched  (** Scheduler: preemption, context switch, crash. *)
  | Cache  (** Cache model: speculative-line evictions. *)
  | Htm  (** Transactions: begin, commit, abort (with reason). *)
  | Reclaim  (** Reclamation: retire, scan, free batch, stall. *)
  | Engine  (** StackTrack engine: segments, replays, slow path. *)

val category_name : category -> string
(** Lower-case label ("sched", "cache", "htm", "reclaim", "engine"). *)

type phase = Instant | Begin | End | Counter

(** [Counter] events sample a numeric series (the value is carried in
    [detail] as its decimal rendering); the Chrome exporter turns each
    distinct [name] into a counter track.  Emitted by the memory-lifecycle
    sampler (limbo backlog, live footprint). *)

type event = {
  time : int;  (** Virtual time (cycles) on the emitting thread's core. *)
  tid : int;
  category : category;
  phase : phase;
  name : string;  (** Static event label, e.g. "txn", "scan", "preempt". *)
  detail : string;  (** Forced from the thunk; [""] when none. *)
}

type t

val create : ?capacity:int -> enabled:bool -> unit -> t
(** [capacity] is the ring size (default 4096 events). *)

val on : t -> bool
(** Whether the trace records.  Guard hot call sites with it: the emit
    functions already skip work when disabled, but the detail {e closure}
    built at the call site still allocates — wrap closure-building sites in
    [if Trace.on tr then ...] so a disabled trace costs one load. *)

val no_detail : unit -> string
(** The empty detail thunk, for events that need no payload. *)

val record :
  t ->
  time:int ->
  tid:int ->
  phase:phase ->
  category ->
  string ->
  (unit -> string) ->
  unit
(** [record t ~time ~tid ~phase category name detail] appends an event;
    [detail] is only forced when the trace is enabled. *)

val instant :
  t -> time:int -> tid:int -> category -> string -> (unit -> string) -> unit

val span_begin :
  t -> time:int -> tid:int -> category -> string -> (unit -> string) -> unit

val span_end :
  t -> time:int -> tid:int -> category -> string -> (unit -> string) -> unit

val counter : t -> time:int -> tid:int -> category -> string -> int -> unit
(** [counter t ~time ~tid category name v] records one sample of the
    counter track [name] with value [v] (a no-op when disabled). *)

val size : t -> int
(** Events currently retained (≤ capacity). *)

val total : t -> int
(** Events ever recorded (≥ {!size}). *)

val dropped : t -> int
(** Events evicted by ring overflow ([total - size]). *)

val iter : t -> (event -> unit) -> unit
(** Iterate over retained events, oldest first. *)

val events : t -> event list
(** Retained events, oldest first. *)

val dump : ?last:int -> t -> Format.formatter -> unit
(** Print up to [last] most recent events (default: all retained), oldest
    first. *)

val clear : t -> unit
