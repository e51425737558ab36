(** Tag-packed segment-log entries.

    The StackTrack engine logs one entry per primitive access (read, write,
    CAS, random draw, allocation, retire) to make segment replay after a
    hardware abort deterministic.  Entries are packed into immediate [int]s
    — kind tag in the low 3 bits, payload shifted above — so the
    log is a flat {!St_sim.Ivec.t} and the per-access push never allocates.

    Round-trip contract: [payload (pack ~tag p) = p] for any [p] in
    [[{!min_payload}, {!max_payload}]] (the shift-decode is arithmetic, so
    signs survive).  Simulated words and addresses are far inside the
    range. *)

(** {2 Kind tags} *)

val tag_read : int
val tag_write : int
val tag_cas : int
val tag_rand : int
val tag_alloc : int
val tag_retire : int

val max_payload : int
val min_payload : int

(** {2 Packing (allocation-free fast path)} *)

val pack : tag:int -> int -> int
val tag : int -> int
val payload : int -> int

val read : int -> int
(** [read v] packs a read of value [v]. *)

val write : int
(** The (payload-free) write entry. *)

val cas : bool -> int
(** [cas ok] packs a CAS outcome. *)

val cas_ok : int -> bool
(** Outcome of a packed CAS entry. *)

val rand : int -> int
val alloc : int -> int

val retire : int
(** The (payload-free) retire entry. *)

(** {2 Boxed view (tests / debugging only)} *)

type entry =
  | E_read of int
  | E_write
  | E_cas of bool
  | E_rand of int
  | E_alloc of int
  | E_retire

val encode : entry -> int
val decode : int -> entry
(** [decode (encode e) = e] for payloads within range; raises
    [Invalid_argument] on an unknown tag. *)

val entry_to_string : entry -> string
