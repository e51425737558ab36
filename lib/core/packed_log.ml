(* Tag-packed encoding of the StackTrack segment log.

   The engine pushes one log entry on EVERY simulated read/write/CAS/
   alloc/rand/retire, so a boxed variant ([E_read of int] & co.) allocates
   a minor-heap block per primitive access — GC pressure directly on the
   simulator's hottest path.  Entries are instead packed into a single
   immediate [int]: the kind tag lives in the low [tag_bits] bits and the
   payload (read value, CAS outcome, random draw, allocation address) is
   shifted above it.  An [Ivec.t] of packed entries is a flat unboxed
   array: pushing, truncating, and replaying the log never allocates.

   Encoding contract:
   - [tag v = v land tag_mask], [payload v = v asr tag_bits].
   - The arithmetic shift on decode makes the round-trip sign-preserving:
     any payload in [[min_payload, max_payload]] (60-bit signed range on a
     64-bit host) survives encode/decode exactly.  Simulated word values
     and heap addresses are far inside that range.
   - Payload-free kinds (write, retire) encode payload 0. *)

let tag_bits = 3
let tag_mask = (1 lsl tag_bits) - 1

let tag_read = 0
let tag_write = 1
let tag_cas = 2
let tag_rand = 3
let tag_alloc = 4
let tag_retire = 5

let max_payload = max_int asr tag_bits
let min_payload = min_int asr tag_bits

let[@inline] pack ~tag payload = (payload lsl tag_bits) lor tag
let[@inline] tag v = v land tag_mask
let[@inline] payload v = v asr tag_bits

let[@inline] read v = pack ~tag:tag_read v
let write = pack ~tag:tag_write 0
let[@inline] cas ok = pack ~tag:tag_cas (Bool.to_int ok)
let[@inline] rand v = pack ~tag:tag_rand v
let[@inline] alloc a = pack ~tag:tag_alloc a
let retire = pack ~tag:tag_retire 0

let[@inline] cas_ok v = payload v <> 0

(* Boxed view, for tests and debugging only — the engine never decodes to
   this type on its fast path.  Mirrors the variant the log used before the
   packed rewrite, so equivalence tests can compare against the historical
   boxed semantics directly. *)
type entry =
  | E_read of int
  | E_write
  | E_cas of bool
  | E_rand of int
  | E_alloc of int
  | E_retire

let encode = function
  | E_read v -> read v
  | E_write -> write
  | E_cas ok -> cas ok
  | E_rand v -> rand v
  | E_alloc a -> alloc a
  | E_retire -> retire

let decode v =
  let p = payload v in
  match tag v with
  | 0 -> E_read p
  | 1 -> E_write
  | 2 -> E_cas (p <> 0)
  | 3 -> E_rand p
  | 4 -> E_alloc p
  | 5 -> E_retire
  | t -> invalid_arg (Printf.sprintf "Packed_log.decode: bad tag %d" t)

let entry_to_string = function
  | E_read v -> Printf.sprintf "read %d" v
  | E_write -> "write"
  | E_cas ok -> Printf.sprintf "cas %b" ok
  | E_rand v -> Printf.sprintf "rand %d" v
  | E_alloc a -> Printf.sprintf "alloc %d" a
  | E_retire -> "retire"
