(* SplitMix64 (Steele, Lea, Flood 2014), reduced to OCaml's 63-bit ints.
   All arithmetic is performed on the full native int and masked when a
   bounded value is extracted, which preserves the mixing quality of the
   original constants for the bits we keep. *)

type t = { mutable state : int }

(* The 64-bit SplitMix constants truncated to OCaml's 63-bit int range (the
   dropped top bit only affects the sign bit we mask away anyway). *)
let golden_gamma = 0x1E3779B97F4A7C15
let mul1 = 0x3F58476D1CE4E5B9
let mul2 = 0x14D049BB133111EB

let create ~seed = { state = seed }

let mix64 z =
  let z = (z lxor (z lsr 30)) * mul1 in
  let z = (z lxor (z lsr 27)) * mul2 in
  z lxor (z lsr 31)

let next t =
  t.state <- t.state + golden_gamma;
  mix64 t.state land max_int

let split t =
  let seed = next t in
  { state = seed }

let int t bound =
  assert (bound > 0);
  next t mod bound

let float t = Float.of_int (next t) /. Float.of_int max_int

let bool t = next t land 1 = 1

let pct t p = int t 100 < p
