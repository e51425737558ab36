type t = { mutable data : int array; mutable len : int }

let create () = { data = [||]; len = 0 }
let length t = t.len

let grow t =
  let cap = Array.length t.data in
  let data = Array.make (max 8 (cap * 2)) 0 in
  Array.blit t.data 0 data 0 t.len;
  t.data <- data

let push t x =
  if t.len = Array.length t.data then grow t;
  (* In-range after the capacity check; an int array store is a plain
     write, with no [caml_modify] barrier. *)
  Array.unsafe_set t.data t.len x;
  t.len <- t.len + 1

let get t i =
  if i < 0 || i >= t.len then invalid_arg "Ivec.get";
  Array.unsafe_get t.data i

let set t i x =
  if i < 0 || i >= t.len then invalid_arg "Ivec.set";
  Array.unsafe_set t.data i x

let truncate t n =
  if n < 0 || n > t.len then invalid_arg "Ivec.truncate";
  t.len <- n

let clear t = t.len <- 0
