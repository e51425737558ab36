let max_threads = 256

type t = {
  cores : int;
  smt : int;
  siblings : int array; (* lcore -> SMT sibling lcore, -1 if none *)
  place : int array; (* thread slot (mod lcores) -> lcore *)
}

(* Spread order: physical cores first (even lcores), then hyperthread
   siblings (odd lcores), then wrap. *)
let place_slot ~cores ~smt slot =
  if smt = 1 then slot
  else if slot < cores then 2 * slot
  else (2 * (slot - cores)) + 1

let create ?(cores = 4) ?(smt = 2) () =
  assert (cores > 0 && smt > 0 && smt <= 2);
  let n = cores * smt in
  let siblings =
    Array.init n (fun lc ->
        if smt = 1 then -1 else if lc land 1 = 0 then lc + 1 else lc - 1)
  in
  let place = Array.init n (place_slot ~cores ~smt) in
  { cores; smt; siblings; place }

let lcores t = t.cores * t.smt

let sibling_ix t lc = t.siblings.(lc)

let sibling t lc =
  let s = t.siblings.(lc) in
  if s < 0 then None else Some s

let core_of t lc = lc / t.smt

let placement t i = t.place.(i mod Array.length t.place)
