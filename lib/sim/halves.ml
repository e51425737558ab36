let threshold = 1 lsl 17

(* True on a domain while it runs tasks of a parallel pool. *)
let worker = Domain.DLS.new_key (fun () -> false)

let as_worker body =
  let was = Domain.DLS.get worker in
  Domain.DLS.set worker true;
  Fun.protect ~finally:(fun () -> Domain.DLS.set worker was) body

let splits ~work =
  work >= threshold
  && Domain.recommended_domain_count () > 1
  && not (Domain.DLS.get worker)

let idle () = 0

(* The helper's closure reaches [f] and the upper half's scratch only
   through [job], which is emptied once the helper is joined.  On OCaml
   5.1 a finished domain's closure can stay reachable after the join: a
   census helper's kept a whole 10^6-object heap (71 MiB) live through
   [Gc.full_major] into the next run, in 18 of 25 [hash-1m] benchmark
   invocations made while another process kept one CPU busy. *)
let sum ~work ~n ~scratch f =
  if not (splits ~work) then f (scratch 0 n) 0 n
  else begin
    let mid = n / 2 in
    let lower = scratch 0 mid and upper = scratch mid n in
    let job = ref (fun () -> f upper mid n) in
    match Domain.spawn (fun () -> !job ()) with
    | exception Failure _ -> f (scratch 0 n) 0 n
    | helper -> (
        let join () =
          match Domain.join helper with
          | high ->
              job := idle;
              high
          | exception e ->
              job := idle;
              raise e
        in
        match f lower 0 mid with
        | low -> low + join ()
        | exception e ->
            let bt = Printexc.get_raw_backtrace () in
            (try ignore (join ()) with _ -> ());
            Printexc.raise_with_backtrace e bt)
  end
