(** Fixed-size domain pool for running independent experiment points in
    parallel.

    Tasks are claimed from a shared atomic cursor (dynamic scheduling: a
    domain that finishes a cheap point immediately pulls the next one, so
    imbalanced sweeps — a 1-thread point is ~10x cheaper than a 16-thread
    point — stay load-balanced), but results are collected **in submission
    order**.  Combined with per-task determinism (every experiment point is
    a pure function of its seeded configuration) this makes the parallel
    driver artifact-equivalent to the sequential one: reports, CSV, and
    JSON consume the ordered result list and never observe completion
    order.

    [jobs = 1] (the default everywhere) bypasses domains entirely and runs
    the tasks in the calling domain, preserving the exact pre-pool
    behaviour.  [jobs = 0] asks the runtime for
    [Domain.recommended_domain_count ()]. *)

let default_jobs () = Domain.recommended_domain_count ()

(* First failure in *submission order* wins, so a run with two failing
   points reports the same exception no matter how the pool interleaved
   them. *)
let reraise_first results =
  Array.iter
    (function
      | Some (Error (e, bt)) -> Printexc.raise_with_backtrace e bt
      | Some (Ok _) | None -> ())
    results

let run ?(jobs = 1) tasks =
  let jobs = if jobs = 0 then default_jobs () else jobs in
  if jobs < 0 then invalid_arg "Pool.run: jobs must be >= 0";
  let n = List.length tasks in
  if jobs <= 1 || n <= 1 then
    (* In-domain path: no spawn, no marshalling of control — byte-for-byte
       the old sequential driver. *)
    List.map (fun f -> f ()) tasks
  else begin
    let tasks = Array.of_list tasks in
    let results = Array.make n None in
    let next = Atomic.make 0 in
    let worker () =
      let rec loop () =
        let i = Atomic.fetch_and_add next 1 in
        if i < n then begin
          (results.(i) <-
             Some
               (match tasks.(i) () with
               | v -> Ok v
               | exception e -> Error (e, Printexc.get_raw_backtrace ())));
          loop ()
        end
      in
      (* The pool already uses the cores: set-up passes inside a task
         run as one range. *)
      St_sim.Halves.as_worker loop
    in
    (* The calling domain is one of the workers: [jobs] is the total
       parallelism, not the number of helpers. *)
    let helpers =
      List.init (min jobs n - 1) (fun _ -> Domain.spawn worker)
    in
    worker ();
    List.iter Domain.join helpers;
    (* Domain.join publishes every helper's writes, so the ordered read
       below observes all slots. *)
    reraise_first results;
    Array.to_list
      (Array.map
         (function
           | Some (Ok v) -> v
           | Some (Error _) | None -> assert false (* all claimed, none failed *))
         results)
  end
