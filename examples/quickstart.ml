(* Quickstart: a lock-free linked list with automatic StackTrack memory
   reclamation on the simulated HTM machine.

     dune exec examples/quickstart.exe

   The five-minute tour:
   1. build a simulated machine (scheduler + heap + TSX-style HTM);
   2. create the StackTrack scheme and a Harris list that uses it;
   3. run a few threads doing inserts/deletes/lookups;
   4. observe that unlinked nodes really were freed back to the allocator,
      with zero use-after-free violations. *)

open St_sim
open St_mem
open St_htm
open St_reclaim

(* The list operations are a functor over the reclamation scheme: the same
   data-structure code runs under StackTrack, hazard pointers, epochs, ... *)
module List_st = St_dslib.Harris_list.Make (Stacktrack.Engine)

let () =
  (* 1. The machine: 4 cores x 2 hyperthreads, like the paper's Haswell. *)
  let sched = Sched.create ~seed:42 () in
  let shadow = Shadow.create () in
  let heap = Heap.create ~shadow () in
  let tsx = Tsx.create ~sched ~heap () in
  let rt = Guard.make_runtime ~sched ~tsx in

  (* 2. The scheme and the structure. *)
  let scheme = Stacktrack.Engine.create rt in
  let list = St_dslib.Harris_list.create_raw heap in
  St_dslib.Harris_list.populate_raw heap list
    ~keys:[| 10; 20; 30; 40; 50 |]
    ~note_link:ignore;

  (* 3. Four worker threads hammer the list concurrently. *)
  for _ = 1 to 4 do
    ignore
      (Sched.add_thread sched (fun tid ->
           let th = Stacktrack.Engine.create_thread scheme ~tid in
           let rng = Rng.create ~seed:(100 + tid) in
           for _ = 1 to 200 do
             let k = Rng.int rng 64 in
             match Rng.int rng 3 with
             | 0 -> ignore (List_st.insert list th k)
             | 1 -> ignore (List_st.delete list th k)
             | _ -> ignore (List_st.contains list th k)
           done;
           (* Flush this thread's pending free-set at the end. *)
           Stacktrack.Engine.quiesce th))
  done;
  Sched.run sched;

  (* 4. What happened? *)
  let st = Stacktrack.Engine.scheme_stats scheme in
  Format.printf "final list: @[<1>[%a]@]@."
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.fprintf ppf ";@ ")
       (fun ppf k -> Format.fprintf ppf "@[%d@]" k))
    (St_dslib.Harris_list.to_list_raw heap list);
  Format.printf "ops=%d, transactional segments=%d (avg %.1f blocks)@."
    st.Stacktrack.Scheme_stats.ops st.Stacktrack.Scheme_stats.segments
    (Stacktrack.Scheme_stats.avg_segment_length st);
  Format.printf "heap: %d allocated, %d freed, %d live@." (Heap.allocs heap)
    (Heap.frees heap) (Heap.live_objects heap);
  Format.printf "memory-safety violations: %d (must be 0)@."
    (Shadow.count shadow);
  assert (Shadow.count shadow = 0)
