(* The benchmark's four workloads: one named Experiment.config each, plus
   how many runs of it one invocation makes.

   All four use 16 simulated threads on the paper's 4-core x 2-SMT machine
   with the default cache and quantum.  Together they pull the simulator's
   layers in different directions, so that a change to one layer shows up on
   the workload that exercises it and stays flat on one that bypasses it:

   - list-st: long read-only transactions; Tsx in-transaction reads, the
     Engine split/log/expose path and Sched.consume are the whole cost.
   - list-hp: the same list under hazard pointers, the paper's main
     comparison; no transactions and no Engine at all, only nt_read, fences
     and hazard validation.
   - queue-st-churn: every operation enqueues or dequeues on two hot lines,
     so conflict dooms and segment replays dominate, and every operation
     allocates or retires (Heap alloc/free, StackTrack scans).
   - hash-1m: a hash table raw-populated to 10^6 objects with a short
     simulated run; set-up (key generation, populate, teardown, heap chunk
     growth) is nearly all of its host time. *)

open St_harness

type t = {
  name : string;
  cfg : Experiment.config;  (** At the default seed. *)
  seeds : int;
      (** Seeds per invocation, derived from [--seed]: one run of each
          makes the first round, whose pooled simulated throughput and
          allocation count are reported, so one seed's luck moves them
          less. *)
  setups : int;  (** Set-up ([duration = 0]) samples per invocation. *)
  traced_runs : int;
}

let full = 1_500_000

let base =
  {
    Experiment.default_config with
    scheme = Experiment.stacktrack_default;
    threads = 16;
    duration = full;
    mutation_pct = 20;
  }

(* [hosttime fig1-list] at 16 threads under StackTrack. *)
let fig1_list =
  { base with structure = Experiment.List_s; key_range = 1024; init_size = 512 }

(* [hosttime scale-list]: the largest fig-scale point. *)
let scale_list =
  {
    base with
    structure = Experiment.Hash_s;
    key_range = 2_000_000;
    init_size = 1_000_000;
    n_buckets = 250_000;
    duration = 150_000;
  }

let all =
  [
    {
      name = "list-st";
      cfg = fig1_list;
      seeds = 16;
      setups = 200;
      traced_runs = 3;
    };
    {
      name = "list-hp";
      cfg = { fig1_list with scheme = Experiment.Hazards };
      seeds = 32;
      setups = 200;
      traced_runs = 3;
    };
    {
      name = "queue-st-churn";
      cfg =
        {
          base with
          structure = Experiment.Queue_s;
          key_range = 1024;
          init_size = 64;
          mutation_pct = 100;
        };
      seeds = 32;
      setups = 200;
      traced_runs = 3;
    };
    { name = "hash-1m"; cfg = scale_list; seeds = 4; setups = 5; traced_runs = 2 };
  ]

let find name = List.find_opt (fun w -> w.name = name) all

(* Seed [i] of an invocation at [seed]; seed 0 is [seed] itself, so the
   default invocation reproduces hosttime's fig1-list/scale-list runs. *)
let seed_of ~seed i = if i = 0 then seed else Hashtbl.hash (seed, i)
