(** Fixed-size domain pool: run independent tasks in parallel, collect
    results in submission order.

    Built for the experiment sweeps: every point is seed-deterministic and
    shares no mutable state with its siblings, so running points across
    domains and merging results by submission index yields byte-identical
    reports/CSV/JSON to the sequential driver.  See DESIGN.md "Parallel
    driver". *)

val run : ?jobs:int -> (unit -> 'a) list -> 'a list
(** [run ~jobs tasks] executes every task and returns their results in the
    order the tasks were given, regardless of completion order.

    - [jobs = 1] (default): tasks run sequentially in the calling domain
      (no domains are spawned).
    - [jobs = 0]: use [Domain.recommended_domain_count ()].
    - [jobs > 1]: at most [jobs] domains run tasks concurrently (the
      calling domain participates as one of them); tasks are claimed
      dynamically in submission order.  Every one of those domains runs
      its tasks under {!St_sim.Halves.as_worker}, so a task's set-up
      spawns no further domain.

    If any task raises, the remaining tasks still run to completion and
    the exception of the earliest failing task (by submission order, with
    its backtrace) is re-raised — deterministic even when several tasks
    fail.  Raises [Invalid_argument] on negative [jobs]. *)
