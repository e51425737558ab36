type abort_reason = Conflict | Capacity | Interrupt | Explicit

type t = {
  mutable starts : int;
  mutable commits : int;
  mutable conflict_aborts : int;
  mutable capacity_aborts : int;
  mutable interrupt_aborts : int;
  mutable explicit_aborts : int;
  mutable data_set_lines : int;
}

let create () =
  {
    starts = 0;
    commits = 0;
    conflict_aborts = 0;
    capacity_aborts = 0;
    interrupt_aborts = 0;
    explicit_aborts = 0;
    data_set_lines = 0;
  }

let record_abort t = function
  | Conflict -> t.conflict_aborts <- t.conflict_aborts + 1
  | Capacity -> t.capacity_aborts <- t.capacity_aborts + 1
  | Interrupt -> t.interrupt_aborts <- t.interrupt_aborts + 1
  | Explicit -> t.explicit_aborts <- t.explicit_aborts + 1

let aborts t =
  t.conflict_aborts + t.capacity_aborts + t.interrupt_aborts
  + t.explicit_aborts

let merge ts =
  let acc = create () in
  List.iter
    (fun t ->
      acc.starts <- acc.starts + t.starts;
      acc.commits <- acc.commits + t.commits;
      acc.conflict_aborts <- acc.conflict_aborts + t.conflict_aborts;
      acc.capacity_aborts <- acc.capacity_aborts + t.capacity_aborts;
      acc.interrupt_aborts <- acc.interrupt_aborts + t.interrupt_aborts;
      acc.explicit_aborts <- acc.explicit_aborts + t.explicit_aborts;
      acc.data_set_lines <- acc.data_set_lines + t.data_set_lines)
    ts;
  acc

let reason_to_string = function
  | Conflict -> "conflict"
  | Capacity -> "capacity"
  | Interrupt -> "interrupt"
  | Explicit -> "explicit"
