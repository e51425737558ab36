(* See watchdog.mli for semantics.  The detector is deliberately passive:
   it owns no thread and consumes no cycles; someone (the lifecycle sampler
   in the harness) feeds it (progress, backlog) observations at a fixed
   cadence and it classifies the sequence. *)

type incident = {
  start_time : int;
  mutable end_time : int; (* -1 while ongoing *)
  backlog_at_start : int;
  mutable peak_backlog : int;
  mutable stalled_observations : int;
}

type t = {
  trace : Trace.t;
  threshold : int;
  mutable observations : int;
  mutable last_progress : int;
  mutable stall_start : int; (* time of first no-progress observation *)
  mutable stall_backlog : int; (* backlog at that observation *)
  mutable stalled_obs : int; (* consecutive no-progress observations *)
  mutable active : incident option;
  mutable rev_incidents : incident list;
}

let create ?(threshold = 3) ~trace () =
  assert (threshold >= 1);
  {
    trace;
    threshold;
    observations = 0;
    last_progress = min_int;
    stall_start = 0;
    stall_backlog = 0;
    stalled_obs = 0;
    active = None;
    rev_incidents = [];
  }

let close_incident t ~time ~tid ~backlog =
  match t.active with
  | None -> ()
  | Some inc ->
      inc.end_time <- time;
      t.active <- None;
      if Trace.on t.trace then
        Trace.span_end t.trace ~time ~tid Trace.Reclaim "stagnation" (fun () ->
            Printf.sprintf "backlog=%d stalled=%d" backlog
              inc.stalled_observations)

let observe t ~time ~tid ~progress ~backlog =
  t.observations <- t.observations + 1;
  let first = t.last_progress = min_int in
  let advanced = progress > t.last_progress in
  t.last_progress <- progress;
  if first || advanced || backlog = 0 then begin
    (* Reclamation moved (or there is nothing pending): any stall is over. *)
    t.stalled_obs <- 0;
    close_incident t ~time ~tid ~backlog
  end
  else begin
    if t.stalled_obs = 0 then begin
      t.stall_start <- time;
      t.stall_backlog <- backlog
    end;
    t.stalled_obs <- t.stalled_obs + 1;
    (match t.active with
    | Some inc ->
        if backlog > inc.peak_backlog then inc.peak_backlog <- backlog;
        inc.stalled_observations <- inc.stalled_observations + 1
    | None ->
        (* Flag only when the stall has both lasted [threshold]
           observations and accumulated new retirees since it began —
           a quiet constant backlog (an idle tail) is not stagnation. *)
        if t.stalled_obs >= t.threshold && backlog > t.stall_backlog then begin
          let inc =
            {
              start_time = t.stall_start;
              end_time = -1;
              backlog_at_start = t.stall_backlog;
              peak_backlog = backlog;
              stalled_observations = t.stalled_obs;
            }
          in
          t.active <- Some inc;
          t.rev_incidents <- inc :: t.rev_incidents;
          if Trace.on t.trace then
            Trace.span_begin t.trace ~time:t.stall_start ~tid Trace.Reclaim
              "stagnation" (fun () ->
                Printf.sprintf "backlog=%d" t.stall_backlog)
        end)
  end

type report = {
  incidents : incident list;
  n_incidents : int;
  total_stalled_cycles : int;
  max_backlog : int;
  ongoing : bool;
  n_observations : int;
}

let report t ~now =
  let incidents = List.rev t.rev_incidents in
  let total, max_b =
    List.fold_left
      (fun (total, max_b) inc ->
        let e = if inc.end_time >= 0 then inc.end_time else now in
        (total + (e - inc.start_time), max max_b inc.peak_backlog))
      (0, 0) incidents
  in
  {
    incidents;
    n_incidents = List.length incidents;
    total_stalled_cycles = total;
    max_backlog = max_b;
    ongoing = t.active <> None;
    n_observations = t.observations;
  }
