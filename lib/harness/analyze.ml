(** Offline analysis of result JSON artifacts.

    Two jobs, both consumed by [bench/analyze.exe]:

    - {b report}: render a result artifact produced by {!Result_json}
      (one result, or a figure's list of them) as text without re-running
      anything.  This is the one renderer of a run: [stacktrack_bench run]
      prints the report of its own result document.
    - {b diff}: compare two artifacts metric-by-metric under per-path
      relative tolerances and list every drift.  This is the CI
      regression gate: a fresh perf-smoke run is diffed against a
      committed baseline and any out-of-tolerance metric fails the job.

    Both operate on the generic {!Json_out.t} AST (via {!Json_in}), so
    they keep working as new sections are appended to the artifact
    format. *)

(* ------------------------------------------------------------------ *)
(* Flattening                                                          *)
(* ------------------------------------------------------------------ *)

let key_path prefix k = if prefix = "" then k else prefix ^ "." ^ k
let index_path prefix i = Printf.sprintf "%s[%d]" prefix i

(* Leaves only: a non-empty container contributes paths, not values.  An
   empty object or list below the root is itself a leaf, so a key whose
   value is [[]] or [{}] is a path the gate compares like any other. *)
let flatten v =
  let rec go prefix v acc =
    match (v : Json_out.t) with
    | (Json_out.Obj [] | Json_out.List []) as leaf when prefix <> "" ->
        (prefix, leaf) :: acc
    | Json_out.Obj fields ->
        List.fold_left (fun acc (k, v) -> go (key_path prefix k) v acc) acc fields
    | Json_out.List items ->
        let _, acc =
          List.fold_left
            (fun (i, acc) v -> (i + 1, go (index_path prefix i) v acc))
            (0, acc) items
        in
        acc
    | leaf -> (prefix, leaf) :: acc
  in
  List.rev (go "" v [])

(* ------------------------------------------------------------------ *)
(* Tolerances                                                          *)
(* ------------------------------------------------------------------ *)

type tolerances = { default : float; rules : (string * float) list }

let exact = { default = 0.; rules = [] }

(* A rule matches its own path and everything nested under it (next
   char '.' or '['); the longest matching rule wins, so a specific
   override beats a subtree-wide one. *)
let rule_matches rule path =
  rule = path
  || (String.length path > String.length rule
     && String.sub path 0 (String.length rule) = rule
     && (path.[String.length rule] = '.' || path.[String.length rule] = '['))

let tol_for t path =
  let best =
    List.fold_left
      (fun best (rule, tol) ->
        if rule_matches rule path then
          match best with
          | Some (r, _) when String.length r >= String.length rule -> best
          | _ -> Some (rule, tol)
        else best)
      None t.rules
  in
  match best with Some (_, tol) -> tol | None -> t.default

(* ------------------------------------------------------------------ *)
(* Diff                                                                *)
(* ------------------------------------------------------------------ *)

type drift = {
  path : string;
  a : Json_out.t option; (* None: missing on the baseline side *)
  b : Json_out.t option; (* None: missing on the candidate side *)
  tol : float;
  rel : float; (* relative delta for numeric drifts; nan otherwise *)
}

let num_of = function
  | Json_out.Int i -> Some (float_of_int i)
  | Json_out.Float f -> Some f
  | _ -> None

let rel_delta x y =
  if x = y then 0.
  else begin
    let scale = Float.max (Float.abs x) (Float.abs y) in
    if scale = 0. then 0. else Float.abs (x -. y) /. scale
  end

let diff ?(tols = exact) a b =
  let fa = flatten a and fb = flatten b in
  let tb = Hashtbl.create 64 in
  List.iter (fun (p, v) -> Hashtbl.replace tb p v) fb;
  let seen = Hashtbl.create 64 in
  let drifts = ref [] in
  let push d = drifts := d :: !drifts in
  List.iter
    (fun (path, va) ->
      Hashtbl.replace seen path ();
      let tol = tol_for tols path in
      match Hashtbl.find_opt tb path with
      | None ->
          if tol <> infinity then
            push { path; a = Some va; b = None; tol; rel = nan }
      | Some vb -> (
          match (num_of va, num_of vb) with
          | Some x, Some y ->
              let rel = rel_delta x y in
              if rel > tol then push { path; a = Some va; b = Some vb; tol; rel }
          | _ ->
              if va <> vb && tol <> infinity then
                push { path; a = Some va; b = Some vb; tol; rel = nan }))
    fa;
  List.iter
    (fun (path, vb) ->
      if not (Hashtbl.mem seen path) then begin
        let tol = tol_for tols path in
        if tol <> infinity then
          push { path; a = None; b = Some vb; tol; rel = nan }
      end)
    fb;
  List.rev !drifts

let pp_value ppf = function
  | None -> Format.pp_print_string ppf "<missing>"
  | Some v -> Format.pp_print_string ppf (Json_out.to_string v)

let pp_drift ppf d =
  if Float.is_nan d.rel then
    Format.fprintf ppf "%-40s %s -> %s" d.path
      (Format.asprintf "%a" pp_value d.a)
      (Format.asprintf "%a" pp_value d.b)
  else
    Format.fprintf ppf "%-40s %s -> %s (rel %.4f > tol %.4f)" d.path
      (Format.asprintf "%a" pp_value d.a)
      (Format.asprintf "%a" pp_value d.b)
      d.rel d.tol

(* ------------------------------------------------------------------ *)
(* Report                                                              *)
(* ------------------------------------------------------------------ *)

let member k = function
  | Json_out.Obj fields -> List.assoc_opt k fields
  | _ -> None

let path_get doc path =
  List.fold_left
    (fun v k -> match v with Some v -> member k v | None -> None)
    (Some doc) path

let as_int = function Some (Json_out.Int i) -> Some i | _ -> None
let int0 v = Option.value ~default:0 (as_int v)
let as_list = function Some (Json_out.List l) -> l | _ -> []

(* One leaf as text.  Floats use the JSON writer's %.6g, so a result
   rendered from memory and the same result parsed back from its JSON
   print the same bytes; a missing value, or a non-finite float (which the
   writer emits as null), prints as [?]. *)
let str = function
  | Some (Json_out.Int i) -> string_of_int i
  | Some (Json_out.Float f) when Float.is_finite f -> Printf.sprintf "%.6g" f
  | Some (Json_out.String s) -> s
  | _ -> "?"

(* [k=v] for each of [keys] under the path [at] of [v], space-separated. *)
let fields ?(at = []) v keys =
  String.concat " "
    (List.map (fun k -> k ^ "=" ^ str (path_get v (at @ [ k ]))) keys)

let owner v =
  match member "owner" v with Some (Json_out.String s) -> s | _ -> "-"

let take n l = List.filteri (fun i _ -> i < n) l

(* Dooms descending; [List.stable_sort] keeps the artifact's order among
   equals. *)
let most_dooms l =
  List.stable_sort
    (fun a b -> compare (int0 (member "dooms" b)) (int0 (member "dooms" a)))
    l

let report_result ppf doc =
  let g path = path_get doc path in
  let section k f = Option.iter f (g [ k ]) in
  let pf fmt = Format.fprintf ppf fmt in
  pf "config: %s/%s %s@."
    (str (g [ "config"; "structure" ]))
    (str (g [ "config"; "scheme" ]))
    (fields ~at:[ "config" ] doc [ "threads"; "duration"; "seed" ]);
  pf "headline: ops=%s makespan=%s throughput=%s ops/Mcycle@."
    (str (g [ "total_ops" ]))
    (str (g [ "makespan" ]))
    (str (g [ "throughput" ]));
  pf "htm: %s aborts=%s (%s)@."
    (fields ~at:[ "htm" ] doc [ "starts"; "commits" ])
    (str (g [ "htm"; "aborts"; "total" ]))
    (fields ~at:[ "htm"; "aborts" ] doc
       [ "conflict"; "capacity"; "interrupt"; "explicit" ]);
  pf "reclaim: %s@."
    (fields ~at:[ "reclaim" ] doc
       [ "retired"; "freed"; "scans"; "stall_cycles" ]);
  (match g [ "stacktrack" ] with
  | Some (Json_out.Obj _ as st) ->
      pf "stacktrack: %s@."
        (fields st
           [
             "ops"; "fast_ops"; "slow_ops"; "segments"; "avg_splits_per_op";
             "avg_segment_length"; "replays"; "scans"; "scan_restarts";
           ])
  | _ -> ());
  (match g [ "scheme_extras" ] with
  | Some (Json_out.Obj kvs as extras) ->
      pf "scheme extras: %s@." (fields extras (List.map fst kvs))
  | _ -> ());
  pf "heap: %s@."
    (fields doc [ "allocs"; "frees"; "live_at_end"; "final_size"; "leaked" ]);
  pf "run: %s@." (fields doc [ "context_switches"; "violations" ]);
  List.iter
    (fun v -> pf "  %s@." (str (Some v)))
    (as_list (g [ "violation_samples" ]));
  pf "latency: %s@."
    (fields ~at:[ "latency" ] doc [ "p50"; "p95"; "p99"; "max" ]);
  let dropped = int0 (g [ "trace_dropped" ]) in
  if dropped > 0 then
    pf "WARNING: trace ring dropped %d events; the Chrome trace is truncated@."
      dropped;
  section "profile" (fun profile ->
      pf "@.cycle accounts (makespan=%s):@." (str (member "makespan" profile));
      let totals =
        match member "totals" profile with
        | Some (Json_out.Obj fields) -> fields
        | _ -> []
      in
      let sum =
        List.fold_left (fun acc (_, v) -> acc + int0 (Some v)) 0 totals
      in
      List.iter
        (fun (name, v) ->
          match v with
          | Json_out.Int c ->
              let pct =
                if sum = 0 then 0.
                else 100. *. float_of_int c /. float_of_int sum
              in
              pf "  %-16s %12d  %5.1f%%@." name c pct
          | _ -> ())
        totals;
      pf "  %-16s %12d@." "accounted" sum;
      let threads = as_list (member "threads" profile) in
      let idle =
        List.fold_left (fun acc th -> acc + int0 (member "idle" th)) 0 threads
      in
      pf "  %-16s %12d  (%d threads)@." "idle" idle (List.length threads));
  (match g [ "heatmap" ] with
  | Some (Json_out.List rows) when rows <> [] ->
      pf "@.contention heatmap (top %d lines):@." (List.length rows);
      pf "  %8s %10s %10s %10s  %s@." "line" "touches" "conflicts" "capacity"
        "owner";
      List.iter
        (fun row ->
          let m k = str (member k row) in
          pf "  %8s %10s %10s %10s  %s@." (m "line") (m "touches")
            (m "conflicts") (m "capacity") (owner row))
        rows
  | _ -> ());
  section "reclaim_lifecycle" (fun lc ->
      let m k = str (member k lc) in
      pf "@.memory lifecycle:@.";
      pf "  census: %s@."
        (fields lc [ "allocs"; "retires"; "frees"; "live_at_end" ]);
      pf "  limbo: at_end=%s (%s words) peak=%s objects / %s words@."
        (m "limbo_at_end") (m "limbo_words_at_end") (m "peak_limbo_objects")
        (m "peak_limbo_words");
      pf "  footprint: %s@." (fields lc [ "peak_live_words" ]);
      if int0 (path_get lc [ "lag"; "count" ]) > 0 then
        pf "  retire->free lag: %s@."
          (fields ~at:[ "lag" ] lc [ "count"; "p50"; "p95"; "p99"; "max" ])
      else pf "  retire->free lag: no freed objects@.";
      let wd k = path_get lc [ "watchdog"; k ] in
      let incidents = int0 (wd "incidents") in
      if incidents = 0 then
        pf "  watchdog: no stagnation (%s observations)@."
          (str (wd "observations"))
      else
        pf
          "  watchdog: %d stagnation incident(s), %s stalled cycles, max \
           backlog %s%s@."
          incidents
          (str (wd "total_stalled_cycles"))
          (str (wd "max_backlog"))
          (match wd "ongoing" with
          | Some (Json_out.Bool true) -> ", ongoing at exit"
          | _ -> ""));
  section "htm_forensics" (fun fx ->
      pf "@.abort forensics:@.";
      pf "  dooms: %s@."
        (fields ~at:[ "dooms" ] fx [ "conflict"; "capacity"; "interrupt" ]);
      pf "  wasted cycles: %s@."
        (fields ~at:[ "wasted" ] fx
           [
             "conflict"; "capacity"; "interrupt"; "explicit"; "unresolved";
             "total";
           ]);
      (match as_list (member "doomed_lines" fx) with
      | [] -> ()
      | lines ->
          pf "  doomed-by lines: %d dooms across %d cache lines@."
            (List.fold_left
               (fun acc l -> acc + int0 (member "dooms" l))
               0 lines)
            (List.length lines);
          List.iter
            (fun l ->
              pf "    line %-8s %6s dooms  %s@."
                (str (member "line" l))
                (str (member "dooms" l))
                (owner l))
            (take 5 (most_dooms lines)));
      (match as_list (member "conflict_pairs" fx) with
      | [] -> ()
      | pairs ->
          pf "  top doomed pairs (victim <- aborter):@.";
          List.iter
            (fun p ->
              let m k = str (member k p) in
              pf "    tid%s <- tid%s  %s dooms@." (m "victim") (m "aborter")
                (m "dooms"))
            (take 5 (most_dooms pairs)));
      (match as_list (member "segments" fx) with
      | [] -> ()
      | segs ->
          pf "  hottest segments (op_id/split):@.";
          List.iter
            (fun s ->
              pf "    op%s/%s  %s@."
                (str (member "op_id" s))
                (str (member "split" s))
                (fields s [ "aborts"; "chains"; "max_depth" ]))
            (take 5 segs));
      let summary k = path_get fx [ "retry_depths"; "summary"; k ] in
      if int0 (summary "count") > 0 then
        pf "  retry depth: chains=%s %s@."
          (str (summary "count"))
          (fields ~at:[ "retry_depths"; "summary" ] fx [ "p50"; "p95"; "max" ]);
      let pr k = path_get fx [ "predictor"; k ] in
      let tracked = int0 (pr "segments_tracked")
      and dropped = int0 (pr "timeline_dropped") in
      if tracked > 0 then
        pf "  predictor: %d segment(s) tracked, %d limit change(s)%s@." tracked
          (List.length (as_list (pr "timeline")))
          (if dropped > 0 then Printf.sprintf " (%d dropped)" dropped else ""))

let is_result v = member "config" v <> None

let report ppf doc =
  let results =
    match doc with
    | Json_out.List items when List.for_all is_result items -> items
    | doc when is_result doc -> [ doc ]
    | _ -> invalid_arg "not a result object or a list of result objects"
  in
  List.iteri
    (fun i r ->
      if i > 0 then Format.fprintf ppf "@.";
      report_result ppf r)
    results
