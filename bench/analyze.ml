(* Offline analyzer for result JSON artifacts.

   analyze.exe report FILE
     Print the text report of a result artifact: one `run --json` object,
     or a `figures --json-out` list of them, one report per result.  This
     is the report `stacktrack_bench run` prints.

   analyze.exe diff BASELINE CANDIDATE [--default-tol F] [--tol PATH=F]...
     Compare two artifacts metric-by-metric.  PATH rules apply to the
     exact path or any '.'/'['-nested metric under it; the longest match
     wins; F = inf ignores the subtree.  Exits 1 when any metric drifts
     beyond its tolerance, listing each drift: the way to read which
     metrics a failing golden moved.

   Exit codes: 0 ok, 1 drift, 2 usage or parse error, or a report of a
   document that is not a result artifact. *)

open St_harness

let usage () =
  prerr_endline
    "usage: analyze.exe report FILE\n\
    \       analyze.exe diff BASELINE CANDIDATE [--default-tol F] [--tol \
     PATH=F]...";
  exit 2

let load path =
  try Json_in.parse_file path with
  | Json_in.Parse_error (msg, pos) ->
      Printf.eprintf "analyze: %s: parse error at byte %d: %s\n" path pos msg;
      exit 2
  | Sys_error msg ->
      Printf.eprintf "analyze: %s\n" msg;
      exit 2

let parse_tol_rule s =
  match String.index_opt s '=' with
  | Some i when i > 0 ->
      let path = String.sub s 0 i in
      let v = String.sub s (i + 1) (String.length s - i - 1) in
      (match float_of_string_opt v with
      | Some f when f >= 0. -> (path, f)
      | _ ->
          Printf.eprintf "analyze: invalid tolerance %S (want PATH=F, F >= 0)\n" s;
          exit 2)
  | _ ->
      Printf.eprintf "analyze: invalid tolerance %S (want PATH=F)\n" s;
      exit 2

let run_report file =
  (try Analyze.report Format.std_formatter (load file)
   with Invalid_argument msg ->
     Printf.eprintf "analyze: %s: %s\n" file msg;
     exit 2);
  exit 0

let run_diff baseline candidate argv =
  let default_tol = ref 0. in
  let rules = ref [] in
  let rec parse = function
    | [] -> ()
    | "--default-tol" :: v :: rest ->
        (match float_of_string_opt v with
        | Some f when f >= 0. -> default_tol := f
        | _ ->
            Printf.eprintf "analyze: invalid --default-tol %S\n" v;
            exit 2);
        parse rest
    | "--tol" :: v :: rest ->
        rules := parse_tol_rule v :: !rules;
        parse rest
    | arg :: _ ->
        Printf.eprintf "analyze: unknown argument %S\n" arg;
        usage ()
  in
  parse argv;
  let tols =
    { Analyze.default = !default_tol; rules = List.rev !rules }
  in
  let a = load baseline and b = load candidate in
  match Analyze.diff ~tols a b with
  | [] ->
      Printf.printf "analyze: %s vs %s: within tolerance\n" baseline candidate;
      exit 0
  | drifts ->
      Printf.printf "analyze: %s vs %s: %d metric(s) drifted\n" baseline
        candidate (List.length drifts);
      List.iter
        (fun d -> Format.printf "  %a@." Analyze.pp_drift d)
        drifts;
      exit 1

let () =
  match Array.to_list Sys.argv with
  | _ :: "report" :: [ file ] -> run_report file
  | _ :: "diff" :: baseline :: candidate :: rest ->
      run_diff baseline candidate rest
  | _ -> usage ()
