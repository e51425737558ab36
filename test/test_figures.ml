(* Figure goldens and the figure CLI.

   Every registry figure's Quick-speed stdout is pinned byte for byte in
   goldens/figures/<name>.txt (plus the --lifecycle output of fig1-list and
   the --forensics output of fig4-splits), and fig-scale's results in
   goldens/golden_fig_scale.json.  The runs here use two domains, so they
   also check that the output does not depend on [jobs].  The CLI checks
   drive bin/stacktrack_bench.exe: its --json-out must reproduce
   goldens/golden_fig1.json, and a misspelt figure must be an error. *)

open St_harness

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* Everything [f] prints through [Format.printf].  Format re-installs the
   standard formatter's output functions just before the program's first
   domain spawn, which would undo the redirection mid-figure when the
   driver starts its pool; so spawn that first domain up front. *)
let () = Domain.join (Domain.spawn ignore)

let capture f =
  let buf = Buffer.create 4096 in
  let out, flush = Format.get_formatter_output_functions () in
  Format.set_formatter_output_functions (Buffer.add_substring buf) ignore;
  Fun.protect
    ~finally:(fun () ->
      Format.pp_print_flush Format.std_formatter ();
      Format.set_formatter_output_functions out flush)
    f;
  Buffer.contents buf

let figure name =
  match Figures.find name with
  | Some fig -> fig
  | None -> Alcotest.failf "no figure %S in the registry" name

(* A figure's stdout against [golden] and, given [results], its results
   in --json-out form against that golden too. *)
let check_golden ?lifecycle ?forensics ?results ~golden (fig : Figures.figure)
    =
  let rows = ref [] in
  let out =
    capture (fun () ->
        rows :=
          Figures.run ~jobs:2 ?lifecycle ?forensics ~speed:Figures.Quick fig)
  in
  Alcotest.(check string)
    (golden ^ " byte-identical") (read_file ("goldens/figures/" ^ golden)) out;
  Option.iter
    (fun results ->
      Alcotest.(check string)
        (results ^ " byte-identical")
        (read_file ("goldens/" ^ results))
        (Json_out.to_string
           (Json_out.List
              (List.map Result_json.encode (List.concat_map snd !rows)))
        ^ "\n"))
    results

(* Figures whose results are pinned as well as their text. *)
let result_goldens = [ ("fig-scale", "golden_fig_scale.json") ]

let golden_cases =
  List.map
    (fun (fig : Figures.figure) ->
      Alcotest.test_case fig.name `Slow (fun () ->
          check_golden
            ?results:(List.assoc_opt fig.name result_goldens)
            ~golden:(fig.name ^ ".txt") fig))
    Figures.registry
  @ [
      Alcotest.test_case "fig1-list --lifecycle" `Slow (fun () ->
          check_golden ~lifecycle:true ~golden:"fig1-list.lifecycle.txt"
            (figure "fig1-list"));
      Alcotest.test_case "fig4-splits --forensics" `Slow (fun () ->
          check_golden ~forensics:true ~golden:"fig4-splits.forensics.txt"
            (figure "fig4-splits"));
    ]

(* ------------------------------------------------------------------ *)
(* Names                                                               *)
(* ------------------------------------------------------------------ *)

let names = List.map (fun (f : Figures.figure) -> f.name) Figures.registry
let resolves name = List.mem name ("all" :: "ablations" :: names)

let test_names_unique () =
  Alcotest.(check int)
    "registry names are unique" (List.length names)
    (List.length (List.sort_uniq compare names));
  Alcotest.(check int)
    "three ablations" 3
    (List.length
       (List.filter (String.starts_with ~prefix:"ablation-") names))

(* The figure names a document passes to [stacktrack_bench figures]: the
   words after a [figures] that follows the binary (or a [--] / line
   continuation), up to the first option, non-name word, closing backtick
   or table bar. *)
let figure_args text =
  let strip w =
    let n = ref (String.length w) in
    while !n > 0 && String.contains ".,;:" w.[!n - 1] do decr n done;
    String.sub w 0 !n
  in
  let spaced = Buffer.create (String.length text) in
  String.iter
    (function
      | '\n' | '\t' | '(' | ')' -> Buffer.add_char spaced ' '
      | ('`' | '|') as c -> Buffer.add_string spaced (Printf.sprintf " %c " c)
      | c -> Buffer.add_char spaced c)
    text;
  let words =
    String.split_on_char ' ' (Buffer.contents spaced)
    |> List.filter (( <> ) "")
    |> List.map strip
  in
  let is_name w =
    w <> ""
    && (match w.[0] with 'a' .. 'z' -> true | _ -> false)
    && String.for_all
         (function 'a' .. 'z' | '0' .. '9' | '-' -> true | _ -> false)
         w
  in
  let cli =
    [
      "stacktrack_bench";
      "stacktrack_bench.exe";
      "bin/stacktrack_bench.exe";
      "--";
      "\\";
    ]
  in
  let rec args acc = function
    | w :: rest when is_name w -> args (w :: acc) rest
    | rest -> (acc, rest)
  in
  let rec scan acc = function
    | prev :: "figures" :: rest when List.mem prev cli ->
        let acc, rest = args acc rest in
        scan acc rest
    | _ :: rest -> scan acc rest
    | [] -> List.rev acc
  in
  scan [] words

(* Lines (1-based) that cite a figure in the form [`bench <name>`], the
   command line of the figure binary that [stacktrack_bench figures]
   replaced. *)
let old_bench_commands text =
  let pat = "`bench " in
  let has_pat line =
    let n = String.length line and m = String.length pat in
    let rec at i = i + m <= n && (String.sub line i m = pat || at (i + 1)) in
    at 0
  in
  String.split_on_char '\n' text
  |> List.mapi (fun i line -> (i + 1, line))
  |> List.filter_map (fun (i, line) ->
         if has_pat line then Some (Printf.sprintf "%d: %s" i line) else None)

let test_documented_names_resolve () =
  List.iter
    (fun path ->
      let text = read_file path in
      let used = figure_args text in
      Alcotest.(check bool) (path ^ " names figures") true (used <> []);
      List.iter
        (fun name ->
          Alcotest.(check bool)
            (Printf.sprintf "%s: figure %S resolves" path name)
            true (resolves name))
        used;
      Alcotest.(check (list string))
        (path ^ ": no `bench <name>` commands")
        [] (old_bench_commands text))
    [ "../README.md"; "../DESIGN.md"; "../EXPERIMENTS.md" ]

(* ------------------------------------------------------------------ *)
(* The CLI                                                             *)
(* ------------------------------------------------------------------ *)

let bench = "../bin/stacktrack_bench.exe"

let test_cli_json_out () =
  let json = Filename.temp_file "fig1" ".json"
  and txt = Filename.temp_file "fig1" ".txt" in
  let cmd =
    Printf.sprintf
      "%s figures fig1-list --quick --jobs 2 --json-out %s > %s 2>/dev/null"
      bench (Filename.quote json) (Filename.quote txt)
  in
  Alcotest.(check int) "exit status" 0 (Sys.command cmd);
  Alcotest.(check string)
    "stdout matches the golden"
    (read_file "goldens/figures/fig1-list.txt")
    (read_file txt);
  Alcotest.(check string)
    "--json-out reproduces golden_fig1.json"
    (read_file "goldens/golden_fig1.json")
    (read_file json);
  Sys.remove json;
  Sys.remove txt

let test_cli_unknown_figure () =
  let cmd =
    Printf.sprintf "%s figures fig1-lsit --quick > /dev/null 2>&1" bench
  in
  Alcotest.(check bool) "typo exits non-zero" true (Sys.command cmd <> 0)

let () =
  Alcotest.run "st_figures"
    [
      ("goldens", golden_cases);
      ( "names",
        [
          Alcotest.test_case "unique" `Quick test_names_unique;
          Alcotest.test_case "documented names resolve" `Quick
            test_documented_names_resolve;
        ] );
      ( "cli",
        [
          Alcotest.test_case "json-out golden" `Slow test_cli_json_out;
          Alcotest.test_case "unknown figure" `Quick test_cli_unknown_figure;
        ] );
    ]
