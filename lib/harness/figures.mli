(** The paper's evaluation (§6: Figures 1–5, the scan-behaviour study, the
    ablations and the extensions) as data.

    Each figure is one {!figure} value in {!registry}: the configurations
    it runs, keyed by row, and the tables and notes it prints from their
    results.  One driver, {!run}, runs any of them: it enumerates the
    configs, executes them (concurrently when [jobs > 1], on a {!Pool} of
    domains), checks that no run saw a shadow-checker violation, then
    prints each table (heading, aligned series, optional CSV block) and
    the figure's notes from the ordered results — so the printed output
    and any JSON export are byte-identical for every [jobs] value. *)

type speed = Quick | Full

(** Base configurations of the four workload families, scaled as described
    in EXPERIMENTS.md.  Exposed for external drivers (hosttime). *)

val list_config : speed -> Experiment.config
val skiplist_config : speed -> Experiment.config
val queue_config : speed -> Experiment.config
val hash_config : speed -> Experiment.config

type rows = (int * Experiment.result list) list
(** A figure's results: one entry per row, keyed by its x value (thread
    count, live-object count...), results in column order. *)

type table = {
  title : string;
  subtitle : string;
  x_label : string;
  columns : string list;  (** [[]]: print the heading only. *)
  csv : (string * string list) option;
      (** CSV block name and its column names, if the table has one. *)
  cells : rows -> (int * float list) list;
      (** The table's rows: usually one per figure row; a time series
          transposes its one row of per-scheme sample lists. *)
}

type figure = {
  name : string;  (** The CLI target, e.g. ["fig1-list"]. *)
  configs : speed -> (int * Experiment.config list) list;
      (** Rows keyed by x, one config per column, in report order. *)
  tables : table list;
  notes : rows -> unit;
      (** Printed after the tables.  Notes that summarise an optional
          ledger (lifecycle, forensics) print only when the results carry
          it, so unflagged output is unchanged. *)
}

val registry : figure list
(** Every figure, in the order [all] runs them.  Names are unique; the
    three ablations are the entries named [ablation-*]. *)

val find : string -> figure option

val run :
  ?verbose:bool ->
  ?jobs:int ->
  ?profile:bool ->
  ?lifecycle:bool ->
  ?forensics:bool ->
  speed:speed ->
  figure ->
  rows
(** Run and print one figure.  [profile], [lifecycle] and [forensics] are
    ORed into every config (a figure that forces a ledger on keeps it; see
    {!Experiment.config} for what each costs).  [verbose] adds one
    {!Report.run_line} per run on stdout and its host wall-clock on
    stderr.  [jobs] defaults to [1] (in-domain); [0] means
    [Domain.recommended_domain_count ()].  Fails if any run reports a
    shadow-checker violation. *)
