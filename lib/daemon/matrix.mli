(** The parameterized workload matrix: every [lib/problems] family swept
    over a parameter grid, one BENCH-schema JSON row per cell. Each cell
    is a {!Runner.load} run through {!Runner.run}, the pipeline of the
    CLI's verification subcommands and the daemon ([gemcheck matrix]).

    Statuses use the standard verdict keywords ([verified] | [falsified]
    | [inconclusive]) plus [skipped] for cells an overall time budget cut
    before they started. *)

type cell = { family : string; params : (string * int) list }

type row = {
  r_cell : cell;
  r_status : string;
  r_reason : string option;  (** Budget reason keyword when inconclusive. *)
  r_computations : int;
  r_deadlocks : int;
  r_explored : int;
  r_reduced : int;
  r_wall : float option;  (** [None] under [~timings:false]. *)
}

val families : (string * string) list
(** Name and one-line description of each workload family. *)

val family_names : string list

val cells : ?scale:[ `Small | `Wide ] -> string list -> cell list
(** The grid for the named families (all families when the list is
    empty), in deterministic order. [`Wide] (default [`Small]) adds the
    larger instances PR 6's capacity work targets, plus the
    readers=3 Readers/Writers instance promoted to BENCH_dpor.json by
    the source-DPOR work. *)

val cell_name : cell -> string

val run_cell :
  ?jobs:int -> ?max_configs:int -> ?timeout:float -> ?timings:bool -> cell -> row
(** Explore + verify one cell on a budget of [max_configs] (default
    2,000,000) configurations and [timeout] seconds, with the
    environment's default engine. [timings] (default true) records wall
    seconds; switch it off for byte-deterministic output. Never raises on
    exhaustion — budget cuts surface as [inconclusive] rows. *)

val skipped : cell -> row

val row_json : row -> string

val report_json : row list -> string
(** [{"schema_version":1,"command":"matrix","rows":[...]}] — same schema
    family as the bench reports (BENCH_*.json). *)
