(* The sweepable workload matrix over lib/problems. Each cell is a
   Runner load, run through the same pipeline as the corresponding
   gemcheck subcommand, so a matrix row certifies the same claim the CLI
   would. *)

module Budget = Gem_check.Budget
module Verdict = Gem_check.Verdict
module Explore = Gem_lang.Explore

type cell = { family : string; params : (string * int) list }

type row = {
  r_cell : cell;
  r_status : string;
  r_reason : string option;
  r_computations : int;
  r_deadlocks : int;
  r_explored : int;
  r_reduced : int;
  r_wall : float option;
}

let families =
  [
    ("rw", "paper Readers/Writers monitor vs reader's priority");
    ("buffer-monitor", "bounded buffer, Monitor solution");
    ("buffer-csp", "bounded buffer, CSP solution");
    ("buffer-ada", "bounded buffer, ADA solution");
    ("rwd-csp", "distributed Readers/Writers, CSP");
    ("rwd-ada", "distributed Readers/Writers, ADA");
    ("db", "distributed database update (Thomas write rule)");
    ("life", "asynchronous Game of Life vs synchronous reference");
  ]

let family_names = List.map fst families

let grid ~scale family =
  let wide = scale = `Wide in
  match family with
  | "rw" ->
      [ [ ("readers", 1); ("writers", 1) ]; [ ("readers", 2); ("writers", 1) ] ]
      @ (if wide then
           (* readers=3 is the promoted BENCH_dpor.json instance: plain
              DFS caps on it while both reduced engines complete. *)
           [ [ ("readers", 2); ("writers", 2) ]; [ ("readers", 3); ("writers", 1) ] ]
         else [])
  | "buffer-monitor" | "buffer-csp" | "buffer-ada" ->
      let base cap =
        [ ("capacity", cap); ("producers", 1); ("consumers", 1); ("items", 2) ]
      in
      [ base 1; base 2 ] @ (if wide then [ base 3 ] else [])
  | "rwd-csp" | "rwd-ada" ->
      [ [ ("readers", 1); ("writers", 1) ] ]
      @ (if wide then [ [ ("readers", 2); ("writers", 1) ] ] else [])
  | "db" -> [ [ ("sites", 2) ]; [ ("sites", 3) ] ] @ (if wide then [ [ ("sites", 4) ] ] else [])
  | "life" ->
      [
        [ ("width", 3); ("height", 3); ("generations", 2) ];
        [ ("width", 4); ("height", 4); ("generations", 2) ];
      ]
      @ (if wide then [ [ ("width", 5); ("height", 5); ("generations", 3) ] ] else [])
  | f -> invalid_arg ("unknown workload family " ^ f)

let cells ?(scale = `Small) names =
  let names = if names = [] then family_names else names in
  List.concat_map
    (fun family -> List.map (fun params -> { family; params }) (grid ~scale family))
    names

let cell_name c =
  Printf.sprintf "%s[%s]" c.family
    (String.concat ","
       (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) c.params))

let param c k =
  match List.assoc_opt k c.params with
  | Some v -> v
  | None -> invalid_arg (Printf.sprintf "cell %s lacks parameter %s" c.family k)

let load_of c =
  let p = param c in
  match c.family with
  | "rw" ->
      Runner.Rw
        {
          monitor = "paper";
          version = Gem_problems.Readers_writers.Readers_priority;
          readers = p "readers";
          writers = p "writers";
        }
  | ("buffer-monitor" | "buffer-csp" | "buffer-ada") as f ->
      Runner.Buffer
        {
          lang =
            (match f with
            | "buffer-monitor" -> `Monitor
            | "buffer-csp" -> `Csp
            | _ -> `Ada);
          capacity = p "capacity";
          producers = p "producers";
          consumers = p "consumers";
          items = p "items";
        }
  | ("rwd-csp" | "rwd-ada") as f ->
      Runner.Rwd
        {
          lang = (if f = "rwd-csp" then `Csp else `Ada);
          readers = p "readers";
          writers = p "writers";
          broken = false;
        }
  | "db" -> Runner.Db { sites = p "sites" }
  | "life" ->
      Runner.Life
        { width = p "width"; height = p "height"; generations = p "generations" }
  | f -> invalid_arg ("unknown workload family " ^ f)

let run_cell ?(jobs = 1) ?(max_configs = 2_000_000) ?timeout ?(timings = true) c =
  let started = Unix.gettimeofday () in
  let opts =
    {
      Runner.reduction = None;
      exact_keys = None;
      audit_keys = None;
      jobs;
      resilience = Explore.no_resilience;
    }
  in
  let r =
    Runner.run (load_of c) opts
      ~budget:(Budget.make ?timeout ~max_configs ())
      ~restrict:None
  in
  {
    r_cell = c;
    r_status = Verdict.status_keyword r.Runner.status;
    r_reason =
      (match r.Runner.status with
      | Verdict.Inconclusive reason -> Some (Budget.reason_keyword reason)
      | Verdict.Verified | Verdict.Falsified -> None);
    r_computations = r.Runner.computations;
    r_deadlocks = r.Runner.deadlocks;
    r_explored = r.Runner.coverage.Budget.configs_explored;
    r_reduced = r.Runner.coverage.Budget.configs_reduced;
    r_wall = (if timings then Some (Unix.gettimeofday () -. started) else None);
  }

let skipped c =
  {
    r_cell = c;
    r_status = "skipped";
    r_reason = Some "deadline-exceeded";
    r_computations = 0;
    r_deadlocks = 0;
    r_explored = 0;
    r_reduced = 0;
    r_wall = None;
  }

let row_json r =
  let params =
    String.concat ","
      (List.map (fun (k, v) -> Printf.sprintf {|"%s":%d|} k v) r.r_cell.params)
  in
  let timing =
    match r.r_wall with
    | None -> ""
    | Some w ->
        let rate = if w > 0. then float_of_int r.r_explored /. w else 0. in
        Printf.sprintf {|,"wall_s":%.6f,"configs_per_sec":%.1f|} w rate
  in
  Printf.sprintf
    {|{"family":"%s","params":{%s},"status":"%s","reason":%s,"computations":%d,"deadlocks":%d,"explored":%d,"reduced":%d%s}|}
    r.r_cell.family params r.r_status
    (match r.r_reason with None -> "null" | Some k -> Printf.sprintf "%S" k)
    r.r_computations r.r_deadlocks r.r_explored r.r_reduced timing

let report_json rows =
  Printf.sprintf {|{"schema_version":1,"command":"matrix","rows":[%s]}|}
    (String.concat "," (List.map row_json rows))
