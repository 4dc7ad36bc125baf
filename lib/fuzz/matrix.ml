(* The sweepable workload matrix over lib/problems. Each cell reuses the
   exact explore+refine pipeline of the corresponding gemcheck
   subcommand, so a matrix row certifies the same claim the CLI would. *)

module Monitor = Gem_lang.Monitor
module Csp = Gem_lang.Csp
module Ada = Gem_lang.Ada
module Budget = Gem_check.Budget
module Strategy = Gem_check.Strategy
module Verdict = Gem_check.Verdict
module Refine = Gem_check.Refine
module Check = Gem_check.Check
module Rw = Gem_problems.Readers_writers
module Buffer_problem = Gem_problems.Buffer
module Rwd = Gem_problems.Rw_distributed
module Db = Gem_problems.Db_update
module Life = Gem_problems.Life

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

(* Falsified wins even under a cut exploration; any other cut makes the
   row inconclusive (same rule as the CLI's combined_status). *)
let status_of ~exhausted ~deadlocks_falsify ~deadlocks verdicts =
  let overall = Verdict.overall verdicts in
  let falsified = overall = Verdict.Falsified || (deadlocks_falsify && deadlocks > 0) in
  if falsified then ("falsified", None)
  else
    match exhausted with
    | Some r -> ("inconclusive", Some (Budget.reason_keyword r))
    | None -> (
        match overall with
        | Verdict.Verified -> ("verified", None)
        | Verdict.Falsified -> ("falsified", None)
        | Verdict.Inconclusive r -> ("inconclusive", Some (Budget.reason_keyword r)))

let run_cell ?(jobs = 1) ?(max_configs = 2_000_000) ?timeout ?(timings = true) c =
  let started = Unix.gettimeofday () in
  let budget = Budget.make ?timeout () in
  let strategy = Strategy.of_budget budget in
  let finish ~status ~reason ~computations ~deadlocks ~explored ~reduced =
    {
      r_cell = c;
      r_status = status;
      r_reason = reason;
      r_computations = computations;
      r_deadlocks = deadlocks;
      r_explored = explored;
      r_reduced = reduced;
      r_wall = (if timings then Some (Unix.gettimeofday () -. started) else None);
    }
  in
  let refined ~deadlocks_falsify (comps, deads, explored, reduced, exhausted) ~problem
      ~map ~edges =
    let results = Refine.sat ~strategy ~budget ~jobs ?edges ~problem ~map comps in
    let verdicts = List.map snd results in
    let deadlocks = List.length deads in
    let status, reason = status_of ~exhausted ~deadlocks_falsify ~deadlocks verdicts in
    finish ~status ~reason ~computations:(List.length comps) ~deadlocks ~explored
      ~reduced
  in
  match c.family with
  | "rw" ->
      let readers = param c "readers" and writers = param c "writers" in
      let program = Rw.program ~monitor:Rw.paper_monitor ~readers ~writers in
      let o = Monitor.explore ~max_configs ~budget program in
      let problem = Rw.spec Rw.Readers_priority ~users:(Rw.user_names ~readers ~writers) in
      refined ~deadlocks_falsify:false
        (o.Monitor.computations, o.Monitor.deadlocks, o.Monitor.explored,
         o.Monitor.reduced, o.Monitor.exhausted)
        ~problem ~map:Rw.correspondence ~edges:(Some Refine.Actor_paths)
  | "buffer-monitor" | "buffer-csp" | "buffer-ada" ->
      let capacity = param c "capacity"
      and producers = param c "producers"
      and consumers = param c "consumers"
      and items_each = param c "items" in
      let problem = Buffer_problem.spec ~capacity in
      let outcome, map =
        match c.family with
        | "buffer-monitor" ->
            let o =
              Monitor.explore ~max_configs ~budget
                (Buffer_problem.monitor_solution ~capacity ~producers ~consumers
                   ~items_each)
            in
            ( (o.Monitor.computations, o.Monitor.deadlocks, o.Monitor.explored,
               o.Monitor.reduced, o.Monitor.exhausted),
              Buffer_problem.monitor_correspondence )
        | "buffer-csp" ->
            let o =
              Csp.explore ~max_configs ~budget
                (Buffer_problem.csp_solution ~capacity ~producers ~consumers ~items_each)
            in
            ( (o.Csp.computations, o.Csp.deadlocks, o.Csp.explored, o.Csp.reduced,
               o.Csp.exhausted),
              Buffer_problem.csp_correspondence )
        | _ ->
            let o =
              Ada.explore ~max_configs ~budget
                (Buffer_problem.ada_solution ~capacity ~producers ~consumers ~items_each)
            in
            ( (o.Ada.computations, o.Ada.deadlocks, o.Ada.explored, o.Ada.reduced,
               o.Ada.exhausted),
              Buffer_problem.ada_correspondence )
      in
      refined ~deadlocks_falsify:true outcome ~problem ~map ~edges:None
  | "rwd-csp" | "rwd-ada" ->
      let readers = param c "readers" and writers = param c "writers" in
      let rnames, wnames = Rwd.user_names ~readers ~writers in
      let problem = Rwd.spec ~readers:rnames ~writers:wnames in
      let outcome, map =
        if c.family = "rwd-csp" then (
          let o =
            Csp.explore ~max_configs ~budget (Rwd.csp_program ~readers ~writers)
          in
          ( (o.Csp.computations, o.Csp.deadlocks, o.Csp.explored, o.Csp.reduced,
             o.Csp.exhausted),
            Rwd.csp_correspondence ))
        else
          let o =
            Ada.explore ~max_configs ~budget (Rwd.ada_program ~readers ~writers)
          in
          ( (o.Ada.computations, o.Ada.deadlocks, o.Ada.explored, o.Ada.reduced,
             o.Ada.exhausted),
            Rwd.ada_correspondence )
      in
      refined ~deadlocks_falsify:true outcome ~problem ~map ~edges:None
  | "db" ->
      let sites = param c "sites" in
      let r = Db.check ~max_configs ~budget ~jobs ~sites () in
      let status, reason =
        if (not r.Db.converges) || r.Db.deadlocks > 0 then ("falsified", None)
        else
          match r.Db.exhausted with
          | Some reason -> ("inconclusive", Some (Budget.reason_keyword reason))
          | None -> ("verified", None)
      in
      finish ~status ~reason ~computations:r.Db.computations ~deadlocks:r.Db.deadlocks
        ~explored:r.Db.explored ~reduced:r.Db.reduced
  | "life" ->
      let width = param c "width"
      and height = param c "height"
      and generations = param c "generations" in
      let alive = [ (1, 0); (1, 1); (1, 2) ] in
      let comp = Life.build ~width ~height ~generations ~alive in
      let spec = Life.spec ~width ~height in
      let v =
        Check.check_formula ~budget spec comp ~name:"matches-reference"
          (Life.matches_reference ~width ~height ~generations ~alive)
      in
      let status, reason =
        match Verdict.status v with
        | Verdict.Verified -> ("verified", None)
        | Verdict.Falsified -> ("falsified", None)
        | Verdict.Inconclusive r -> ("inconclusive", Some (Budget.reason_keyword r))
      in
      finish ~status ~reason ~computations:1 ~deadlocks:0 ~explored:0 ~reduced:0
  | f -> invalid_arg ("unknown workload family " ^ f)

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
