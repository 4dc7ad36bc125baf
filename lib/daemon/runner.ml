module R = Gem_syntax.Request
module Budget = Gem_check.Budget
module Strategy = Gem_check.Strategy
module Verdict = Gem_check.Verdict
module Check = Gem_check.Check
module Refine = Gem_check.Refine
module Bitstate = Gem_check.Bitstate
module Explore = Gem_lang.Explore
module Monitor = Gem_lang.Monitor
module Csp = Gem_lang.Csp
module Ada = Gem_lang.Ada
module Fingerprint = Gem_order.Fingerprint
module Formula = Gem_logic.Formula
module Spec = Gem_spec.Spec
module Computation = Gem_model.Computation
module Readers_writers = Gem_problems.Readers_writers
module Buffer_problem = Gem_problems.Buffer
module Rw_distributed = Gem_problems.Rw_distributed
module Db_update = Gem_problems.Db_update
module Life = Gem_problems.Life

type load =
  | Rw of {
      monitor : string;
      version : Readers_writers.version;
      readers : int;
      writers : int;
    }
  | Buffer of {
      lang : [ `Monitor | `Csp | `Ada ];
      capacity : int;
      producers : int;
      consumers : int;
      items : int;
    }
  | Rwd of { lang : [ `Csp | `Ada ]; readers : int; writers : int; broken : bool }
  | Db of { sites : int }
  | Life of { width : int; height : int; generations : int }

let command_name = function
  | Rw _ -> "rw"
  | Buffer _ -> "buffer"
  | Rwd _ -> "rwd"
  | Db _ -> "db"
  | Life _ -> "life"

let buffer_lang_name = function
  | `Monitor -> "monitor"
  | `Csp -> "csp"
  | `Ada -> "ada"

let rwd_lang_name = function `Csp -> "csp" | `Ada -> "ada"

(* These strings are the workload half of the checkpoint stamp; they must
   stay char-for-char what the CLI has always written, or existing
   checkpoints stop resuming. Note rw's stamp predates --monitor entering
   the cache key and does not include it — the cache keys below do. *)
let params_string = function
  | Rw { readers; writers; _ } ->
      Printf.sprintf "readers=%d writers=%d" readers writers
  | Buffer { lang; capacity; producers; consumers; items } ->
      Printf.sprintf "lang=%s capacity=%d producers=%d consumers=%d items=%d"
        (buffer_lang_name lang) capacity producers consumers items
  | Rwd { lang; readers; writers; broken } ->
      Printf.sprintf "lang=%s readers=%d writers=%d broken=%b"
        (rwd_lang_name lang) readers writers broken
  | Db { sites } -> Printf.sprintf "sites=%d" sites
  | Life { width; height; generations } ->
      Printf.sprintf "width=%d height=%d generations=%d" width height
        generations

let monitor_of_name = function
  | "paper" -> Ok Readers_writers.paper_monitor
  | "writers-priority" -> Ok Readers_writers.writers_priority_monitor
  | "buggy" -> Ok Readers_writers.buggy_monitor
  | "no-exclusion" -> Ok Readers_writers.no_exclusion_monitor
  | s -> Error (Printf.sprintf "unknown monitor %S" s)

let version_of_name s =
  match
    List.find_opt
      (fun v -> String.equal (Readers_writers.version_name v) s)
      Readers_writers.all_versions
  with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "unknown problem version %S" s)

(* The game-of-life CLI checks one fixed blinker; the daemon checks the
   same one so the two reports stay comparable. *)
let life_alive = [ (1, 0); (1, 1); (1, 2) ]

(* --- request interpretation ----------------------------------------- *)

let lookup params key default parse =
  match List.assoc_opt key params with
  | None -> Ok default
  | Some v -> parse v

let int_param key v =
  match int_of_string_opt v with
  | Some n -> Ok n
  | None -> Error (Printf.sprintf "%s expects an integer, got %S" key v)

let bool_param key v =
  match v with
  | "true" -> Ok true
  | "false" -> Ok false
  | _ -> Error (Printf.sprintf "%s expects true|false, got %S" key v)

let check_keys ~allowed params k =
  match
    List.find_opt (fun (key, _) -> not (List.mem key allowed)) params
  with
  | Some (key, _) ->
      Error
        (Printf.sprintf "unknown key %s (expected one of: %s)" key
           (String.concat ", " allowed))
  | None -> k ()

let ( let* ) = Result.bind

let of_request (c : R.check) =
  let p = c.R.params in
  let int key default = lookup p key default (int_param key) in
  match c.R.cmd with
  | "rw" ->
      check_keys ~allowed:[ "monitor"; "version"; "readers"; "writers" ] p
        (fun () ->
          let* monitor =
            lookup p "monitor" "paper" (fun v ->
                Result.map (fun _ -> v) (monitor_of_name v))
          in
          let* version =
            lookup p "version" Readers_writers.Readers_priority version_of_name
          in
          let* readers = int "readers" 2 in
          let* writers = int "writers" 1 in
          Ok (Rw { monitor; version; readers; writers }))
  | "buffer" ->
      check_keys
        ~allowed:[ "lang"; "capacity"; "producers"; "consumers"; "items" ] p
        (fun () ->
          let* lang =
            lookup p "lang" `Monitor (function
              | "monitor" -> Ok `Monitor
              | "csp" -> Ok `Csp
              | "ada" -> Ok `Ada
              | v -> Error (Printf.sprintf "lang expects monitor|csp|ada, got %S" v))
          in
          let* capacity = int "capacity" 1 in
          let* producers = int "producers" 1 in
          let* consumers = int "consumers" 1 in
          let* items = int "items" 2 in
          Ok (Buffer { lang; capacity; producers; consumers; items }))
  | "rwd" ->
      check_keys ~allowed:[ "lang"; "readers"; "writers"; "broken" ] p
        (fun () ->
          let* lang =
            lookup p "lang" `Csp (function
              | "csp" -> Ok `Csp
              | "ada" -> Ok `Ada
              | v -> Error (Printf.sprintf "lang expects csp|ada, got %S" v))
          in
          let* readers = int "readers" 1 in
          let* writers = int "writers" 1 in
          let* broken = lookup p "broken" false (bool_param "broken") in
          Ok (Rwd { lang; readers; writers; broken }))
  | "db" ->
      check_keys ~allowed:[ "sites" ] p (fun () ->
          let* sites = int "sites" 3 in
          Ok (Db { sites }))
  | "life" ->
      check_keys ~allowed:[ "width"; "height"; "generations" ] p (fun () ->
          let* width = int "width" 4 in
          let* height = int "height" 4 in
          let* generations = int "generations" 2 in
          Ok (Life { width; height; generations }))
  | cmd ->
      Error
        (Printf.sprintf
           "unknown command %S (expected rw, buffer, rwd, db or life)" cmd)

let supports_restrict = function
  | Rw _ | Buffer _ | Rwd _ -> true
  | Db _ | Life _ -> false

let has_exploration = function
  | Rw _ | Buffer _ | Rwd _ -> true
  | Db _ | Life _ -> false

(* --- cache keying --------------------------------------------------- *)

(* A monitor value cannot be constructed from a bad name once a load
   exists; [of_request] already vetted it. *)
let rw_monitor name =
  match monitor_of_name name with
  | Ok m -> m
  | Error e -> invalid_arg ("Runner: " ^ e)

let program_fp load =
  match load with
  | Rw { monitor; readers; writers; _ } ->
      let program =
        Readers_writers.program ~monitor:(rw_monitor monitor) ~readers ~writers
      in
      Monitor.config_fp program (Monitor.initial_config program)
  | Buffer { lang; capacity; producers; consumers; items } -> (
      match lang with
      | `Monitor ->
          let program =
            Buffer_problem.monitor_solution ~capacity ~producers ~consumers
              ~items_each:items
          in
          Monitor.config_fp program (Monitor.initial_config program)
      | `Csp ->
          let program =
            Buffer_problem.csp_solution ~capacity ~producers ~consumers
              ~items_each:items
          in
          Csp.config_fp program (Csp.initial_config program)
      | `Ada ->
          let program =
            Buffer_problem.ada_solution ~capacity ~producers ~consumers
              ~items_each:items
          in
          Ada.config_fp program (Ada.initial_config program))
  | Rwd { lang; readers; writers; broken } -> (
      match lang with
      | `Csp ->
          let program =
            if broken then Rw_distributed.csp_program_no_priority ~readers ~writers
            else Rw_distributed.csp_program ~readers ~writers
          in
          Csp.config_fp program (Csp.initial_config program)
      | `Ada ->
          let program =
            if broken then Rw_distributed.ada_program_no_priority ~readers ~writers
            else Rw_distributed.ada_program ~readers ~writers
          in
          Ada.config_fp program (Ada.initial_config program))
  | Db { sites } ->
      (* sites < 2 is rejected by Db_update.program; key on the
         parameter alone so a bad request still gets a (failing) key. *)
      Fingerprint.of_string (Printf.sprintf "db-update sites=%d" sites)
  | Life { width; height; generations } ->
      Fingerprint.of_string
        (Printf.sprintf "life %dx%d g=%d alive=%s" width height generations
           (String.concat ","
              (List.map (fun (x, y) -> Printf.sprintf "%d:%d" x y) life_alive)))

(* What an explored load is refined against: the problem spec (before
   any client restriction), the correspondence and the edge rule. *)
let refinement load =
  match load with
  | Rw { version; readers; writers; _ } ->
      ( Readers_writers.spec version
          ~users:(Readers_writers.user_names ~readers ~writers),
        Readers_writers.correspondence,
        Refine.Actor_paths )
  | Buffer { lang; capacity; _ } ->
      ( Buffer_problem.spec ~capacity,
        (match lang with
        | `Monitor -> Buffer_problem.monitor_correspondence
        | `Csp -> Buffer_problem.csp_correspondence
        | `Ada -> Buffer_problem.ada_correspondence),
        Refine.Causal_paths )
  | Rwd { lang; readers; writers; _ } ->
      let rnames, wnames = Rw_distributed.user_names ~readers ~writers in
      ( Rw_distributed.spec ~readers:rnames ~writers:wnames,
        (match lang with
        | `Csp -> Rw_distributed.csp_correspondence
        | `Ada -> Rw_distributed.ada_correspondence),
        Refine.Causal_paths )
  | Db _ | Life _ -> invalid_arg "Runner: the command has no refinement"

let problem_spec load =
  match load with
  | Rw _ | Buffer _ | Rwd _ ->
      let problem, _, _ = refinement load in
      Some problem
  | Db _ -> None
  | Life { width; height; _ } -> Some (Life.spec ~width ~height)

(* One restriction: its name, then its formula's structural
   fingerprint, which is equal exactly when the formulas print alike. *)
let named_fp acc (name, f) =
  Fingerprint.combine acc
    (Fingerprint.combine (Fingerprint.of_string name) (Formula.fingerprint f))

(* The spec's name and its explicit restrictions, then the client
   restriction if there is one. *)
let restriction_fp load restrict =
  let base =
    match problem_spec load with
    | Some s ->
        List.fold_left named_fp (Fingerprint.of_string s.Spec.spec_name)
          s.Spec.restrictions
    | None ->
        (* db's two properties are baked into Db_update.check. *)
        Fingerprint.of_string "db-update:convergence+deadlock-freedom"
  in
  match restrict with
  | Some f -> named_fp base (R.restriction_name, f)
  | None -> base

(* The program-determining workload parameters — unlike the checkpoint
   stamp, the cache key must see every one of them (e.g. rw's monitor).
   rw's version is deliberately absent: it picks the problem spec's
   scheduling restriction and nothing about the explored program, so two
   versions of the same program share an exploration-cache line (the
   verdict key separates them through the restriction component). *)
let key_params_string load =
  match load with
  | Rw { monitor; readers; writers; _ } ->
      Printf.sprintf "rw monitor=%s readers=%d writers=%d" monitor readers
        writers
  | Buffer _ | Rwd _ | Db _ | Life _ ->
      command_name load ^ " " ^ params_string load

(* The engine's effective reduction: the [reduction=] key, else the
   environment default. *)
let engine_reduction (e : R.engine) =
  match e.R.reduction with
  | Some R.Reduction_none -> Explore.No_reduction
  | Some R.Reduction_sleep -> Explore.Sleep_sets
  | Some R.Reduction_source -> Explore.Source_sets
  | None -> Explore.reduction_default ()

let resolve_exact = function
  | Some b -> b
  | None -> Explore.exact_keys_default ()

let bits_string = function Some b -> string_of_int b | None -> "off"

(* Engine identity with the environment defaults resolved: two requests
   that spell the default differently (reduction absent vs the default
   engine named) behave identically and may share a cache line. The
   timeout is deliberately absent — timeout-bearing requests bypass the
   caches (their verdicts are wall-clock-dependent). *)
let engine_string (e : R.engine) =
  let opt_int = function Some n -> string_of_int n | None -> "none" in
  Printf.sprintf "exact=%b jobs=%d bitstate=%s maxc=%s maxr=%s reduction=%s"
    (resolve_exact e.R.exact_keys)
    e.R.jobs (bits_string e.R.bitstate_bits) (opt_int e.R.max_configs)
    (opt_int e.R.max_runs)
    (Explore.reduction_name (engine_reduction e))

let setting_fp load engine =
  Fingerprint.combine
    (Fingerprint.of_string (key_params_string load))
    (Fingerprint.of_string (engine_string engine))

let explore_key ?program load engine =
  let program = match program with Some p -> p | None -> program_fp load in
  Fingerprint.to_hex (Fingerprint.combine program (setting_fp load engine))

let verdict_key ?program load ~restrict engine =
  let program = match program with Some p -> p | None -> program_fp load in
  Fingerprint.to_hex
    (Fingerprint.combine
       (Fingerprint.combine program (restriction_fp load restrict))
       (setting_fp load engine))

(* --- running -------------------------------------------------------- *)

(* The checkpoint stamp pins the run identity: the resolved engine (a
   resumed run must resolve to the same one) plus the workload
   parameters. Its bytes predate the reduction engines: the engine is
   named by [por=%b], which is exact because checkpointed runs degrade
   source-DPOR to sleep sets, so checkpoints written by older builds
   still resume. *)
let stamp load ~reduction ~exact_keys ~bitstate_bits =
  let reduction =
    Option.value reduction ~default:(Explore.reduction_default ())
  in
  Printf.sprintf "gemcheck/1 %s %s por=%b exact=%b bitstate=%s"
    (command_name load) (params_string load)
    (reduction <> Explore.No_reduction)
    (resolve_exact exact_keys) (bits_string bitstate_bits)

type opts = {
  reduction : Explore.reduction option;
  exact_keys : bool option;
  audit_keys : bool option;
  jobs : int;
  resilience : Explore.resilience;
}

let opts_of_engine load (e : R.engine) =
  let reduction = engine_reduction e in
  {
    reduction = Some reduction;
    exact_keys = e.R.exact_keys;
    audit_keys = None;
    jobs = e.R.jobs;
    resilience =
      {
        Explore.no_resilience with
        Explore.bitstate =
          Option.map (fun bits -> Bitstate.create ~bits ()) e.R.bitstate_bits;
        stamp =
          stamp load ~reduction:(Some reduction) ~exact_keys:e.R.exact_keys
            ~bitstate_bits:e.R.bitstate_bits;
      };
  }

type computations =
  | Computations of Computation.t list
  | Prepared of Refine.prepared list

type exploration = {
  x_computations : computations;
  x_deadlocks : int;
  x_explored : int;
  x_reduced : int;
  x_truncated : int;
  x_exhausted : Budget.reason option;
  x_configs_used : int;
}

let explore load o ~budget =
  let { reduction; exact_keys; audit_keys; resilience; _ } = o in
  let of_monitor (x : Monitor.outcome) =
    {
      x_computations = Computations x.Monitor.computations;
      x_deadlocks = List.length x.Monitor.deadlocks;
      x_explored = x.Monitor.explored;
      x_reduced = x.Monitor.reduced;
      x_truncated = x.Monitor.truncated;
      x_exhausted = x.Monitor.exhausted;
      x_configs_used = Budget.configs_used budget;
    }
  in
  let of_csp (x : Csp.outcome) =
    {
      x_computations = Computations x.Csp.computations;
      x_deadlocks = List.length x.Csp.deadlocks;
      x_explored = x.Csp.explored;
      x_reduced = x.Csp.reduced;
      x_truncated = x.Csp.truncated;
      x_exhausted = x.Csp.exhausted;
      x_configs_used = Budget.configs_used budget;
    }
  in
  let of_ada (x : Ada.outcome) =
    {
      x_computations = Computations x.Ada.computations;
      x_deadlocks = List.length x.Ada.deadlocks;
      x_explored = x.Ada.explored;
      x_reduced = x.Ada.reduced;
      x_truncated = x.Ada.truncated;
      x_exhausted = x.Ada.exhausted;
      x_configs_used = Budget.configs_used budget;
    }
  in
  match load with
  | Rw { monitor; readers; writers; _ } ->
      Some
        (of_monitor
           (Monitor.explore ?reduction ?exact_keys ?audit_keys ~budget ~resilience
              (Readers_writers.program ~monitor:(rw_monitor monitor) ~readers
                 ~writers)))
  | Buffer { lang; capacity; producers; consumers; items } ->
      Some
        (match lang with
        | `Monitor ->
            of_monitor
              (Monitor.explore ?reduction ?exact_keys ?audit_keys ~budget ~resilience
                 (Buffer_problem.monitor_solution ~capacity ~producers
                    ~consumers ~items_each:items))
        | `Csp ->
            of_csp
              (Csp.explore ?reduction ?exact_keys ?audit_keys ~budget ~resilience
                 (Buffer_problem.csp_solution ~capacity ~producers ~consumers
                    ~items_each:items))
        | `Ada ->
            of_ada
              (Ada.explore ?reduction ?exact_keys ?audit_keys ~budget ~resilience
                 (Buffer_problem.ada_solution ~capacity ~producers ~consumers
                    ~items_each:items)))
  | Rwd { lang; readers; writers; broken } ->
      Some
        (match lang with
        | `Csp ->
            let program =
              if broken then
                Rw_distributed.csp_program_no_priority ~readers ~writers
              else Rw_distributed.csp_program ~readers ~writers
            in
            of_csp
              (Csp.explore ?reduction ?exact_keys ?audit_keys
                 ~max_configs:20_000_000 ~budget ~resilience program)
        | `Ada ->
            let program =
              if broken then
                Rw_distributed.ada_program_no_priority ~readers ~writers
              else Rw_distributed.ada_program ~readers ~writers
            in
            of_ada
              (Ada.explore ?reduction ?exact_keys ?audit_keys
                 ~max_configs:20_000_000 ~budget ~resilience program))
  | Db _ | Life _ -> None

let prepare load o x =
  match x.x_computations with
  | Prepared _ -> x
  | Computations comps ->
      let problem, map, edges = refinement load in
      {
        x with
        x_computations =
          Prepared (Gem_check.Par.map ~jobs:o.jobs (Refine.prepare ~edges ~problem ~map) comps);
      }

let computation_count x =
  match x.x_computations with
  | Computations comps -> List.length comps
  | Prepared ps -> List.length ps

(* --- verdict combination (hoisted verbatim from the CLI) ------------ *)

(* A falsifying witness is sound even under truncated exploration, so
   Falsified wins; otherwise any exploration cut makes the whole claim
   inconclusive. *)
let combined_status ~explore_exhausted verdicts =
  match (Verdict.overall verdicts, explore_exhausted) with
  | Verdict.Falsified, _ -> Verdict.Falsified
  | _, Some r -> Verdict.Inconclusive r
  | s, None -> s

let coverage ~explored ~reduced ~truncated verdicts =
  {
    Budget.configs_explored = explored;
    configs_reduced = reduced;
    branches_truncated = truncated;
    runs_enumerated =
      List.fold_left (fun n v -> n + v.Verdict.runs_checked) 0 verdicts;
    runs_complete = List.for_all (fun v -> v.Verdict.complete) verdicts;
  }

let deadlock_verdict ~spec_name n =
  (* Deadlocked schedules falsify a solution outright; report them through
     the same three-valued channel as restriction failures. *)
  if n = 0 then None
  else
    Some
      {
        Verdict.spec_name;
        legality = [];
        failures =
          [
            {
              Verdict.restriction =
                Printf.sprintf "deadlock-freedom (%d deadlocked schedule(s))"
                  n;
              formula = Formula.False;
              witness = None;
            };
          ];
        runs_checked = 0;
        complete = true;
        exhaustion = None;
        coverage = Budget.full_coverage;
      }

type result = {
  status : Verdict.status;
  detail : string;
  coverage : Budget.coverage;
  failures : (int * Verdict.t) list;
  computations : int;
  deadlocks : int;
  exit_code : int;
}

let with_restrict problem = function
  | None -> problem
  | Some f ->
      {
        problem with
        Spec.restrictions =
          problem.Spec.restrictions @ [ (R.restriction_name, f) ];
      }

let finish ~computations ~deadlocks status detail cov failures =
  {
    status;
    detail;
    coverage = cov;
    failures;
    computations;
    deadlocks;
    exit_code = Verdict.exit_code status;
  }

let conclude load o ~budget ~restrict exploration =
  let strategy = Strategy.of_budget budget in
  match (load, exploration) with
  | (Rw _ | Buffer _ | Rwd _), None ->
      invalid_arg "Runner.conclude: missing exploration"
  | (Db _ | Life _), Some _ ->
      invalid_arg "Runner.conclude: unexpected exploration"
  | (Rw _ | Buffer _ | Rwd _), Some x ->
      let problem, map, edges = refinement load in
      let problem = with_restrict problem restrict in
      let results =
        match x.x_computations with
        | Computations comps ->
            Refine.sat ~strategy ~budget ~jobs:o.jobs ~edges ~problem ~map comps
        | Prepared ps -> Refine.sat_prepared ~strategy ~budget ~jobs:o.jobs ~problem ps
      in
      let n = computation_count x in
      let failures = List.filter (fun (_, v) -> not (Verdict.ok v)) results in
      let verdicts, detail =
        match load with
        | Rw { version; _ } ->
            ( List.map snd results,
              Printf.sprintf "%d distinct computations, %d deadlocks vs %s: %s" n
                x.x_deadlocks
                (Readers_writers.version_name version)
                (match failures with
                | [] -> "no violation found"
                | (i, _) :: _ ->
                    Printf.sprintf "violated on computation %d (of %d failing)" i
                      (List.length failures)) )
        | _ ->
            ( List.map snd results
              @ Option.to_list
                  (deadlock_verdict ~spec_name:(command_name load) x.x_deadlocks),
              Printf.sprintf "%d computations, %d deadlocks" n x.x_deadlocks )
      in
      let status = combined_status ~explore_exhausted:x.x_exhausted verdicts in
      finish ~computations:n ~deadlocks:x.x_deadlocks status detail
        (coverage ~explored:x.x_explored ~reduced:x.x_reduced
           ~truncated:x.x_truncated verdicts)
        failures
  | Db { sites }, None ->
      let { reduction; exact_keys; audit_keys; jobs; resilience } = o in
      let r =
        Db_update.check ?reduction ?exact_keys ?audit_keys ~budget ~jobs
          ~resilience ~sites ()
      in
      let status =
        if (not r.Db_update.converges) || r.deadlocks > 0 then Verdict.Falsified
        else
          match r.exhausted with
          | Some reason -> Verdict.Inconclusive reason
          | None -> Verdict.Verified
      in
      let detail =
        Printf.sprintf "%d computations, %d deadlocks, convergence: %b"
          r.Db_update.computations r.deadlocks r.converges
      in
      finish ~computations:r.Db_update.computations ~deadlocks:r.deadlocks status
        detail
        {
          Budget.full_coverage with
          Budget.configs_explored = r.explored;
          configs_reduced = r.reduced;
          runs_complete = r.exhausted = None;
        }
        []
  | Life { width; height; generations }, None ->
      let comp = Life.build ~width ~height ~generations ~alive:life_alive in
      let spec = Life.spec ~width ~height in
      let v =
        Check.check_formula ~budget spec comp ~name:"matches-reference"
          (Life.matches_reference ~width ~height ~generations ~alive:life_alive)
      in
      let status = Verdict.status v in
      let detail =
        Printf.sprintf "%d events, correct: %b, asynchrony witness: %b"
          (Computation.n_events comp)
          (Verdict.ok v)
          (Life.asynchrony_witness comp <> None)
      in
      finish ~computations:1 ~deadlocks:0 status detail v.Verdict.coverage
        (if Verdict.ok v then [] else [ (0, v) ])

let run load o ~budget ~restrict =
  conclude load o ~budget ~restrict (explore load o ~budget)

(* --- reporting ------------------------------------------------------ *)

let render_json ~command r =
  Printf.sprintf
    {|{"command":"%s","status":"%s","reason":%s,"detail":"%s","coverage":%s}|}
    command
    (Verdict.status_keyword r.status)
    (match r.status with
    | Verdict.Inconclusive reason -> Budget.reason_json reason
    | _ -> "null")
    r.detail
    (Budget.coverage_json r.coverage)

let print_report ~json ~command r =
  if json then print_string (render_json ~command r)
  else begin
    Printf.printf "%s\n" r.detail;
    Format.printf "%a@." Verdict.pp_status r.status;
    match r.status with
    | Verdict.Inconclusive _ ->
        Format.printf "  %a@." Budget.pp_coverage r.coverage
    | _ -> ()
  end;
  r.exit_code
