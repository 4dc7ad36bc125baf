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

(* The program-determining workload parameters: the workload half of
   the checkpoint stamp and of the cache keys. rw's version is
   deliberately absent: it picks the problem spec's scheduling
   restriction and nothing about the explored program, so two versions
   of the same program share an exploration (the verdict key adds the
   version). *)
let params_string = function
  | Rw { monitor; readers; writers; _ } ->
      Printf.sprintf "monitor=%s readers=%d writers=%d" monitor readers writers
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

(* The largest Life board a load may ask for, in cell states (one
   event each, beside the start event): sealing n events fills n x n bit
   tables. [Life.build] loops over every side and generation, so each
   counts as at least 1, and each product is checked before it is taken. *)
let life_max_states = 10_000

let life_fits ~width ~height ~generations =
  let w = max 1 width and h = max 1 height in
  h <= life_max_states / w
  && generations < life_max_states
  && generations + 1 <= life_max_states / (w * h)

(* The ranges the program builders accept. Both front ends check a load
   here before anything is built, so an out-of-range count is a usage
   error naming its key rather than an exception from deep inside a
   builder — or, for life's generations, a loop. *)
let validate load =
  let minima =
    match load with
    | Rw { readers; writers; _ } | Rwd { readers; writers; _ } ->
        [ ("readers", readers, 0); ("writers", writers, 0) ]
    | Buffer { capacity; producers; consumers; items; _ } ->
        [
          ("capacity", capacity, 0);
          ("producers", producers, 1);
          ("consumers", consumers, 1);
          ("items", items, 0);
        ]
    | Db { sites } -> [ ("sites", sites, 2) ]
    | Life { width; height; generations } ->
        [ ("width", width, 0); ("height", height, 0); ("generations", generations, 0) ]
  in
  match (List.find_opt (fun (_, n, min) -> n < min) minima, load) with
  | Some (key, n, min), _ ->
      Error (Printf.sprintf "%s expects an integer >= %d, got %d" key min n)
  | None, Life { width; height; generations }
    when not (life_fits ~width ~height ~generations) ->
      Error
        (Printf.sprintf
           "width x height x (generations + 1) expects at most %d cell states, got \
            %d x %d x (%d + 1)"
           life_max_states width height generations)
  | None, Buffer { producers; consumers; items; _ }
    when producers * items mod consumers <> 0 ->
      Error
        (Printf.sprintf
           "consumers expects a divisor of producers x items (%d), got %d"
           (producers * items) consumers)
  | None, _ -> Ok load

let parse_request (c : R.check) =
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

let of_request c = Result.bind (parse_request c) validate

let supports_restrict = function
  | Rw _ | Buffer _ | Rwd _ -> true
  | Db _ | Life _ -> false

let has_exploration = function
  | Rw _ | Buffer _ | Rwd _ -> true
  | Db _ | Life _ -> false

(* --- programs and problem specs -------------------------------------- *)

(* A monitor value cannot be constructed from a bad name once a load
   exists; [of_request] already vetted it. *)
let rw_monitor name =
  match monitor_of_name name with
  | Ok m -> m
  | Error e -> invalid_arg ("Runner: " ^ e)

(* An explored load's program, as the exploration driver sees it. *)
type lang = Lang : 'c Explore.lang -> lang

let lang_of load =
  match load with
  | Rw { monitor; readers; writers; _ } ->
      Lang
        (Monitor.lang
           (Readers_writers.program ~monitor:(rw_monitor monitor) ~readers ~writers))
  | Buffer { lang; capacity; producers; consumers; items } -> (
      match lang with
      | `Monitor ->
          Lang
            (Monitor.lang
               (Buffer_problem.monitor_solution ~capacity ~producers ~consumers
                  ~items_each:items))
      | `Csp ->
          Lang
            (Csp.lang
               (Buffer_problem.csp_solution ~capacity ~producers ~consumers
                  ~items_each:items))
      | `Ada ->
          Lang
            (Ada.lang
               (Buffer_problem.ada_solution ~capacity ~producers ~consumers
                  ~items_each:items)))
  | Rwd { lang = `Csp; readers; writers; broken } ->
      Lang
        (Csp.lang
           (if broken then Rw_distributed.csp_program_no_priority ~readers ~writers
            else Rw_distributed.csp_program ~readers ~writers))
  | Rwd { lang = `Ada; readers; writers; broken } ->
      Lang
        (Ada.lang
           (if broken then Rw_distributed.ada_program_no_priority ~readers ~writers
            else Rw_distributed.ada_program ~readers ~writers))
  | Db _ | Life _ -> invalid_arg "Runner: the command has no exploration"

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

(* --- cache keying --------------------------------------------------- *)

let key_params_string load = command_name load ^ " " ^ params_string load

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

(* Within one process the program, and the problem spec's name and
   fixed restrictions, are functions of the workload parameters, so the
   keys hash the parameters and build neither. *)
let explore_fp load engine =
  Fingerprint.combine
    (Fingerprint.of_string (key_params_string load))
    (Fingerprint.of_string (engine_string engine))

let explore_key load engine = Fingerprint.to_hex (explore_fp load engine)

(* A verdict also depends on rw's version, which picks the problem spec,
   and on the client restriction: its name, then its formula's
   structural fingerprint, which is equal exactly when the formulas
   print alike. *)
let verdict_key load ~restrict engine =
  let version =
    match load with
    | Rw { version; _ } -> Readers_writers.version_name version
    | Buffer _ | Rwd _ | Db _ | Life _ -> ""
  in
  let fp = Fingerprint.combine (explore_fp load engine) (Fingerprint.of_string version) in
  Fingerprint.to_hex
    (match restrict with
    | None -> fp
    | Some f ->
        Fingerprint.combine fp
          (Fingerprint.combine (Fingerprint.of_string R.restriction_name)
             (Formula.fingerprint f)))

(* --- running -------------------------------------------------------- *)

(* The checkpoint stamp pins the run identity: the resolved engine (a
   resumed run must resolve to the same one, since each engine's frames
   hold its own scheduling state) plus the workload parameters. *)
let stamp load ~reduction ~exact_keys ~bitstate_bits =
  let reduction =
    Option.value reduction ~default:(Explore.reduction_default ())
  in
  Printf.sprintf "gemcheck/1 %s %s reduction=%s exact=%b bitstate=%s"
    (command_name load) (params_string load)
    (Explore.reduction_name reduction)
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
  if not (has_exploration load) then None
  else
    (* rwd's state spaces outgrow the driver's default cap. *)
    let max_configs = match load with Rwd _ -> Some 20_000_000 | _ -> None in
    let x =
      match lang_of load with
      | Lang l ->
          Explore.explore ?reduction ?exact_keys ?audit_keys ?max_configs ~budget
            ~resilience l
    in
    Some
      {
        x_computations = Computations x.Explore.computations;
        x_deadlocks = List.length x.Explore.deadlocks;
        x_explored = x.Explore.explored;
        x_reduced = x.Explore.reduced;
        x_truncated = x.Explore.truncated;
        x_exhausted = x.Explore.exhausted;
        x_configs_used = Budget.configs_used budget;
      }

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
