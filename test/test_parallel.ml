(* Differential parity suite for checking-layer parallelism. Exploration
   is one sequential walk; --jobs spreads the per-computation checks
   (Check.check_all, Refine.sat, Db_update.check) over domains with
   Par.map. Every lib/problems workload, checked at jobs in {2, 8}, must
   render byte-identical verdicts to jobs 1 — with POR on and off — which
   pins Par.map's order preservation and shows that one budget shared by
   the checking domains changes nothing when it does not bite — and,
   when it does, stops every domain with the first reason observed.

   qcheck extends the evidence to random loop-free CSP programs under
   random restrictions, reusing the generators of the fuzzing library
   (Gem_fuzz.Gen). *)

module Explore = Gem_lang.Explore
module Monitor = Gem_lang.Monitor
module Csp = Gem_lang.Csp
module Ada = Gem_lang.Ada
module RW = Gem_problems.Readers_writers
module Buffer = Gem_problems.Buffer
module Rwd = Gem_problems.Rw_distributed
module Db = Gem_problems.Db_update
module Budget = Gem_check.Budget
module Par = Gem_check.Par
module Check = Gem_check.Check
module Refine = Gem_check.Refine
module Verdict = Gem_check.Verdict
module Strategy = Gem_check.Strategy
module Spec = Gem_spec.Spec
module Etype = Gem_spec.Etype
module Build = Gem_model.Build
module F = Gem_logic.Formula
module Gen_csp = Gem_fuzz.Gen

let check = Alcotest.check
let strategy = Strategy.Linearizations (Some 200)
let job_counts = [ 2; 8 ]
let reason_opt = Option.map Budget.reason_keyword

(* Render verdicts in the order the checker returned them: nothing is
   re-sorted, so a permutation by the parallel map would show. *)
let render verdicts =
  String.concat "\n"
    (List.mapi
       (fun i v ->
         Printf.sprintf "%d %s %s" i
           (Verdict.status_keyword (Verdict.status v))
           (Format.asprintf "%a" (Verdict.pp None) v))
       verdicts)

(* ------------------------------------------------------------------ *)
(* Workload parity: jobs in {2, 8} vs sequential, POR on and off       *)
(* ------------------------------------------------------------------ *)

let assert_parity name explore =
  List.iter
    (fun reduction ->
      let spec, comps = explore ~reduction in
      let rendered jobs = render (Check.check_all ~strategy ~jobs spec comps) in
      let base = rendered 1 in
      List.iter
        (fun jobs ->
          check Alcotest.string
            (Printf.sprintf "%s %s jobs=%d: verdicts" name
               (Explore.reduction_name reduction) jobs)
            base (rendered jobs))
        job_counts)
    [ Explore.Sleep_sets; Explore.No_reduction ]

let mon_parity name prog =
  assert_parity name (fun ~reduction ->
      ( Monitor.language_spec prog,
        (Explore.explore ~reduction (Monitor.lang prog)).Explore.computations ))

let csp_parity name prog =
  assert_parity name (fun ~reduction ->
      (Csp.language_spec prog, (Explore.explore ~reduction (Csp.lang prog)).Explore.computations))

let ada_parity name prog =
  assert_parity name (fun ~reduction ->
      (Ada.language_spec prog, (Explore.explore ~reduction (Ada.lang prog)).Explore.computations))

let test_rw_monitor_workloads () =
  mon_parity "rw-paper-1r1w" (RW.program ~monitor:RW.paper_monitor ~readers:1 ~writers:1);
  mon_parity "rw-no-exclusion-2r1w"
    (RW.program ~monitor:RW.no_exclusion_monitor ~readers:2 ~writers:1);
  mon_parity "rw-buggy-1r2w" (RW.program ~monitor:RW.buggy_monitor ~readers:1 ~writers:2)

let test_buffer_workloads () =
  mon_parity "buffer-monitor-1p1c2i"
    (Buffer.monitor_solution ~capacity:1 ~producers:1 ~consumers:1 ~items_each:2);
  mon_parity "buffer-buggy-monitor-1p1c2i"
    (Buffer.buggy_monitor_solution ~capacity:1 ~producers:1 ~consumers:1 ~items_each:2);
  csp_parity "buffer-csp-1p1c2i"
    (Buffer.csp_solution ~capacity:1 ~producers:1 ~consumers:1 ~items_each:2);
  ada_parity "buffer-ada-1p1c2i"
    (Buffer.ada_solution ~capacity:1 ~producers:1 ~consumers:1 ~items_each:2)

let test_distributed_workloads () =
  csp_parity "rwd-csp-1r1w" (Rwd.csp_program ~readers:1 ~writers:1);
  csp_parity "rwd-csp-no-priority-1r1w"
    (Rwd.csp_program_no_priority ~readers:1 ~writers:1);
  csp_parity "db-update-2-sites" (Db.program ~sites:2)

(* The Db_update report aggregates exploration and parallel
   per-computation checking; the whole record must be jobs-independent,
   counters included (exploration is sequential). *)
let test_db_report_parity () =
  let base = Db.check ~jobs:1 ~sites:2 () in
  List.iter
    (fun jobs ->
      let r = Db.check ~jobs ~sites:2 () in
      let tag = Printf.sprintf "db jobs=%d" jobs in
      check Alcotest.int (tag ^ ": computations") base.Db.computations r.Db.computations;
      check Alcotest.int (tag ^ ": deadlocks") base.Db.deadlocks r.Db.deadlocks;
      check Alcotest.bool (tag ^ ": converges") base.Db.converges r.Db.converges;
      check Alcotest.int (tag ^ ": explored") base.Db.explored r.Db.explored;
      check Alcotest.int (tag ^ ": reduced") base.Db.reduced r.Db.reduced;
      check
        Alcotest.(option string)
        (tag ^ ": exhaustion") (reason_opt base.Db.exhausted) (reason_opt r.Db.exhausted))
    job_counts

(* ------------------------------------------------------------------ *)
(* Byte-identical rendered verdicts against the problem specs          *)
(* ------------------------------------------------------------------ *)

let refined ~jobs ~problem ~map ?edges comps =
  render (List.map snd (Refine.sat ~strategy ~jobs ?edges ~problem ~map comps))

let test_verdicts_byte_identical () =
  let rw_case name monitor version ~readers ~writers =
    let comps = (Explore.explore (Monitor.lang (RW.program ~monitor ~readers ~writers))).Explore.computations in
    let problem = RW.spec version ~users:(RW.user_names ~readers ~writers) in
    let rendered jobs =
      refined ~jobs ~edges:Refine.Actor_paths ~problem ~map:RW.correspondence comps
    in
    let base = rendered 1 in
    List.iter
      (fun jobs ->
        check Alcotest.string
          (Printf.sprintf "%s: verdicts byte-identical at jobs=%d" name jobs)
          base (rendered jobs))
      job_counts
  in
  rw_case "rw-paper-verified" RW.paper_monitor RW.Readers_priority ~readers:1
    ~writers:1;
  rw_case "rw-no-exclusion-falsified" RW.no_exclusion_monitor RW.Free_for_all
    ~readers:2 ~writers:1;
  let comps =
    (Explore.explore
       (Csp.lang (Buffer.csp_solution ~capacity:1 ~producers:1 ~consumers:1 ~items_each:2)))
      .Explore.computations
  in
  let rendered jobs =
    refined ~jobs ~problem:(Buffer.spec ~capacity:1) ~map:Buffer.csp_correspondence
      comps
  in
  let base = rendered 1 in
  List.iter
    (fun jobs ->
      check Alcotest.string
        (Printf.sprintf "buffer-csp: verdicts byte-identical at jobs=%d" jobs)
        base (rendered jobs))
    job_counts

(* The acceptance grid: rendered verdicts are byte-identical across
   checking jobs and the three reduction engines. Each engine runs at
   two job counts, against the sleep engine at jobs 1. *)
let test_acceptance_grid () =
  let rw_prog = RW.program ~monitor:RW.paper_monitor ~readers:2 ~writers:1 in
  let rw_problem =
    RW.spec RW.Readers_priority ~users:(RW.user_names ~readers:2 ~writers:1)
  in
  let buf_prog =
    Buffer.csp_solution ~capacity:1 ~producers:1 ~consumers:1 ~items_each:2
  in
  let rendered reduction jobs =
    ( refined ~jobs ~edges:Refine.Actor_paths ~problem:rw_problem
        ~map:RW.correspondence
        (Explore.explore ~reduction (Monitor.lang rw_prog)).Explore.computations,
      refined ~jobs ~problem:(Buffer.spec ~capacity:1)
        ~map:Buffer.csp_correspondence
        (Explore.explore ~reduction (Csp.lang buf_prog)).Explore.computations )
  in
  let base = rendered Explore.Sleep_sets 1 in
  List.iter
    (fun (reduction, jobs) ->
      let rw, buf = rendered reduction jobs in
      let tag =
        Printf.sprintf "%s jobs=%d" (Explore.reduction_name reduction) jobs
      in
      check Alcotest.string ("rw-monitor-2r1w verdicts " ^ tag) (fst base) rw;
      check Alcotest.string ("buffer-csp verdicts " ^ tag) (snd base) buf)
    Explore.
      [
        (No_reduction, 1); (No_reduction, 8); (Sleep_sets, 2); (Source_sets, 2);
        (Source_sets, 8);
      ]

(* Two runs of the same configuration must render the same bytes:
   completed/deadlocked leaves are sorted by canonical key and
   deduplication is fingerprint-sorted, so nothing about traversal order
   can leak into reports. *)
let test_sequential_runs_identical () =
  let prog = RW.program ~monitor:RW.paper_monitor ~readers:2 ~writers:1 in
  let problem = RW.spec RW.Readers_priority ~users:(RW.user_names ~readers:2 ~writers:1) in
  let rendered jobs =
    refined ~jobs ~edges:Refine.Actor_paths ~problem ~map:RW.correspondence
      (Explore.explore (Monitor.lang prog)).Explore.computations
  in
  check Alcotest.string "two sequential runs render identically" (rendered 1)
    (rendered 1);
  check Alcotest.string "two jobs=8 runs render identically" (rendered 8)
    (rendered 8)

(* ------------------------------------------------------------------ *)
(* One budget shared by the checking domains                            *)
(* ------------------------------------------------------------------ *)

(* Sixteen diamonds — a root enabling [width] concurrent events on
   distinct elements: width! runs and 2^width + 1 histories each. *)
let diamond_spec_of ~width restriction =
  let e = Etype.make "E" ~events:[ { Etype.klass = "E"; schema = [] } ] () in
  Spec.make "budget-diamonds"
    ~elements:(List.init (width + 1) (fun i -> (Printf.sprintf "el%d" i, e)))
    ~restrictions:[ ("eventually-all", restriction) ]
    ()

let diamonds_of ~width =
  List.init 16 (fun _ ->
      let b = Build.create () in
      let root = Build.emit b ~element:"el0" ~klass:"E" () in
      for i = 1 to width do
        Build.enable b root (Build.emit b ~element:(Printf.sprintf "el%d" i) ~klass:"E" ())
      done;
      Build.finish b)

let eventually_all = F.(eventually (forall [ ("e", Cls "E") ] (occurred "e")))

(* Seven wide, under a restriction that holds on every run but lies just
   outside the lattice fragment (a disjunction of temporal formulas), so
   the runs are enumerated and nothing but the budget ends the
   enumeration early. *)
let diamond_spec = diamond_spec_of ~width:7 F.(eventually_all ||| henceforth False)
let diamonds () = diamonds_of ~width:7

let inconclusive_reasons verdicts =
  List.sort_uniq compare
    (List.filter_map
       (fun v ->
         match Verdict.status v with
         | Verdict.Inconclusive r -> Some (Budget.reason_keyword r)
         | Verdict.Verified | Verdict.Falsified -> None)
       verdicts)

(* An expiring deadline must stop every domain promptly: the budget's
   cells are shared atomics, so the first domain to observe the deadline
   publishes the reason and the others drain. Every cut verdict carries
   exactly that one reason, and the check returns well within the 5s
   bound. *)
let deadline_stops_all_domains spec comps () =
  List.iter
    (fun jobs ->
      let budget = Budget.make ~timeout:0.05 () in
      let comps = comps () in
      let t0 = Unix.gettimeofday () in
      let verdicts =
        Check.check_all ~strategy:(Strategy.Linearizations None) ~budget ~jobs
          spec comps
      in
      let elapsed = Unix.gettimeofday () -. t0 in
      Alcotest.check Alcotest.bool
        (Printf.sprintf "jobs=%d returns promptly (%.2fs)" jobs elapsed)
        true (elapsed < 5.0);
      Alcotest.check Alcotest.(list string)
        (Printf.sprintf "jobs=%d cut verdicts report the deadline" jobs)
        [ "deadline-exceeded" ] (inconclusive_reasons verdicts);
      Alcotest.check Alcotest.(option string)
        (Printf.sprintf "jobs=%d budget agrees" jobs)
        (Some "deadline-exceeded")
        (Option.map Budget.reason_keyword (Budget.exhausted budget)))
    [ 1; 2; 8 ]

(* The run enumeration of the seven-wide diamonds. *)
let test_parallel_deadline_stops_all_domains =
  deadline_stops_all_domains diamond_spec diamonds

(* The lattice twin: the restriction is in the fragment and no run cap
   bounds the lattice, so only the deadline, polled while the 2^18 + 1
   histories are built, stops each check. *)
let test_parallel_deadline_stops_lattice_builds =
  deadline_stops_all_domains
    (diamond_spec_of ~width:18 eventually_all)
    (fun () -> diamonds_of ~width:18)

(* First reason wins under cancellation: eight domains race to observe a
   poisoned deadline, and exactly one decision is recorded; a budget
   whose configuration cap fired before checking began keeps that
   reason even though its deadline has also passed by the time the
   domains poll it. *)
let test_budget_first_reason_wins () =
  let module T = Gem_obs.Telemetry in
  T.reset ();
  T.enable ();
  Fun.protect ~finally:T.disable (fun () ->
      let budget = Budget.make ~timeout:0.0 () in
      let verdicts =
        Check.check_all ~strategy:(Strategy.Linearizations None) ~budget ~jobs:8
          diamond_spec (diamonds ())
      in
      Alcotest.check Alcotest.(list string) "deadline wins at jobs=8"
        [ "deadline-exceeded" ] (inconclusive_reasons verdicts);
      Alcotest.check Alcotest.int "one deadline decision recorded" 1
        (T.read T.Budget_stop_deadline);
      let budget = Budget.make ~timeout:0.0 ~max_configs:1 () in
      ignore (Budget.charge_config budget);
      ignore (Budget.charge_config budget);
      let verdicts =
        Check.check_all ~strategy:(Strategy.Linearizations None) ~budget ~jobs:8
          diamond_spec (diamonds ())
      in
      Alcotest.check Alcotest.(list string) "config-budget keeps priority at jobs=8"
        [ "config-budget" ] (inconclusive_reasons verdicts);
      Alcotest.check Alcotest.(option string) "budget agrees" (Some "config-budget")
        (Option.map Budget.reason_keyword (Budget.exhausted budget));
      Alcotest.check Alcotest.int "still one deadline decision" 1
        (T.read T.Budget_stop_deadline))

(* ------------------------------------------------------------------ *)
(* Par.map: ordering, failure propagation, job-count defaulting        *)
(* ------------------------------------------------------------------ *)

let test_par_map_preserves_order () =
  List.iter
    (fun jobs ->
      let xs = List.init 97 Fun.id in
      check
        Alcotest.(list int)
        (Printf.sprintf "map id at jobs=%d" jobs)
        (List.map (fun x -> x * x) xs)
        (Par.map ~jobs (fun x -> x * x) xs);
      check Alcotest.(list int) "empty input" [] (Par.map ~jobs (fun x -> x) []))
    [ 1; 2; 8 ]

exception Boom

let test_par_map_reraises () =
  List.iter
    (fun jobs ->
      check Alcotest.bool
        (Printf.sprintf "exception propagates at jobs=%d" jobs)
        true
        (try
           ignore (Par.map ~jobs (fun x -> if x = 41 then raise Boom else x) (List.init 64 Fun.id));
           false
         with Boom -> true))
    [ 1; 2; 8 ]

let test_jobs_default_env () =
  (* jobs_default reads GEM_JOBS leniently: unset/garbage/non-positive all
     fall back to 1 — library callers never fail on a bad environment;
     strict validation is the CLI's job. *)
  let saved = Option.value ~default:"" (Sys.getenv_opt "GEM_JOBS") in
  let with_env v f =
    (match v with None -> Unix.putenv "GEM_JOBS" "" | Some s -> Unix.putenv "GEM_JOBS" s);
    Fun.protect ~finally:(fun () -> Unix.putenv "GEM_JOBS" saved) f
  in
  with_env (Some "3") (fun () ->
      check Alcotest.int "GEM_JOBS=3" 3 (Par.jobs_default ()));
  with_env (Some "not-a-number") (fun () ->
      check Alcotest.int "garbage falls back to 1" 1 (Par.jobs_default ()));
  with_env (Some "0") (fun () ->
      check Alcotest.int "zero falls back to 1" 1 (Par.jobs_default ()));
  with_env None (fun () -> check Alcotest.int "unset means 1" 1 (Par.jobs_default ()))

(* ------------------------------------------------------------------ *)
(* Random loop-free CSP programs (qcheck)                              *)
(* ------------------------------------------------------------------ *)

let prop_csp_random_parallel_parity =
  QCheck.Test.make ~name:"random CSP: jobs in {2,8} agree with sequential"
    ~count:40
    QCheck.(pair Gen_csp.prog_arb (make Gen_csp.formula_gen))
    (fun (prog, f) ->
      let spec =
        Spec.merge "random"
          [ Csp.language_spec prog; Spec.make "restriction" ~restrictions:[ ("r", f) ] () ]
      in
      List.for_all
        (fun reduction ->
          let comps = (Explore.explore ~reduction (Csp.lang prog)).Explore.computations in
          let base = render (Check.check_all ~strategy ~jobs:1 spec comps) in
          List.for_all
            (fun jobs -> render (Check.check_all ~strategy ~jobs spec comps) = base)
            job_counts)
        [ Explore.Sleep_sets; Explore.No_reduction ])

let () =
  let to_alc = QCheck_alcotest.to_alcotest in
  Alcotest.run "gem_parallel"
    [
      ( "workload-parity",
        [
          Alcotest.test_case "rw-monitor workloads" `Quick test_rw_monitor_workloads;
          Alcotest.test_case "buffer workloads" `Quick test_buffer_workloads;
          Alcotest.test_case "distributed workloads" `Quick test_distributed_workloads;
          Alcotest.test_case "db-update report" `Quick test_db_report_parity;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "verdicts byte-identical" `Quick test_verdicts_byte_identical;
          Alcotest.test_case "repeated runs identical" `Quick test_sequential_runs_identical;
        ] );
      ( "acceptance",
        [
          Alcotest.test_case "verdicts byte-identical on (jobs x engine) grid"
            `Quick test_acceptance_grid;
        ] );
      ( "parallel",
        [
          Alcotest.test_case "deadline stops all domains" `Quick
            test_parallel_deadline_stops_all_domains;
          Alcotest.test_case "deadline stops lattice builds" `Quick
            test_parallel_deadline_stops_lattice_builds;
        ] );
      ( "budget",
        [
          Alcotest.test_case "first reason wins under cancellation" `Quick
            test_budget_first_reason_wins;
        ] );
      ( "par-map",
        [
          Alcotest.test_case "order preserved" `Quick test_par_map_preserves_order;
          Alcotest.test_case "failure re-raised" `Quick test_par_map_reraises;
          Alcotest.test_case "GEM_JOBS defaulting" `Quick test_jobs_default_env;
        ] );
      ("random-programs", [ to_alc prop_csp_random_parallel_parity ]);
    ]
