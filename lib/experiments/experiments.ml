open Gem

type row = { label : string; pass : bool; detail : string }

let row label pass detail = { label; pass; detail }

(* Default experiment budget: the linearization cap every sat check runs
   under (EXPERIMENTS.md "Budgets"). One knob, shared with the CLI and the
   benches via Strategy.of_budget. *)
let default_budget () = Budget.make ~max_runs:400 ()
let strategy = Strategy.of_budget (default_budget ())

(* ------------------------------------------------------------------ *)
(* E1: legality                                                        *)
(* ------------------------------------------------------------------ *)

let tick_etype = Etype.make "Tick" ~events:[ { Etype.klass = "Tick"; schema = [] } ] ()

(* A random legal computation over [k] declared elements. *)
let random_computation rng ~elements:k ~events:n =
  let b = Build.create () in
  let handles =
    Array.init n (fun _ ->
        Build.emit b ~element:(Printf.sprintf "X%d" (Random.State.int rng k)) ~klass:"Tick" ())
  in
  for j = 1 to n - 1 do
    if Random.State.int rng 3 = 0 then
      Build.enable b handles.(Random.State.int rng j) handles.(j)
  done;
  for i = 0 to k - 1 do
    Build.declare_element b (Printf.sprintf "X%d" i)
  done;
  Build.finish b

let legality_spec k =
  Spec.make "random"
    ~elements:(List.init k (fun i -> (Printf.sprintf "X%d" i, tick_etype)))
    ()

let e01_legality () =
  let rng = Random.State.make [| 2024 |] in
  let sizes = [ 10; 50; 100 ] in
  let accept =
    List.map
      (fun n ->
        let all_legal =
          List.init 20 (fun _ -> random_computation rng ~elements:4 ~events:n)
          |> List.for_all (fun c -> Legality.is_legal (legality_spec 4) c)
        in
        row (Printf.sprintf "random legal computations accepted (n=%d)" n) all_legal
          "20 samples")
      sizes
  in
  (* Planted violations. *)
  let spec = legality_spec 2 in
  let undeclared =
    let b = Build.create () in
    let _ = Build.emit b ~element:"Rogue" ~klass:"Tick" () in
    Legality.check spec (Build.finish b)
  in
  let bad_class =
    let b = Build.create () in
    let _ = Build.emit b ~element:"X0" ~klass:"Boom" () in
    Legality.check spec (Build.finish b)
  in
  let cyclic =
    let b = Build.create () in
    let x = Build.emit b ~element:"X0" ~klass:"Tick" () in
    let y = Build.emit b ~element:"X1" ~klass:"Tick" () in
    Build.enable b x y;
    Build.enable b y x;
    Legality.check spec (Build.finish b)
  in
  let access =
    let s =
      Spec.make "grouped"
        ~elements:[ ("X0", tick_etype); ("X1", tick_etype) ]
        ~groups:[ Group.make "G" [ Group.Elem "X1" ] ]
        ()
    in
    let b = Build.create () in
    let x = Build.emit b ~element:"X0" ~klass:"Tick" () in
    let _ = Build.emit_enabled_by b ~by:x ~element:"X1" ~klass:"Tick" () in
    Legality.check s (Build.finish b)
  in
  accept
  @ [
      row "undeclared element rejected" (undeclared <> []) "1 violation";
      row "undeclared class rejected" (bad_class <> []) "1 violation";
      row "causal cycle rejected" (cyclic <> []) "cycle witness";
      row "group access violation rejected" (access <> []) "port-less enable";
    ]

(* ------------------------------------------------------------------ *)
(* E2: histories & vhs (the paper's §7 example)                        *)
(* ------------------------------------------------------------------ *)

let paper_diamond () =
  let b = Build.create () in
  let e1 = Build.emit b ~element:"E1" ~klass:"A" () in
  let e2 = Build.emit_enabled_by b ~by:e1 ~element:"E2" ~klass:"B" () in
  let e3 = Build.emit_enabled_by b ~by:e1 ~element:"E3" ~klass:"C" () in
  let e4 = Build.emit_enabled_by b ~by:e2 ~element:"E4" ~klass:"D" () in
  Build.enable b e3 e4;
  Build.finish b

let e02_histories () =
  let comp = paper_diamond () in
  let histories = History.count comp in
  let runs = Vhs.count comp in
  let lins = List.length (Vhs.all_linearizations comp) in
  let poset = Computation.temporal_exn comp in
  let valid =
    List.for_all
      (fun run -> Linext.is_step_sequence poset (Vhs.steps run))
      (Vhs.all comp)
  in
  [
    row "history lattice of the §7 example" (histories = 6) (Printf.sprintf "%d histories (5 + empty)" histories);
    row "complete runs (vhs)" (runs = 3) (Printf.sprintf "%d runs incl. the simultaneous step" runs);
    row "maximal runs (linearizations)" (lins = 2) (Printf.sprintf "%d" lins);
    row "every enumerated run validates" valid "antichain steps, downward closed";
  ]

(* ------------------------------------------------------------------ *)
(* E3–E5: the three language descriptions                              *)
(* ------------------------------------------------------------------ *)

let e03_monitor_language () =
  let program =
    Readers_writers.program ~monitor:Readers_writers.paper_monitor ~readers:2 ~writers:1
  in
  let o = Explore.explore (Monitor.lang program) in
  let spec = Monitor.language_spec program in
  let all_ok =
    List.for_all (fun c -> Verdict.ok (Check.check spec c)) o.Explore.computations
  in
  let getvals =
    (* With Getval emission on, the Variable restriction is exercised. *)
    let small_program =
      { Monitor.monitors = [ Readers_writers.paper_monitor ]; shared = [];
        processes =
          [ { Monitor.proc_name = "R1"; locals = [];
              code =
                [ Monitor.PCall { monitor = "RW"; entry = "StartRead"; args = []; bind = None };
                  Monitor.PCall { monitor = "RW"; entry = "EndRead"; args = []; bind = None } ] } ] }
    in
    let o = Explore.explore (Monitor.lang ~emit_getvals:true small_program) in
    let small_spec = Monitor.language_spec small_program in
    List.for_all (fun c -> Verdict.ok (Check.check small_spec c)) o.Explore.computations
  in
  [
    row "monitor semantics restrictions hold on all RW computations" all_ok
      (Printf.sprintf "%d computations x (lock-alternation, release-needs-signal, total order)"
         (List.length o.Explore.computations));
    row "variable restrictions hold with Getval emission" getvals "1 reader, getvals on";
  ]

let e04_csp_language () =
  let program = Buffer_problem.csp_solution ~capacity:1 ~producers:1 ~consumers:1 ~items_each:2 in
  let o = Explore.explore (Csp.lang program) in
  let spec = Csp.language_spec program in
  let all_ok = List.for_all (fun c -> Verdict.ok (Check.check spec c)) o.Explore.computations in
  [
    row "CSP io-simultaneity / matching / value-transfer hold" all_ok
      (Printf.sprintf "%d computations" (List.length o.Explore.computations));
    row "no deadlock in the pipeline" (o.Explore.deadlocks = []) "";
  ]

let e05_ada_language () =
  let program = Buffer_problem.ada_solution ~capacity:1 ~producers:1 ~consumers:1 ~items_each:2 in
  let o = Explore.explore (Ada.lang program) in
  let spec = Ada.language_spec program in
  let all_ok = List.for_all (fun c -> Verdict.ok (Check.check spec c)) o.Explore.computations in
  [
    row "ADA rendezvous-matching / entry-addressing / caller-suspension hold" all_ok
      (Printf.sprintf "%d computations" (List.length o.Explore.computations));
    row "no deadlock" (o.Explore.deadlocks = []) "";
  ]

(* ------------------------------------------------------------------ *)
(* E6/E7: buffers                                                      *)
(* ------------------------------------------------------------------ *)

let e06_one_slot_buffer () =
  let problem = Buffer_problem.spec ~capacity:1 in
  let mon = Explore.explore (Monitor.lang (Buffer_problem.monitor_solution ~capacity:1 ~producers:1 ~consumers:1 ~items_each:2)) in
  let csp = Explore.explore (Csp.lang (Buffer_problem.csp_solution ~capacity:1 ~producers:1 ~consumers:1 ~items_each:2)) in
  let ada = Explore.explore (Ada.lang (Buffer_problem.ada_solution ~capacity:1 ~producers:1 ~consumers:1 ~items_each:2)) in
  let buggy = Explore.explore (Monitor.lang (Buffer_problem.buggy_monitor_solution ~capacity:1 ~producers:1 ~consumers:1 ~items_each:2)) in
  [
    row "Monitor solution sat one-slot"
      (mon.Explore.deadlocks = []
      && Refine.sat_ok ~strategy ~problem ~map:Buffer_problem.monitor_correspondence
           mon.Explore.computations)
      (Printf.sprintf "%d computations" (List.length mon.Explore.computations));
    row "CSP solution sat one-slot"
      (csp.Explore.deadlocks = []
      && Refine.sat_ok ~strategy ~problem ~map:Buffer_problem.csp_correspondence
           csp.Explore.computations)
      (Printf.sprintf "%d computations" (List.length csp.Explore.computations));
    row "ADA solution sat one-slot"
      (ada.Explore.deadlocks = []
      && Refine.sat_ok ~strategy ~problem ~map:Buffer_problem.ada_correspondence
           ada.Explore.computations)
      (Printf.sprintf "%d computations" (List.length ada.Explore.computations));
    row "unguarded monitor refuted"
      (not
         (Refine.sat_ok ~strategy ~problem ~map:Buffer_problem.monitor_correspondence
            buggy.Explore.computations))
      "capacity violated";
  ]

let e07_bounded_buffer () =
  List.map
    (fun capacity ->
      let o =
        Explore.explore
          (Monitor.lang (Buffer_problem.monitor_solution ~capacity ~producers:2 ~consumers:1 ~items_each:1))
      in
      let ok =
        o.Explore.deadlocks = []
        && Refine.sat_ok ~strategy
             ~problem:(Buffer_problem.spec ~capacity)
             ~map:Buffer_problem.monitor_correspondence o.Explore.computations
      in
      row
        (Printf.sprintf "Monitor bounded buffer capacity=%d (2 producers)" capacity)
        ok
        (Printf.sprintf "%d computations" (List.length o.Explore.computations)))
    [ 2; 3 ]
  @ [
      (let o =
         Explore.explore
           (Monitor.lang (Buffer_problem.monitor_solution ~capacity:2 ~producers:1 ~consumers:1 ~items_each:3))
       in
       row "capacity-2 implementation refuted against one-slot spec"
         (not
            (Refine.sat_ok ~strategy
               ~problem:(Buffer_problem.spec ~capacity:1)
               ~map:Buffer_problem.monitor_correspondence o.Explore.computations))
         "cross-capacity check");
    ]

(* ------------------------------------------------------------------ *)
(* E8/E9: Readers/Writers                                              *)
(* ------------------------------------------------------------------ *)

let rw_sat monitor version ~readers ~writers =
  let program = Readers_writers.program ~monitor ~readers ~writers in
  let o = Explore.explore (Monitor.lang program) in
  let problem =
    Readers_writers.spec version ~users:(Readers_writers.user_names ~readers ~writers)
  in
  ( Refine.sat_ok ~strategy ~edges:Refine.Actor_paths ~problem
      ~map:Readers_writers.correspondence o.Explore.computations,
    List.length o.Explore.computations,
    List.length o.Explore.deadlocks )

let e08_rw_versions () =
  let expected =
    [
      (* (monitor, version) -> expected SAT *)
      ("paper", Readers_writers.Free_for_all, true);
      ("paper", Readers_writers.Readers_priority, true);
      ("paper", Readers_writers.Writers_priority, false);
      ("paper", Readers_writers.Arrival_order, false);
      ("paper", Readers_writers.No_starved_writers, false);
      ("writers-priority", Readers_writers.Free_for_all, true);
      ("writers-priority", Readers_writers.Readers_priority, false);
      ("writers-priority", Readers_writers.Writers_priority, true);
      ("writers-priority", Readers_writers.No_starved_writers, true);
    ]
  in
  List.map
    (fun (mname, version, expect) ->
      let monitor =
        if String.equal mname "paper" then Readers_writers.paper_monitor
        else Readers_writers.writers_priority_monitor
      in
      let sat, comps, dead = rw_sat monitor version ~readers:2 ~writers:1 in
      row
        (Printf.sprintf "%s vs %s" mname (Readers_writers.version_name version))
        (sat = expect && dead = 0)
        (Printf.sprintf "%s over %d computations (expected %s)"
           (if sat then "SAT" else "VIOLATED")
           comps
           (if expect then "SAT" else "VIOLATED")))
    expected

let e09_readers_priority () =
  let p21, c21, d21 = rw_sat Readers_writers.paper_monitor Readers_writers.Readers_priority ~readers:2 ~writers:1 in
  let p12, c12, d12 = rw_sat Readers_writers.paper_monitor Readers_writers.Readers_priority ~readers:1 ~writers:2 in
  let b12, cb, _ = rw_sat Readers_writers.buggy_monitor Readers_writers.Readers_priority ~readers:1 ~writers:2 in
  let nx, cn, _ = rw_sat Readers_writers.no_exclusion_monitor Readers_writers.Free_for_all ~readers:2 ~writers:1 in
  [
    row "paper monitor guarantees readers-priority (2R+1W)" (p21 && d21 = 0)
      (Printf.sprintf "%d computations, exhaustive schedules" c21);
    row "paper monitor guarantees readers-priority (1R+2W)" (p12 && d12 = 0)
      (Printf.sprintf "%d computations" c12);
    row "inverted-wakeup mutant violates readers-priority" (not b12)
      (Printf.sprintf "%d computations, counterexample found" cb);
    row "no-exclusion mutant violates mutual exclusion" (not nx)
      (Printf.sprintf "%d computations" cn);
  ]

(* ------------------------------------------------------------------ *)
(* E10/E11: distributed applications                                   *)
(* ------------------------------------------------------------------ *)

let e10_db_update () =
  List.map
    (fun sites ->
      let r = Db_update.check ~sites () in
      row
        (Printf.sprintf "db update converges, no deadlock (%d sites)" sites)
        (r.Db_update.converges && r.deadlocks = 0 && r.computations > 0
        && r.exhausted = None)
        (Printf.sprintf "%d computations" r.Db_update.computations))
    [ 2; 3 ]

let life_case name ~width ~height ~generations ~alive =
  let comp = Life.build ~width ~height ~generations ~alive in
  let spec = Life.spec ~width ~height in
  let correct =
    Check.holds spec comp (Life.matches_reference ~width ~height ~generations ~alive)
  in
  let async = Life.asynchrony_witness comp <> None in
  let progress =
    Verdict.ok
      (Check.check_formula
         ~strategy:(Strategy.Sampled { seed = 17; count = 3 })
         spec comp ~name:"progress" (Life.progress ~generations))
  in
  row
    (Printf.sprintf "life %s: correct + asynchronous + progress" name)
    (correct && async && progress)
    (Printf.sprintf "%dx%d, %d generations, %d events" width height generations
       (Computation.n_events comp))

let e11_life () =
  [
    life_case "blinker" ~width:4 ~height:4 ~generations:2 ~alive:[ (1, 0); (1, 1); (1, 2) ];
    life_case "block" ~width:4 ~height:4 ~generations:2
      ~alive:[ (1, 1); (1, 2); (2, 1); (2, 2) ];
    life_case "glider" ~width:6 ~height:6 ~generations:4
      ~alive:[ (1, 0); (2, 1); (0, 2); (1, 2); (2, 2) ];
  ]

(* ------------------------------------------------------------------ *)
(* E12: threads                                                        *)
(* ------------------------------------------------------------------ *)

let e12_threads () =
  let program =
    Readers_writers.program ~monitor:Readers_writers.paper_monitor ~readers:1 ~writers:1
  in
  let o = Explore.explore (Monitor.lang program) in
  let problem =
    Readers_writers.spec Readers_writers.Free_for_all
      ~users:(Readers_writers.user_names ~readers:1 ~writers:1)
  in
  let ok =
    List.for_all
      (fun comp ->
        match
          Refine.project ~edges:Refine.Actor_paths Readers_writers.correspondence comp
            ~elements:problem.Spec.elements ~groups:problem.Spec.groups
        with
        | Error _ -> false
        | Ok p ->
            let labelled = Spec.label_threads problem p in
            let instances = Thread.instances labelled Readers_writers.thread_name in
            List.length instances = 2
            && List.for_all
                 (fun i ->
                   List.length
                     (Thread.events_of_instance labelled Readers_writers.thread_name i)
                   = 6)
                 instances)
      o.Explore.computations
  in
  [
    row "piRW labels each transaction with a 6-event chain" ok
      (Printf.sprintf "over %d computations" (List.length o.Explore.computations));
  ]

(* ------------------------------------------------------------------ *)
(* E13: conciseness proxies                                            *)
(* ------------------------------------------------------------------ *)

let e13_conciseness () =
  let count name spec = row name true (Printf.sprintf "%d restrictions" (Spec.restriction_count spec)) in
  let rw_program =
    Readers_writers.program ~monitor:Readers_writers.paper_monitor ~readers:2 ~writers:1
  in
  [
    count "Monitor language spec (RW program)" (Monitor.language_spec rw_program);
    count "CSP language spec (buffer pipeline)"
      (Csp.language_spec (Buffer_problem.csp_solution ~capacity:1 ~producers:1 ~consumers:1 ~items_each:1));
    count "ADA language spec (buffer)"
      (Ada.language_spec (Buffer_problem.ada_solution ~capacity:1 ~producers:1 ~consumers:1 ~items_each:1));
    count "One-slot buffer problem" (Buffer_problem.spec ~capacity:1);
    count "Readers/Writers problem (readers-priority)"
      (Readers_writers.spec Readers_writers.Readers_priority
         ~users:(Readers_writers.user_names ~readers:2 ~writers:1));
  ]

(* ------------------------------------------------------------------ *)
(* E14: strategy ablation                                              *)
(* ------------------------------------------------------------------ *)

(* [k] independent 2-chains: 2k events, known run-space sizes. *)
let parallel_chains k =
  let b = Build.create () in
  for i = 0 to k - 1 do
    let a = Build.emit b ~element:(Printf.sprintf "C%d" i) ~klass:"Tick" () in
    ignore (Build.emit_enabled_by b ~by:a ~element:(Printf.sprintf "C%d" i) ~klass:"Tick" ())
  done;
  Build.finish b

let e14_ablation () =
  let size_rows =
    List.map
      (fun k ->
        let comp = parallel_chains k in
        let p = Computation.temporal_exn comp in
        let lin = Poset.count_linear_extensions ~cap:10_000_000 p in
        let vhs = Linext.count_step_sequences ~cap:10_000_000 p in
        row
          (Printf.sprintf "run-space growth, %d parallel 2-chains (%d events)" k (2 * k))
          (vhs >= lin && lin > 0)
          (Printf.sprintf "%d linearizations vs %d vhs runs" lin vhs))
      [ 2; 3; 4 ]
  in
  (* Every run passes only through down-sets: k chains of two have 3^k. *)
  let lattice_row =
    let comp = parallel_chains 4 in
    let p = Computation.temporal_exn comp in
    let histories = History.count comp in
    row "history lattice, 4 parallel 2-chains (8 events)" (histories = 81)
      (Printf.sprintf "%d histories vs %d linearizations vs %d vhs runs" histories
         (Poset.count_linear_extensions p) (Linext.count_step_sequences p))
  in
  (* A fixed RW computation with modest concurrency. *)
  let program =
    Readers_writers.program ~monitor:Readers_writers.paper_monitor ~readers:2 ~writers:1
  in
  let comp = Explore.run_one ~seed:5 (Monitor.lang program) in
  let spec = Monitor.language_spec program in
  let prop =
    (* Temporal sanity property: once a Rel occurred, eventually another
       Acq occurs or the run ends — use a simple liveness check that all
       strategies agree on. *)
    Formula.(eventually (exists [ ("x", Cls "FinishWrite") ] (occurred "x")))
  in
  (* <> is not exact on the lattice for vhs runs, so this check
     enumerates them. *)
  let v1 =
    Verdict.ok
      (Check.check_formula ~strategy:(Strategy.Exhaustive_vhs (Some 5_000)) spec comp
         ~name:"p" prop)
  in
  let agree =
    let v2 =
      Verdict.ok
        (Check.check_formula ~strategy:(Strategy.Linearizations (Some 5_000)) spec comp
           ~name:"p" prop)
    in
    let v3 =
      Verdict.ok
        (Check.check_formula ~strategy:(Strategy.Sampled { seed = 3; count = 50 }) spec comp
           ~name:"p" prop)
    in
    v1 && v2 && v3
  in
  (* The lattice's verdict against both enumerations, up to the cap. *)
  let lattice_agrees =
    let on_lattice = Lattice.refute (Option.get (Lattice.build comp)) prop = None in
    let linearizations =
      (Strategy.enumerate (Strategy.Linearizations (Some 5_000)) comp).runs
    in
    on_lattice = v1
    && on_lattice = List.for_all (fun run -> Eval.eval_run run prop) linearizations
  in
  size_rows
  @ [
      lattice_row;
      row "strategies agree on liveness property" agree
        (Printf.sprintf "exhaustive-vhs = linearizations = sampled (%d-event RW computation)"
           (Computation.n_events comp));
      row "lattice agrees with both enumerations on liveness property" lattice_agrees
        (Printf.sprintf "%d histories (%d-event RW computation)"
           (History.count comp) (Computation.n_events comp));
    ]

(* ------------------------------------------------------------------ *)
(* E15: CSP and ADA Readers/Writers                                    *)
(* ------------------------------------------------------------------ *)

let e15_rw_distributed () =
  let module RWD = Rw_distributed in
  let sat_csp program ~readers:rn ~writers:wn =
    let o = Explore.explore ~max_configs:10_000_000 (Csp.lang program) in
    let rnames, wnames = RWD.user_names ~readers:rn ~writers:wn in
    let problem = RWD.spec ~readers:rnames ~writers:wnames in
    ( Refine.sat_ok ~strategy ~problem ~map:RWD.csp_correspondence o.Explore.computations,
      List.length o.Explore.computations,
      List.length o.Explore.deadlocks )
  in
  let sat_ada program ~readers:rn ~writers:wn =
    let o = Explore.explore ~max_configs:10_000_000 (Ada.lang program) in
    let rnames, wnames = RWD.user_names ~readers:rn ~writers:wn in
    let problem = RWD.spec ~readers:rnames ~writers:wnames in
    ( Refine.sat_ok ~strategy ~problem ~map:RWD.ada_correspondence o.Explore.computations,
      List.length o.Explore.computations,
      List.length o.Explore.deadlocks )
  in
  let c1, cc1, cd1 = sat_csp (RWD.csp_program ~readers:1 ~writers:1) ~readers:1 ~writers:1 in
  let c0, _, _ =
    sat_csp (RWD.csp_program_no_priority ~readers:1 ~writers:1) ~readers:1 ~writers:1
  in
  let a1, ac1, ad1 = sat_ada (RWD.ada_program ~readers:1 ~writers:1) ~readers:1 ~writers:1 in
  let a0, _, _ =
    sat_ada (RWD.ada_program_no_priority ~readers:1 ~writers:1) ~readers:1 ~writers:1
  in
  [
    row "CSP solution sat readers-priority (1R+1W)" (c1 && cd1 = 0)
      (Printf.sprintf "%d computations" cc1);
    row "CSP priority-less controller refuted" (not c0) "counterexample found";
    row "ADA solution sat readers-priority (1R+1W)" (a1 && ad1 = 0)
      (Printf.sprintf "%d computations" ac1);
    row "ADA guard without 'Count refuted" (not a0) "counterexample found";
  ]

(* ------------------------------------------------------------------ *)
(* E16: dynamic group structures (footnote 5)                          *)
(* ------------------------------------------------------------------ *)

let e16_dynamic_groups () =
  let dyn_spec groups =
    Spec.make "dyn"
      ~elements:
        [ ("A", tick_etype); ("B", tick_etype);
          (Dyngroup.structure_element, Dyngroup.etype) ]
      ~groups ()
  in
  let hidden = [ Group.make "G" [ Group.Elem "B" ] ] in
  (* A gains access to the hidden B only after a membership-change event. *)
  let granted =
    let b = Build.create () in
    let s =
      Build.emit b ~element:Dyngroup.structure_element ~klass:"AddElem"
        ~params:[ ("group", Value.Str "G"); ("element", Value.Str "A") ] ()
    in
    let a = Build.emit_enabled_by b ~by:s ~element:"A" ~klass:"Tick" () in
    let _ = Build.emit_enabled_by b ~by:a ~element:"B" ~klass:"Tick" () in
    Build.finish b
  in
  let denied =
    let b = Build.create () in
    let a = Build.emit b ~element:"A" ~klass:"Tick" () in
    let _ = Build.emit_enabled_by b ~by:a ~element:"B" ~klass:"Tick" () in
    Build.finish b
  in
  [
    row "membership change grants access (dynamic check)"
      (Dyngroup.check_access (dyn_spec hidden) granted = []
      && not (Legality.is_legal (dyn_spec hidden) granted))
      "statically illegal, dynamically legal";
    row "without the change the enable is rejected"
      (Dyngroup.check_access (dyn_spec hidden) denied <> [])
      "1 violating edge";
    row "computations grow monotonically (structure events are ordinary events)"
      (Gem_logic.History.count granted = 1 + Computation.n_events granted)
      "chain: one history per prefix";
  ]

(* ------------------------------------------------------------------ *)

let all =
  [
    ("E1", "legality restrictions (paper §3–5)", e01_legality);
    ("E2", "histories and valid history sequences (§7)", e02_histories);
    ("E3", "GEM description of the Monitor primitive (§9)", e03_monitor_language);
    ("E4", "GEM description of CSP (§8.2)", e04_csp_language);
    ("E5", "GEM description of ADA tasking", e05_ada_language);
    ("E6", "One-Slot Buffer: 3 verified solutions + mutant (§11)", e06_one_slot_buffer);
    ("E7", "Bounded Buffer (§11)", e07_bounded_buffer);
    ("E8", "five Readers/Writers versions (§8.3, §11)", e08_rw_versions);
    ("E9", "reader's priority theorem, mechanized (§9)", e09_readers_priority);
    ("E10", "distributed database update (§11)", e10_db_update);
    ("E11", "asynchronous Game of Life (§11)", e11_life);
    ("E12", "thread labelling (§8.3)", e12_threads);
    ("E13", "specification conciseness proxies (§1)", e13_conciseness);
    ("E14", "checking-strategy ablation", e14_ablation);
    ("E15", "CSP and ADA Readers/Writers solutions (§11)", e15_rw_distributed);
    ("E16", "dynamic group structures (footnote 5)", e16_dynamic_groups);
  ]

let run_all () =
  let all_pass = ref true in
  List.iter
    (fun (id, title, kernel) ->
      Printf.printf "\n%s — %s\n" id title;
      let rows = kernel () in
      List.iter
        (fun r ->
          if not r.pass then all_pass := false;
          Printf.printf "  [%s] %-62s %s\n%!" (if r.pass then "PASS" else "FAIL") r.label
            r.detail)
        rows)
    all;
  !all_pass
