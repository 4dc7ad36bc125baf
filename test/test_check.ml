(* Unit tests for the checker: strategies, verdicts, temporal checking
   and the sat refinement projection. *)

module V = Gem_model.Value
module Build = Gem_model.Build
module C = Gem_model.Computation
module Etype = Gem_spec.Etype
module Spec = Gem_spec.Spec
module F = Gem_logic.Formula
module Budget = Gem_check.Budget
module Strategy = Gem_check.Strategy
module Check = Gem_check.Check
module Verdict = Gem_check.Verdict
module Refine = Gem_check.Refine

let check = Alcotest.check

let ab_etype =
  Etype.make "AB"
    ~events:
      [ { Etype.klass = "A"; schema = [] }; { Etype.klass = "B"; schema = [] };
        { Etype.klass = "C"; schema = [] }; { Etype.klass = "D"; schema = [] } ]
    ()

let diamond_spec = Spec.make "diamond"
    ~elements:[ ("E1", ab_etype); ("E2", ab_etype); ("E3", ab_etype); ("E4", ab_etype) ] ()

let diamond () =
  let b = Build.create () in
  let e1 = Build.emit b ~element:"E1" ~klass:"A" () in
  let e2 = Build.emit_enabled_by b ~by:e1 ~element:"E2" ~klass:"B" () in
  let e3 = Build.emit_enabled_by b ~by:e1 ~element:"E3" ~klass:"C" () in
  let e4 = Build.emit_enabled_by b ~by:e2 ~element:"E4" ~klass:"D" () in
  Build.enable b e3 e4;
  Build.finish b

(* ------------------------------------------------------------------ *)
(* Strategies                                                          *)
(* ------------------------------------------------------------------ *)

let test_strategy_counts () =
  let comp = diamond () in
  check Alcotest.int "exhaustive = 3 runs" 3
    (List.length (Strategy.runs (Strategy.Exhaustive_vhs None) comp));
  check Alcotest.int "linearizations = 2" 2
    (List.length (Strategy.runs (Strategy.Linearizations None) comp));
  check Alcotest.int "sampled = count" 5
    (List.length (Strategy.runs (Strategy.Sampled { seed = 1; count = 5 }) comp))

let test_sampled_deterministic () =
  (* Sampling is a function of the seed: repeating a check must repeat its
     exact run sample, and distinct seeds on a wide computation (a
     6-antichain, 720 linear extensions) must actually vary the sample. *)
  let render runs =
    String.concat "|" (List.map (Format.asprintf "%a" Gem_logic.Vhs.pp) runs)
  in
  let comp = diamond () in
  let sample seed =
    render (Strategy.runs (Strategy.Sampled { seed; count = 5 }) comp)
  in
  check Alcotest.string "same seed, same runs" (sample 7) (sample 7);
  let wide =
    let b = Build.create () in
    for i = 0 to 5 do
      ignore (Build.emit b ~element:(Printf.sprintf "E%d" i) ~klass:"A" ())
    done;
    Build.finish b
  in
  let wide_sample seed =
    render (Strategy.runs (Strategy.Sampled { seed; count = 4 }) wide)
  in
  check Alcotest.string "wide: same seed, same runs" (wide_sample 1) (wide_sample 1);
  check Alcotest.bool "wide: different seeds, different samples" false
    (String.equal (wide_sample 1) (wide_sample 2))

let test_strategy_completeness () =
  let comp = diamond () in
  check Alcotest.bool "exhaustive complete" true
    (Strategy.is_complete (Strategy.Exhaustive_vhs None) comp);
  check Alcotest.bool "capped below" false
    (Strategy.is_complete (Strategy.Exhaustive_vhs (Some 2)) comp);
  check Alcotest.bool "capped above" true
    (Strategy.is_complete (Strategy.Exhaustive_vhs (Some 10)) comp);
  check Alcotest.bool "linearizations never complete" false
    (Strategy.is_complete (Strategy.Linearizations None) comp);
  check Alcotest.bool "sampled never complete" false
    (Strategy.is_complete (Strategy.Sampled { seed = 1; count = 5 }) comp)

(* ------------------------------------------------------------------ *)
(* Check                                                               *)
(* ------------------------------------------------------------------ *)

let test_check_immediate () =
  let comp = diamond () in
  let good = F.forall [ ("a", F.Cls "A"); ("d", F.Cls "D") ] (F.temp_lt "a" "d") in
  let bad = F.forall [ ("b", F.Cls "B"); ("c", F.Cls "C") ] (F.temp_lt "b" "c") in
  check Alcotest.bool "good" true (Check.holds diamond_spec comp good);
  check Alcotest.bool "bad" false (Check.holds diamond_spec comp bad)

let test_check_temporal_all_runs () =
  let comp = diamond () in
  (* B before C in SOME run but not all: a henceforth-style property that
     depends on the run must fail. *)
  let b_never_alone =
    F.(henceforth
         (forall [ ("b", Cls "B") ]
            (occurred "b" ==> exists [ ("c", Cls "C") ] (occurred "c"))))
  in
  check Alcotest.bool "fails on some run" false
    (Check.holds diamond_spec comp b_never_alone);
  (* Eventually D holds on every complete run. *)
  check Alcotest.bool "eventually D" true
    (Check.holds diamond_spec comp
       F.(eventually (exists [ ("d", Cls "D") ] (occurred "d"))))

let test_check_verdict_contents () =
  let comp = diamond () in
  let v =
    Check.check_formula diamond_spec comp ~name:"bogus"
      (F.henceforth (F.exists [ ("d", F.Cls "D") ] (F.occurred "d")))
  in
  check Alcotest.bool "failed" false (Verdict.ok v);
  (match v.Verdict.failures with
  | [ f ] ->
      check Alcotest.string "name" "bogus" f.Verdict.restriction;
      check Alcotest.bool "witness run" true (f.Verdict.witness <> None)
  | _ -> Alcotest.fail "expected one failure");
  check Alcotest.bool "counted runs" true (v.Verdict.runs_checked >= 1)

let test_check_illegal_skips_restrictions () =
  let b = Build.create () in
  let _ = Build.emit b ~element:"Zed" ~klass:"A" () in
  let v = Check.check diamond_spec (Build.finish b) in
  check Alcotest.bool "not ok" false (Verdict.ok v);
  check Alcotest.bool "legality reported" true (v.Verdict.legality <> []);
  check Alcotest.bool "no restriction failures" true (v.Verdict.failures = [])

let test_check_strategy_ablation_soundness () =
  (* Anything exhaustive-vhs validates, linearizations must also validate
     (they are a subset of runs). *)
  let comp = diamond () in
  let prop =
    F.(henceforth
         (forall [ ("d", Cls "D") ]
            (occurred "d" ==> exists [ ("b", Cls "B") ] (occurred "b"))))
  in
  let ok_vhs = Check.holds ~strategy:(Strategy.Exhaustive_vhs None) diamond_spec comp prop in
  let ok_lin = Check.holds ~strategy:(Strategy.Linearizations None) diamond_spec comp prop in
  check Alcotest.bool "vhs ok" true ok_vhs;
  check Alcotest.bool "lin ok (subset)" true ok_lin

(* A property distinguishing vhs-exhaustive from linearizations: "some
   history separates B from C" holds on every linearization (events are
   added one at a time) but fails on the run whose step adds B and C
   simultaneously. This is the paper's point that histories may grow by
   concurrent bundles. *)
let test_check_simultaneity_distinguishes () =
  let comp = diamond () in
  let separated =
    F.(eventually
         (exists [ ("b", Cls "B") ]
            (occurred "b" &&& neg (exists [ ("c", Cls "C") ] (occurred "c")))
          ||| exists [ ("c", Cls "C") ]
                (occurred "c" &&& neg (exists [ ("b", Cls "B") ] (occurred "b")))))
  in
  check Alcotest.bool "linearizations blind" true
    (Check.holds ~strategy:(Strategy.Linearizations None) diamond_spec comp separated);
  check Alcotest.bool "vhs catches the joint step" false
    (Check.holds ~strategy:(Strategy.Exhaustive_vhs None) diamond_spec comp separated)

(* On the history lattice <>p means "p on every run" (AF), not "on some
   run": B strictly before C happens on one of the diamond's two
   linearizations only. The lattice refutes it with a witness that the
   run semantics refutes too, and counts that one run. *)
let test_check_lattice_eventually_inevitable () =
  let comp = diamond () in
  let b_before_c =
    F.(eventually
         (exists [ ("b", Cls "B") ] (occurred "b")
          &&& neg (exists [ ("c", Cls "C") ] (occurred "c"))))
  in
  let v =
    Check.check_formula ~strategy:(Strategy.Linearizations None) diamond_spec comp
      ~name:"b-first" b_before_c
  in
  check Alcotest.bool "falsified" false (Verdict.ok v);
  check Alcotest.int "the witness is the one run checked" 1 v.Verdict.runs_checked;
  match v.Verdict.failures with
  | [ { Verdict.witness = Some run; _ } ] ->
      check Alcotest.bool "run semantics refutes the witness" false
        (Gem_logic.Eval.eval_run run b_before_c)
  | _ -> Alcotest.fail "expected one failure with a witness"

(* ------------------------------------------------------------------ *)
(* Refinement                                                          *)
(* ------------------------------------------------------------------ *)

(* Program: P emits Lo;Hi;Lo;Hi at two elements with glue events; problem:
   only Hi events matter, renamed to K at element "k". *)
let refine_program () =
  let b = Build.create () in
  let l0 = Build.emit b ~element:"P" ~klass:"Lo" () in
  let h0 = Build.emit_enabled_by b ~by:l0 ~element:"P" ~klass:"Hi"
      ~params:[ ("n", V.Int 0) ] () in
  let l1 = Build.emit_enabled_by b ~by:h0 ~element:"P" ~klass:"Lo" () in
  let _ = Build.emit_enabled_by b ~by:l1 ~element:"P" ~klass:"Hi"
      ~params:[ ("n", V.Int 1) ] () in
  Build.finish b

let k_etype = Etype.make "K" ~events:[ { Etype.klass = "K"; schema = [ ("n", Etype.P_int) ] } ] ()

let problem = Spec.make "hi-problem" ~elements:[ ("k", k_etype) ]
    ~restrictions:
      [ ("ordered",
         F.(forall [ ("a", Cls "K"); ("b", Cls "K") ]
              (Atom (Cmp (Lt, Index "a", Index "b")) ==> temp_lt "a" "b")) ) ]
    ()

let hi_map : Refine.correspondence =
 fun comp h ->
  let e = C.event comp h in
  if Gem_model.Event.has_class e "Hi" then
    Some { Refine.to_element = "k"; to_class = "K";
           to_params = [ ("n", Gem_model.Event.param e "n") ] }
  else None

let test_refine_project () =
  match Refine.project hi_map (refine_program ()) ~elements:problem.Spec.elements ~groups:[] with
  | Error _ -> Alcotest.fail "projection failed"
  | Ok p ->
      check Alcotest.int "2 events" 2 (C.n_events p);
      check Alcotest.(list int) "at k" [ 0; 1 ] (C.events_at p "k");
      check Alcotest.bool "enable through glue" true (C.enables p 0 1);
      check Alcotest.bool "indices" true
        ((C.event p 0).Gem_model.Event.id.index = 0
        && (C.event p 1).Gem_model.Event.id.index = 1)

let test_refine_sat () =
  check Alcotest.bool "sat" true
    (Refine.sat_ok ~problem ~map:hi_map [ refine_program () ])

let test_refine_unserializable () =
  (* Two concurrent Hi events mapped to one problem element. *)
  let b = Build.create () in
  let _ = Build.emit b ~element:"P" ~klass:"Hi" ~params:[ ("n", V.Int 0) ] () in
  let _ = Build.emit b ~element:"Q" ~klass:"Hi" ~params:[ ("n", V.Int 1) ] () in
  match Refine.project hi_map (Build.finish b) ~elements:problem.Spec.elements ~groups:[] with
  | Error (Refine.Unserializable _) -> ()
  | Error Refine.Cyclic_program -> Alcotest.fail "wrong error"
  | Ok _ -> Alcotest.fail "expected Unserializable"

let test_refine_actor_rule () =
  (* Same structure, but the glue event belongs to another actor: the
     Actor_paths rule must not produce the enable edge, Causal_paths must. *)
  let b = Build.create () in
  let h0 = Build.emit b ~element:"P" ~klass:"Hi" ~params:[ ("n", V.Int 0) ] () in
  let glue = Build.emit_enabled_by b ~by:h0 ~element:"Q" ~klass:"Lo" () in
  let h1 = Build.emit_enabled_by b ~by:glue ~element:"P" ~klass:"Hi"
      ~params:[ ("n", V.Int 1) ] () in
  ignore h1;
  let comp =
    C.map_events
      (fun _ e ->
        let actor = if Gem_model.Event.has_class e "Hi" then "P" else "Q" in
        Gem_model.Event.make ~actor ~element:e.Gem_model.Event.id.element
          ~index:e.Gem_model.Event.id.index ~klass:e.Gem_model.Event.klass
          e.Gem_model.Event.params)
      (Build.finish b)
  in
  let project edges =
    match Refine.project ~edges hi_map comp ~elements:problem.Spec.elements ~groups:[] with
    | Ok p -> p
    | Error _ -> Alcotest.fail "projection failed"
  in
  check Alcotest.bool "causal has edge" true (C.enables (project Refine.Causal_paths) 0 1);
  check Alcotest.bool "actor drops edge" false (C.enables (project Refine.Actor_paths) 0 1)

let test_refine_sat_reports_indices () =
  let results = Refine.sat ~problem ~map:hi_map [ refine_program (); refine_program () ] in
  check Alcotest.(list int) "indices" [ 0; 1 ] (List.map fst results);
  check Alcotest.bool "all ok" true (List.for_all (fun (_, v) -> Verdict.ok v) results)

(* ------------------------------------------------------------------ *)
(* Budgets and three-valued verdicts                                   *)
(* ------------------------------------------------------------------ *)

let eventually_d = F.(eventually (forall [ ("d", Cls "D") ] (occurred "d")))

let test_enumerate_truncation () =
  (* The diamond has 3 complete runs and 2 linearizations. *)
  let comp = diamond () in
  let e = Strategy.enumerate (Strategy.Exhaustive_vhs (Some 2)) comp in
  check Alcotest.(option int) "cut at 2" (Some 2) e.Strategy.truncated_at;
  check Alcotest.int "kept 2 runs" 2 (List.length e.Strategy.runs);
  check Alcotest.bool "incomplete" false e.Strategy.complete;
  let e = Strategy.enumerate (Strategy.Exhaustive_vhs (Some 10)) comp in
  check Alcotest.(option int) "cap above: not cut" None e.Strategy.truncated_at;
  check Alcotest.bool "complete" true e.Strategy.complete;
  (* All 2 linearizations fit under the cap: nothing was dropped, but
     coverage is still strategy-relative, never absolute. *)
  let e = Strategy.enumerate (Strategy.Linearizations (Some 2)) comp in
  check Alcotest.(option int) "linearizations not cut" None e.Strategy.truncated_at;
  check Alcotest.bool "linearizations incomplete" false e.Strategy.complete

let test_enumerate_budget_tightens () =
  let comp = diamond () in
  let budget = Budget.make ~max_runs:1 () in
  let e = Strategy.enumerate ~budget (Strategy.Exhaustive_vhs None) comp in
  check Alcotest.(option int) "budget cap wins" (Some 1) e.Strategy.truncated_at;
  check Alcotest.int "one run" 1 (List.length e.Strategy.runs)

let test_verdict_inconclusive_on_run_cap () =
  let comp = diamond () in
  let v =
    Check.check_formula ~strategy:(Strategy.Exhaustive_vhs None)
      ~budget:(Budget.make ~max_runs:1 ()) diamond_spec comp ~name:"p" eventually_d
  in
  (match Verdict.status v with
  | Verdict.Inconclusive (Budget.Run_cap 1) -> ()
  | s -> Alcotest.failf "expected Inconclusive (Run_cap 1), got %a" Verdict.pp_status s);
  check Alcotest.bool "seed ok-meaning unchanged" true (Verdict.ok v);
  check Alcotest.int "exit code 2" 2 (Verdict.exit_code (Verdict.status v));
  check Alcotest.bool "coverage partial" false v.Verdict.coverage.Budget.runs_complete

let test_verdict_overall () =
  let comp = diamond () in
  let unlimited = Check.check_formula diamond_spec comp ~name:"p" eventually_d in
  let falsified =
    Check.check_formula diamond_spec comp ~name:"never" F.(neg (henceforth True))
  in
  let inconclusive =
    Check.check_formula ~strategy:(Strategy.Exhaustive_vhs None)
      ~budget:(Budget.make ~max_runs:1 ()) diamond_spec comp ~name:"p" eventually_d
  in
  check Alcotest.bool "verified" true (Verdict.overall [ unlimited ] = Verdict.Verified);
  check Alcotest.bool "inconclusive taints" true
    (match Verdict.overall [ unlimited; inconclusive ] with
    | Verdict.Inconclusive _ -> true
    | _ -> false);
  (* Falsification is sound under truncation: it wins over Inconclusive. *)
  check Alcotest.bool "falsified wins" true
    (Verdict.overall [ inconclusive; falsified ] = Verdict.Falsified);
  check Alcotest.int "exit codes" 0 (Verdict.exit_code Verdict.Verified);
  check Alcotest.int "exit codes" 1 (Verdict.exit_code (Verdict.status falsified))

let () =
  Alcotest.run "gem_check"
    [
      ( "strategy",
        [
          Alcotest.test_case "counts" `Quick test_strategy_counts;
          Alcotest.test_case "sampled-deterministic" `Quick test_sampled_deterministic;
          Alcotest.test_case "completeness" `Quick test_strategy_completeness;
        ] );
      ( "check",
        [
          Alcotest.test_case "immediate" `Quick test_check_immediate;
          Alcotest.test_case "temporal-all-runs" `Quick test_check_temporal_all_runs;
          Alcotest.test_case "verdict" `Quick test_check_verdict_contents;
          Alcotest.test_case "illegal-skips" `Quick test_check_illegal_skips_restrictions;
          Alcotest.test_case "ablation-soundness" `Quick test_check_strategy_ablation_soundness;
          Alcotest.test_case "simultaneity" `Quick test_check_simultaneity_distinguishes;
          Alcotest.test_case "lattice-eventually" `Quick
            test_check_lattice_eventually_inevitable;
        ] );
      ( "budget",
        [
          Alcotest.test_case "enumerate-truncation" `Quick test_enumerate_truncation;
          Alcotest.test_case "budget-tightens" `Quick test_enumerate_budget_tightens;
          Alcotest.test_case "inconclusive-run-cap" `Quick test_verdict_inconclusive_on_run_cap;
          Alcotest.test_case "overall" `Quick test_verdict_overall;
        ] );
      ( "refine",
        [
          Alcotest.test_case "project" `Quick test_refine_project;
          Alcotest.test_case "sat" `Quick test_refine_sat;
          Alcotest.test_case "unserializable" `Quick test_refine_unserializable;
          Alcotest.test_case "actor-rule" `Quick test_refine_actor_rule;
          Alcotest.test_case "sat-indices" `Quick test_refine_sat_reports_indices;
        ] );
    ]
