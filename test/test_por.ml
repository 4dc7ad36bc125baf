(* Differential harness proving the sleep-set partial-order reduction
   sound. Every lib/problems workload is explored with POR on and off and
   must produce identical completed/deadlocked computation multisets up to
   commuting-step equivalence (equal partial-order fingerprints — two
   interleavings that differ only in the order of independent steps yield
   the same computation, hence the same fingerprint) and byte-identical
   verdicts. qcheck properties extend the evidence to random loop-free CSP
   programs, and check the commutation fact the reduction rests on: firing
   two footprint-disjoint moves in either order reaches configurations
   with equal canonical keys.

   The one workload excluded from the uncapped differential is rwd-ada:
   its state space is cyclic, and without POR (no memoization) the plain
   DFS enumerates paths, which is intractable; it is compared under a
   shared configuration cap instead. *)

module Explore = Gem_lang.Explore
module Monitor = Gem_lang.Monitor
module Csp = Gem_lang.Csp
module Ada = Gem_lang.Ada
module E = Gem_lang.Expr
module V = Gem_model.Value
module RW = Gem_problems.Readers_writers
module Buffer = Gem_problems.Buffer
module Rwd = Gem_problems.Rw_distributed
module Db = Gem_problems.Db_update
module Budget = Gem_check.Budget
module Refine = Gem_check.Refine
module Verdict = Gem_check.Verdict
module Strategy = Gem_check.Strategy
module Gen_csp = Gem_fuzz.Gen

let check = Alcotest.check
let strategy = Strategy.Linearizations (Some 200)

(* The two engines compared: sleep sets (POR on) and plain DFS (off). *)
let sleep = Explore.Sleep_sets
let none = Explore.No_reduction

(* Sorted fingerprint multiset of a list of computations. *)
let fps comps = List.sort compare (List.map Explore.fingerprint comps)

let reason_opt = Option.map Budget.reason_keyword

(* ------------------------------------------------------------------ *)
(* Workload differentials: POR on vs off                               *)
(* ------------------------------------------------------------------ *)

let assert_same_outcomes name (c1, d1, x1) (c2, d2, x2) =
  check Alcotest.(list string) (name ^ ": completed multiset") (fps c1) (fps c2);
  check Alcotest.(list string) (name ^ ": deadlock multiset") (fps d1) (fps d2);
  check
    Alcotest.(option string)
    (name ^ ": exhaustion") (reason_opt x1) (reason_opt x2)

let lang_diff name lang =
  let run reduction =
    let o = Explore.explore ~reduction lang in
    (o.Explore.computations, o.Explore.deadlocks, o.Explore.exhausted)
  in
  assert_same_outcomes name (run sleep) (run none)

let mon_diff name prog = lang_diff name (Monitor.lang prog)
let csp_diff name prog = lang_diff name (Csp.lang prog)
let ada_diff name prog = lang_diff name (Ada.lang prog)

let test_rw_monitor_workloads () =
  mon_diff "rw-paper-1r1w" (RW.program ~monitor:RW.paper_monitor ~readers:1 ~writers:1);
  mon_diff "rw-paper-2r1w" (RW.program ~monitor:RW.paper_monitor ~readers:2 ~writers:1);
  mon_diff "rw-no-exclusion-2r1w"
    (RW.program ~monitor:RW.no_exclusion_monitor ~readers:2 ~writers:1);
  mon_diff "rw-buggy-1r2w" (RW.program ~monitor:RW.buggy_monitor ~readers:1 ~writers:2)

let test_buffer_workloads () =
  mon_diff "buffer-monitor-1p1c2i"
    (Buffer.monitor_solution ~capacity:1 ~producers:1 ~consumers:1 ~items_each:2);
  mon_diff "buffer-buggy-monitor-1p1c2i"
    (Buffer.buggy_monitor_solution ~capacity:1 ~producers:1 ~consumers:1 ~items_each:2);
  csp_diff "buffer-csp-1p1c2i"
    (Buffer.csp_solution ~capacity:1 ~producers:1 ~consumers:1 ~items_each:2);
  ada_diff "buffer-ada-1p1c2i"
    (Buffer.ada_solution ~capacity:1 ~producers:1 ~consumers:1 ~items_each:2)

let test_distributed_workloads () =
  csp_diff "rwd-csp-1r1w" (Rwd.csp_program ~readers:1 ~writers:1);
  csp_diff "rwd-csp-no-priority-1r1w" (Rwd.csp_program_no_priority ~readers:1 ~writers:1);
  csp_diff "db-update-2-sites" (Db.program ~sites:2)

let test_db_report_agrees () =
  let on = Db.check ~reduction:sleep ~sites:2 ()
  and off = Db.check ~reduction:none ~sites:2 () in
  check Alcotest.int "computations" on.Db.computations off.Db.computations;
  check Alcotest.int "deadlocks" on.Db.deadlocks off.Db.deadlocks;
  check Alcotest.bool "converges" on.Db.converges off.Db.converges;
  check Alcotest.bool "both complete" true
    (on.Db.exhausted = None && off.Db.exhausted = None)

(* rwd-ada's cyclic state space is only tractable with POR; compare the
   two modes under a shared cap: both must degrade to the same reason. *)
let test_rwd_ada_capped () =
  let prog = Rwd.ada_program ~readers:1 ~writers:1 in
  let run reduction = (Explore.explore ~reduction ~max_configs:500 (Ada.lang prog)).Explore.exhausted in
  check
    Alcotest.(option string)
    "both report config-budget" (Some "config-budget") (reason_opt (run sleep));
  check
    Alcotest.(option string)
    "POR off agrees" (reason_opt (run sleep)) (reason_opt (run none))

(* A cap too small for either mode: the degradation status must be the
   same three-valued outcome POR on and off. *)
let test_budget_truncation_agrees () =
  let prog = RW.program ~monitor:RW.paper_monitor ~readers:1 ~writers:1 in
  let run reduction =
    (Explore.explore ~reduction ~max_configs:30 (Monitor.lang prog)).Explore.exhausted
  in
  check
    Alcotest.(option string)
    "POR on truncates" (Some "config-budget") (reason_opt (run sleep));
  check
    Alcotest.(option string)
    "POR off matches" (reason_opt (run sleep)) (reason_opt (run none))

(* ------------------------------------------------------------------ *)
(* Byte-identical verdicts                                             *)
(* ------------------------------------------------------------------ *)

(* Render the whole verdict list against the problem spec, computations
   sorted canonically so discovery order cannot leak into the text. *)
let render_sat ?edges ~problem ~map comps =
  let sorted =
    List.sort
      (fun a b -> compare (Explore.fingerprint a) (Explore.fingerprint b))
      comps
  in
  let verdicts = Refine.sat ~strategy ?edges ~problem ~map sorted in
  String.concat "\n"
    (List.map
       (fun (i, v) ->
         Printf.sprintf "%d %s %s" i
           (Verdict.status_keyword (Verdict.status v))
           (Format.asprintf "%a" (Verdict.pp None) v))
       verdicts)

let test_verdicts_byte_identical () =
  let rw_case name monitor version ~readers ~writers =
    let prog = RW.program ~monitor ~readers ~writers in
    let problem = RW.spec version ~users:(RW.user_names ~readers ~writers) in
    let render reduction =
      let o = Explore.explore ~reduction (Monitor.lang prog) in
      render_sat ~edges:Refine.Actor_paths ~problem ~map:RW.correspondence
        o.Explore.computations
    in
    check Alcotest.string (name ^ ": verdicts byte-identical") (render sleep)
      (render none)
  in
  rw_case "rw-paper-verified" RW.paper_monitor RW.Readers_priority ~readers:1
    ~writers:1;
  rw_case "rw-no-exclusion-falsified" RW.no_exclusion_monitor RW.Free_for_all
    ~readers:2 ~writers:1;
  let buffer_render reduction =
    let o =
      Explore.explore ~reduction
        (Csp.lang (Buffer.csp_solution ~capacity:1 ~producers:1 ~consumers:1 ~items_each:2))
    in
    render_sat ~problem:(Buffer.spec ~capacity:1) ~map:Buffer.csp_correspondence
      o.Explore.computations
  in
  check Alcotest.string "buffer-csp: verdicts byte-identical" (buffer_render sleep)
    (buffer_render none)

(* ------------------------------------------------------------------ *)
(* Reduction factor: the optimisation must actually optimise           *)
(* ------------------------------------------------------------------ *)

let test_reduction_at_least_2x () =
  let p = RW.program ~monitor:RW.paper_monitor ~readers:2 ~writers:1 in
  let on = Explore.explore ~reduction:sleep (Monitor.lang p)
  and off = Explore.explore ~reduction:none (Monitor.lang p) in
  check Alcotest.bool "rw-2r1w reduced >= 2x" true
    (off.Explore.explored >= 2 * on.Explore.explored);
  check Alcotest.bool "rw-2r1w reports pruning" true (on.Explore.reduced > 0);
  let b = Buffer.ada_solution ~capacity:1 ~producers:1 ~consumers:1 ~items_each:2 in
  let on = Explore.explore ~reduction:sleep (Ada.lang b) and off = Explore.explore ~reduction:none (Ada.lang b) in
  check Alcotest.bool "buffer-ada reduced >= 2x" true
    (off.Explore.explored >= 2 * on.Explore.explored);
  check Alcotest.bool "buffer-ada reports pruning" true (on.Explore.reduced > 0)

(* ------------------------------------------------------------------ *)
(* Random loop-free CSP programs (qcheck)                              *)
(* ------------------------------------------------------------------ *)

(* Generators live in Gem_fuzz.Gen, shared with test_parallel.ml and the
   gemcheck fuzz differential oracle; csp_arb carries the structural
   shrinker, so qcheck failures arrive minimized. *)
let prog_arb = Gen_csp.prog_arb

let prop_csp_random_differential =
  QCheck.Test.make ~name:"random CSP: POR on/off agree" ~count:60 prog_arb
    (fun prog ->
      let on = Explore.explore ~reduction:sleep (Csp.lang prog)
      and off = Explore.explore ~reduction:none (Csp.lang prog) in
      fps on.Explore.computations = fps off.Explore.computations
      && fps on.Explore.deadlocks = fps off.Explore.deadlocks
      && on.Explore.exhausted = None
      && off.Explore.exhausted = None)

(* ------------------------------------------------------------------ *)
(* Commutation of independent moves (qcheck)                           *)
(* ------------------------------------------------------------------ *)

(* Random walk; at every visited configuration, any two enabled moves with
   disjoint footprints must (a) stay enabled after the other fires and
   (b) commute: firing them in either order reaches configurations with
   equal canonical keys. This is exactly the soundness obligation of the
   independence oracle the sleep sets consume. *)
let check_swaps ~name (lang : _ Explore.lang) ~max_steps rng =
  let moves c = List.map (fun (_, fire) -> fire ()) (Explore.successors lang c) in
  let key = Explore.exact_key lang in
  let find_label l c lost =
    match List.find_opt (fun (m, _) -> String.equal m.Explore.label l) (moves c) with
    | Some (_, c') -> c'
    | None -> Alcotest.failf "%s: move %s disabled by an independent move" name lost
  in
  let rec go c steps =
    if steps > 0 then
      match moves c with
      | [] -> ()
      | succs ->
          List.iteri
            (fun i (mi, ci) ->
              List.iteri
                (fun j (mj, cj) ->
                  if j > i && Explore.independent mi mj then begin
                    let cij = find_label mj.Explore.label ci mj.Explore.label in
                    let cji = find_label mi.Explore.label cj mi.Explore.label in
                    if not (String.equal (key cij) (key cji)) then
                      Alcotest.failf "%s: swapping %s and %s changes the state" name
                        mi.Explore.label mj.Explore.label
                  end)
                succs)
            succs;
          let _, c' = List.nth succs (Random.State.int rng (List.length succs)) in
          go c' (steps - 1)
  in
  go lang.init max_steps

let seed_arb = QCheck.make QCheck.Gen.(int_range 0 99_999) ~print:string_of_int

let prop_monitor_swap =
  let prog = RW.program ~monitor:RW.paper_monitor ~readers:1 ~writers:1 in
  QCheck.Test.make ~name:"monitor: independent moves commute" ~count:50 seed_arb
    (fun seed ->
      check_swaps ~name:"monitor" (Monitor.lang prog) ~max_steps:40
        (Random.State.make [| seed |]);
      true)

let prop_ada_swap =
  let prog = Buffer.ada_solution ~capacity:1 ~producers:1 ~consumers:1 ~items_each:2 in
  QCheck.Test.make ~name:"ada: independent moves commute" ~count:50 seed_arb
    (fun seed ->
      check_swaps ~name:"ada" (Ada.lang prog) ~max_steps:40
        (Random.State.make [| seed |]);
      true)

let prop_csp_random_swap =
  QCheck.Test.make ~name:"random CSP: independent moves commute" ~count:60
    (QCheck.pair prog_arb seed_arb) (fun (prog, seed) ->
      check_swaps ~name:"csp" (Csp.lang prog) ~max_steps:25
        (Random.State.make [| seed |]);
      true)

let () =
  let to_alc = QCheck_alcotest.to_alcotest in
  Alcotest.run "gem_por"
    [
      ( "differential",
        [
          Alcotest.test_case "rw-monitor workloads" `Quick test_rw_monitor_workloads;
          Alcotest.test_case "buffer workloads" `Quick test_buffer_workloads;
          Alcotest.test_case "distributed workloads" `Quick test_distributed_workloads;
          Alcotest.test_case "db-update report" `Quick test_db_report_agrees;
          Alcotest.test_case "rwd-ada capped" `Quick test_rwd_ada_capped;
          Alcotest.test_case "budget truncation" `Quick test_budget_truncation_agrees;
          Alcotest.test_case "verdicts byte-identical" `Quick test_verdicts_byte_identical;
          Alcotest.test_case "reduction >= 2x" `Quick test_reduction_at_least_2x;
        ] );
      ( "random-programs",
        [ to_alc prop_csp_random_differential; to_alc prop_csp_random_swap ] );
      ( "commutation", [ to_alc prop_monitor_swap; to_alc prop_ada_swap ] );
    ]
