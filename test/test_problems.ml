(* Integration tests: the paper's case studies end to end. Sizes are kept
   small so the exhaustive schedule exploration stays fast. *)

module RW = Gem_problems.Readers_writers
module Buffer = Gem_problems.Buffer
module Refine = Gem_check.Refine
module Strategy = Gem_check.Strategy

let check = Alcotest.check
let strategy = Strategy.Linearizations (Some 200)

(* ------------------------------------------------------------------ *)
(* Buffers (E6/E7)                                                     *)
(* ------------------------------------------------------------------ *)

let test_one_slot_monitor () =
  let o = Gem_lang.Explore.explore
      (Gem_lang.Monitor.lang (Buffer.monitor_solution ~capacity:1 ~producers:1 ~consumers:1 ~items_each:2)) in
  check Alcotest.bool "no deadlock" true (o.deadlocks = []);
  check Alcotest.bool "sat" true
    (Refine.sat_ok ~strategy ~problem:(Buffer.spec ~capacity:1)
       ~map:Buffer.monitor_correspondence o.computations)

let test_one_slot_csp () =
  let o = Gem_lang.Explore.explore
      (Gem_lang.Csp.lang (Buffer.csp_solution ~capacity:1 ~producers:1 ~consumers:1 ~items_each:2)) in
  check Alcotest.bool "no deadlock" true (o.deadlocks = []);
  check Alcotest.bool "sat" true
    (Refine.sat_ok ~strategy ~problem:(Buffer.spec ~capacity:1)
       ~map:Buffer.csp_correspondence o.computations)

let test_one_slot_ada () =
  let o = Gem_lang.Explore.explore
      (Gem_lang.Ada.lang (Buffer.ada_solution ~capacity:1 ~producers:1 ~consumers:1 ~items_each:2)) in
  check Alcotest.bool "no deadlock" true (o.deadlocks = []);
  check Alcotest.bool "sat" true
    (Refine.sat_ok ~strategy ~problem:(Buffer.spec ~capacity:1)
       ~map:Buffer.ada_correspondence o.computations)

let test_bounded_two_producers () =
  let o = Gem_lang.Explore.explore
      (Gem_lang.Monitor.lang (Buffer.monitor_solution ~capacity:2 ~producers:2 ~consumers:1 ~items_each:1)) in
  check Alcotest.bool "no deadlock" true (o.deadlocks = []);
  check Alcotest.bool "sat" true
    (Refine.sat_ok ~strategy ~problem:(Buffer.spec ~capacity:2)
       ~map:Buffer.monitor_correspondence o.computations)

let test_buggy_buffer_refuted () =
  let o = Gem_lang.Explore.explore
      (Gem_lang.Monitor.lang (Buffer.buggy_monitor_solution ~capacity:1 ~producers:1 ~consumers:1 ~items_each:2)) in
  check Alcotest.bool "capacity violated somewhere" false
    (Refine.sat_ok ~strategy ~problem:(Buffer.spec ~capacity:1)
       ~map:Buffer.monitor_correspondence o.computations)

let test_wrong_capacity_spec_refuted () =
  (* A capacity-2 implementation does NOT satisfy the 1-slot problem. *)
  let o = Gem_lang.Explore.explore
      (Gem_lang.Monitor.lang (Buffer.monitor_solution ~capacity:2 ~producers:1 ~consumers:1 ~items_each:2)) in
  check Alcotest.bool "2-slot fails 1-slot spec" false
    (Refine.sat_ok ~strategy ~problem:(Buffer.spec ~capacity:1)
       ~map:Buffer.monitor_correspondence o.computations)

let test_buffer_counts_validation () =
  Alcotest.check_raises "uneven split"
    (Invalid_argument "Buffer: total items must divide evenly among consumers") (fun () ->
      ignore (Buffer.monitor_solution ~capacity:1 ~producers:1 ~consumers:2 ~items_each:3))

(* ------------------------------------------------------------------ *)
(* Readers/Writers (E8/E9)                                             *)
(* ------------------------------------------------------------------ *)

let rw_sat monitor version ~readers ~writers =
  let program = RW.program ~monitor ~readers ~writers in
  let o = Gem_lang.Explore.explore (Gem_lang.Monitor.lang program) in
  Alcotest.(check bool) "no deadlock" true (o.deadlocks = []);
  let problem = RW.spec version ~users:(RW.user_names ~readers ~writers) in
  Refine.sat_ok ~strategy ~edges:Refine.Actor_paths ~problem ~map:RW.correspondence
    o.computations

let test_paper_monitor_readers_priority () =
  check Alcotest.bool "free-for-all" true (rw_sat RW.paper_monitor RW.Free_for_all ~readers:2 ~writers:1);
  check Alcotest.bool "readers-priority" true
    (rw_sat RW.paper_monitor RW.Readers_priority ~readers:2 ~writers:1)

let test_paper_monitor_not_writers_priority () =
  check Alcotest.bool "writers-priority fails" false
    (rw_sat RW.paper_monitor RW.Writers_priority ~readers:2 ~writers:1);
  check Alcotest.bool "no-starved-writers fails" false
    (rw_sat RW.paper_monitor RW.No_starved_writers ~readers:2 ~writers:1)

let test_writers_priority_monitor () =
  check Alcotest.bool "writers-priority" true
    (rw_sat RW.writers_priority_monitor RW.Writers_priority ~readers:2 ~writers:1);
  check Alcotest.bool "free-for-all" true
    (rw_sat RW.writers_priority_monitor RW.Free_for_all ~readers:2 ~writers:1);
  check Alcotest.bool "readers-priority fails" false
    (rw_sat RW.writers_priority_monitor RW.Readers_priority ~readers:2 ~writers:1)

let test_buggy_monitor_loses_priority () =
  (* Needs two writers to expose the inverted wakeup. *)
  check Alcotest.bool "paper ok at 1R+2W" true
    (rw_sat RW.paper_monitor RW.Readers_priority ~readers:1 ~writers:2);
  check Alcotest.bool "buggy violates readers-priority" false
    (rw_sat RW.buggy_monitor RW.Readers_priority ~readers:1 ~writers:2);
  check Alcotest.bool "buggy still excludes" true
    (rw_sat RW.buggy_monitor RW.Free_for_all ~readers:1 ~writers:2)

let test_no_exclusion_monitor_refuted () =
  let program = RW.program ~monitor:RW.no_exclusion_monitor ~readers:2 ~writers:1 in
  let o = Gem_lang.Explore.explore (Gem_lang.Monitor.lang program) in
  let problem = RW.spec RW.Free_for_all ~users:(RW.user_names ~readers:2 ~writers:1) in
  check Alcotest.bool "mutual exclusion violated" false
    (Refine.sat_ok ~strategy ~edges:Refine.Actor_paths ~problem ~map:RW.correspondence
       o.computations)

let test_rw_threads_label_transactions () =
  let program = RW.program ~monitor:RW.paper_monitor ~readers:1 ~writers:1 in
  let comp = List.hd (Gem_lang.Explore.explore (Gem_lang.Monitor.lang program)).computations in
  let problem = RW.spec RW.Free_for_all ~users:(RW.user_names ~readers:1 ~writers:1) in
  match
    Refine.project ~edges:Refine.Actor_paths RW.correspondence comp
      ~elements:problem.Gem_spec.Spec.elements ~groups:problem.Gem_spec.Spec.groups
  with
  | Error _ -> Alcotest.fail "projection failed"
  | Ok p ->
      let labelled = Gem_spec.Spec.label_threads problem p in
      let instances = Gem_spec.Thread.instances labelled RW.thread_name in
      check Alcotest.int "two transactions" 2 (List.length instances);
      List.iter
        (fun i ->
          let events = Gem_spec.Thread.events_of_instance labelled RW.thread_name i in
          check Alcotest.int "six events per transaction" 6 (List.length events))
        instances

(* ------------------------------------------------------------------ *)
(* Distributed database update (E10)                                   *)
(* ------------------------------------------------------------------ *)

let test_db_update_converges () =
  let r = Gem_problems.Db_update.check ~sites:3 () in
  check Alcotest.bool "computations exist" true (r.Gem_problems.Db_update.computations > 0);
  check Alcotest.int "no deadlock" 0 r.deadlocks;
  check Alcotest.bool "all converge to max" true r.converges;
  check Alcotest.bool "not exhausted" true (r.exhausted = None)

let test_db_update_two_sites () =
  let r = Gem_problems.Db_update.check ~sites:2 () in
  check Alcotest.bool "computations exist" true (r.Gem_problems.Db_update.computations > 0);
  check Alcotest.int "no deadlock" 0 r.deadlocks;
  check Alcotest.bool "converges" true r.converges

(* ------------------------------------------------------------------ *)
(* Asynchronous Game of Life (E11)                                     *)
(* ------------------------------------------------------------------ *)

let blinker = [ (1, 0); (1, 1); (1, 2) ]

let test_life_reference_blinker () =
  let gens = Gem_problems.Life.reference ~width:4 ~height:4 ~generations:2 ~alive:blinker in
  match gens with
  | [ g0; g1; g2 ] ->
      check Alcotest.bool "g0 vertical" true (g0.(1).(1) && g0.(0).(1) && g0.(2).(1));
      check Alcotest.bool "g1 horizontal" true (g1.(1).(0) && g1.(1).(1) && g1.(1).(2));
      check Alcotest.bool "g2 = g0" true (g2 = g0)
  | _ -> Alcotest.fail "expected 3 generations"

let test_life_computation_correct () =
  let w, h, g = 4, 4, 2 in
  let comp = Gem_problems.Life.build ~width:w ~height:h ~generations:g ~alive:blinker in
  check Alcotest.int "events" ((w * h * (g + 1)) + 1) (Gem_model.Computation.n_events comp);
  let spec = Gem_problems.Life.spec ~width:w ~height:h in
  check Alcotest.bool "legal" true (Gem_spec.Legality.is_legal spec comp);
  check Alcotest.bool "matches reference" true
    (Gem_check.Check.holds spec comp
       (Gem_problems.Life.matches_reference ~width:w ~height:h ~generations:g ~alive:blinker))

let test_life_asynchrony () =
  let comp = Gem_problems.Life.build ~width:4 ~height:4 ~generations:2 ~alive:blinker in
  check Alcotest.bool "asynchrony witness exists" true
    (Gem_problems.Life.asynchrony_witness comp <> None)

let test_life_progress_on_samples () =
  let comp = Gem_problems.Life.build ~width:3 ~height:3 ~generations:1 ~alive:[ (0, 0); (1, 1) ] in
  let spec = Gem_problems.Life.spec ~width:3 ~height:3 in
  let v =
    Gem_check.Check.check_formula
      ~strategy:(Strategy.Sampled { seed = 5; count = 10 })
      spec comp ~name:"progress"
      (Gem_problems.Life.progress ~generations:1)
  in
  check Alcotest.bool "progress" true (Gem_check.Verdict.ok v)

let test_life_wrong_reference_detected () =
  (* Checking a blinker computation against a different initial pattern's
     reference must fail. *)
  let comp = Gem_problems.Life.build ~width:4 ~height:4 ~generations:1 ~alive:blinker in
  let spec = Gem_problems.Life.spec ~width:4 ~height:4 in
  check Alcotest.bool "mismatch detected" false
    (Gem_check.Check.holds spec comp
       (Gem_problems.Life.matches_reference ~width:4 ~height:4 ~generations:1
          ~alive:[ (0, 0) ]))

let () =
  Alcotest.run "gem_problems"
    [
      ( "buffer",
        [
          Alcotest.test_case "one-slot-monitor" `Quick test_one_slot_monitor;
          Alcotest.test_case "one-slot-csp" `Quick test_one_slot_csp;
          Alcotest.test_case "one-slot-ada" `Quick test_one_slot_ada;
          Alcotest.test_case "bounded-2" `Quick test_bounded_two_producers;
          Alcotest.test_case "buggy-refuted" `Quick test_buggy_buffer_refuted;
          Alcotest.test_case "wrong-capacity-refuted" `Quick test_wrong_capacity_spec_refuted;
          Alcotest.test_case "counts-validation" `Quick test_buffer_counts_validation;
        ] );
      ( "readers-writers",
        [
          Alcotest.test_case "paper-readers-priority" `Slow test_paper_monitor_readers_priority;
          Alcotest.test_case "paper-not-writers-priority" `Slow test_paper_monitor_not_writers_priority;
          Alcotest.test_case "writers-priority-monitor" `Slow test_writers_priority_monitor;
          Alcotest.test_case "buggy-loses-priority" `Slow test_buggy_monitor_loses_priority;
          Alcotest.test_case "no-exclusion-refuted" `Slow test_no_exclusion_monitor_refuted;
          Alcotest.test_case "threads-label" `Quick test_rw_threads_label_transactions;
        ] );
      ( "db-update",
        [
          Alcotest.test_case "converges-3" `Slow test_db_update_converges;
          Alcotest.test_case "converges-2" `Quick test_db_update_two_sites;
        ] );
      ( "life",
        [
          Alcotest.test_case "reference-blinker" `Quick test_life_reference_blinker;
          Alcotest.test_case "computation-correct" `Quick test_life_computation_correct;
          Alcotest.test_case "asynchrony" `Quick test_life_asynchrony;
          Alcotest.test_case "progress" `Quick test_life_progress_on_samples;
          Alcotest.test_case "wrong-reference" `Quick test_life_wrong_reference_detected;
        ] );
    ]
