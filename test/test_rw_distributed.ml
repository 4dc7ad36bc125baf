(* Integration tests for the CSP and ADA Readers/Writers solutions
   (paper §11: "Monitor, CSP, and ADA solutions to the … Reader's Priority
   Readers/Writers problem have been verified"). *)

module RWD = Gem_problems.Rw_distributed
module Refine = Gem_check.Refine
module Strategy = Gem_check.Strategy

let check = Alcotest.check
let strategy = Strategy.Linearizations (Some 300)

let sat_csp program ~readers ~writers =
  let o = Gem_lang.Explore.explore ~max_configs:10_000_000 (Gem_lang.Csp.lang program) in
  let rnames, wnames = RWD.user_names ~readers ~writers in
  let problem = RWD.spec ~readers:rnames ~writers:wnames in
  ( Refine.sat_ok ~strategy ~problem ~map:RWD.csp_correspondence o.Gem_lang.Explore.computations,
    List.length o.Gem_lang.Explore.computations,
    List.length o.Gem_lang.Explore.deadlocks )

let sat_ada program ~readers ~writers =
  (* POR pinned on: the server tasks loop, so the state space is cyclic
     and the unreduced DFS (no memoization) enumerates paths without
     bound. test_por compares the two modes on this workload under a
     shared configuration cap instead. *)
  let o =
    Gem_lang.Explore.explore ~reduction:Gem_lang.Explore.Sleep_sets
      ~max_configs:10_000_000 (Gem_lang.Ada.lang program)
  in
  let rnames, wnames = RWD.user_names ~readers ~writers in
  let problem = RWD.spec ~readers:rnames ~writers:wnames in
  ( Refine.sat_ok ~strategy ~problem ~map:RWD.ada_correspondence o.Gem_lang.Explore.computations,
    List.length o.Gem_lang.Explore.computations,
    List.length o.Gem_lang.Explore.deadlocks )

let test_csp_1r1w () =
  let ok, comps, dead = sat_csp (RWD.csp_program ~readers:1 ~writers:1) ~readers:1 ~writers:1 in
  check Alcotest.bool "sat" true ok;
  check Alcotest.bool "computations" true (comps > 0);
  check Alcotest.int "no deadlock" 0 dead

let test_csp_no_priority_refuted () =
  let ok, _, dead =
    sat_csp (RWD.csp_program_no_priority ~readers:1 ~writers:1) ~readers:1 ~writers:1
  in
  check Alcotest.bool "violated" false ok;
  check Alcotest.int "still no deadlock" 0 dead

let test_ada_1r1w () =
  let ok, comps, dead = sat_ada (RWD.ada_program ~readers:1 ~writers:1) ~readers:1 ~writers:1 in
  check Alcotest.bool "sat" true ok;
  check Alcotest.bool "computations" true (comps > 0);
  check Alcotest.int "no deadlock" 0 dead

let test_ada_no_priority_refuted () =
  let ok, _, dead =
    sat_ada (RWD.ada_program_no_priority ~readers:1 ~writers:1) ~readers:1 ~writers:1
  in
  check Alcotest.bool "violated" false ok;
  check Alcotest.int "still no deadlock" 0 dead

let test_csp_2r1w () =
  let ok, comps, dead = sat_csp (RWD.csp_program ~readers:2 ~writers:1) ~readers:2 ~writers:1 in
  check Alcotest.bool "sat" true ok;
  check Alcotest.bool "computations" true (comps > 0);
  check Alcotest.int "no deadlock" 0 dead

(* The 2R+1W ADA workload (5 790 distinct computations) is verified by the
   standalone experiment driver, not here — checking it takes minutes. *)

(* The data server serializes accesses: readers see the initial value or a
   written one, never garbage; functional correctness of the data chain is
   covered by the data element's Variable restriction inside the spec. *)
let test_csp_data_values () =
  let o = Gem_lang.Explore.explore ~max_configs:10_000_000 (Gem_lang.Csp.lang (RWD.csp_program ~readers:1 ~writers:1)) in
  List.iter
    (fun comp ->
      List.iter
        (fun h ->
          let e = Gem_model.Computation.event comp h in
          if Gem_model.Event.has_class e "FinishRead" then
            let v = Gem_model.Value.as_int (Gem_model.Event.param e "p0") in
            Alcotest.(check bool) "read 0 or 101" true (v = 0 || v = 101))
        (Gem_model.Computation.all_events comp))
    o.Gem_lang.Explore.computations

let () =
  Alcotest.run "gem_rw_distributed"
    [
      ( "csp",
        [
          Alcotest.test_case "1r1w-sat" `Quick test_csp_1r1w;
          Alcotest.test_case "no-priority-refuted" `Quick test_csp_no_priority_refuted;
          Alcotest.test_case "2r1w-sat" `Slow test_csp_2r1w;
          Alcotest.test_case "data-values" `Quick test_csp_data_values;
        ] );
      ( "ada",
        [
          Alcotest.test_case "1r1w-sat" `Quick test_ada_1r1w;
          Alcotest.test_case "no-priority-refuted" `Quick test_ada_no_priority_refuted;
        ] );
    ]
