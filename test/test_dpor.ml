(* Differential harness for the source-DPOR reduction engine.
   Every lib/problems workload is explored under all three --reduction
   engines (none / sleep / source) and must produce identical
   completed/deadlocked computation multisets (equal partial-order
   fingerprints) and the same exhaustion status; source-DPOR must also
   visit no more configurations than the sleep-set engine on any
   workload. qcheck properties extend the evidence to random
   Monitor/CSP/ADA programs in both key modes ({fp,exact}).

   As in test_por.ml, rwd-ada is excluded from the engine triple: its
   cyclic state space is intractable without memoized reduction, so it
   is compared sleep-vs-source uncapped (both complete) and all three
   ways under a shared configuration cap. *)

module Explore = Gem_lang.Explore
module Monitor = Gem_lang.Monitor
module Csp = Gem_lang.Csp
module Ada = Gem_lang.Ada
module RW = Gem_problems.Readers_writers
module Buffer = Gem_problems.Buffer
module Rwd = Gem_problems.Rw_distributed
module Db = Gem_problems.Db_update
module Budget = Gem_check.Budget
module Refine = Gem_check.Refine
module Verdict = Gem_check.Verdict
module Strategy = Gem_check.Strategy
module Gen = Gem_fuzz.Gen

let check = Alcotest.check
let strategy = Strategy.Linearizations (Some 200)
let fps comps = List.sort compare (List.map Explore.fingerprint comps)
let reason_opt = Option.map Budget.reason_keyword

(* One exploration under one engine, normalized across the three
   interpreters: (computations, deadlocks, exhausted, explored). *)
type outcome = {
  o_comps : string list;
  o_deads : string list;
  o_exh : string option;
  o_explored : int;
}

let outcome ?exact_keys ?max_configs lang reduction =
  let o = Explore.explore ~reduction ?exact_keys ?max_configs lang in
  {
    o_comps = fps o.Explore.computations;
    o_deads = fps o.Explore.deadlocks;
    o_exh = reason_opt o.Explore.exhausted;
    o_explored = o.Explore.explored;
  }

let mon_outcome ?max_configs prog = outcome ?max_configs (Monitor.lang prog)
let csp_outcome ?max_configs prog = outcome ?max_configs (Csp.lang prog)
let ada_outcome ?max_configs prog = outcome ?max_configs (Ada.lang prog)

(* The core differential: none, sleep and source agree on every leaf
   multiset and on the exhaustion status, and source visits no more
   configurations than sleep. *)
let triple name run =
  let none = run Explore.No_reduction
  and sleep = run Explore.Sleep_sets
  and source = run Explore.Source_sets in
  List.iter
    (fun (engine, o) ->
      check
        Alcotest.(list string)
        (Printf.sprintf "%s: %s completed multiset" name engine)
        none.o_comps o.o_comps;
      check
        Alcotest.(list string)
        (Printf.sprintf "%s: %s deadlock multiset" name engine)
        none.o_deads o.o_deads;
      check
        Alcotest.(option string)
        (Printf.sprintf "%s: %s exhaustion" name engine)
        none.o_exh o.o_exh)
    [ ("sleep", sleep); ("source", source) ];
  check Alcotest.bool
    (Printf.sprintf "%s: source explored (%d) <= sleep explored (%d)" name
       source.o_explored sleep.o_explored)
    true
    (source.o_explored <= sleep.o_explored)

let test_rw_monitor_workloads () =
  triple "rw-paper-1r1w"
    (mon_outcome (RW.program ~monitor:RW.paper_monitor ~readers:1 ~writers:1));
  triple "rw-paper-2r1w"
    (mon_outcome (RW.program ~monitor:RW.paper_monitor ~readers:2 ~writers:1));
  triple "rw-no-exclusion-2r1w"
    (mon_outcome
       (RW.program ~monitor:RW.no_exclusion_monitor ~readers:2 ~writers:1));
  triple "rw-buggy-1r2w"
    (mon_outcome (RW.program ~monitor:RW.buggy_monitor ~readers:1 ~writers:2))

let test_buffer_workloads () =
  triple "buffer-monitor-1p1c2i"
    (mon_outcome
       (Buffer.monitor_solution ~capacity:1 ~producers:1 ~consumers:1
          ~items_each:2));
  triple "buffer-buggy-monitor-1p1c2i"
    (mon_outcome
       (Buffer.buggy_monitor_solution ~capacity:1 ~producers:1 ~consumers:1
          ~items_each:2));
  triple "buffer-csp-1p1c2i"
    (csp_outcome
       (Buffer.csp_solution ~capacity:1 ~producers:1 ~consumers:1 ~items_each:2));
  triple "buffer-ada-1p1c2i"
    (ada_outcome
       (Buffer.ada_solution ~capacity:1 ~producers:1 ~consumers:1 ~items_each:2))

let test_distributed_workloads () =
  triple "rwd-csp-1r1w" (csp_outcome (Rwd.csp_program ~readers:1 ~writers:1));
  triple "rwd-csp-no-priority-1r1w"
    (csp_outcome (Rwd.csp_program_no_priority ~readers:1 ~writers:1));
  triple "db-update-2-sites" (csp_outcome (Db.program ~sites:2))

(* rwd-ada: cyclic, so the unreduced walk is intractable uncapped. The
   reduced engines are compared in full — the workload the reduction was
   built for — and all three under a shared cap must degrade alike. *)
let test_rwd_ada () =
  let prog = Rwd.ada_program ~readers:1 ~writers:1 in
  let sleep = ada_outcome prog Explore.Sleep_sets
  and source = ada_outcome prog Explore.Source_sets in
  check
    Alcotest.(list string)
    "rwd-ada-1r1w: completed multiset" sleep.o_comps source.o_comps;
  check
    Alcotest.(list string)
    "rwd-ada-1r1w: deadlock multiset" sleep.o_deads source.o_deads;
  check
    Alcotest.(option string)
    "rwd-ada-1r1w: both complete" None
    (if sleep.o_exh = None then source.o_exh else sleep.o_exh);
  check Alcotest.bool
    (Printf.sprintf "rwd-ada-1r1w: source explored (%d) <= sleep explored (%d)"
       source.o_explored sleep.o_explored)
    true
    (source.o_explored <= sleep.o_explored);
  let capped r = (ada_outcome ~max_configs:500 prog r).o_exh in
  check
    Alcotest.(option string)
    "rwd-ada capped: source reports config-budget" (Some "config-budget")
    (capped Explore.Source_sets);
  check
    Alcotest.(option string)
    "rwd-ada capped: none agrees"
    (capped Explore.Source_sets)
    (capped Explore.No_reduction)

(* ------------------------------------------------------------------ *)
(* Byte-identical verdicts across --reduction values                   *)
(* ------------------------------------------------------------------ *)

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
  let engines =
    [ Explore.No_reduction; Explore.Sleep_sets; Explore.Source_sets ]
  in
  let rw_case name monitor version ~readers ~writers =
    let prog = RW.program ~monitor ~readers ~writers in
    let problem = RW.spec version ~users:(RW.user_names ~readers ~writers) in
    let render reduction =
      let o = Explore.explore ~reduction (Monitor.lang prog) in
      render_sat ~edges:Refine.Actor_paths ~problem ~map:RW.correspondence
        o.Explore.computations
    in
    match List.map render engines with
    | [ a; b; c ] ->
        check Alcotest.string (name ^ ": sleep verdicts byte-identical") a b;
        check Alcotest.string (name ^ ": source verdicts byte-identical") a c
    | _ -> assert false
  in
  rw_case "rw-paper-verified" RW.paper_monitor RW.Readers_priority ~readers:1
    ~writers:1;
  rw_case "rw-no-exclusion-falsified" RW.no_exclusion_monitor RW.Free_for_all
    ~readers:2 ~writers:1

(* ------------------------------------------------------------------ *)
(* The reduction must actually reduce                                  *)
(* ------------------------------------------------------------------ *)

(* Source-DPOR's reason to exist: strictly fewer visits than sleep sets
   on the rendezvous families (the asymptotic claim is benchmarked in
   BENCH_dpor.json; here we pin the strict inequality on two). *)
let test_source_beats_sleep () =
  let strict name run =
    let sleep = run Explore.Sleep_sets and source = run Explore.Source_sets in
    check Alcotest.bool
      (Printf.sprintf "%s: source explored (%d) < sleep explored (%d)" name
         source.o_explored sleep.o_explored)
      true
      (source.o_explored < sleep.o_explored)
  in
  strict "buffer-ada-1p1c2i"
    (ada_outcome
       (Buffer.ada_solution ~capacity:1 ~producers:1 ~consumers:1 ~items_each:2));
  strict "rw-paper-2r1w"
    (mon_outcome (RW.program ~monitor:RW.paper_monitor ~readers:2 ~writers:1))

(* ------------------------------------------------------------------ *)
(* Random programs across the {fp,exact} key grid (qcheck)             *)
(* ------------------------------------------------------------------ *)

(* Whatever the key mode, --reduction source must reproduce the plain
   engine's computation and deadlock multisets. *)
let grid = [ false; true ]

let source_matches_plain lang =
  let base = outcome ~exact_keys:false lang Explore.No_reduction in
  List.for_all
    (fun exact ->
      let src = outcome ~exact_keys:exact lang Explore.Source_sets in
      src.o_comps = base.o_comps
      && src.o_deads = base.o_deads
      && src.o_exh = None && base.o_exh = None)
    grid

let prop_csp_random =
  QCheck.Test.make ~name:"random CSP: source matches plain on the grid"
    ~count:40 Gen.csp_arb (fun prog ->
      source_matches_plain (Csp.lang prog))

let prop_monitor_random =
  QCheck.Test.make ~name:"random Monitor: source matches plain on the grid"
    ~count:30 Gen.monitor_arb (fun prog ->
      source_matches_plain (Monitor.lang prog))

let prop_ada_random =
  QCheck.Test.make ~name:"random ADA: source matches plain on the grid"
    ~count:30 Gen.ada_arb (fun prog ->
      source_matches_plain (Ada.lang prog))

(* Engine selection has one switch: the retired GEM_NO_POR no longer
   moves the default, and the spellings round-trip. *)
let test_resolution_precedence () =
  let default = Explore.reduction_name (Explore.reduction_default ()) in
  Unix.putenv "GEM_NO_POR" "1";
  check Alcotest.string "GEM_NO_POR is ignored" default
    (Explore.reduction_name (Explore.reduction_default ()));
  check
    Alcotest.(option string)
    "of_string round-trips"
    (Some "source")
    (Option.map Explore.reduction_name (Explore.reduction_of_string "source"));
  check Alcotest.bool "invalid spelling rejected" true
    (Explore.reduction_of_string "Source" = None)

let () =
  let to_alc = QCheck_alcotest.to_alcotest in
  Alcotest.run "gem_dpor"
    [
      ( "differential",
        [
          Alcotest.test_case "rw-monitor workloads" `Quick
            test_rw_monitor_workloads;
          Alcotest.test_case "buffer workloads" `Quick test_buffer_workloads;
          Alcotest.test_case "distributed workloads" `Quick
            test_distributed_workloads;
          Alcotest.test_case "rwd-ada" `Quick test_rwd_ada;
          Alcotest.test_case "verdicts byte-identical" `Quick
            test_verdicts_byte_identical;
          Alcotest.test_case "source beats sleep" `Quick test_source_beats_sleep;
          Alcotest.test_case "resolution precedence" `Quick
            test_resolution_precedence;
        ] );
      ( "random-programs",
        [ to_alc prop_csp_random; to_alc prop_monitor_random; to_alc prop_ada_random ] );
    ]
