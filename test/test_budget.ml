(* Stress/property tests for the resource-budget subsystem: random
   adversarial computations (wide diamonds with factorially many runs,
   dense enable graphs) checked under tiny budgets must never raise and
   must always produce a verdict — Verified, Falsified, or Inconclusive
   with a reason — well within the deadline. *)

module Build = Gem_model.Build
module C = Gem_model.Computation
module Etype = Gem_spec.Etype
module Spec = Gem_spec.Spec
module F = Gem_logic.Formula
module Budget = Gem_check.Budget
module Strategy = Gem_check.Strategy
module Check = Gem_check.Check
module Verdict = Gem_check.Verdict
module Explore = Gem_lang.Explore

(* ------------------------------------------------------------------ *)
(* Generators                                                          *)
(* ------------------------------------------------------------------ *)

let e_etype = Etype.make "E" ~events:[ { Etype.klass = "E"; schema = [] } ] ()

let spec_for n_elements =
  Spec.make "budget-stress"
    ~elements:(List.init n_elements (fun i -> (Printf.sprintf "el%d" i, e_etype)))
    ()

(* Adversarial shapes: [`Diamond] puts most events pairwise concurrent
   (run count grows factorially — the paper's §7 explosion), [`Dense]
   wires many enables (deep, narrow orders), [`Random] mixes both. *)
let comp_gen =
  QCheck.Gen.(
    let* shape = oneofl [ `Diamond; `Dense; `Random ] in
    let* n = int_range 2 9 in
    let* n_elements = int_range 1 3 in
    let* assignment = flatten_l (List.init n (fun _ -> int_range 0 (n_elements - 1))) in
    let pairs =
      List.concat (List.init n (fun i -> List.init (n - i - 1) (fun d -> (i, i + d + 1))))
    in
    let* edges =
      match shape with
      | `Diamond ->
          (* Fan out from event 0 only: n-1 mutually concurrent events. *)
          return (List.init (n - 1) (fun j -> (0, j + 1)))
      | `Dense ->
          return pairs
      | `Random ->
          let* picks = flatten_l (List.map (fun e -> pair (return e) (int_range 0 3)) pairs) in
          return (List.filter_map (fun (e, k) -> if k = 0 then Some e else None) picks)
    in
    return (n, n_elements, assignment, edges))

let build_comp (_, _, assignment, edges) =
  let b = Build.create () in
  let handles =
    List.map
      (fun el -> Build.emit b ~element:(Printf.sprintf "el%d" el) ~klass:"E" ())
      assignment
  in
  let arr = Array.of_list handles in
  List.iter (fun (i, j) -> Build.enable b arr.(i) arr.(j)) edges;
  Build.finish b

let comp_arb =
  QCheck.make comp_gen ~print:(fun (n, k, a, es) ->
      Printf.sprintf "n=%d elements=%d assign=[%s] edges=%d" n k
        (String.concat ";" (List.map string_of_int a))
        (List.length es))

let eventually_all =
  F.(eventually (forall [ ("e", Cls "E") ] (occurred "e")))

(* ------------------------------------------------------------------ *)
(* Properties                                                          *)
(* ------------------------------------------------------------------ *)

(* Tiny budgets on adversarial computations: no exception, and the
   three-valued outcome is internally consistent. *)
let prop_never_raises =
  QCheck.Test.make ~count:200 ~name:"tiny budget never raises, always a verdict"
    comp_arb (fun ((_, k, _, _) as input) ->
      let comp = build_comp input in
      let budget = Budget.make ~max_runs:2 ~max_configs:3 ()
      and spec = spec_for k in
      let v =
        Check.check_formula ~strategy:(Strategy.Exhaustive_vhs None) ~budget spec comp
          ~name:"p" eventually_all
      in
      match Verdict.status v with
      | Verdict.Verified -> v.Verdict.exhaustion = None
      | Verdict.Falsified -> v.Verdict.failures <> [] || v.Verdict.legality <> []
      | Verdict.Inconclusive _ -> v.Verdict.exhaustion <> None)

(* Unlimited budget + exhaustive strategy is conclusive: never
   Inconclusive, and the coverage claims completeness. *)
let prop_unlimited_conclusive =
  QCheck.Test.make ~count:100 ~name:"unlimited exhaustive budget is conclusive"
    comp_arb (fun ((_, k, _, _) as input) ->
      let comp = build_comp input in
      let v =
        Check.check_formula ~strategy:(Strategy.Exhaustive_vhs None)
          ~budget:(Budget.unlimited ()) (spec_for k) comp ~name:"p" eventually_all
      in
      match Verdict.status v with
      | Verdict.Inconclusive _ -> false
      | Verdict.Verified -> v.Verdict.complete
      | Verdict.Falsified -> true)

(* Falsification is sound under truncation: a always-false restriction is
   reported Falsified even when the run cap cuts the enumeration. *)
let prop_falsified_wins =
  QCheck.Test.make ~count:100 ~name:"falsification survives run-cap truncation"
    comp_arb (fun ((_, k, _, _) as input) ->
      let comp = build_comp input in
      let budget = Budget.make ~max_runs:1 () in
      let v =
        Check.check_formula ~strategy:(Strategy.Exhaustive_vhs None) ~budget
          (spec_for k) comp ~name:"never" F.(neg (henceforth True))
      in
      Verdict.status v = Verdict.Falsified && Verdict.exit_code (Verdict.status v) = 1)

(* A zero deadline degrades to Inconclusive Deadline_exceeded — and does so
   promptly (the poll interval bounds the slack, not the run space). *)
let prop_deadline_inconclusive =
  QCheck.Test.make ~count:50 ~name:"zero deadline yields Inconclusive promptly"
    comp_arb (fun ((_, k, _, _) as input) ->
      let comp = build_comp input in
      let budget = Budget.make ~timeout:0.0 () in
      let t0 = Unix.gettimeofday () in
      let v =
        Check.check_formula ~strategy:(Strategy.Exhaustive_vhs None) ~budget
          (spec_for k) comp ~name:"p" eventually_all
      in
      let elapsed = Unix.gettimeofday () -. t0 in
      elapsed < 5.0
      &&
      match Verdict.status v with
      | Verdict.Inconclusive Budget.Deadline_exceeded -> true
      | Verdict.Verified ->
          (* Small computations can finish inside the first poll window. *)
          v.Verdict.complete
      | _ -> false)

(* The non-raising explorer: malformed/adversarial move functions under a
   config budget never raise, respect the cap exactly, and report it. *)
let prop_explore_budget =
  QCheck.Test.make ~count:200 ~name:"Explore.run respects config budgets"
    QCheck.(pair (int_range 1 20) (int_range 2 5))
    (fun (max_configs, fanout) ->
      let moves n = if n > 10_000 then [] else List.init fanout (fun i -> (n * fanout) + i + 1) in
      let r = Explore.run ~max_configs ~moves ~terminated:(fun _ -> false) 0 in
      r.Explore.explored <= max_configs
      &&
      (* The tree is effectively infinite, so the cap must have fired. *)
      r.Explore.exhausted = Some Budget.Config_budget)

(* Work conservation: on the DAG over 0..cap with moves n -> {n+1, n+2},
   every arrival at a state is accounted exactly once — first arrival as
   explored, every later one as reduced. Arrivals = one root + one per
   edge, and the edge count is structural (2*cap - 1), so explored +
   reduced is an invariant of the graph, not of the visit order. *)
let prop_explore_conservation =
  QCheck.Test.make ~count:100 ~name:"explored + reduced conserved across merge"
    QCheck.(int_range 1 60)
    (fun cap ->
      let moves n = List.filter (fun m -> m <= cap) [ n + 1; n + 2 ] in
      let edges = List.init (cap + 1) (fun n -> List.length (moves n)) in
      let arrivals = 1 + List.fold_left ( + ) 0 edges in
      let r =
        Explore.run
          ~key:(fun n -> Explore.Exact (string_of_int n))
          ~moves ~terminated:(fun n -> n = cap) 0
      in
      r.Explore.exhausted = None
      && r.Explore.explored + r.Explore.reduced = arrivals
      && r.Explore.explored = cap + 1 (* each state claimed exactly once *)
      && r.Explore.completed = [ cap ]
      && r.Explore.deadlocked = [])

(* A budget's configuration cap replaces the built-in default of
   1,000,000: on a two-level tree of 1 + 1,100 + 1,100,000
   configurations, a 1.2M cap lets the walk finish, and with no cap
   anywhere it still stops at exactly 1,000,000. [max_steps:1] cuts each
   grandchild as it is visited, so no leaf list is kept. *)
let test_budget_cap_replaces_default () =
  let moves c =
    if c = 0 then List.init 1_100 (fun i -> i + 1)
    else if c <= 1_100 then List.init 1_000 (fun _ -> 1_101)
    else []
  in
  let walk budget =
    Explore.run ~max_steps:1 ?budget ~moves ~terminated:(fun _ -> true) 0
  in
  let reason r = Option.map Budget.reason_keyword r.Explore.exhausted in
  let capped = walk (Some (Budget.make ~max_configs:1_200_000 ())) in
  Alcotest.(check (option string)) "1.2M cap: complete" None (reason capped);
  Alcotest.(check int) "1.2M cap: every configuration" 1_101_101 capped.Explore.explored;
  Alcotest.(check int) "1.2M cap: grandchildren cut" 1_100_000 capped.Explore.truncated;
  List.iter
    (fun (what, budget) ->
      let r = walk budget in
      Alcotest.(check (option string))
        (what ^ ": stopped") (Some "config-budget") (reason r);
      Alcotest.(check int) (what ^ ": at the default") 1_000_000 r.Explore.explored)
    [ ("no budget", None); ("uncapped budget", Some (Budget.make ~timeout:600.0 ())) ]

(* Concurrent charging from many domains grants exactly the cap in
   total: the counters are fetch-and-add atomics, not read-modify-write
   races. *)
let test_charge_config_across_domains () =
  let cap = 5_000 in
  let b = Budget.make ~max_configs:cap () in
  let counts =
    Gem_check.Par.map ~jobs:8
      (fun _ ->
        let granted = ref 0 in
        for _ = 1 to cap do
          if Budget.charge_config b then incr granted
        done;
        !granted)
      (List.init 8 Fun.id)
  in
  Alcotest.check Alcotest.int "total grants = cap" cap (List.fold_left ( + ) 0 counts);
  Alcotest.check Alcotest.(option string) "config-budget reason" (Some "config-budget")
    (Option.map Budget.reason_keyword (Budget.exhausted b))

(* Budget counters are exact and exhaustion is sticky. *)
let prop_charge_config_exact =
  QCheck.Test.make ~count:200 ~name:"charge_config grants exactly max_configs"
    QCheck.(int_range 1 300)
    (fun cap ->
      let b = Budget.make ~max_configs:cap () in
      let granted = ref 0 in
      for _ = 1 to cap + 50 do
        if Budget.charge_config b then incr granted
      done;
      !granted = cap
      && Budget.exhausted b = Some Budget.Config_budget
      && (* sticky: probing again does not clear it *)
      Budget.exhausted b = Some Budget.Config_budget)

let prop_strategy_truncation_exact =
  QCheck.Test.make ~count:100 ~name:"enumerate reports truncation exactly"
    comp_arb (fun input ->
      let comp = build_comp input in
      let total = List.length (Strategy.runs (Strategy.Exhaustive_vhs None) comp) in
      let cap = max 1 (total / 2) in
      let e = Strategy.enumerate (Strategy.Exhaustive_vhs (Some cap)) comp in
      if total > cap then
        e.Strategy.truncated_at = Some cap
        && List.length e.Strategy.runs = cap
        && not e.Strategy.complete
      else e.Strategy.truncated_at = None && e.Strategy.complete)

(* ------------------------------------------------------------------ *)
(* The derived heap watermark                                          *)
(* ------------------------------------------------------------------ *)

(* Fixture texts in the layouts of /proc/self/limits, the cgroup limit
   files and /proc/meminfo. *)
let limits address_space =
  String.concat "\n"
    [
      "Limit                     Soft Limit           Hard Limit           Units     ";
      "Max cpu time              unlimited            unlimited            seconds   ";
      "Max stack size            8388608              unlimited            bytes     ";
      Printf.sprintf "Max address space         %-20s %-20s bytes     " address_space
        address_space;
      "Max open files            20000                20000                files     ";
    ]

let meminfo = "MemTotal:        8222320 kB\nMemFree:         6173000 kB\n"
let v1_unlimited = "9223372036854771712\n"

let test_watermark_sources () =
  let w ?limits ?cgroup ?meminfo () =
    Budget.watermark_of_limits ~limits ~cgroup ~meminfo
  in
  let check what expected got = Alcotest.(check (option int)) what expected got in
  check "no source, no bound" None (w ());
  check "unlimited address space" None (w ~limits:(limits "unlimited") ());
  check "cgroup v2 max" None (w ~cgroup:"max\n" ());
  check "cgroup v1 unlimited" None (w ~cgroup:v1_unlimited ());
  check "unreadable value" None (w ~cgroup:"banana" ~limits:"" ());
  check "MemTotal in kB" (Some 5_051_793_408) (w ~meminfo ());
  check "cgroup byte limit" (Some 600_000_000) (w ~cgroup:"1000000000\n" ());
  check "address-space limit" (Some 921_600_000) (w ~limits:(limits "1536000000") ());
  check "smallest of the three wins" (Some 921_600_000)
    (w ~limits:(limits "1536000000") ~cgroup:v1_unlimited ~meminfo ());
  check "a tighter cgroup wins" (Some 600_000_000)
    (w ~limits:(limits "1536000000") ~cgroup:"1000000000" ~meminfo ());
  check "unlimited sources drop out" (Some 5_051_793_408)
    (w ~limits:(limits "unlimited") ~cgroup:"max" ~meminfo ())

(* The watermark counts the live heap: garbage a finished run left
   behind (here 1M dropped cells, about 32 MB) does not stop the next
   budget, while the same cells held live do. *)
let test_watermark_counts_live_heap () =
  let cells () = List.init 1_000_000 (fun i -> ref i) in
  let stop () =
    Option.map Budget.reason_keyword (Budget.exhausted (Budget.make ~max_heap_mb:16 ()))
  in
  Gc.full_major ();
  ignore (Sys.opaque_identity (cells ()));
  Alcotest.(check (option string)) "garbage is not counted" None (stop ());
  let live = cells () in
  Alcotest.(check (option string))
    "a live heap stops" (Some "memory-watermark") (stop ());
  ignore (Sys.opaque_identity live)

let () =
  let q = QCheck_alcotest.to_alcotest in
  Alcotest.run "gem_budget"
    [
      ( "stress",
        [
          q prop_never_raises;
          q prop_unlimited_conclusive;
          q prop_falsified_wins;
          q prop_deadline_inconclusive;
        ] );
      ( "explore",
        [
          q prop_explore_budget;
          q prop_explore_conservation;
          Alcotest.test_case "budget cap replaces the default" `Quick
            test_budget_cap_replaces_default;
        ] );
      ( "parallel",
        [
          Alcotest.test_case "charge_config across domains" `Quick
            test_charge_config_across_domains;
        ] );
      ( "accounting", [ q prop_charge_config_exact; q prop_strategy_truncation_exact ] );
      ( "watermark",
        [
          Alcotest.test_case "limit sources" `Quick test_watermark_sources;
          Alcotest.test_case "live heap counted" `Quick test_watermark_counts_live_heap;
        ] );
    ]
