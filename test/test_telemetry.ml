(* Contract tests for the telemetry sink (lib/obs):

   - counter conservation: the sink's Configs_explored/Configs_reduced
     agree exactly with the explorer's own result record for the
     reduction engines none/sleep/source, and every reduced config is
     accounted by exactly one cause (Configs_reduced = Sleep_prunes +
     Memo_hits + Source_prunes), and checking the computations on any
     number of domains, in batches of any size, moves no exploration
     counter and the same checking counters;
   - observational transparency: verdicts and computation fingerprints
     are byte-identical with telemetry on and off;
   - the deterministic stats snapshot is byte-stable across --jobs and
     reduction engines;
   - budget stops land in the per-reason counter exactly once, and every
     reason a verdict carries has its counter raised;
   - the disabled sink records nothing;
   - the Chrome-trace exporter writes one well-formed event per line. *)

module T = Gem_obs.Telemetry
module Budget = Gem_check.Budget
module Strategy = Gem_check.Strategy
module Refine = Gem_check.Refine
module Explore = Gem_lang.Explore
module Monitor = Gem_lang.Monitor
module Csp = Gem_lang.Csp
module Buffer_problem = Gem_problems.Buffer
module Readers_writers = Gem_problems.Readers_writers

let with_telemetry f =
  T.reset ();
  T.enable ();
  Fun.protect ~finally:(fun () -> T.disable ()) f

let rw readers writers =
  Readers_writers.program ~monitor:Readers_writers.paper_monitor ~readers
    ~writers

let buffer_monitor =
  Buffer_problem.monitor_solution ~capacity:1 ~producers:1 ~consumers:1
    ~items_each:2

let buffer_csp =
  Buffer_problem.csp_solution ~capacity:1 ~producers:1 ~consumers:1
    ~items_each:2

(* ------------------------------------------------------------------ *)
(* Conservation across engine modes                                    *)
(* ------------------------------------------------------------------ *)

(* Each cell explores rw 2r1w under one reduction engine, then checks
   the computations for refinement on [jobs] checking domains, handing
   [batch] computations to each [Refine.sat_ok] call. Exploration is
   sequential, so the exploration counters must satisfy the invariant
   before checking and must not move during it; the checking layer's own
   invariant counters must equal those of one sequential call over the
   whole list. Every rw 2r1w lattice fits under the run cap of 20, so
   the restrictions are decided on history lattices. *)

let rw_problem =
  Readers_writers.spec Readers_writers.Free_for_all
    ~users:(Readers_writers.user_names ~readers:2 ~writers:1)

let sat_rw ~jobs comps =
  Refine.sat_ok
    ~strategy:(Strategy.Linearizations (Some 20))
    ~jobs ~edges:Refine.Actor_paths ~problem:rw_problem
    ~map:Readers_writers.correspondence comps

let rec take n = function
  | x :: rest when n > 0 ->
      let b, rest = take (n - 1) rest in
      (x :: b, rest)
  | rest -> ([], rest)

let rec sat_batches ~jobs ~batch = function
  | [] -> true
  | comps ->
      let b, rest = take batch comps in
      let ok = sat_rw ~jobs b in
      sat_batches ~jobs ~batch rest && ok

let exploration_counters () =
  T.
    [
      read Configs_explored; read Configs_reduced; read Sleep_prunes;
      read Memo_hits; read Memo_misses; read Source_prunes;
      read Races_detected; read Backtrack_points;
    ]

let checking_counters () =
  T.
    [
      read Runs_enumerated; read Formula_evals; read Vhs_histories;
      read Lattice_histories;
    ]

let delta f check =
  let before = f () in
  let ok = check () in
  (ok, List.map2 ( - ) (f ()) before)

let check_conservation reduction ~jobs ~batch () =
  with_telemetry (fun () ->
      let o = Monitor.explore ~reduction (rw 2 1) in
      Alcotest.(check int)
        "telemetry explored = result explored" o.Monitor.explored
        (T.read T.Configs_explored);
      Alcotest.(check int)
        "telemetry reduced = result reduced" o.Monitor.reduced
        (T.read T.Configs_reduced);
      Alcotest.(check int)
        "reduced = sleep prunes + memo hits + source prunes"
        (T.read T.Sleep_prunes + T.read T.Memo_hits + T.read T.Source_prunes)
        (T.read T.Configs_reduced);
      (match reduction with
      | Explore.No_reduction ->
          Alcotest.(check int) "no sleep prunes without POR" 0
            (T.read T.Sleep_prunes);
          Alcotest.(check int) "no source prunes outside the source engine" 0
            (T.read T.Source_prunes)
      | Explore.Sleep_sets ->
          Alcotest.(check int) "no source prunes outside the source engine" 0
            (T.read T.Source_prunes)
      | Explore.Source_sets ->
          (* Its never-scheduled backtrack candidates land in
             Source_prunes, and the race machinery reports through
             Races_detected/Backtrack_points. *)
          Alcotest.(check bool) "contended workload detects races" true
            (T.read T.Races_detected > 0);
          Alcotest.(check bool) "races seed backtrack points" true
            (T.read T.Backtrack_points > 0));
      let explored = exploration_counters () in
      let comps = o.Monitor.computations in
      let ok_ref, ref_counts =
        delta checking_counters (fun () -> sat_rw ~jobs:1 comps)
      in
      let ok, counts =
        delta checking_counters (fun () -> sat_batches ~jobs ~batch comps)
      in
      Alcotest.(check bool) "paper monitor refines free-for-all" true ok_ref;
      Alcotest.(check bool) "same verdict as one sequential call" ok_ref ok;
      (match ref_counts with
      | [ _; evals; _; lattice ] ->
          Alcotest.(check bool) "checking built lattices and evaluated formulas"
            true
            (lattice > 0 && evals > 0)
      | _ -> assert false);
      Alcotest.(check (list int))
        "checking counters independent of jobs and batch" ref_counts counts;
      Alcotest.(check (list int))
        "checking leaves exploration counters untouched" explored
        (exploration_counters ()))

let conservation_tests =
  List.concat_map
    (fun (name, reduction, grid) ->
      List.map
        (fun (jobs, batch) ->
          Alcotest.test_case
            (Printf.sprintf "conservation %s jobs=%d batch=%d" name jobs batch)
            `Quick
            (check_conservation reduction ~jobs ~batch))
        grid)
    [
      ("por=true", Explore.Sleep_sets, [ (1, 1); (2, 7); (8, 1); (8, 64) ]);
      ("por=false", Explore.No_reduction, [ (1, 1); (2, 7); (8, 1); (8, 64) ]);
      ("source", Explore.Source_sets, [ (1, 1); (8, 64) ]);
    ]

(* The same invariant on a walk that checkpoints every 100
   configurations. Each grid point must really write a checkpoint. The
   plain walk runs on rw 1r1w, which is large enough to checkpoint
   without reduction and keeps the cell fast. *)
let test_conservation_grid () =
  let ck = Filename.temp_file "gem_telemetry" ".ckpt" in
  let resilience =
    {
      Explore.no_resilience with
      checkpoint = Some (Gem_check.Checkpoint.ctl ~every:100 ck);
    }
  in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists ck then Sys.remove ck)
    (fun () ->
      List.iter
        (fun (name, reduction, prog) ->
          with_telemetry (fun () ->
              let o = Monitor.explore ~reduction ~resilience prog in
              let tag what = Printf.sprintf "%s checkpoint: %s" name what in
              Alcotest.(check int)
                (tag "telemetry explored = result explored")
                o.Monitor.explored
                (T.read T.Configs_explored);
              Alcotest.(check int)
                (tag "telemetry reduced = result reduced")
                o.Monitor.reduced
                (T.read T.Configs_reduced);
              Alcotest.(check int)
                (tag "reduced = sleep prunes + memo hits + source prunes")
                (T.read T.Sleep_prunes + T.read T.Memo_hits
               + T.read T.Source_prunes)
                (T.read T.Configs_reduced);
              Alcotest.(check bool) (tag "checkpoint written") true
                (T.read T.Checkpoint_writes > 0)))
        [
          ("por=true", Explore.Sleep_sets, rw 2 1);
          ("por=false", Explore.No_reduction, rw 1 1);
        ])

(* Cross-language: the CSP interpreter feeds the same sink. *)
let test_conservation_csp () =
  with_telemetry (fun () ->
      let o = Csp.explore ~reduction:Explore.Sleep_sets buffer_csp in
      Alcotest.(check int) "csp explored" o.Csp.explored (T.read T.Configs_explored);
      Alcotest.(check int) "csp reduced" o.Csp.reduced (T.read T.Configs_reduced))

(* ------------------------------------------------------------------ *)
(* Observational transparency                                          *)
(* ------------------------------------------------------------------ *)

let sat_buffer comps =
  Refine.sat_ok
    ~strategy:(Strategy.Linearizations (Some 200))
    ~jobs:1
    ~problem:(Buffer_problem.spec ~capacity:1)
    ~map:Buffer_problem.monitor_correspondence comps

let test_transparency () =
  T.disable ();
  T.reset ();
  let o_off = Monitor.explore ~reduction:Explore.Sleep_sets buffer_monitor in
  let verdict_off = sat_buffer o_off.Monitor.computations in
  let fps_off =
    List.sort compare (List.map Explore.fingerprint o_off.Monitor.computations)
  in
  let verdict_on, fps_on =
    with_telemetry (fun () ->
        let o = Monitor.explore ~reduction:Explore.Sleep_sets buffer_monitor in
        ( sat_buffer o.Monitor.computations,
          List.sort compare (List.map Explore.fingerprint o.Monitor.computations)
        ))
  in
  Alcotest.(check bool) "verdict identical" verdict_off verdict_on;
  Alcotest.(check (list string)) "fingerprints identical" fps_off fps_on

(* ------------------------------------------------------------------ *)
(* Deterministic stats snapshot is --jobs-invariant                    *)
(* ------------------------------------------------------------------ *)

let test_deterministic_stats () =
  let snapshot ?(reduction = Explore.Sleep_sets) jobs =
    with_telemetry (fun () ->
        let o = Monitor.explore ~reduction (rw 2 1) in
        let problem =
          Readers_writers.spec Readers_writers.Free_for_all
            ~users:(Readers_writers.user_names ~readers:2 ~writers:1)
        in
        ignore
          (Refine.sat_ok
             ~strategy:(Strategy.Linearizations (Some 200))
             ~jobs ~edges:Refine.Actor_paths ~problem
             ~map:Readers_writers.correspondence o.Monitor.computations);
        T.stats_json ~deterministic:true ())
  in
  let s1 = snapshot 1 in
  Alcotest.(check string) "jobs=2 snapshot" s1 (snapshot 2);
  Alcotest.(check string) "jobs=8 snapshot" s1 (snapshot 8);
  Alcotest.(check string) "source-engine snapshot" s1
    (snapshot ~reduction:Explore.Source_sets 1);
  Alcotest.(check string) "plain-engine snapshot at jobs=2" s1
    (snapshot ~reduction:Explore.No_reduction 2);
  Alcotest.(check bool) "carries schema_version" true
    (String.length s1 > 0
    && String.sub s1 0 20 = {|{"schema_version":1,|})

(* ------------------------------------------------------------------ *)
(* Budget stops                                                        *)
(* ------------------------------------------------------------------ *)

let test_budget_stop_counter () =
  with_telemetry (fun () ->
      let budget = Budget.make ~max_configs:5 () in
      let o = Monitor.explore ~budget ~reduction:Explore.Sleep_sets (rw 2 1) in
      Alcotest.(check bool) "exploration was cut" true
        (o.Monitor.exhausted <> None);
      Alcotest.(check int) "config-budget stop recorded once" 1
        (T.read T.Budget_stop_configs);
      Alcotest.(check int) "no other stop reasons" 0
        (T.read T.Budget_stop_deadline + T.read T.Budget_stop_runs
       + T.read T.Budget_stop_memory))

(* Every stop reason a verdict carries has its counter raised — the
   run-cap reason included, although Check records it per enumeration
   rather than on the shared budget. Each case runs the whole one-shot
   pipeline on rw 2r1w. A run cap of 1 bounds each history lattice at
   events + 1 histories, which no rw 2r1w lattice fits, so every
   computation falls back to capped enumeration. *)
let test_verdict_reason_counters () =
  let load =
    match Gem_syntax.Request.parse "check rw readers=2 writers=1" with
    | Ok (Gem_syntax.Request.Check c) -> (
        match Gem_daemon.Runner.of_request c with
        | Ok l -> l
        | Error e -> Alcotest.fail e)
    | Ok _ | Error _ -> Alcotest.fail "request did not parse"
  in
  let opts =
    Gem_daemon.Runner.opts_of_engine load Gem_syntax.Request.default_engine
  in
  List.iter
    (fun (budget, reason, counter) ->
      with_telemetry (fun () ->
          let r =
            Gem_daemon.Runner.run load opts ~budget:(budget ()) ~restrict:None
          in
          (match r.Gem_daemon.Runner.status with
          | Gem_check.Verdict.Inconclusive got ->
              Alcotest.(check string) "verdict reason" reason
                (Budget.reason_keyword got)
          | s ->
              Alcotest.failf "expected an Inconclusive %s, got %a" reason
                Gem_check.Verdict.pp_status s);
          Alcotest.(check bool)
            (Printf.sprintf "%s counter is at least 1" reason)
            true
            (T.read counter >= 1)))
    [
      ((fun () -> Budget.make ~timeout:0.0 ()), "deadline-exceeded",
        T.Budget_stop_deadline);
      ((fun () -> Budget.make ~max_configs:50 ()), "config-budget",
        T.Budget_stop_configs);
      ((fun () -> Budget.make ~max_runs:1 ()), "run-cap", T.Budget_stop_runs);
      ((fun () -> Budget.make ~max_heap_mb:1 ()), "memory-watermark",
        T.Budget_stop_memory);
    ]

(* ------------------------------------------------------------------ *)
(* Disabled sink records nothing                                       *)
(* ------------------------------------------------------------------ *)

let all_counters =
  T.
    [
      Configs_explored; Configs_reduced; Memo_hits; Memo_misses; Sleep_prunes;
      Runs_enumerated; Formula_evals; Vhs_histories; Budget_stop_deadline;
      Budget_stop_configs; Budget_stop_runs; Budget_stop_memory;
      Races_detected; Backtrack_points; Source_prunes;
    ]

let all_phases =
  T.[ Interp_step; Canon_key; Seen_table; Run_enum; Formula_eval; Project; Merge; Race_analysis ]

(* The race analysis is source-DPOR's own work: it has spans under
   source and none under sleep sets, and the interpreter steps source
   builds late extend the configuration's one [Interp_step] span, so
   both engines count one per expanded configuration. *)
let test_race_analysis_span () =
  T.enable ();
  List.iter
    (fun (reduction, expect_races) ->
      T.reset ();
      let o = Monitor.explore ~reduction buffer_monitor in
      let name = Explore.reduction_name reduction in
      Alcotest.(check bool)
        (Printf.sprintf "%s: race_analysis spans" name)
        expect_races
        (T.span_count T.Race_analysis > 0);
      Alcotest.(check int)
        (Printf.sprintf "%s: one interp_step per expanded configuration" name)
        (o.Monitor.explored - o.Monitor.truncated)
        (T.span_count T.Interp_step))
    [ (Explore.Sleep_sets, false); (Explore.Source_sets, true) ];
  T.disable ();
  T.reset ()

let test_disabled_noop () =
  T.disable ();
  T.reset ();
  let o = Monitor.explore ~reduction:Explore.Sleep_sets buffer_monitor in
  ignore (sat_buffer o.Monitor.computations);
  List.iter
    (fun c ->
      Alcotest.(check int)
        (Printf.sprintf "counter %s stays zero" (T.counter_name c))
        0 (T.read c))
    all_counters;
  List.iter
    (fun p ->
      Alcotest.(check int)
        (Printf.sprintf "span %s stays zero" (T.phase_name p))
        0 (T.span_count p))
    all_phases

(* ------------------------------------------------------------------ *)
(* Trace export                                                        *)
(* ------------------------------------------------------------------ *)

(* Last in the suite: [trace_to] arms the exporter for the rest of the
   process (there is deliberately no disarm — gemcheck flushes at exit). *)
let test_trace_export () =
  let file = Filename.temp_file "gem_trace" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove file)
    (fun () ->
      T.reset ();
      T.trace_to file;
      Fun.protect
        ~finally:(fun () -> T.disable ())
        (fun () ->
          ignore (Monitor.explore ~reduction:Explore.Sleep_sets buffer_monitor);
          T.flush_trace ());
      let ic = open_in file in
      let lines = ref [] in
      (try
         while true do
           lines := input_line ic :: !lines
         done
       with End_of_file -> close_in ic);
      let lines = List.rev !lines in
      let contains ~needle hay =
        let nh = String.length needle and lh = String.length hay in
        let rec at i = i + nh <= lh && (String.sub hay i nh = needle || at (i + 1)) in
        at 0
      in
      Alcotest.(check bool) "trace is non-empty" true (List.length lines > 0);
      List.iter
        (fun l ->
          let well_formed =
            String.length l > 9
            && String.sub l 0 9 = {|{"name":"|}
            && l.[String.length l - 1] = '}'
            && contains ~needle:{|"ph":"X"|} l
            && contains ~needle:{|"cat":"gem"|} l
          in
          Alcotest.(check bool)
            (Printf.sprintf "trace line well-formed: %s" l)
            true well_formed)
        lines)

let () =
  Alcotest.run "telemetry"
    [
      ( "conservation",
        conservation_tests
        @ [
            Alcotest.test_case "counter invariants on grid" `Quick
              test_conservation_grid;
          ] );
      ( "cross-language",
        [ Alcotest.test_case "csp conservation" `Quick test_conservation_csp ] );
      ( "transparency",
        [ Alcotest.test_case "verdicts unchanged" `Quick test_transparency ] );
      ( "determinism",
        [
          Alcotest.test_case "stats snapshot jobs-invariant" `Quick
            test_deterministic_stats;
        ] );
      ( "budget",
        [
          Alcotest.test_case "stop counter" `Quick test_budget_stop_counter;
          Alcotest.test_case "verdict reason has its counter" `Quick
            test_verdict_reason_counters;
        ] );
      ( "disabled",
        [ Alcotest.test_case "no-op sink" `Quick test_disabled_noop ] );
      ( "spans",
        [ Alcotest.test_case "race_analysis" `Quick test_race_analysis_span ] );
      ( "trace",
        [ Alcotest.test_case "chrome trace export" `Quick test_trace_export ] );
    ]
