(* Benchmark harness: the gates that hold the exploration and checking
   layers to their counts and overhead bounds. Each mode writes one
   BENCH_*.json in the current directory; a run with no flag runs every
   mode.

   Run with: dune exec bench/main.exe [-- MODE]

   --budget-only     budget-accounting overhead on the E14 check
                     (BENCH_budget.json) — cheap enough for CI
   --dpor-only       states explored by the three reduction engines
                     (--reduction none/sleep/source; BENCH_dpor.json,
                     which the CI bench gate reads: source must never
                     explore more than sleep, with identical fingerprint
                     multisets on completed rows, and the rows must equal
                     the committed file's)
   --keys-only       exact keys vs fingerprints, and the collisions the
                     exact-key audit finds (BENCH_keys.json)
   --stats-only, --quick --stats
                     the deterministic telemetry counters
                     (BENCH_stats.json, BENCH_stats_golden.json)
   --telemetry-only  telemetry overhead (BENCH_telemetry.json)
   --bitstate-only   bitstate capacity (BENCH_bitstate.json)
   --serve-only      the daemon's cache speedup (BENCH_serve.json) *)

(* [open Gem] shadows the systhreads [Thread] with the specification
   layer's event-thread module; keep the OS one reachable for the serve
   bench. *)
module Os_thread = Thread

open Gem

(* ------------------------------------------------------------------ *)
(* Report provenance                                                   *)
(* ------------------------------------------------------------------ *)

(* Every BENCH_*.json carries a schema version and the git revision it
   was measured at, so trajectory tooling can line reports up across
   commits. The revision comes from git when available, from the CI
   environment otherwise, and degrades to "unknown" in an export. *)

let bench_schema_version = 1

let git_rev =
  let from_git () =
    try
      let ic = Unix.open_process_in "git rev-parse HEAD 2>/dev/null" in
      let line = try String.trim (input_line ic) with End_of_file -> "" in
      match Unix.close_process_in ic with
      | Unix.WEXITED 0 when line <> "" -> Some line
      | _ -> None
    with _ -> None
  in
  match from_git () with
  | Some rev -> rev
  | None -> (
      match Sys.getenv_opt "GITHUB_SHA" with
      | Some rev when rev <> "" -> rev
      | _ -> "unknown")

let provenance_fields =
  Printf.sprintf {|"schema_version":%d,"git_rev":"%s"|} bench_schema_version
    git_rev

(* ------------------------------------------------------------------ *)
(* Pre-built workloads                                                 *)
(* ------------------------------------------------------------------ *)

let rw_program readers writers =
  Readers_writers.program ~monitor:Readers_writers.paper_monitor ~readers ~writers

let rw11 = rw_program 1 1
let rw11_spec = Monitor.language_spec rw11
let rw_one_comp = Explore.run_one ~seed:5 (Monitor.lang rw11)

let buffer_monitor_program =
  Buffer_problem.monitor_solution ~capacity:1 ~producers:1 ~consumers:1 ~items_each:2

let buffer_csp_program =
  Buffer_problem.csp_solution ~capacity:1 ~producers:1 ~consumers:1 ~items_each:2

let buffer_ada_program =
  Buffer_problem.ada_solution ~capacity:1 ~producers:1 ~consumers:1 ~items_each:2

let rwd_csp = Rw_distributed.csp_program ~readers:1 ~writers:1
let rwd_ada = Rw_distributed.ada_program ~readers:1 ~writers:1

(* A representative footprint-disjointness check: two moves with
   interleaved (sorted, non-overlapping) element footprints, the shape
   the merge walk has to scan to the end. *)
let fp_move_a = { Explore.label = "a"; touches = [ "A"; "C"; "E"; "G" ] }
let fp_move_b = { Explore.label = "b"; touches = [ "B"; "D"; "F"; "H" ] }

let finish_write = Formula.(eventually (exists [ ("x", Cls "FinishWrite") ] (occurred "x")))

let fps comps = List.map Explore.fingerprint comps

(* ------------------------------------------------------------------ *)
(* Budget-accounting overhead (E14 workload)                           *)
(* ------------------------------------------------------------------ *)

(* Same temporal check as the E14 ablation tests; the budgeted variant
   carries a live (but never-exhausted) budget so every run goes through
   the charge/poll path. The delta is the accounting overhead, which the
   robustness work promises stays under 5%. *)

let e14_check ?budget () =
  ignore
    (Check.check_formula ?budget ~strategy:(Strategy.Linearizations (Some 2000))
       rw11_spec rw_one_comp ~name:"p" finish_write)

let budget_overhead_report () =
  let iters = 40 in
  (* Interleave the two variants rather than timing them in blocks:
     process-lifetime drift (heap growth, cache state) otherwise lands
     entirely on whichever block runs second and swamps the real delta. *)
  let time1 f =
    let t0 = Unix.gettimeofday () in
    f ();
    Unix.gettimeofday () -. t0
  in
  e14_check ();
  (* A fresh budget per iteration, as the CLI would construct one. *)
  let with_budget () =
    e14_check ~budget:(Budget.make ~timeout:3600.0 ~max_configs:max_int ()) ()
  in
  with_budget ();
  let bare_total = ref 0.0 and budgeted_total = ref 0.0 in
  for _ = 1 to iters do
    bare_total := !bare_total +. time1 (fun () -> e14_check ());
    budgeted_total := !budgeted_total +. time1 with_budget
  done;
  let bare = !bare_total /. float_of_int iters in
  let budgeted = !budgeted_total /. float_of_int iters in
  let overhead_pct = (budgeted -. bare) /. bare *. 100.0 in
  let json =
    Printf.sprintf
      {|{%s,"workload":"E14 linearizations-2000 temporal check","iters":%d,"bare_s_per_check":%.6e,"budgeted_s_per_check":%.6e,"overhead_pct":%.2f,"threshold_pct":5.0}|}
      provenance_fields iters bare budgeted overhead_pct
  in
  let oc = open_out "BENCH_budget.json" in
  output_string oc (json ^ "\n");
  close_out oc;
  Printf.printf "budget accounting overhead on E14 workload: %.2f%% (%s)\n"
    overhead_pct
    (if overhead_pct < 5.0 then "within 5% target" else "ABOVE 5% target");
  Printf.printf "wrote BENCH_budget.json\n%!"

(* ------------------------------------------------------------------ *)
(* Reduction engines: plain DFS vs sleep sets vs source-DPOR           *)
(* ------------------------------------------------------------------ *)

(* Each workload is explored once per reduction engine and the
   three-way comparison lands in BENCH_dpor.json. Source-DPOR's
   contract is a strict refinement of sleep sets: on every workload it
   must visit no more configurations than the sleep engine while
   producing the exact same completed-computation fingerprint multiset,
   and on the rendezvous-heavy ADA families it visits asymptotically
   fewer. Each row carries its own configuration cap — 200k except the
   promoted large instances below; a capped run reports
   [*_complete:false] and its fingerprint comparison is vacuously true
   (a truncated sample is traversal-order-dependent). The CI bench gate
   reads this file: source_explored must never exceed sleep_explored,
   and every row must report [fp_identical:true].

   rw-monitor-3r1w and rwd-ada-2r1w are the promoted larger instances:
   big enough that plain DFS always caps while both reduced engines
   still complete, so the sleep/source gap is visible at scale rather
   than only on toy programs (rwd-ada-2r1w needs the 1M cap: sleep
   completes near 780k configurations, source near 340k). *)
let dpor_cap = 200_000
let dpor_wide_cap = 1_000_000

let dpor_workloads =
  let row name cap lang =
    ( name, cap,
      fun reduction max_configs ->
        let o = Explore.explore ~reduction ~max_configs lang in
        ( o.Explore.explored, o.Explore.reduced,
          List.sort compare (fps o.Explore.computations),
          o.Explore.exhausted = None ) )
  in
  [
    row "rw-monitor-1r1w" dpor_cap (Monitor.lang (rw_program 1 1));
    row "rw-monitor-2r1w" dpor_cap (Monitor.lang (rw_program 2 1));
    row "rw-monitor-3r1w" dpor_cap (Monitor.lang (rw_program 3 1));
    row "buffer-monitor-1p1c2i" dpor_cap (Monitor.lang buffer_monitor_program);
    row "buffer-csp-1p1c2i" dpor_cap (Csp.lang buffer_csp_program);
    row "buffer-ada-1p1c2i" dpor_cap (Ada.lang buffer_ada_program);
    row "rwd-csp-1r1w" dpor_cap (Csp.lang rwd_csp);
    row "rwd-ada-1r1w" dpor_cap (Ada.lang rwd_ada);
    row "rwd-ada-2r1w" dpor_wide_cap
      (Ada.lang (Rw_distributed.ada_program ~readers:2 ~writers:1));
    ( "db-update-2-sites", dpor_cap,
      fun reduction max_configs ->
        (* Db_update reports computation counts, not fingerprints; the
           count stands in as the comparison signature. *)
        let r = Db_update.check ~reduction ~max_configs ~sites:2 () in
        ( r.Db_update.explored, r.Db_update.reduced,
          [ string_of_int r.Db_update.computations ],
          r.Db_update.exhausted = None ) );
  ]

let dpor_report () =
  let rows =
    List.map
      (fun (name, cap, run) ->
        let none_explored, _, _, none_complete = run Explore.No_reduction cap in
        let sleep_explored, sleep_reduced, sleep_sig, sleep_complete =
          run Explore.Sleep_sets cap
        in
        let source_explored, source_reduced, source_sig, source_complete =
          run Explore.Source_sets cap
        in
        let fp_identical =
          (not (sleep_complete && source_complete)) || sleep_sig = source_sig
        in
        let ratio =
          float_of_int sleep_explored /. float_of_int (max 1 source_explored)
        in
        Printf.printf
          "%-24s none: %7d%s  sleep: %7d%s  source: %7d%s  %.2fx%s\n%!" name
          none_explored
          (if none_complete then "" else "*")
          sleep_explored
          (if sleep_complete then "" else "*")
          source_explored
          (if source_complete then "" else "*")
          ratio
          (if fp_identical then "" else "  FP-DRIFT");
        Printf.sprintf
          {|{"workload":"%s","cap":%d,"none_explored":%d,"none_complete":%b,"sleep_explored":%d,"sleep_reduced":%d,"sleep_complete":%b,"source_explored":%d,"source_reduced":%d,"source_complete":%b,"fp_identical":%b,"sleep_vs_source_ratio":%.2f}|}
          name cap none_explored none_complete sleep_explored sleep_reduced
          sleep_complete source_explored source_reduced source_complete
          fp_identical ratio)
      dpor_workloads
  in
  let oc = open_out "BENCH_dpor.json" in
  output_string oc
    (Printf.sprintf "{%s,\"rows\":[\n  %s\n]}\n" provenance_fields
       (String.concat ",\n  " rows));
  close_out oc;
  Printf.printf "wrote BENCH_dpor.json (* = capped)\n%!"

(* ------------------------------------------------------------------ *)
(* Search keys: exact canonical strings vs incremental fingerprints    *)
(* ------------------------------------------------------------------ *)

(* Each workload is explored twice per measurement — once keyed on exact
   marshal-string canonical keys (--exact-keys), once on incremental
   126-bit fingerprints (the default) — POR on, so the only difference
   is key construction. Besides wall time and speedup, every
   row records whether the two key modes produced the same
   computation-fingerprint multiset (the byte-identical-verdict
   contract) and, from a separate untimed audited leg, the number of
   fingerprint collisions the exact-key oracle detected (must be 0).
   A microbenchmark of the sorted-footprint disjointness walk
   (Explore.independent) rides along as footprint_check_ns. *)

module T = Telemetry

let keys_workloads =
  let row name lang =
    ( name,
      fun ~exact ~audit ->
        let o =
          Explore.explore ~reduction:Explore.Sleep_sets ~exact_keys:exact
            ~audit_keys:audit lang
        in
        ( o.Explore.explored, o.Explore.exhausted = None,
          fps o.Explore.computations @ fps o.Explore.deadlocks ) )
  in
  [
    row "rw-monitor-2r1w" (Monitor.lang (rw_program 2 1));
    row "buffer-ada-1p1c2i" (Ada.lang buffer_ada_program);
    row "rwd-ada-1r1w" (Ada.lang rwd_ada);
    row "buffer-csp-1p1c2i" (Csp.lang buffer_csp_program);
  ]

let keys_report () =
  let iters = 5 in
  (* One warm-up run, then the average of [iters] timed runs; the two key
     modes are interleaved so process-lifetime drift (heap growth, cache
     state) does not land entirely on one of them. *)
  let rows =
    List.map
      (fun (name, run) ->
        let time1 f =
          let t0 = Unix.gettimeofday () in
          let r = f () in
          (Unix.gettimeofday () -. t0, r)
        in
        ignore (run ~exact:true ~audit:false);
        ignore (run ~exact:false ~audit:false);
        let exact_total = ref 0.0 and fp_total = ref 0.0 in
        let exact_r = ref (0, false, []) and fp_r = ref (0, false, []) in
        for _ = 1 to iters do
          let s, r = time1 (fun () -> run ~exact:true ~audit:false) in
          exact_total := !exact_total +. s;
          exact_r := r;
          let s, r = time1 (fun () -> run ~exact:false ~audit:false) in
          fp_total := !fp_total +. s;
          fp_r := r
        done;
        let exact_s = !exact_total /. float_of_int iters in
        let fp_s = !fp_total /. float_of_int iters in
        let speedup = exact_s /. Float.max 1e-9 fp_s in
        let exact_explored, exact_complete, exact_fps = !exact_r in
        let fp_explored, fp_complete, fp_fps = !fp_r in
        let identical =
          List.sort compare fp_fps = List.sort compare exact_fps
          && exact_complete && fp_complete
        in
        (* Untimed audited leg: fingerprint keys with the exact key as a
           collision oracle on every seen-table arrival. *)
        T.reset ();
        T.enable ();
        ignore (run ~exact:false ~audit:true);
        T.disable ();
        let collisions = T.read T.Fingerprint_collisions in
        Printf.printf
          "%-22s exact %8.4fs  fp %8.4fs  %5.2fx  explored=%-7d %s  collisions=%d\n%!"
          name exact_s fp_s speedup fp_explored
          (if identical then "verdict-identical" else "VERDICT-MISMATCH")
          collisions;
        ( speedup,
          Printf.sprintf
            {|{"workload":"%s","exact_s":%.6f,"fp_s":%.6f,"speedup":%.3f,"exact_explored":%d,"fp_explored":%d,"verdicts_identical":%b,"fingerprint_collisions":%d}|}
            name exact_s fp_s speedup exact_explored fp_explored identical
            collisions ))
      keys_workloads
  in
  let footprint_check_ns =
    let ops = 2_000_000 in
    let t0 = Unix.gettimeofday () in
    for _ = 1 to ops do
      ignore (Explore.independent fp_move_a fp_move_b)
    done;
    (Unix.gettimeofday () -. t0) /. float_of_int ops *. 1e9
  in
  let fast = List.length (List.filter (fun (s, _) -> s >= 2.0) rows) in
  Printf.printf "footprint disjointness check: %.1f ns/op\n%!" footprint_check_ns;
  Printf.printf "%d/%d workloads at >= 2x\n%!" fast (List.length rows);
  let oc = open_out "BENCH_keys.json" in
  output_string oc
    (Printf.sprintf
       "{%s,\"footprint_check_ns\":%.2f,\"rows\":[\n  %s\n]}\n"
       provenance_fields footprint_check_ns
       (String.concat ",\n  " (List.map snd rows)));
  close_out oc;
  Printf.printf "wrote BENCH_keys.json\n%!"

(* ------------------------------------------------------------------ *)
(* Telemetry counters: deterministic golden values                     *)
(* ------------------------------------------------------------------ *)

(* Four workloads explored with POR on (every counter is deterministic:
   the walk is sequential, with a fixed visit order), then checked at an
   explicit jobs=1 with a fixed run cap. The
   counters land in two files: BENCH_stats.json (with provenance) and
   BENCH_stats_golden.json (schema_version + workloads only, no
   git_rev), which CI diffs byte-for-byte against bench/golden/stats.json
   to catch silent search-space or enumeration drift. *)

let stats_workloads =
  let row name lang ?edges ~problem ~map () =
    ( name,
      fun () ->
        let o = Explore.explore ~reduction:Explore.Sleep_sets lang in
        ignore
          (Refine.sat_ok ~strategy:(Strategy.Linearizations (Some 200)) ~jobs:1 ?edges
             ~problem ~map o.Explore.computations);
        (List.length o.Explore.computations, List.length o.Explore.deadlocks) )
  in
  let buffer_problem = Buffer_problem.spec ~capacity:1 in
  [
    row "rw-monitor-2r1w" (Monitor.lang (rw_program 2 1)) ~edges:Refine.Actor_paths
      ~problem:
        (Readers_writers.spec Readers_writers.Free_for_all
           ~users:(Readers_writers.user_names ~readers:2 ~writers:1))
      ~map:Readers_writers.correspondence ();
    row "buffer-monitor-1p1c2i" (Monitor.lang buffer_monitor_program)
      ~problem:buffer_problem ~map:Buffer_problem.monitor_correspondence ();
    row "buffer-csp-1p1c2i" (Csp.lang buffer_csp_program) ~problem:buffer_problem
      ~map:Buffer_problem.csp_correspondence ();
    row "buffer-ada-1p1c2i" (Ada.lang buffer_ada_program) ~problem:buffer_problem
      ~map:Buffer_problem.ada_correspondence ();
  ]

let stats_report () =
  let rows =
    List.map
      (fun (name, run) ->
        T.reset ();
        T.enable ();
        let comps, deadlocks = run () in
        T.disable ();
        Printf.printf
          "%-24s explored=%-6d reduced=%-6d runs=%-5d evals=%-6d vhs=%d\n%!"
          name (T.read T.Configs_explored) (T.read T.Configs_reduced)
          (T.read T.Runs_enumerated) (T.read T.Formula_evals)
          (T.read T.Vhs_histories);
        Printf.sprintf
          {|{"workload":"%s","configs_explored":%d,"configs_reduced":%d,"memo_hits":%d,"memo_misses":%d,"sleep_prunes":%d,"computations":%d,"deadlocks":%d,"runs_enumerated":%d,"formula_evals":%d,"vhs_histories":%d}|}
          name (T.read T.Configs_explored) (T.read T.Configs_reduced)
          (T.read T.Memo_hits) (T.read T.Memo_misses) (T.read T.Sleep_prunes)
          comps deadlocks (T.read T.Runs_enumerated) (T.read T.Formula_evals)
          (T.read T.Vhs_histories))
      stats_workloads
  in
  let body = String.concat ",\n  " rows in
  let oc = open_out "BENCH_stats_golden.json" in
  output_string oc
    (Printf.sprintf "{\"schema_version\":%d,\"workloads\":[\n  %s\n]}\n"
       bench_schema_version body);
  close_out oc;
  let oc = open_out "BENCH_stats.json" in
  output_string oc
    (Printf.sprintf "{%s,\"workloads\":[\n  %s\n]}\n" provenance_fields body);
  close_out oc;
  Printf.printf "wrote BENCH_stats.json and BENCH_stats_golden.json\n%!"

(* ------------------------------------------------------------------ *)
(* Telemetry overhead: disabled path must stay under 2%                *)
(* ------------------------------------------------------------------ *)

(* Two measurements per workload: wall time with the sink disabled vs
   enabled, and a microbenchmark of the disabled counter op itself
   (one atomic load + branch). The estimated disabled overhead — events
   recorded per run times the disabled per-op cost, over the disabled
   runtime — is the honest version of the <2% claim: the direct
   disabled-vs-never-instrumented delta is below measurement noise. *)

let telemetry_counters =
  T.
    [
      Configs_explored; Configs_reduced; Memo_hits; Memo_misses; Sleep_prunes;
      Fingerprint_collisions; Footprint_checks; Runs_enumerated; Formula_evals;
      Vhs_histories;
    ]

let telemetry_phases =
  T.[ Interp_step; Canon_key; Seen_table; Run_enum; Formula_eval; Project; Merge; Race_analysis ]

let telemetry_overhead_report () =
  T.disable ();
  let ops = 5_000_000 in
  let t0 = Unix.gettimeofday () in
  for _ = 1 to ops do
    T.hit T.Configs_explored
  done;
  let ns_per_disabled_op =
    (Unix.gettimeofday () -. t0) /. float_of_int ops *. 1e9
  in
  let iters = 3 in
  let time1 f =
    let t1 = Unix.gettimeofday () in
    f ();
    Unix.gettimeofday () -. t1
  in
  let rows =
    List.map
      (fun (name, run) ->
        (* One warm-up, then one counted enabled run to size the event
           stream, then interleaved disabled/enabled timing pairs (block
           timing would put process-lifetime drift entirely on the
           second block and swamp the delta being measured). *)
        T.disable ();
        ignore (run ());
        T.reset ();
        T.enable ();
        ignore (run ());
        T.disable ();
        let counter_events =
          List.fold_left (fun acc c -> acc + T.read c) 0 telemetry_counters
        in
        let span_events =
          2 * List.fold_left (fun acc p -> acc + T.span_count p) 0 telemetry_phases
        in
        let events_per_run = counter_events + span_events in
        let dis = ref 0.0 and en = ref 0.0 in
        for _ = 1 to iters do
          T.disable ();
          dis := !dis +. time1 (fun () -> ignore (run ()));
          T.enable ();
          en := !en +. time1 (fun () -> ignore (run ()))
        done;
        T.disable ();
        let disabled_s = !dis /. float_of_int iters in
        let enabled_s = !en /. float_of_int iters in
        let est_disabled_pct =
          float_of_int events_per_run *. ns_per_disabled_op
          /. (disabled_s *. 1e9) *. 100.0
        in
        let measured_enabled_pct = (enabled_s -. disabled_s) /. disabled_s *. 100.0 in
        Printf.printf
          "%-24s disabled %8.4fs  enabled %8.4fs  %d events/run  est disabled overhead %.3f%%\n%!"
          name disabled_s enabled_s events_per_run est_disabled_pct;
        Printf.sprintf
          {|{"workload":"%s","disabled_s":%.6f,"enabled_s":%.6f,"events_per_run":%d,"est_disabled_overhead_pct":%.4f,"measured_enabled_overhead_pct":%.2f}|}
          name disabled_s enabled_s events_per_run est_disabled_pct
          measured_enabled_pct)
      stats_workloads
  in
  let oc = open_out "BENCH_telemetry.json" in
  output_string oc
    (Printf.sprintf
       "{%s,\"ns_per_disabled_op\":%.3f,\"threshold_pct\":2.0,\"rows\":[\n  %s\n]}\n"
       provenance_fields ns_per_disabled_op
       (String.concat ",\n  " rows));
  close_out oc;
  Printf.printf "disabled counter op: %.2f ns\nwrote BENCH_telemetry.json\n%!"
    ns_per_disabled_op

(* ------------------------------------------------------------------ *)
(* Bitstate capacity: >= 10^7 configurations in fixed heap             *)
(* ------------------------------------------------------------------ *)

(* Two rows land in BENCH_bitstate.json:

   - a synthetic W x H grid DAG — every interior configuration has two
     successors and is reachable along binomial(W+H, W) interleavings,
     so the walk is intractable without a seen set, and an exact table
     at ~100 B/state would need gigabytes where the bitstate table is a
     fixed [16 B * 2^bits]. The row demonstrates the capacity target:
     >= 10^7 distinct configurations admitted through one bounded
     table, with peak RSS recorded;
   - the 4-site database update, driven through the small-step
     interface (configurations only, no computation reconstruction) and
     cut by a config budget — the honest configs/sec figure on a real
     interpreter. *)

let peak_rss_mb () =
  (* VmHWM is Linux-only; degrade to the GC's top heap estimate. *)
  let from_status () =
    try
      let ic = open_in "/proc/self/status" in
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          let rec scan () =
            let line = input_line ic in
            if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
              Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB"
                (fun kb -> Some (kb / 1024))
            else scan ()
          in
          scan ())
    with _ -> None
  in
  match from_status () with
  | Some mb -> mb
  | None -> (Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8) / (1024 * 1024)

let bitstate_target = 10_000_000

let bitstate_row ~name ~bits ~max_configs ~max_steps ~key ~moves ~terminated init =
  let table = Bitstate.create ~bits () in
  let res = { Explore.no_resilience with bitstate = Some table } in
  let t0 = Unix.gettimeofday () in
  let r =
    Explore.run ~max_configs ~max_steps ~resilience:res ~key ~moves
      ~terminated init
  in
  let wall_s = Unix.gettimeofday () -. t0 in
  let explored = r.Explore.explored in
  let configs_per_sec = float_of_int explored /. Float.max 1e-9 wall_s in
  let reason =
    match r.Explore.exhausted with
    | None -> "none"
    | Some reason -> Budget.reason_keyword reason
  in
  let table_mb = Bitstate.capacity table * 16 / (1024 * 1024) in
  let peak_mb = peak_rss_mb () in
  Printf.printf
    "%-22s explored=%-9d %8.2fs  %9.0f configs/s  table=%dMiB occ=%d sat=%b peak-rss=%dMiB  %s\n%!"
    name explored wall_s configs_per_sec table_mb (Bitstate.occupancy table)
    (Bitstate.saturated table) peak_mb reason;
  ( explored,
    Printf.sprintf
      {|{"workload":"%s","bits":%d,"table_mb":%d,"configs_explored":%d,"wall_s":%.3f,"configs_per_sec":%.0f,"occupancy":%d,"saturated":%b,"peak_rss_mb":%d,"reason":"%s"}|}
      name bits table_mb explored wall_s configs_per_sec
      (Bitstate.occupancy table) (Bitstate.saturated table) peak_mb reason )

let bitstate_report () =
  (* 3500 x 3500 grid: 12.25M distinct states, ~73% occupancy of a
     2^24-slot (256 MiB) table — under the 7/8 load cap, so the demo
     measures collision-prone capacity, not saturation. *)
  let w = 3500 in
  let grid_explored, grid_row =
    bitstate_row ~name:"synthetic-grid-3500" ~bits:24
      ~max_configs:(4 * bitstate_target)
      ~max_steps:(4 * w)
      ~key:(fun c -> Explore.Fp (Fingerprint.of_string (string_of_int c)))
      ~moves:(fun c ->
        let i = c / w and j = c mod w in
        (if i + 1 < w then [ c + w ] else [])
        @ (if j + 1 < w then [ c + 1 ] else []))
      ~terminated:(fun c -> c = (w * w) - 1)
      0
  in
  let db4 = Csp.lang (Db_update.program ~sites:4) in
  let _, db_row =
    bitstate_row ~name:"db-update-4-sites" ~bits:22 ~max_configs:2_000_000
      ~max_steps:10_000
      ~key:(fun c -> Explore.Fp (db4.fp_key c))
      ~moves:(Explore.moves db4) ~terminated:db4.terminated db4.init
  in
  let met = grid_explored >= bitstate_target in
  Printf.printf "capacity target: %d configs through a bounded table — %s\n%!"
    bitstate_target
    (if met then "met" else "NOT MET");
  let oc = open_out "BENCH_bitstate.json" in
  output_string oc
    (Printf.sprintf
       "{%s,\"target_configs\":%d,\"target_met\":%b,\"rows\":[\n  %s\n]}\n"
       provenance_fields bitstate_target met
       (String.concat ",\n  " [ grid_row; db_row ]));
  close_out oc;
  Printf.printf "wrote BENCH_bitstate.json\n%!"

(* ------------------------------------------------------------------ *)
(* Checking-daemon round trips: BENCH_serve.json                       *)
(* ------------------------------------------------------------------ *)

(* The verdict cache's reason to exist, measured: a cached answer must
   be at least 10x faster than computing the verdict fresh (the gate
   CI's bench job reads), and a stampede of identical concurrent
   requests must collapse onto one computation. The daemon runs
   in-process over a real Unix socket, so the hit numbers include the
   full wire round trip — connect, frame, look up, read back. *)
let serve_report () =
  let socket =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "gem-bench-%d.sock" (Unix.getpid ()))
  in
  let handler = Handler.create ~cache_size:64 () in
  let server = Server.create ~socket () in
  let thread =
    Os_thread.create (fun () -> Server.run server ~handler:(Handler.handle handler)) ()
  in
  let request line =
    match Client.request ~socket line with
    | Ok r when r.Client.error = None -> r
    | Ok r ->
        failwith
          (Printf.sprintf "daemon error for %S: %s" line
             (Option.value ~default:"?" r.Client.error))
    | Error e -> failwith (Printf.sprintf "transport error for %S: %s" line e)
  in
  let timed line =
    let t0 = Unix.gettimeofday () in
    let r = request line in
    ((Unix.gettimeofday () -. t0) *. 1000., r)
  in
  let provenance r =
    Option.value ~default:"?" (Client.field_string r.Client.header "cache")
  in
  let hit_samples = 100 in
  let row (name, line) =
    let cold_ms, cold = timed line in
    if provenance cold <> "miss" then
      failwith (name ^ ": expected a cold miss — stale daemon state?");
    let samples =
      List.init hit_samples (fun _ ->
          let ms, r = timed line in
          if provenance r <> "hit" then failwith (name ^ ": expected a hit");
          ms)
    in
    let hit_ms = List.nth (List.sort compare samples) (hit_samples / 2) in
    let speedup = cold_ms /. hit_ms in
    Printf.printf "serve %-12s cold %9.2f ms   hit %6.3f ms   speedup %8.1fx\n%!"
      name cold_ms hit_ms speedup;
    ( speedup,
      Printf.sprintf
        {|{"workload":"%s","request":"%s","cold_ms":%.3f,"hit_ms":%.3f,"speedup":%.1f}|}
        name line cold_ms hit_ms speedup )
  in
  let rows =
    List.map row
      [
        ("rw-2r1w", "check rw readers=2 writers=1");
        ("buffer-c2", "check buffer capacity=2 producers=1 consumers=1 items=3");
        ("db-3-sites", "check db sites=3");
      ]
  in
  (* Stampede: concurrent identical requests against a cold key — all
     but one answered without computing (coalesced while in flight, or a
     hit if they arrive after completion). *)
  let stampede = 8 in
  let line = "check rwd readers=1 writers=1" in
  let provs = Array.make stampede "" in
  let threads =
    List.init stampede (fun i ->
        Os_thread.create (fun () -> provs.(i) <- provenance (request line)) ())
  in
  List.iter Os_thread.join threads;
  let count p = Array.fold_left (fun n q -> if q = p then n + 1 else n) 0 provs in
  Printf.printf
    "serve stampede: %d concurrent duplicates -> %d computed, %d coalesced, %d hits\n%!"
    stampede (count "miss") (count "coalesced") (count "hit");
  Server.request_stop server;
  Os_thread.join thread;
  let met = List.for_all (fun (s, _) -> s >= 10.) rows in
  Printf.printf "cache speedup target: >=10x on every workload — %s\n%!"
    (if met then "met" else "NOT MET");
  let oc = open_out "BENCH_serve.json" in
  output_string oc
    (Printf.sprintf
       "{%s,\"hit_samples\":%d,\"speedup_target\":10,\"target_met\":%b,\"stampede\":{\"requests\":%d,\"computed\":%d,\"shared\":%d},\"rows\":[\n  %s\n]}\n"
       provenance_fields hit_samples met stampede (count "miss")
       (count "coalesced" + count "hit")
       (String.concat ",\n  " (List.map snd rows)));
  close_out oc;
  Printf.printf "wrote BENCH_serve.json\n%!"

(* ------------------------------------------------------------------ *)
(* Driver                                                              *)
(* ------------------------------------------------------------------ *)

let () =
  let has flag = Array.exists (String.equal flag) Sys.argv in
  if has "--telemetry-only" then telemetry_overhead_report ()
  else if has "--stats-only" || (has "--quick" && has "--stats") then
    stats_report ()
  else if has "--dpor-only" then dpor_report ()
  else if has "--keys-only" then keys_report ()
  else if has "--bitstate-only" then bitstate_report ()
  else if has "--budget-only" then budget_overhead_report ()
  else if has "--serve-only" then serve_report ()
  else begin
    budget_overhead_report ();
    dpor_report ();
    keys_report ();
    stats_report ();
    telemetry_overhead_report ();
    bitstate_report ();
    serve_report ()
  end
