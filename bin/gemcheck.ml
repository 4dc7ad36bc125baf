(* gemcheck — command-line front end to the GEM toolkit.

   Subcommands:
     experiments  run the reproduction experiments (optionally a subset)
     rw           verify a Readers/Writers monitor against a problem version
     buffer       verify a bounded-buffer solution in a chosen language
     db           explore the distributed database update
     life         check the asynchronous Game of Life
     fuzz         differential fuzzing across the engine lattice
     matrix       sweep the parameterized workload matrix (BENCH JSON)
     parse        parse and echo a GEM specification file
     serve        long-running checking daemon with a verdict cache
     client       send one request to a running serve daemon

   Every verification subcommand accepts a resource budget (--timeout,
   --max-configs, --max-runs), bounds its heap at a watermark derived
   from the process's own memory limits, and degrades gracefully:
   exhaustion yields a three-valued INCONCLUSIVE outcome with a reason
   and coverage stats instead of a crash or a silently truncated
   "verified".

   The verification pipelines themselves live in Gem_daemon.Runner so
   that a one-shot run and a daemon response are the same code path —
   the serve cache's byte-identity guarantee depends on it. This file is
   flag parsing, signal wiring and human-facing printing.

   Exit codes: 0 verified, 1 falsified, 2 inconclusive, 3 usage or
   internal error.

   Run with: dune exec bin/gemcheck.exe -- <subcommand> ... *)

open Cmdliner
open Gem

(* ------------------------------------------------------------------ *)
(* Budget flags, shared by every verification subcommand               *)
(* ------------------------------------------------------------------ *)

(* Seconds >= 0. NaN fails the comparison, so it is refused too: a
   deadline of now + NaN would never pass. *)
let seconds_conv =
  let parse s =
    match float_of_string_opt (String.trim s) with
    | Some f when f >= 0. -> Ok f
    | Some _ | None ->
        Error (`Msg (Printf.sprintf "%S is not a valid duration (expected seconds >= 0)" s))
  in
  Arg.conv ~docv:"SECS" (parse, Format.pp_print_float)

let budget_term =
  let timeout =
    Arg.(value & opt (some seconds_conv) None
         & info [ "timeout" ] ~docv:"SECS"
             ~doc:"Wall-clock budget in seconds. Exhaustion degrades to an \
                   inconclusive verdict (exit 2) instead of running forever.")
  in
  let max_configs =
    Arg.(value & opt (some int) None
         & info [ "max-configs" ] ~docv:"N"
             ~doc:"Total interpreter configurations to visit across the run.")
  in
  let max_runs =
    Arg.(value & opt (some int) None
         & info [ "max-runs" ] ~docv:"N"
             ~doc:(Printf.sprintf
                     "Run-enumeration cap per temporal check (default %d); \
                      it also bounds each history lattice at N x (events + 1) \
                      histories."
                     Strategy.default_run_cap))
  in
  let make timeout max_configs max_runs =
    Budget.make ?timeout ?max_configs ?max_runs ()
  in
  Term.(const make $ timeout $ max_configs $ max_runs)

let json_flag =
  Arg.(value & flag
       & info [ "json" ] ~doc:"Emit the outcome report as a JSON object.")

(* --jobs must be a positive integer: 0 domains cannot make progress and
   negative counts are meaningless, so both are usage errors (exit 3),
   not silently clamped. The GEM_JOBS environment variable goes through
   the same parser, keeping flag and env behavior identical. *)
let jobs_term =
  let jobs_conv =
    let parse s =
      match int_of_string_opt (String.trim s) with
      | Some n when n >= 1 -> Ok n
      | Some n -> Error (`Msg (Printf.sprintf "%d is not a valid job count (must be at least 1)" n))
      | None -> Error (`Msg (Printf.sprintf "%S is not a valid job count (expected a positive integer)" s))
    in
    Arg.conv ~docv:"N" (parse, Format.pp_print_int)
  in
  Arg.(value & opt jobs_conv 1
       & info [ "jobs" ] ~docv:"N"
           ~env:(Cmd.Env.info "GEM_JOBS"
                   ~doc:"Default job count when $(b,--jobs) is absent.")
           ~doc:"Check computations on $(docv) domains. Exploration \
                 is sequential; results, counters and exit codes are \
                 identical for every value, only wall-clock time \
                 differs.")

(* ------------------------------------------------------------------ *)
(* Resilience flags, shared by the exploration subcommands             *)
(* ------------------------------------------------------------------ *)

type resil_opts = {
  ro_bitstate : bool;
  ro_bits : int;
  ro_ckpt : string option;
  ro_ckpt_every : int;
  ro_resume : string option;
}

let resilience_term =
  let positive name =
    let parse s =
      match int_of_string_opt (String.trim s) with
      | Some n when n >= 1 -> Ok n
      | Some _ | None ->
          Error (`Msg (Printf.sprintf "%S is not a valid %s (expected a positive integer)" s name))
    in
    Arg.conv ~docv:"N" (parse, Format.pp_print_int)
  in
  let bitstate =
    Arg.(value & flag
         & info [ "bitstate" ]
             ~doc:"Replace the exact seen set with a SPIN-style bounded-RAM \
                   fingerprint table (see $(b,--bitstate-bits)). Collisions \
                   can silently prune unseen states, so a clean sweep is \
                   reported as INCONCLUSIVE with reason \
                   bitstate-collision-risk; a found violation or deadlock \
                   stays sound. Composes with $(b,--audit-keys) to measure \
                   the realized collision rate.")
  in
  let bit_width =
    let parse s =
      match int_of_string_opt (String.trim s) with
      | Some n when n >= Bitstate.min_bits && n <= Bitstate.max_bits -> Ok n
      | Some _ | None ->
          Error
            (`Msg
               (Printf.sprintf "%S is not a valid bit width (expected %d..%d)" s
                  Bitstate.min_bits Bitstate.max_bits))
    in
    Arg.conv ~docv:"N" (parse, Format.pp_print_int)
  in
  let bits =
    Arg.(value & opt bit_width 24
         & info [ "bitstate-bits" ] ~docv:"N"
             ~doc:"log2 of the bitstate table's slot count, 8..30 \
                   (default 24 = 16M slots = 256 MiB). Each visited state \
                   costs one 16-byte slot; the table never grows.")
  in
  let ckpt =
    Arg.(value & opt (some string) None
         & info [ "checkpoint" ] ~docv:"FILE"
             ~doc:"Periodically snapshot the complete exploration state to \
                   $(docv) (atomic rename; see $(b,--checkpoint-every)), so \
                   a killed run can continue with $(b,--resume).")
  in
  let ckpt_every =
    Arg.(value & opt (positive "interval") 50_000
         & info [ "checkpoint-every" ] ~docv:"N"
             ~doc:"Visited configurations between checkpoint snapshots \
                   (default 50000).")
  in
  let resume =
    Arg.(value & opt (some string) None
         & info [ "resume" ] ~docv:"FILE"
             ~doc:"Resume from a $(b,--checkpoint) snapshot instead of the \
                   initial configuration; the finished run's verdict is \
                   byte-identical to an uninterrupted one. The snapshot's \
                   stamp (command, workload and engine parameters) must \
                   match, else exit 3.")
  in
  Term.(const (fun ro_bitstate ro_bits ro_ckpt ro_ckpt_every ro_resume ->
          { ro_bitstate; ro_bits; ro_ckpt; ro_ckpt_every; ro_resume })
        $ bitstate $ bits $ ckpt $ ckpt_every $ resume)

(* The checkpoint stamp (Runner.stamp) pins the run identity: the
   resolved engine plus the workload parameters. *)
let resilience_of load ~reduction ~exact_keys ro =
  let bitstate_bits = if ro.ro_bitstate then Some ro.ro_bits else None in
  {
    Explore.bitstate =
      (if ro.ro_bitstate then Some (Bitstate.create ~bits:ro.ro_bits ())
       else None);
    checkpoint =
      Option.map (fun f -> Checkpoint.ctl ~every:ro.ro_ckpt_every f) ro.ro_ckpt;
    resume = ro.ro_resume;
    stamp = Runner.stamp load ~reduction ~exact_keys ~bitstate_bits;
  }

(* SIGINT/SIGTERM stop the run through the budget's first-reason-wins
   cell: every engine polls it, unwinds keeping the leaves found so far,
   and the normal (JSON) report renders a partial-coverage INCONCLUSIVE
   with reason "interrupted" — exit 2, temp files swept — instead of the
   process dying mid-write. *)
let install_signals budget =
  let handle _ = Budget.note budget Budget.Interrupted in
  List.iter
    (fun s ->
      try Sys.set_signal s (Sys.Signal_handle handle)
      with Invalid_argument _ | Sys_error _ -> ())
    [ Sys.sigint; Sys.sigterm ]

(* ------------------------------------------------------------------ *)
(* Telemetry flags, shared by every verification subcommand            *)
(* ------------------------------------------------------------------ *)

(* --stats prints one JSON line of telemetry after the report;
   --stats-deterministic restricts it to the schedule-independent
   counters so the whole stdout is byte-identical for every --jobs
   value; --trace FILE writes a Chrome-trace-event timeline. GEM_STATS
   follows the GEM_JOBS pattern: the env alias goes through the same
   (cmdliner boolean) validation as the flag, so a malformed value is a
   usage error (exit 3), never silently ignored. *)

type obs = { stats : bool; stats_det : bool; trace : string option }

let obs_term =
  let stats =
    Arg.(value & flag
         & info [ "stats" ]
             ~env:(Cmd.Env.info "GEM_STATS"
                     ~doc:"Enable $(b,--stats) when set to true.")
             ~doc:"Collect telemetry (counters and phase timings) and \
                   print it as one JSON line after the report.")
  in
  let stats_det =
    Arg.(value & flag
         & info [ "stats-deterministic" ]
             ~doc:"Like $(b,--stats), but restricted to the \
                   schedule-independent counters, so the output is \
                   byte-identical for every $(b,--jobs) value.")
  in
  let trace =
    let file_conv =
      let parse s =
        if String.trim s = "" then
          Error (`Msg "trace output must be a non-empty file path")
        else Ok s
      in
      Arg.conv ~docv:"FILE" (parse, Format.pp_print_string)
    in
    Arg.(value & opt (some file_conv) None
         & info [ "trace" ] ~docv:"FILE"
             ~doc:"Write a Chrome-trace-event timeline (one JSON event \
                   per line; per-domain tids) to $(docv). Load it in \
                   Perfetto or chrome://tracing.")
  in
  Term.(const (fun stats stats_det trace ->
          { stats = stats || stats_det; stats_det; trace })
        $ stats $ stats_det $ trace)

let obs_init o =
  if o.stats then Telemetry.enable ();
  Option.iter Telemetry.trace_to o.trace

(* Runs after the report so the stats line is the last line of output;
   a trace that cannot be written is an internal error (exit 3). *)
let obs_finish ~json o code =
  let code =
    match (try Telemetry.flush_trace (); None with Sys_error m -> Some m) with
    | None -> code
    | Some m ->
        Printf.eprintf "cannot write trace: %s\n" m;
        3
  in
  if o.stats then begin
    if json then print_newline ();
    print_endline (Telemetry.stats_json ~deterministic:o.stats_det ())
  end;
  code

(* --reduction picks the reduction engine. GEM_REDUCTION reaches
   cmdliner through the flag's ~env, so a bad value is a usage error
   whichever way it is given. Passing [None] down keeps the
   interpreters' own defaulting in charge. *)
let parse_reduction s =
  match Explore.reduction_of_string s with
  | Some r -> Ok r
  | None ->
      Error
        (`Msg
           (Printf.sprintf "invalid reduction %S (expected none, sleep or source)" s))

let reduction_term =
  let reduction_conv =
    Arg.conv ~docv:"ENGINE"
      ( parse_reduction,
        fun ppf r -> Format.pp_print_string ppf (Explore.reduction_name r) )
  in
  Arg.(value & opt (some reduction_conv) None
       & info [ "reduction" ] ~docv:"ENGINE"
           ~env:(Cmd.Env.info "GEM_REDUCTION"
                   ~doc:"Default engine when $(b,--reduction) is absent.")
           ~doc:"Reduction engine: $(i,none) (plain exhaustive DFS), \
                 $(i,sleep) (persistent/sleep sets, the default) or \
                 $(i,source) (source-DPOR with race-driven wakeups; \
                 explores no more configurations than sleep and \
                 asymptotically fewer on rendezvous-heavy workloads). \
                 The verdict is byte-identical across engines; only the \
                 configuration counts and runtime differ.")

(* Commands without --reduction (experiments, matrix, serve) still
   resolve the engine from GEM_REDUCTION, so they refuse a bad value at
   start as well. *)
let reduction_env_term =
  let check () =
    match Option.map parse_reduction (Sys.getenv_opt "GEM_REDUCTION") with
    | Some (Error (`Msg m)) ->
        `Error (false, "environment variable GEM_REDUCTION: " ^ m)
    | Some (Ok _) | None -> `Ok ()
  in
  Term.(ret (const check $ const ()))

(* --exact-keys / --audit-keys pick the search-key mode of the reduced
   search; like --reduction, passing [None] down defers to the interpreters'
   environment-aware defaults (GEM_EXACT_KEYS / GEM_AUDIT_KEYS, see
   Explore.exact_keys_default / audit_keys_default). *)
let keys_term =
  let exact =
    Arg.(value & flag
         & info [ "exact-keys" ]
             ~doc:"Key the reduced search on exact canonical state keys \
                   instead of incremental 128-bit fingerprints: slower, \
                   but immune to fingerprint collisions. The default \
                   honors the GEM_EXACT_KEYS environment variable.")
  in
  let audit =
    Arg.(value & flag
         & info [ "audit-keys" ]
             ~doc:"Keep fingerprint keys but compute the exact key \
                   alongside as a collision oracle (forfeiting the \
                   speedup); mismatches are counted under the \
                   fingerprint_collisions telemetry counter — see \
                   $(b,--stats). The default honors the GEM_AUDIT_KEYS \
                   environment variable.")
  in
  Term.(const (fun e a ->
          ((if e then Some true else None), (if a then Some true else None)))
        $ exact $ audit)

(* ------------------------------------------------------------------ *)
(* Shared verification plumbing                                        *)
(* ------------------------------------------------------------------ *)

(* The extra restriction rides the same parser as serve's restrict= key,
   so a formula accepted here is accepted on the wire and vice versa. *)
let restrict_term =
  let formula_conv =
    let parse s =
      match Parser.parse_formula s with
      | Ok f -> Ok f
      | Error m -> Error (`Msg (Printf.sprintf "bad restriction formula: %s" m))
    in
    Arg.conv ~docv:"FORMULA" (parse, Formula.pp)
  in
  Arg.(value & opt (some formula_conv) None
       & info [ "restrict" ] ~docv:"FORMULA"
           ~doc:"Check an extra restriction (GEM formula syntax) alongside \
                 the problem specification's own.")

let runner_opts ~reduction ~exact_keys ~audit_keys ~jobs ~resilience =
  { Runner.reduction; exact_keys; audit_keys; jobs; resilience }

(* A count outside what its program builder accepts is a usage error
   (exit 3) with the message the daemon replies; nothing runs. *)
let with_load load k =
  match Runner.validate load with
  | Ok load -> k load
  | Error m ->
      Printf.eprintf "gemcheck: %s\n" m;
      3

(* ------------------------------------------------------------------ *)
(* experiments                                                         *)
(* ------------------------------------------------------------------ *)

let experiments_cmd =
  let only =
    Arg.(value & opt (some string) None & info [ "only" ] ~docv:"ID" ~doc:"Run only experiment $(docv) (e.g. E9).")
  in
  let run () only =
    let selected =
      match only with
      | None -> Gem_experiments.Experiments.all
      | Some id ->
          List.filter (fun (i, _, _) -> String.equal i id) Gem_experiments.Experiments.all
    in
    if selected = [] then (
      Printf.eprintf "no such experiment\n";
      3)
    else begin
      let ok = ref true in
      List.iter
        (fun (id, title, kernel) ->
          Printf.printf "\n%s — %s\n" id title;
          List.iter
            (fun r ->
              let open Gem_experiments.Experiments in
              if not r.pass then ok := false;
              Printf.printf "  [%s] %-62s %s\n%!"
                (if r.pass then "PASS" else "FAIL")
                r.label r.detail)
            (kernel ()))
        selected;
      if !ok then 0 else 1
    end
  in
  Cmd.v
    (Cmd.info "experiments" ~doc:"Run the paper-reproduction experiments.")
    Term.(const run $ reduction_env_term $ only)

(* ------------------------------------------------------------------ *)
(* rw                                                                  *)
(* ------------------------------------------------------------------ *)

(* The runner maps names to monitor programs; the CLI only needs the
   vocabulary for flag validation. *)
let monitor_conv =
  Arg.enum
    (List.map
       (fun n -> (n, n))
       [ "paper"; "writers-priority"; "buggy"; "no-exclusion" ])

let version_conv =
  Arg.enum
    (List.map (fun v -> (Readers_writers.version_name v, v)) Readers_writers.all_versions)

let rw_cmd =
  let monitor =
    Arg.(value & opt monitor_conv "paper"
         & info [ "monitor" ] ~docv:"M" ~doc:"Monitor program: paper, writers-priority, buggy, no-exclusion.")
  in
  let version =
    Arg.(value & opt version_conv Readers_writers.Readers_priority
         & info [ "version" ] ~docv:"V" ~doc:"Problem version to check.")
  in
  let readers = Arg.(value & opt int 2 & info [ "readers" ] ~docv:"N") in
  let writers = Arg.(value & opt int 1 & info [ "writers" ] ~docv:"N") in
  let run monitor version readers writers restrict reduction (exact_keys, audit_keys) jobs budget resil json obs =
    with_load (Runner.Rw { monitor; version; readers; writers }) @@ fun load ->
    obs_init obs;
    install_signals budget;
    let resilience =
      resilience_of load ~reduction ~exact_keys resil
    in
    let r =
      Runner.run load
        (runner_opts ~reduction ~exact_keys ~audit_keys ~jobs ~resilience)
        ~budget ~restrict
    in
    (if not json then
       match r.Runner.failures with
       | (_, v) :: _ -> Format.printf "%a@." (Verdict.pp None) v
       | [] -> ());
    obs_finish ~json obs (Runner.print_report ~json ~command:"rw" r)
  in
  Cmd.v
    (Cmd.info "rw" ~doc:"Verify a Readers/Writers monitor against a problem version.")
    Term.(const run $ monitor $ version $ readers $ writers $ restrict_term $ reduction_term $ keys_term $ jobs_term $ budget_term $ resilience_term $ json_flag $ obs_term)

(* ------------------------------------------------------------------ *)
(* buffer                                                              *)
(* ------------------------------------------------------------------ *)

let buffer_cmd =
  let lang =
    Arg.(value & opt (enum [ ("monitor", `Monitor); ("csp", `Csp); ("ada", `Ada) ]) `Monitor
         & info [ "lang" ] ~docv:"L" ~doc:"Implementation language.")
  in
  let capacity = Arg.(value & opt int 1 & info [ "capacity" ] ~docv:"N") in
  let producers = Arg.(value & opt int 1 & info [ "producers" ] ~docv:"N") in
  let consumers = Arg.(value & opt int 1 & info [ "consumers" ] ~docv:"N") in
  let items = Arg.(value & opt int 2 & info [ "items" ] ~docv:"N" ~doc:"Items per producer.") in
  let run lang capacity producers consumers items restrict reduction (exact_keys, audit_keys) jobs budget resil json obs =
    with_load (Runner.Buffer { lang; capacity; producers; consumers; items })
    @@ fun load ->
    obs_init obs;
    install_signals budget;
    let resilience =
      resilience_of load ~reduction ~exact_keys resil
    in
    let r =
      Runner.run load
        (runner_opts ~reduction ~exact_keys ~audit_keys ~jobs ~resilience)
        ~budget ~restrict
    in
    obs_finish ~json obs (Runner.print_report ~json ~command:"buffer" r)
  in
  Cmd.v
    (Cmd.info "buffer" ~doc:"Verify a bounded-buffer solution.")
    Term.(const run $ lang $ capacity $ producers $ consumers $ items $ restrict_term $ reduction_term $ keys_term $ jobs_term $ budget_term $ resilience_term $ json_flag $ obs_term)

(* ------------------------------------------------------------------ *)
(* rwd: distributed Readers/Writers                                    *)
(* ------------------------------------------------------------------ *)

let rwd_cmd =
  let lang =
    Arg.(value & opt (enum [ ("csp", `Csp); ("ada", `Ada) ]) `Csp
         & info [ "lang" ] ~docv:"L" ~doc:"Implementation language.")
  in
  let readers = Arg.(value & opt int 1 & info [ "readers" ] ~docv:"N") in
  let writers = Arg.(value & opt int 1 & info [ "writers" ] ~docv:"N") in
  let broken =
    Arg.(value & flag & info [ "no-priority" ] ~doc:"Use the priority-less mutant.")
  in
  let run lang readers writers broken restrict reduction (exact_keys, audit_keys) jobs budget resil json obs =
    with_load (Runner.Rwd { lang; readers; writers; broken }) @@ fun load ->
    obs_init obs;
    install_signals budget;
    let resilience =
      resilience_of load ~reduction ~exact_keys resil
    in
    let r =
      Runner.run load
        (runner_opts ~reduction ~exact_keys ~audit_keys ~jobs ~resilience)
        ~budget ~restrict
    in
    obs_finish ~json obs (Runner.print_report ~json ~command:"rwd" r)
  in
  Cmd.v
    (Cmd.info "rwd"
       ~doc:"Verify the distributed (CSP/ADA) Readers/Writers solutions.")
    Term.(const run $ lang $ readers $ writers $ broken $ restrict_term $ reduction_term $ keys_term $ jobs_term $ budget_term $ resilience_term $ json_flag $ obs_term)

(* ------------------------------------------------------------------ *)
(* fuzz: differential fuzzing across the engine lattice                *)
(* ------------------------------------------------------------------ *)

(* Everything fuzz prints to stdout is derived from counts — never wall
   time — so two runs with the same --seed/--iters are byte-identical
   (the CI determinism gate depends on it). Throughput goes to stderr. *)

let positive_conv name =
  let parse s =
    match int_of_string_opt (String.trim s) with
    | Some n when n >= 1 -> Ok n
    | Some _ | None ->
        Error (`Msg (Printf.sprintf "%S is not a valid %s (expected a positive integer)" s name))
  in
  Arg.conv ~docv:"N" (parse, Format.pp_print_int)

let fuzz_cmd =
  let seed =
    Arg.(value & opt int 0
         & info [ "seed" ] ~docv:"N"
             ~doc:"Generator seed. A (seed, iters) pair names the same \
                   instance stream — and therefore the same stdout — on \
                   every run.")
  in
  let iters =
    Arg.(value & opt (positive_conv "iteration count") 100
         & info [ "iters" ] ~docv:"N"
             ~doc:"Instances to generate and cross-check (default 100).")
  in
  let time_budget =
    Arg.(value & opt (some seconds_conv) None
         & info [ "time-budget" ] ~docv:"SECS"
             ~doc:"Stop starting new instances after $(docv) wall seconds \
                   (a bounded smoke run still exits 0).")
  in
  let corpus =
    Arg.(value & opt string "fuzz/corpus"
         & info [ "corpus" ] ~docv:"DIR"
             ~doc:"Where shrunk disagreeing reproducers are written \
                   (default fuzz/corpus; created on first failure).")
  in
  let max_configs =
    Arg.(value & opt (positive_conv "configuration cap") 1_000_000
         & info [ "max-configs" ] ~docv:"N"
             ~doc:"Per-cell configuration cap; a generated instance whose \
                   baseline exhausts it is skipped, not failed.")
  in
  let run seed iters time_budget corpus max_configs =
    let module FD = Fuzz.Driver in
    let module FO = Fuzz.Oracle in
    Printf.printf "fuzz: seed=%d iters=%d lattice=%d cells\n%!" seed iters
      (List.length FO.lattice);
    let o =
      FD.run ?time_budget ~max_configs ~corpus_dir:corpus ~log:print_endline
        ~seed ~iters ()
    in
    match o.FD.o_failure with
    | None ->
        Printf.printf "fuzz: %d/%d instances agreed across %d cells (%d cell runs)\n"
          o.FD.o_ran o.FD.o_iters o.FD.o_cells (o.FD.o_ran * o.FD.o_cells);
        print_endline "PASS";
        if o.FD.o_elapsed > 0. then
          Printf.eprintf "fuzz: %d configurations in %.2fs (%.0f configs/s)\n"
            o.FD.o_explored o.FD.o_elapsed
            (float_of_int o.FD.o_explored /. o.FD.o_elapsed);
        0
    | Some f ->
        let shrunk = f.FD.f_shrunk in
        Printf.printf "fuzz: DISAGREEMENT at instance %d (%s)\n" f.FD.f_index
          (Fuzz.Case.lang f.FD.f_case.Fuzz.Case.prog);
        Format.printf "  %a@." FO.pp_disagreement f.FD.f_disagreement;
        Printf.printf "  original: %s\n" (Fuzz.Case.to_string f.FD.f_case);
        Printf.printf "  shrunk (%d steps, %d -> %d statements): %s\n" f.FD.f_steps
          (Fuzz.Case.size f.FD.f_case.Fuzz.Case.prog)
          (Fuzz.Case.size shrunk.Fuzz.Case.prog)
          (Fuzz.Case.to_string shrunk);
        (match f.FD.f_corpus_path with
        | Some path -> Printf.printf "  reproducer written to %s\n" path
        | None -> ());
        print_endline "FAIL";
        1
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:"Differentially fuzz the exploration engines: random \
             Monitor/CSP/ADA programs and restrictions, cross-checked \
             over {none,sleep} reduction x {fp,exact keys} x \
             {unbounded,bitstate} plus a source-DPOR cell (--reduction \
             source); disagreements are shrunk and written to the \
             reproducer corpus.")
    Term.(const run $ seed $ iters $ time_budget $ corpus $ max_configs)

(* ------------------------------------------------------------------ *)
(* matrix: the parameterized workload sweep                            *)
(* ------------------------------------------------------------------ *)

let matrix_cmd =
  let family_conv =
    Arg.enum (List.map (fun f -> (f, f)) Matrix.family_names)
  in
  let family =
    Arg.(value & opt_all family_conv []
         & info [ "family" ] ~docv:"F"
             ~doc:(Printf.sprintf
                     "Workload family to sweep (repeatable; default all). \
                      One of: %s."
                     (String.concat ", " Matrix.family_names)))
  in
  let scale =
    Arg.(value & opt (enum [ ("small", `Small); ("wide", `Wide) ]) `Small
         & info [ "scale" ] ~docv:"S"
             ~doc:"Grid size: small (CI-friendly) or wide (adds the large \
                   instances the resilience ladder targets).")
  in
  let max_configs =
    Arg.(value & opt (positive_conv "configuration cap") 2_000_000
         & info [ "max-configs" ] ~docv:"N"
             ~doc:"Per-cell configuration cap; exceeding it yields an \
                   inconclusive row, never a crash.")
  in
  let time_budget =
    Arg.(value & opt (some seconds_conv) None
         & info [ "time-budget" ] ~docv:"SECS"
             ~doc:"Overall wall budget: a running cell is cut to an \
                   inconclusive row at the remaining budget; cells not \
                   yet started are emitted as skipped rows.")
  in
  let no_timings =
    Arg.(value & flag
         & info [ "no-timings" ]
             ~doc:"Omit wall_s/configs_per_sec from the rows, making the \
                   report byte-deterministic for a given tree.")
  in
  let out =
    Arg.(value & opt (some string) None
         & info [ "out" ] ~docv:"FILE"
             ~doc:"Write the JSON report to $(docv) instead of stdout.")
  in
  let run () family scale jobs max_configs time_budget no_timings out =
    let module M = Matrix in
    let cells = M.cells ~scale family in
    let started = Unix.gettimeofday () in
    let remaining () =
      Option.map
        (fun b -> Float.max 0. (b -. (Unix.gettimeofday () -. started)))
        time_budget
    in
    let rows =
      List.map
        (fun c ->
          match remaining () with
          | Some r when r <= 0. -> M.skipped c
          | r -> M.run_cell ~jobs ~max_configs ?timeout:r ~timings:(not no_timings) c)
        cells
    in
    let json = M.report_json rows in
    (match out with
    | None -> print_endline json
    | Some file ->
        let oc = open_out file in
        Fun.protect
          ~finally:(fun () -> close_out oc)
          (fun () -> output_string oc (json ^ "\n"));
        Printf.printf "matrix: wrote %d rows to %s\n" (List.length rows) file);
    if List.exists (fun r -> r.M.r_status = "falsified") rows then 1
    else if
      List.exists
        (fun r -> r.M.r_status = "inconclusive" || r.M.r_status = "skipped")
        rows
    then 2
    else 0
  in
  Cmd.v
    (Cmd.info "matrix"
       ~doc:"Sweep the parameterized lib/problems workload matrix and \
             emit one BENCH-schema JSON row per cell.")
    Term.(const run $ reduction_env_term $ family $ scale $ jobs_term $ max_configs $ time_budget $ no_timings $ out)

(* ------------------------------------------------------------------ *)
(* parse                                                               *)
(* ------------------------------------------------------------------ *)

let parse_cmd =
  let file =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE"
         ~doc:"A specification in GEM's concrete syntax (.gem).")
  in
  let run file =
    let ic = open_in file in
    let src =
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () -> really_input_string ic (in_channel_length ic))
    in
    match Parser.parse_spec src with
    | Ok spec ->
        Format.printf "%a@." Spec.pp spec;
        Printf.printf "\n%d element(s), %d group(s), %d restriction(s), %d thread(s)\n"
          (List.length spec.Spec.elements)
          (List.length spec.Spec.groups)
          (Spec.restriction_count spec)
          (List.length spec.Spec.threads);
        0
    | Error m ->
        Printf.eprintf "parse error: %s\n" m;
        3
  in
  Cmd.v
    (Cmd.info "parse" ~doc:"Parse and echo a GEM specification file.")
    Term.(const run $ file)

(* ------------------------------------------------------------------ *)
(* db / life                                                           *)
(* ------------------------------------------------------------------ *)

let db_cmd =
  let sites = Arg.(value & opt int 3 & info [ "sites" ] ~docv:"N") in
  let run sites reduction (exact_keys, audit_keys) jobs budget resil json obs =
    with_load (Runner.Db { sites }) @@ fun load ->
    obs_init obs;
    install_signals budget;
    let resilience =
      resilience_of load ~reduction ~exact_keys resil
    in
    let r =
      Runner.run load
        (runner_opts ~reduction ~exact_keys ~audit_keys ~jobs ~resilience)
        ~budget ~restrict:None
    in
    obs_finish ~json obs (Runner.print_report ~json ~command:"db" r)
  in
  Cmd.v (Cmd.info "db" ~doc:"Explore the distributed database update.")
    Term.(const run $ sites $ reduction_term $ keys_term $ jobs_term $ budget_term $ resilience_term $ json_flag $ obs_term)

let life_cmd =
  let width = Arg.(value & opt int 4 & info [ "width" ] ~docv:"N") in
  let height = Arg.(value & opt int 4 & info [ "height" ] ~docv:"N") in
  let generations = Arg.(value & opt int 2 & info [ "generations" ] ~docv:"N") in
  let run width height generations budget json obs =
    with_load (Runner.Life { width; height; generations }) @@ fun load ->
    obs_init obs;
    let r =
      Runner.run load
        (runner_opts ~reduction:None ~exact_keys:None ~audit_keys:None ~jobs:1
           ~resilience:Explore.no_resilience)
        ~budget ~restrict:None
    in
    obs_finish ~json obs (Runner.print_report ~json ~command:"life" r)
  in
  Cmd.v
    (Cmd.info "life" ~doc:"Check the asynchronous Game of Life.")
    Term.(const run $ width $ height $ generations $ budget_term $ json_flag $ obs_term)

(* ------------------------------------------------------------------ *)
(* serve / client                                                      *)
(* ------------------------------------------------------------------ *)

let socket_term =
  Arg.(value & opt string "gemcheck.sock"
       & info [ "socket" ] ~docv:"PATH"
           ~doc:"Unix-domain socket path (default gemcheck.sock in the \
                 current directory).")

let serve_cmd =
  let cache_size =
    Arg.(value & opt (positive_conv "cache size") 128
         & info [ "cache-size" ] ~docv:"N"
             ~doc:"Retained entries in the verdict cache and in the \
                   exploration cache (default 128). In-flight requests \
                   never count against it.")
  in
  let run () socket cache_size obs =
    obs_init obs;
    match Server.create ~socket () with
    | exception Unix.Unix_error (e, _, _) ->
        Printf.eprintf "gemcheck: cannot listen on %s: %s\n" socket
          (Unix.error_message e);
        3
    | server ->
        let state = Handler.create ~cache_size () in
        (* SIGINT/SIGTERM drain: stop accepting, let in-flight checks
           finish and flush, remove the socket file, exit 0. *)
        List.iter
          (fun s ->
            try
              Sys.set_signal s
                (Sys.Signal_handle (fun _ -> Server.request_stop server))
            with Invalid_argument _ | Sys_error _ -> ())
          [ Sys.sigint; Sys.sigterm ];
        Printf.printf "gemcheck: serving on %s (cache %d)\n%!" socket
          cache_size;
        Server.run server ~handler:(Handler.handle state);
        obs_finish ~json:false obs 0
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Run the checking daemon: a Unix-socket service answering \
             line-framed check requests from a verdict cache, with \
             single-flight coalescing of concurrent duplicates and \
             exploration sharing across restrictions. Responses carry \
             cache provenance; bodies are byte-identical to the \
             equivalent one-shot --json reports.")
    Term.(const run $ reduction_env_term $ socket_term $ cache_size $ obs_term)

let client_cmd =
  let request_arg =
    Arg.(required & pos 0 (some string) None
         & info [] ~docv:"REQUEST"
             ~doc:"One request line, e.g. 'check rw readers=2 writers=1' \
                   or 'ping' or 'stats'.")
  in
  let run socket request =
    (* A daemon over its connection cap answers busy and closes; a send
       after that must fail with EPIPE, not kill the client, so that the
       reply is still read. *)
    (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
     with Invalid_argument _ | Sys_error _ -> ());
    match Client.request ~socket request with
    | Error m ->
        Printf.eprintf "gemcheck: %s\n" m;
        3
    | Ok resp ->
        (* Provenance to stderr, report body to stdout — so the body can
           be compared byte-for-byte against a one-shot --json run. *)
        Printf.eprintf "%s\n" resp.Client.header;
        (match resp.Client.error with
        | Some e -> Printf.eprintf "gemcheck: daemon: %s\n" e
        | None -> ());
        (match resp.Client.body with
        | [] -> ()
        | body -> print_string (String.concat "\n" body));
        if resp.Client.code >= 0 && resp.Client.code <= 3 then resp.Client.code
        else 3
  in
  Cmd.v
    (Cmd.info "client"
       ~doc:"Send one request to a running serve daemon and print the \
             response body (stdout) and provenance header (stderr); the \
             exit code is the verdict's.")
    Term.(const run $ socket_term $ request_arg)

let () =
  let doc = "GEM concurrency specification and verification toolkit" in
  let info =
    (* No ~version: the rw subcommand claims --version for the problem
       version, per the paper's terminology. *)
    Cmd.info "gemcheck" ~doc
      ~man:
        [
          `S Manpage.s_exit_status;
          `P "0 — verified; 1 — falsified (a violation or deadlock was found); \
              2 — inconclusive (a resource budget was exhausted, or the \
              heap reached 60% of the smallest of the address-space \
              limit, the cgroup memory limit and physical memory, before \
              coverage finished); 3 — usage or internal error.";
          `S Manpage.s_environment;
          `P
            (Printf.sprintf
               "GEM_FAULT=SEED[:PERIOD[:POINTS]] arms the deterministic \
                fault-injection harness (test/CI instrument): roughly one \
                in PERIOD draws fails at the eligible injection points \
                (%s). Injected faults only ever degrade verdicts to \
                INCONCLUSIVE — a malformed spec is a usage error."
               (String.concat ", " (List.map Faults.point_name Faults.all_points)));
        ]
  in
  (* Armed before any command runs so every injection point sees the same
     deterministic draw stream. A set-but-malformed spec must not
     silently run unfaulted (CI legs depend on the faults firing). *)
  (match Faults.arm_from_env () with
  | Ok _ -> ()
  | Error msg ->
      Printf.eprintf "gemcheck: %s\n" msg;
      exit 3);
  let code =
    try
      Cmd.eval' ~catch:false
        (Cmd.group info
           [
             experiments_cmd; rw_cmd; rwd_cmd; buffer_cmd; db_cmd; life_cmd;
             fuzz_cmd; matrix_cmd; parse_cmd; serve_cmd; client_cmd;
           ])
    with
    | Explore.Resume_error msg ->
        Printf.eprintf "gemcheck: %s\n" msg;
        3
    | Gem_check.Check.Restriction_error { restriction; message } ->
        Printf.eprintf "gemcheck: %s\n"
          (Gem_check.Check.restriction_error_message ~restriction ~message);
        3
    | e ->
        Printf.eprintf "gemcheck: internal error: %s\n" (Printexc.to_string e);
        3
  in
  (* Cmdliner reports CLI/internal errors with its own codes; fold them
     into the documented contract (3 = usage/internal). *)
  exit (if code <= 2 then code else 3)
