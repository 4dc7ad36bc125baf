(* End-to-end exit-code contract for the gemcheck binary:
     0 verified, 1 falsified, 2 inconclusive, 3 usage error.
   The test's cwd is _build/default/test, so the freshly built binary is
   reachable at ../bin/gemcheck.exe (declared as a dune dep). *)

let check = Alcotest.check

let gemcheck = Filename.concat (Filename.concat ".." "bin") "gemcheck.exe"

(* [env] is a shell-syntax variable binding prefix (e.g. "GEM_JOBS=2");
   setting it on the command line keeps the test runner's own
   environment untouched, so tests cannot leak into one another. *)
let run ?(env = "") args =
  let null = if Sys.win32 then "NUL" else "/dev/null" in
  match
    Unix.system
      (Printf.sprintf "%s %s %s > %s 2>&1" env (Filename.quote gemcheck) args null)
  with
  | Unix.WEXITED c -> c
  | Unix.WSIGNALED s | Unix.WSTOPPED s -> Alcotest.failf "killed by signal %d" s

let run_capture ?(env = "") args =
  let ic =
    Unix.open_process_in
      (Printf.sprintf "%s %s %s 2>/dev/null" env (Filename.quote gemcheck) args)
  in
  let buf = Buffer.create 256 in
  (try
     while true do
       Buffer.add_channel buf ic 1
     done
   with End_of_file -> ());
  let status = Unix.close_process_in ic in
  (Buffer.contents buf, status)

let contains hay needle =
  let nl = String.length needle and ol = String.length hay in
  let rec go i = i + nl <= ol && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

let test_verified () =
  check Alcotest.int "small rw verifies" 0 (run "rw --readers 1 --writers 1")

let test_falsified () =
  check Alcotest.int "broken monitor falsified" 1 (run "rw --monitor no-exclusion")

let test_inconclusive_configs () =
  check Alcotest.int "undersized config budget" 2 (run "rw --max-configs 50")

let test_inconclusive_timeout () =
  check Alcotest.int "zero deadline" 2 (run "rw --timeout 0.0")

let stderr_and_code args =
  let ic =
    Unix.open_process_in
      (Printf.sprintf "%s %s 2>&1 >/dev/null" (Filename.quote gemcheck) args)
  in
  let err = In_channel.input_all ic in
  (err, Unix.close_process_in ic)

let test_usage_error () =
  check Alcotest.int "unknown flag" 3 (run "rw --no-such-flag");
  check Alcotest.int "unknown subcommand" 3 (run "frobnicate");
  (* Bit widths outside 8..30 are usage errors, not an internal error
     raised by the table's constructor mid-run. *)
  List.iter
    (fun args ->
      let ic =
        Unix.open_process_in
          (Printf.sprintf "%s %s 2>&1 >/dev/null" (Filename.quote gemcheck) args)
      in
      let err = In_channel.input_all ic in
      check Alcotest.bool (args ^ " exits 3") true
        (Unix.close_process_in ic = Unix.WEXITED 3);
      check Alcotest.bool (args ^ " is a usage error") true
        (contains err "not a valid bit width"
        && contains err "8..30"
        && not (contains err "internal")))
    [ "rw --bitstate --bitstate-bits 100"; "db --bitstate --bitstate-bits 7" ];
  (* Out-of-range counts and durations are usage errors too, refused
     before anything runs: no internal error, no loop on
     --generations=-1, no deadline-free run on --timeout=nan. *)
  List.iter
    (fun (args, expect) ->
      let err, st = stderr_and_code args in
      check Alcotest.bool (args ^ " exits 3") true (st = Unix.WEXITED 3);
      check Alcotest.bool (args ^ " is a usage error: " ^ err) true
        (contains err expect && not (contains err "internal error")))
    [
      ("db --sites 1", "sites expects an integer >= 2");
      ("rw --readers=-1", "readers expects an integer >= 0");
      ("life --generations=-1", "generations expects an integer >= 0");
      ( "life --width 2000 --height 2000 --generations 2",
        "width x height x (generations + 1) expects at most 10000 cell states, got 2000 x \
         2000 x (2 + 1)" );
      ("buffer --producers 2 --consumers 2 --timeout=nan", "not a valid duration");
      ("rw --timeout=-1", "not a valid duration");
    ]

(* A --restrict formula that cannot be evaluated is a usage error naming
   the restriction, with one message for every --jobs value. *)
let test_restriction_error () =
  let restrict = Filename.quote "[]((ALL s:control.StartWrite) s.foo = 1)" in
  let first = ref None in
  List.iter
    (fun (w, jobs) ->
      let args = Printf.sprintf "rw --readers %d --writers 1 --jobs %d --restrict %s" w jobs restrict in
      let err, st = stderr_and_code args in
      check Alcotest.bool (args ^ " exits 3") true (st = Unix.WEXITED 3);
      check Alcotest.bool (args ^ " names the restriction: " ^ err) true
        (contains err "restriction client-restriction: "
        && contains err "no parameter foo"
        && not (contains err "internal"));
      if w = 2 then
        match !first with
        | None -> first := Some err
        | Some e -> check Alcotest.string (args ^ ": same message") e err)
    [ (1, 1); (2, 1); (2, 2); (2, 4) ]

(* A checkpoint in an earlier format (GEMCKPT2, or GEMCKPT3 with its
   task frontier) is refused before anything is unmarshalled: exit 3,
   and the message says to rerun. *)
let test_old_checkpoint_refused () =
  let file = Filename.temp_file "gem-ckpt" ".bin" in
  let file2 = Filename.temp_file "gem-ckpt" ".bin" in
  Fun.protect
    ~finally:(fun () -> List.iter (fun f -> if Sys.file_exists f then Sys.remove f) [ file; file2 ])
    (fun () ->
      ignore
        (run
           (Printf.sprintf "db --sites 3 --checkpoint %s --checkpoint-every 500 --max-configs 2000"
              (Filename.quote file)));
      let bytes = In_channel.with_open_bin file In_channel.input_all in
      check Alcotest.string "written as GEMCKPT4" "GEMCKPT4" (String.sub bytes 0 8);
      List.iter
        (fun old ->
          Out_channel.with_open_bin file (fun oc ->
              output_string oc (old ^ String.sub bytes 8 (String.length bytes - 8)));
          let err, st =
            stderr_and_code
              (Printf.sprintf "db --sites 3 --checkpoint %s --checkpoint-every 500 --resume %s"
                 (Filename.quote file2) (Filename.quote file))
          in
          check Alcotest.bool (old ^ ": exit 3") true (st = Unix.WEXITED 3);
          check Alcotest.bool (old ^ " says to rerun: " ^ err) true
            (contains err old && contains err "rerun" && not (contains err "internal")))
        [ "GEMCKPT2"; "GEMCKPT3" ])

let test_no_por_parity () =
  (* Disabling the partial-order reduction must not change any verdict:
     one verified, one falsified and one budget-truncated workload exit
     with the same code under --reduction none as by default. The old
     --no-por alias is gone: an unknown option, a usage error. *)
  let parity name args =
    check Alcotest.int name (run args) (run (args ^ " --reduction none"))
  in
  parity "verified unchanged" "rw --readers 1 --writers 1";
  parity "falsified unchanged" "rw --monitor no-exclusion --readers 1 --writers 1";
  parity "truncated unchanged" "rw --readers 1 --writers 1 --max-configs 30";
  check Alcotest.int "--reduction none truncated=2" 2
    (run "rw --readers 1 --writers 1 --max-configs 30 --reduction none");
  check Alcotest.int "--no-por rejected" 3 (run "rw --readers 1 --writers 1 --no-por");
  check Alcotest.int "--no-por rejected on db" 3 (run "db --sites 2 --no-por")

(* The disk-paged frontier is gone: its flag is an unknown option and its
   fault point a malformed GEM_FAULT spec, both usage errors. *)
let test_retired_frontier_options () =
  check Alcotest.int "--spill-mb rejected" 3
    (run "rw --readers 1 --writers 1 --spill-mb 1");
  check Alcotest.int "its fault point rejected" 3
    (run ~env:"GEM_FAULT=1:1:spill-io" "rw --readers 1 --writers 1")

(* --reduction contract: the engine choice must never change a verdict
   or exit code; invalid spellings — flag or GEM_REDUCTION env — are
   usage errors (exit 3). *)
let test_reduction_parity () =
  let parity name args =
    let base = run args in
    List.iter
      (fun engine ->
        check Alcotest.int
          (Printf.sprintf "%s --reduction %s" name engine)
          base
          (run (Printf.sprintf "%s --reduction %s" args engine)))
      [ "none"; "sleep"; "source" ]
  in
  parity "verified unchanged" "rw --readers 1 --writers 1";
  parity "falsified unchanged" "rw --monitor no-exclusion --readers 1 --writers 1";
  parity "truncated unchanged" "rw --readers 1 --writers 1 --max-configs 30";
  parity "buffer ada" "buffer --lang ada --items 2";
  parity "db" "db --sites 2";
  check Alcotest.int "--reduction source --jobs 4 composes" 0
    (run "rw --readers 1 --writers 1 --reduction source --jobs 4")

let test_reduction_rejected () =
  check Alcotest.int "--reduction turbo rejected" 3 (run "rw --reduction turbo");
  check Alcotest.int "--reduction Source rejected (case-sensitive)" 3
    (run "rw --reduction Source");
  check Alcotest.int "empty --reduction rejected" 3 (run "rw --reduction \"\"")

let test_reduction_env () =
  (* GEM_REDUCTION reaches cmdliner through the flag's ~env: the same
     vocabulary and validation as --reduction, and the flag beats it.
     GEM_NO_POR is not read: the report, explored counts included,
     equals the default's. *)
  check Alcotest.int "GEM_REDUCTION=source verified" 0
    (run ~env:"GEM_REDUCTION=source" "rw --readers 1 --writers 1");
  check Alcotest.int "GEM_REDUCTION=source falsified" 1
    (run ~env:"GEM_REDUCTION=source" "rw --monitor no-exclusion");
  check Alcotest.int "GEM_REDUCTION=none verified" 0
    (run ~env:"GEM_REDUCTION=none" "rw --readers 1 --writers 1");
  check Alcotest.int "--reduction sleep overrides env" 0
    (run ~env:"GEM_REDUCTION=none" "rw --readers 1 --writers 1 --reduction sleep");
  check Alcotest.int "--reduction none overrides env" 0
    (run ~env:"GEM_REDUCTION=source" "rw --readers 1 --writers 1 --reduction none");
  check Alcotest.int "GEM_REDUCTION=turbo is a usage error" 3
    (run ~env:"GEM_REDUCTION=turbo" "rw --readers 1 --writers 1");
  let report env = fst (run_capture ~env "rw --readers 1 --writers 1 --json") in
  check Alcotest.string "GEM_NO_POR=1 is ignored" (report "") (report "GEM_NO_POR=1");
  (* serve, matrix and experiments have no --reduction flag but resolve
     the engine from GEM_REDUCTION, so they refuse a bad value at start. *)
  let err, status =
    let ic =
      Unix.open_process_in
        (* A socket path that cannot be bound: were the variable not
           checked first, serve would still exit 3, but without naming
           it. *)
        (Printf.sprintf "GEM_REDUCTION=bogus %s serve --socket %s 2>&1"
           (Filename.quote gemcheck) "/nonexistent-dir/gemcheck.sock")
    in
    let out = In_channel.input_all ic in
    (out, Unix.close_process_in ic)
  in
  check Alcotest.bool "serve exits 3" true (status = Unix.WEXITED 3);
  check Alcotest.bool "serve names the variable and value" true
    (contains err "GEM_REDUCTION" && contains err {|"bogus"|});
  check Alcotest.int "matrix exits 3" 3
    (run ~env:"GEM_REDUCTION=bogus" "matrix --family life");
  check Alcotest.int "experiments exits 3" 3
    (run ~env:"GEM_REDUCTION=bogus" "experiments --only E9")

(* The deterministic stats snapshot carries only the checking-phase
   invariant counters, which depend on the computation multiset alone —
   so it must be byte-identical whichever reduction engine explored. *)
let test_reduction_stats_deterministic () =
  let snapshot args engine =
    let out, status =
      run_capture
        (Printf.sprintf "%s --stats-deterministic --reduction %s" args engine)
    in
    (match status with
    | Unix.WEXITED c when c <= 2 -> ()
    | _ -> Alcotest.failf "unexpected exit for %s --reduction %s" args engine);
    match List.rev (String.split_on_char '\n' (String.trim out)) with
    | last :: _ -> last
    | [] -> Alcotest.failf "no output for %s" args
  in
  List.iter
    (fun args ->
      let s = snapshot args "none" in
      check Alcotest.string (args ^ " sleep") s (snapshot args "sleep");
      check Alcotest.string (args ^ " source") s (snapshot args "source"))
    [
      "rw --readers 1 --writers 1";
      "buffer --lang csp --items 2";
      "buffer --lang ada --items 2";
      "db --sites 2";
    ]

(* --jobs contract: parallel exploration must never change a verdict or
   exit code, bad job counts are usage errors (the repo-wide contract
   maps every usage error to exit 3), and the GEM_JOBS environment
   variable is an exact alias for the flag — including its validation. *)
let test_jobs_parity () =
  let parity name args =
    check Alcotest.int name (run args) (run (args ^ " --jobs 4"))
  in
  parity "verified unchanged" "rw --readers 1 --writers 1";
  parity "falsified unchanged" "rw --monitor no-exclusion --readers 1 --writers 1";
  check Alcotest.int "--jobs 4 verified=0" 0 (run "rw --readers 1 --writers 1 --jobs 4");
  check Alcotest.int "--jobs 4 falsified=1" 1
    (run "rw --monitor no-exclusion --readers 1 --writers 1 --jobs 4");
  check Alcotest.int "--jobs 4 --reduction none composes" 0
    (run "rw --readers 1 --writers 1 --jobs 4 --reduction none");
  check Alcotest.int "--jobs 4 --reduction none falsified=1" 1
    (run "rw --monitor no-exclusion --readers 1 --writers 1 --jobs 4 --reduction none")

let test_jobs_env () =
  (* GEM_JOBS reaches cmdliner through the flag's ~env, so values and
     validation behave exactly like --jobs. *)
  check Alcotest.int "GEM_JOBS=2 verified" 0
    (run ~env:"GEM_JOBS=2" "rw --readers 1 --writers 1");
  check Alcotest.int "GEM_JOBS=2 falsified" 1
    (run ~env:"GEM_JOBS=2" "rw --monitor no-exclusion");
  check Alcotest.int "--jobs 1 overrides env" 0
    (run ~env:"GEM_JOBS=4" "rw --readers 1 --writers 1 --jobs 1");
  check Alcotest.int "GEM_JOBS=0 is a usage error" 3
    (run ~env:"GEM_JOBS=0" "rw --readers 1 --writers 1");
  check Alcotest.int "non-numeric GEM_JOBS is a usage error" 3
    (run ~env:"GEM_JOBS=three" "rw --readers 1 --writers 1")

let test_jobs_rejected () =
  (* Exit 3 per the repo's documented contract (3 = usage error; 2 is
     reserved for inconclusive verdicts). *)
  check Alcotest.int "--jobs 0 rejected" 3 (run "rw --jobs 0");
  check Alcotest.int "--jobs -2 rejected" 3 (run "rw --jobs=-2");
  check Alcotest.int "--jobs banana rejected" 3 (run "rw --jobs banana");
  (* And the rejection must come with a usage message on stderr. *)
  let null = if Sys.win32 then "NUL" else "/dev/null" in
  let ic =
    Unix.open_process_in
      (Printf.sprintf "%s rw --jobs 0 2>&1 > %s" (Filename.quote gemcheck) null)
  in
  let buf = Buffer.create 256 in
  (try
     while true do
       Buffer.add_channel buf ic 1
     done
   with End_of_file -> ());
  ignore (Unix.close_process_in ic);
  let err = Buffer.contents buf in
  let has needle =
    let nl = String.length needle and ol = String.length err in
    let rec go i = i + nl <= ol && (String.sub err i nl = needle || go (i + 1)) in
    go 0
  in
  check Alcotest.bool "mentions usage" true (has "Usage");
  check Alcotest.bool "names the offending option" true (has "--jobs")

(* There is no batch knob: GEM_BATCH is not read — whatever it holds,
   it changes nothing — and --batch is an unknown option, a usage error
   (exit 3) whatever its value. *)
let test_batch_env () =
  check Alcotest.int "GEM_BATCH=7 verified" 0
    (run ~env:"GEM_BATCH=7" "rw --readers 1 --writers 1 --jobs 2");
  check Alcotest.int "GEM_BATCH=7 falsified" 1
    (run ~env:"GEM_BATCH=7" "rw --monitor no-exclusion --jobs 2");
  check Alcotest.int "GEM_BATCH=0 is ignored" 0
    (run ~env:"GEM_BATCH=0" "rw --readers 1 --writers 1");
  check Alcotest.int "non-numeric GEM_BATCH is ignored" 0
    (run ~env:"GEM_BATCH=chunky" "rw --readers 1 --writers 1")

let test_batch_rejected () =
  check Alcotest.int "--batch 64 rejected" 3 (run "rw --batch 64");
  check Alcotest.int "--batch 0 rejected" 3 (run "rw --batch 0");
  check Alcotest.int "--batch -64 rejected" 3 (run "rw --batch=-64");
  check Alcotest.int "--batch banana rejected" 3 (run "rw --batch banana");
  let null = if Sys.win32 then "NUL" else "/dev/null" in
  let ic =
    Unix.open_process_in
      (Printf.sprintf "%s rw --batch 0 2>&1 > %s" (Filename.quote gemcheck) null)
  in
  let buf = Buffer.create 256 in
  (try
     while true do
       Buffer.add_channel buf ic 1
     done
   with End_of_file -> ());
  ignore (Unix.close_process_in ic);
  let err = Buffer.contents buf in
  let has needle =
    let nl = String.length needle and ol = String.length err in
    let rec go i = i + nl <= ol && (String.sub err i nl = needle || go (i + 1)) in
    go 0
  in
  check Alcotest.bool "mentions usage" true (has "Usage");
  check Alcotest.bool "names the offending option" true (has "--batch")

let test_json_report () =
  (* Every engine charges the budget once per configuration, so each
     lands exactly on the configuration budget and the coverage field is
     deterministic whatever GEM_REDUCTION says. *)
  List.iter
    (fun engine ->
      let out, status =
        run_capture ("rw --json --max-configs 50 --reduction " ^ engine)
      in
      (match status with
      | Unix.WEXITED 2 -> ()
      | _ -> Alcotest.failf "%s: expected exit 2" engine);
      let has = contains out in
      check Alcotest.bool (engine ^ ": status field") true
        (has {|"status":"inconclusive"|});
      check Alcotest.bool (engine ^ ": reason field") true (has {|"kind":"config-budget"|});
      check Alcotest.bool (engine ^ ": coverage field") true (has {|"configs_explored":50|}))
    [ "none"; "sleep"; "source" ]

(* A configuration cap is a cap on visits, under source-DPOR too: buffer
   2p2c needs 12,584 configurations there, so a 13,000 cap verifies it,
   and a 3,000 cap stops after 3,000 under every engine. *)
let test_json_budget_charged_once () =
  let out, status =
    run_capture "buffer --producers 2 --consumers 2 --reduction source --max-configs 13000 --json"
  in
  check Alcotest.bool "source at 13,000: exit 0" true (status = Unix.WEXITED 0);
  check Alcotest.bool ("source at 13,000: verified: " ^ out) true
    (contains out {|"status":"verified"|} && contains out {|"configs_explored":12584|});
  List.iter
    (fun engine ->
      let out, status =
        run_capture
          ("buffer --producers 2 --consumers 2 --max-configs 3000 --json --reduction " ^ engine)
      in
      check Alcotest.bool (engine ^ " at 3,000: exit 2") true (status = Unix.WEXITED 2);
      check Alcotest.bool (engine ^ " at 3,000: 3,000 visited: " ^ out) true
        (contains out {|"configs_explored":3000,|}))
    [ "none"; "sleep"; "source" ]

(* Every path of rw 100x100 has at least 200 steps, so the walk's stack
   outgrows its first allocation under every engine; each stops on the
   cap with its report. *)
let test_json_deep_paths_capped () =
  List.iter
    (fun engine ->
      let out, status =
        run_capture
          ("rw --readers 100 --writers 100 --max-configs 300 --json --reduction " ^ engine)
      in
      check Alcotest.bool (engine ^ ": exit 2") true (status = Unix.WEXITED 2);
      check Alcotest.bool (engine ^ ": 300 visited: " ^ out) true
        (contains out {|"kind":"config-budget"|} && contains out {|"configs_explored":300,|}))
    [ "none"; "sleep"; "source" ]

(* --stats contract: a stats block on stdout after the verdict, carrying
   the schema version and both counter sections; the verdict and exit
   code are untouched. *)
let test_stats_output () =
  let out, status = run_capture "rw --readers 1 --writers 1 --stats" in
  (match status with
  | Unix.WEXITED 0 -> ()
  | _ -> Alcotest.fail "expected exit 0 with --stats");
  let has = contains out in
  check Alcotest.bool "schema version" true (has {|"schema_version":1|});
  check Alcotest.bool "invariant section" true (has {|"invariant":{|});
  check Alcotest.bool "schedule section" true (has {|"schedule":{|});
  check Alcotest.bool "timings section" true (has {|"timings":{|});
  check Alcotest.bool "explored counter present" true (has {|"configs_explored":|})

let test_stats_env () =
  (* GEM_STATS is an exact alias for --stats, validation included. *)
  let out, status = run_capture ~env:"GEM_STATS=true" "rw --readers 1 --writers 1" in
  (match status with
  | Unix.WEXITED 0 -> ()
  | _ -> Alcotest.fail "expected exit 0 with GEM_STATS=true");
  check Alcotest.bool "env enables stats" true (contains out {|"schema_version":1|});
  check Alcotest.int "bogus GEM_STATS is a usage error" 3
    (run ~env:"GEM_STATS=bogus" "rw --readers 1 --writers 1");
  let quiet, qstatus = run_capture "rw --readers 1 --writers 1" in
  (match qstatus with Unix.WEXITED 0 -> () | _ -> Alcotest.fail "expected exit 0");
  check Alcotest.bool "no stats without opt-in" false
    (contains quiet {|"schema_version"|})

(* --stats-deterministic: the snapshot must be byte-identical whatever
   --jobs is, on every subcommand that explores. *)
let test_stats_deterministic () =
  let snapshot args sched =
    let out, status =
      run_capture (Printf.sprintf "%s --stats-deterministic %s" args sched)
    in
    (match status with
    | Unix.WEXITED c when c <= 2 -> ()
    | _ -> Alcotest.failf "unexpected exit for %s %s" args sched);
    (* The stats block is the last line of stdout. *)
    match List.rev (String.split_on_char '\n' (String.trim out)) with
    | last :: _ -> last
    | [] -> Alcotest.failf "no output for %s" args
  in
  List.iter
    (fun args ->
      let s1 = snapshot args "--jobs 1" in
      check Alcotest.bool "snapshot looks deterministic" true
        (contains s1 {|"invariant":{|} && not (contains s1 {|"schedule"|}));
      check Alcotest.string (args ^ " jobs=2") s1 (snapshot args "--jobs 2");
      check Alcotest.string (args ^ " jobs=8") s1 (snapshot args "--jobs 8"))
    [
      "rw --readers 1 --writers 1";
      "buffer --lang monitor --items 2";
      "buffer --lang csp --items 2";
      "buffer --lang ada --items 2";
      "rwd --lang csp";
      "db --sites 2";
    ]

(* --exact-keys contract: falling back to exact canonical keys must not
   change any verdict or exit code — the fingerprint keys partition
   states identically, so the two modes explore the same space. *)
let test_exact_keys_parity () =
  let parity name args =
    check Alcotest.int name (run args) (run (args ^ " --exact-keys"))
  in
  parity "verified unchanged" "rw --readers 1 --writers 1";
  parity "falsified unchanged" "rw --monitor no-exclusion --readers 1 --writers 1";
  parity "truncated unchanged" "rw --readers 1 --writers 1 --max-configs 30";
  check Alcotest.int "--exact-keys verified=0" 0
    (run "rw --readers 1 --writers 1 --exact-keys");
  check Alcotest.int "--exact-keys falsified=1" 1
    (run "rw --monitor no-exclusion --readers 1 --writers 1 --exact-keys");
  check Alcotest.int "--exact-keys --jobs 4 --reduction none composes" 0
    (run "rw --readers 1 --writers 1 --exact-keys --jobs 4 --reduction none")

let test_exact_keys_env () =
  (* GEM_EXACT_KEYS reaches the interpreters through the Explore default,
     so it behaves like the flag wherever the flag is absent. *)
  check Alcotest.int "GEM_EXACT_KEYS=1 verified" 0
    (run ~env:"GEM_EXACT_KEYS=1" "rw --readers 1 --writers 1");
  check Alcotest.int "GEM_EXACT_KEYS=1 falsified" 1
    (run ~env:"GEM_EXACT_KEYS=1" "rw --monitor no-exclusion");
  check Alcotest.int "GEM_EXACT_KEYS=0 keeps fingerprints" 0
    (run ~env:"GEM_EXACT_KEYS=0" "rw --readers 1 --writers 1")

(* --audit-keys contract: the collision oracle rides along without
   changing the verdict, and the stats snapshot reports zero collisions
   on every shipped workload. *)
let test_audit_keys () =
  let audited args =
    let out, status = run_capture (args ^ " --audit-keys --stats") in
    (match status with
    | Unix.WEXITED c when c <= 1 -> ()
    | _ -> Alcotest.failf "unexpected exit for %s --audit-keys" args);
    check Alcotest.bool (args ^ ": collision counter present") true
      (contains out {|"fingerprint_collisions":|});
    check Alcotest.bool (args ^ ": zero collisions") true
      (contains out {|"fingerprint_collisions":0|})
  in
  audited "rw --readers 1 --writers 1";
  audited "buffer --lang ada --items 2";
  audited "db --sites 2";
  check Alcotest.int "verdict unchanged under audit" 0
    (run "rw --readers 1 --writers 1 --audit-keys");
  check Alcotest.int "GEM_AUDIT_KEYS env alias" 0
    (run ~env:"GEM_AUDIT_KEYS=1" "rw --readers 1 --writers 1")

(* --trace contract: a well-formed JSONL trace lands at the given path;
   the empty path is a usage error. *)
let test_trace_output () =
  let file = Filename.temp_file "gemcheck_trace" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists file then Sys.remove file)
    (fun () ->
      check Alcotest.int "verdict unchanged with --trace" 0
        (run (Printf.sprintf "rw --readers 1 --writers 1 --trace %s" (Filename.quote file)));
      let ic = open_in file in
      let first = try input_line ic with End_of_file -> "" in
      close_in ic;
      check Alcotest.bool "trace file has events" true (String.length first > 0);
      check Alcotest.bool "event is a chrome trace object" true
        (contains first {|"ph":"X"|} && contains first {|"cat":"gem"|}));
  check Alcotest.int "empty --trace path is a usage error" 3 (run "rw --trace \"\"")

(* fuzz contract: deterministic stdout for a fixed (seed, iters) pair,
   exit 0 on agreement, exit 3 on usage errors, and a fast exit under a
   zero time budget. Throughput goes to stderr only, so run_capture
   (stdout-only) sees the deterministic part. *)
let test_fuzz_deterministic () =
  let args = "fuzz --seed 42 --iters 6" in
  let out1, status1 = run_capture args in
  (match status1 with
  | Unix.WEXITED 0 -> ()
  | _ -> Alcotest.fail "expected exit 0");
  let out2, status2 = run_capture args in
  (match status2 with
  | Unix.WEXITED 0 -> ()
  | _ -> Alcotest.fail "expected exit 0 on rerun");
  check Alcotest.string "same seed, byte-identical stdout" out1 out2;
  check Alcotest.bool "reports the lattice" true (contains out1 "lattice=10 cells");
  check Alcotest.bool "reports agreement" true (contains out1 "6/6 instances agreed");
  check Alcotest.bool "PASS marker" true (contains out1 "PASS");
  check Alcotest.bool "no wall-clock on stdout" false (contains out1 "configs/s")

let test_fuzz_usage () =
  check Alcotest.int "--iters 0 rejected" 3 (run "fuzz --iters 0");
  check Alcotest.int "--iters banana rejected" 3 (run "fuzz --iters banana");
  check Alcotest.int "negative time budget rejected" 3 (run "fuzz --time-budget=-1");
  check Alcotest.int "unknown flag rejected" 3 (run "fuzz --no-such-flag")

let test_fuzz_time_budget () =
  let out, status = run_capture "fuzz --time-budget 0 --iters 100000" in
  (match status with
  | Unix.WEXITED 0 -> ()
  | _ -> Alcotest.fail "expected exit 0 under zero budget");
  check Alcotest.bool "ran zero instances" true (contains out "0/100000 instances agreed")

(* The deliberately-broken-oracle demo: alloc fault injection makes the
   resilient (bitstate) engine die with memory-watermark instead of the
   mandatory bitstate-collision-risk downgrade — the oracle must catch
   it, shrink it, and write a replayable reproducer. *)
let test_fuzz_broken_oracle () =
  let dir = Filename.temp_file "gemfuzz_corpus" "" in
  Sys.remove dir;
  Fun.protect
    ~finally:(fun () ->
      if Sys.file_exists dir then begin
        Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
        Sys.rmdir dir
      end)
    (fun () ->
      let out, status =
        run_capture ~env:"GEM_FAULT=1:10:alloc"
          (Printf.sprintf "fuzz --seed 1 --iters 5 --corpus %s" (Filename.quote dir))
      in
      (match status with
      | Unix.WEXITED 1 -> ()
      | Unix.WEXITED c -> Alcotest.failf "expected exit 1, got %d" c
      | _ -> Alcotest.fail "killed");
      check Alcotest.bool "reports the disagreement" true (contains out "DISAGREEMENT");
      check Alcotest.bool "names the divergent exhaustion" true
        (contains out "memory-watermark");
      check Alcotest.bool "shrunk line present" true (contains out "shrunk (");
      check Alcotest.bool "FAIL marker" true (contains out "FAIL");
      let repro =
        Sys.readdir dir |> Array.to_list
        |> List.filter (fun f -> Filename.check_suffix f ".gemfuzz")
      in
      check Alcotest.bool "reproducer written" true (repro <> []))

(* matrix contract: BENCH-schema JSON on stdout, --no-timings output is
   deterministic, unknown families are usage errors, and --out writes
   the report to a file instead. *)
let test_matrix_json () =
  let args = "matrix --family db --no-timings" in
  let out1, status = run_capture args in
  (match status with
  | Unix.WEXITED 0 -> ()
  | Unix.WEXITED c -> Alcotest.failf "expected exit 0, got %d" c
  | _ -> Alcotest.fail "killed");
  let has = contains out1 in
  check Alcotest.bool "schema version" true (has {|"schema_version":1|});
  check Alcotest.bool "command tag" true (has {|"command":"matrix"|});
  check Alcotest.bool "family row" true (has {|"family":"db"|});
  check Alcotest.bool "params object" true (has {|"params":{"sites":2}|});
  check Alcotest.bool "status field" true (has {|"status":"verified"|});
  check Alcotest.bool "no timings" false (has {|"wall_s"|});
  let out2, _ = run_capture args in
  check Alcotest.string "deterministic without timings" out1 out2;
  let timed, _ = run_capture "matrix --family db" in
  check Alcotest.bool "timings by default" true (contains timed {|"wall_s"|})

let test_matrix_usage () =
  check Alcotest.int "unknown family rejected" 3 (run "matrix --family frobnicate");
  check Alcotest.int "unknown scale rejected" 3 (run "matrix --scale huge");
  check Alcotest.int "bad jobs rejected" 3 (run "matrix --family db --jobs 0")

let test_matrix_out_and_budget () =
  let file = Filename.temp_file "gemcheck_matrix" ".json" in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists file then Sys.remove file)
    (fun () ->
      check Alcotest.int "--out db report exits 0" 0
        (run (Printf.sprintf "matrix --family db --out %s" (Filename.quote file)));
      let ic = open_in file in
      let contents = really_input_string ic (in_channel_length ic) in
      close_in ic;
      check Alcotest.bool "file holds the report" true
        (contains contents {|"schema_version":1|});
      (* Zero overall budget: every cell is cut or skipped -> exit 2 and
         only inconclusive/skipped rows. *)
      let out, status = run_capture "matrix --family db --time-budget 0 --no-timings" in
      (match status with
      | Unix.WEXITED 2 -> ()
      | Unix.WEXITED c -> Alcotest.failf "expected exit 2 under zero budget, got %d" c
      | _ -> Alcotest.fail "killed");
      check Alcotest.bool "no verified rows under zero budget" false
        (contains out {|"status":"verified"|}))

(* The daemon through the shipped binary: start [serve] in the
   background, drive it with [client], check the daemon's body is
   byte-identical to the one-shot [--json] report (cold and cached),
   then SIGTERM it and verify the clean exit and socket removal. *)
let daemons = ref 0

(* A [serve] daemon on a fresh socket for the duration of [f]; killed
   on the way out unless [f] stopped it. *)
let with_daemon f =
  incr daemons;
  let socket =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "gemcheck-cli-%d-%d.sock" (Unix.getpid ()) !daemons)
  in
  if Sys.file_exists socket then Sys.remove socket;
  let null = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  let pid =
    Unix.create_process gemcheck
      [| gemcheck; "serve"; "--socket"; socket; "--cache-size"; "8" |]
      Unix.stdin null null
  in
  Unix.close null;
  Fun.protect
    ~finally:(fun () ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      (try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ());
      if Sys.file_exists socket then Sys.remove socket)
    (fun () ->
      let deadline = Unix.gettimeofday () +. 10. in
      while
        (not (Sys.file_exists socket)) && Unix.gettimeofday () < deadline
      do
        Unix.sleepf 0.05
      done;
      check Alcotest.bool "daemon came up" true (Sys.file_exists socket);
      f ~pid ~socket)

let client_args socket req =
  Printf.sprintf "client --socket %s %s" (Filename.quote socket) (Filename.quote req)

let test_serve_smoke () =
  with_daemon (fun ~pid ~socket ->
      let client = client_args socket in
      (* Body (stdout) must be byte-identical to the one-shot report,
         cold and from the cache. *)
      let fresh, fresh_st = run_capture "db --sites 2 --json" in
      let cold, cold_st = run_capture (client "check db sites=2") in
      let warm, warm_st = run_capture (client "check db sites=2") in
      check Alcotest.string "cold body == one-shot --json" fresh cold;
      check Alcotest.string "cached body == one-shot --json" fresh warm;
      check Alcotest.bool "exit codes agree" true
        (fresh_st = cold_st && cold_st = warm_st);
      (* Provenance rides on the header, which [client] prints to
         stderr. *)
      let header_of req =
        let ic =
          Unix.open_process_in
            (Printf.sprintf "%s %s 2>&1 1>/dev/null" (Filename.quote gemcheck)
               (client req))
        in
        let line = try input_line ic with End_of_file -> "" in
        ignore (Unix.close_process_in ic);
        line
      in
      check Alcotest.bool "third request is a hit" true
        (contains (header_of "check db sites=2") {|"cache":"hit"|});
      check Alcotest.bool "distinct request misses" true
        (contains (header_of "check life width=3 height=3 generations=1")
           {|"cache":"miss"|});
      (* SIGTERM: drain, clean exit, socket unlinked. *)
      Unix.kill pid Sys.sigterm;
      (match Unix.waitpid [] pid with
      | _, Unix.WEXITED 0 -> ()
      | _, Unix.WEXITED c -> Alcotest.failf "serve exited %d on SIGTERM" c
      | _ -> Alcotest.fail "serve killed by signal");
      check Alcotest.bool "socket removed on shutdown" false
        (Sys.file_exists socket))

(* A daemon that has served a workload answers its variants (client
   restrictions and another rw version, which share the workload's
   exploration) with the body the one-shot CLI prints under --json,
   and with its exit code. *)
let test_serve_variants () =
  with_daemon (fun ~pid:_ ~socket ->
      List.iter
        (fun (request, args) ->
          let fresh, fresh_st = run_capture (args ^ " --json") in
          let served, served_st = run_capture (client_args socket ("check " ^ request)) in
          check Alcotest.string (request ^ ": body == one-shot --json") fresh served;
          check Alcotest.bool (request ^ ": exit codes agree") true (fresh_st = served_st))
        [
          ("rw readers=1 writers=1", "rw --readers 1 --writers 1");
          ({|rw readers=1 writers=1 restrict="~false"|}, "rw --readers 1 --writers 1 --restrict '~false'");
          ({|rw readers=1 writers=1 restrict="~~false"|}, "rw --readers 1 --writers 1 --restrict '~~false'");
          ( {|rw readers=1 writers=1 restrict="[]((ALL x:*) occurred(x))"|},
            "rw --readers 1 --writers 1 --restrict '[]((ALL x:*) occurred(x))'" );
          ( "rw readers=1 writers=1 version=free-for-all",
            "rw --readers 1 --writers 1 --version free-for-all" );
          ("buffer lang=csp", "buffer --lang csp");
          ({|buffer lang=csp restrict="~([](true))"|}, "buffer --lang csp --restrict '~([](true))'");
          ("rwd lang=ada", "rwd --lang ada");
          ({|rwd lang=ada restrict="(ALL x:*) occurred(x)"|}, "rwd --lang ada --restrict '(ALL x:*) occurred(x)'");
        ])

let test_client_no_daemon () =
  (* A client pointed at a dead socket is a usage-style failure (exit 3),
     not a hang or a crash. *)
  check Alcotest.int "no daemon" 3
    (run "client --socket /tmp/gemcheck-no-such.sock ping")

let () =
  Alcotest.run "gemcheck_cli"
    [
      ( "exit-codes",
        [
          Alcotest.test_case "verified=0" `Quick test_verified;
          Alcotest.test_case "falsified=1" `Quick test_falsified;
          Alcotest.test_case "inconclusive-configs=2" `Quick test_inconclusive_configs;
          Alcotest.test_case "inconclusive-timeout=2" `Quick test_inconclusive_timeout;
          Alcotest.test_case "usage=3" `Quick test_usage_error;
          Alcotest.test_case "restriction error=3" `Quick test_restriction_error;
          Alcotest.test_case "GEMCKPT2 resume=3" `Quick test_old_checkpoint_refused;
          Alcotest.test_case "no-por-parity" `Quick test_no_por_parity;
          Alcotest.test_case "retired frontier options=3" `Quick
            test_retired_frontier_options;
        ] );
      ( "reduction",
        [
          Alcotest.test_case "engine parity" `Quick test_reduction_parity;
          Alcotest.test_case "bad values rejected" `Quick
            test_reduction_rejected;
          Alcotest.test_case "GEM_REDUCTION env" `Quick test_reduction_env;
          Alcotest.test_case "deterministic stats across engines" `Quick
            test_reduction_stats_deterministic;
        ] );
      ( "jobs",
        [
          Alcotest.test_case "jobs-parity" `Quick test_jobs_parity;
          Alcotest.test_case "GEM_JOBS env" `Quick test_jobs_env;
          Alcotest.test_case "bad values rejected" `Quick test_jobs_rejected;
          Alcotest.test_case "GEM_BATCH env" `Quick test_batch_env;
          Alcotest.test_case "bad batch rejected" `Quick test_batch_rejected;
        ] );
      ( "json",
        [
          Alcotest.test_case "degradation report" `Quick test_json_report;
          Alcotest.test_case "budget charged once" `Quick test_json_budget_charged_once;
          Alcotest.test_case "deep paths capped" `Quick test_json_deep_paths_capped;
        ] );
      ( "keys",
        [
          Alcotest.test_case "exact-keys parity" `Quick test_exact_keys_parity;
          Alcotest.test_case "GEM_EXACT_KEYS env" `Quick test_exact_keys_env;
          Alcotest.test_case "audit-keys collision gate" `Quick test_audit_keys;
        ] );
      ( "stats",
        [
          Alcotest.test_case "--stats output" `Quick test_stats_output;
          Alcotest.test_case "GEM_STATS env" `Quick test_stats_env;
          Alcotest.test_case "deterministic across jobs" `Quick
            test_stats_deterministic;
          Alcotest.test_case "--trace export" `Quick test_trace_output;
        ] );
      ( "fuzz",
        [
          Alcotest.test_case "deterministic stdout" `Quick test_fuzz_deterministic;
          Alcotest.test_case "usage errors" `Quick test_fuzz_usage;
          Alcotest.test_case "zero time budget" `Quick test_fuzz_time_budget;
          Alcotest.test_case "broken oracle caught" `Quick test_fuzz_broken_oracle;
        ] );
      ( "serve",
        [
          Alcotest.test_case "daemon smoke" `Quick test_serve_smoke;
          Alcotest.test_case "variants == one-shot --json" `Quick test_serve_variants;
          Alcotest.test_case "client without daemon" `Quick
            test_client_no_daemon;
        ] );
      ( "matrix",
        [
          Alcotest.test_case "BENCH json" `Quick test_matrix_json;
          Alcotest.test_case "usage errors" `Quick test_matrix_usage;
          Alcotest.test_case "--out and --time-budget" `Quick
            test_matrix_out_and_budget;
        ] );
    ]
