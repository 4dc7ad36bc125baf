(* The resilience ladder: bitstate degradation, checkpoint/resume and
   the deterministic fault-injection harness.

   The contract under test is soundness under degradation — every rung
   may lose coverage, none may fabricate it:

   - bitstate runs must find exactly the computations of an exact run
     on workloads that fit exactly (parity matrix: POR on and off), and
     must always finish Inconclusive
     (Bitstate_collision_risk) rather than Verified;
   - a run killed by budget and resumed from its checkpoint must end
     with the same leaves, counters and verdict as an uninterrupted
     run; a stamp mismatch must be refused;
   - under injected faults (qcheck over random CSP programs), the
     computations found are always a subset of the clean run's, any
     strict loss is reported as exhaustion, and every injected fault is
     survived;
   - a run that checkpoints as it goes explores exactly what the
     default run explores: same explored, reduced and truncated counts
     and the same leaf fingerprints, on every lib/problems workload and
     on random Monitor and CSP programs;
   - a truncated, bit-flipped or old-format checkpoint is refused with
     an error, never a crash;
   - an exception in one checking domain reaches the caller. *)

module Explore = Gem_lang.Explore
module Csp = Gem_lang.Csp
module Db = Gem_problems.Db_update
module Rwd = Gem_problems.Rw_distributed
module Budget = Gem_check.Budget
module Bitstate = Gem_check.Bitstate
module Checkpoint = Gem_check.Checkpoint
module Faults = Gem_check.Faults
module Fp = Gem_order.Fingerprint
module T = Gem_obs.Telemetry
module Gen_csp = Gem_fuzz.Gen

let check = Alcotest.check
let reason_opt = Option.map Budget.reason_keyword

(* Sorted fingerprint set (not multiset): the POR-off exact walk keeps
   duplicate leaves that any keyed walk collapses, so set equality is
   the mode-independent statement of "same computations". *)
let fpset comps = List.sort_uniq compare (List.map Explore.fingerprint comps)

let with_disarmed f = Fun.protect ~finally:Faults.disarm f

let arm_exn spec =
  match Faults.arm spec with
  | Ok () -> ()
  | Error e -> Alcotest.failf "Faults.arm %S: %s" spec e

(* ------------------------------------------------------------------ *)
(* Bitstate table                                                      *)
(* ------------------------------------------------------------------ *)

let fp_of_int i = Fp.of_string (string_of_int i)

let test_bitstate_membership () =
  let t = Bitstate.create ~bits:12 () in
  check Alcotest.int "capacity" 4096 (Bitstate.capacity t);
  check Alcotest.int "bits" 12 (Bitstate.bits t);
  let fp = fp_of_int 1 in
  check Alcotest.bool "first sight is `New" true (Bitstate.add t fp = `New);
  check Alcotest.bool "second sight is `Seen" true (Bitstate.add t fp = `Seen);
  check Alcotest.int "occupancy" 1 (Bitstate.occupancy t);
  for i = 2 to 100 do
    check Alcotest.bool
      (Printf.sprintf "distinct fp %d is `New" i)
      true
      (Bitstate.add t (fp_of_int i) = `New)
  done;
  check Alcotest.int "occupancy after 100" 100 (Bitstate.occupancy t);
  check Alcotest.bool "not saturated" false (Bitstate.saturated t)

let test_bitstate_saturation () =
  (* Overfill a minimal table: every add past the 7/8 load cap must
     answer `Full (never loop, never record), and the saturation flag
     must latch. *)
  let t = Bitstate.create ~shards:1 ~bits:8 () in
  let cap = Bitstate.capacity t in
  let full = ref 0 in
  for i = 1 to 2 * cap do
    match Bitstate.add t (fp_of_int i) with
    | `Full -> incr full
    | `New | `Seen -> ()
  done;
  check Alcotest.bool "saturated" true (Bitstate.saturated t);
  check Alcotest.bool "saw `Full answers" true (!full > 0);
  check Alcotest.bool "occupancy held at the load cap" true
    (Bitstate.occupancy t <= cap * 7 / 8 + 1);
  check Alcotest.bool "later adds still answer `Full" true
    (Bitstate.add t (fp_of_int (4 * cap)) = `Full)

let test_bitstate_snapshot_roundtrip () =
  let t = Bitstate.create ~bits:10 () in
  for i = 1 to 200 do
    ignore (Bitstate.add t (fp_of_int i))
  done;
  let t' = Bitstate.restore (Bitstate.snapshot t) in
  check Alcotest.int "occupancy preserved" (Bitstate.occupancy t)
    (Bitstate.occupancy t');
  for i = 1 to 200 do
    check Alcotest.bool
      (Printf.sprintf "fp %d still `Seen after restore" i)
      true
      (Bitstate.add t' (fp_of_int i) = `Seen)
  done

let test_bitstate_bits_validated () =
  List.iter
    (fun bits ->
      check Alcotest.bool
        (Printf.sprintf "bits=%d rejected" bits)
        true
        (try
           ignore (Bitstate.create ~bits ());
           false
         with Invalid_argument _ -> true))
    [ 0; 7; 31; -1 ]

(* ------------------------------------------------------------------ *)
(* Faults                                                              *)
(* ------------------------------------------------------------------ *)

let test_faults_parse () =
  let bad spec =
    check Alcotest.bool (Printf.sprintf "%S rejected" spec) true
      (match Faults.arm spec with Error _ -> true | Ok () -> Faults.disarm (); false)
  in
  bad "banana";
  bad "42:0";
  bad "42:-3";
  bad "42:17:bogus-point";
  bad "42:17:";
  bad "";
  with_disarmed (fun () ->
      arm_exn "42";
      check Alcotest.bool "armed" true (Faults.armed ());
      arm_exn "42:17";
      arm_exn "42:17:alloc,checkpoint-io");
  check Alcotest.bool "disarmed after protect" false (Faults.armed ())

let test_faults_deterministic_stream () =
  let stream () =
    with_disarmed (fun () ->
        arm_exn "42:7";
        List.init 500 (fun _ -> Faults.fire Faults.Alloc))
  in
  let a = stream () in
  check Alcotest.(list bool) "same seed, same stream" a (stream ());
  check Alcotest.bool "roughly one in PERIOD fires" true
    (let fired = List.length (List.filter Fun.id a) in
     fired > 20 && fired < 200);
  let b =
    with_disarmed (fun () ->
        arm_exn "43:7";
        List.init 500 (fun _ -> Faults.fire Faults.Alloc))
  in
  check Alcotest.bool "different seed, different stream" true (a <> b)

let test_faults_point_filter () =
  with_disarmed (fun () ->
      arm_exn "42:1:checkpoint-io";
      check Alcotest.bool "eligible point fires at period 1" true
        (Faults.fire Faults.Checkpoint_io);
      check Alcotest.bool "ineligible point never fires" false
        (List.exists Fun.id (List.init 100 (fun _ -> Faults.fire Faults.Alloc))));
  check Alcotest.bool "fire is false when disarmed" false
    (Faults.fire Faults.Checkpoint_io)

(* ------------------------------------------------------------------ *)
(* Checkpoint                                                          *)
(* ------------------------------------------------------------------ *)

let temp_ckpt () = Filename.temp_file "gem-test-ckpt" ".bin"

let test_checkpoint_roundtrip () =
  let file = temp_ckpt () in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists file then Sys.remove file)
    (fun () ->
      let ctl = Checkpoint.ctl ~every:10 file in
      check Alcotest.int "every" 10 (Checkpoint.every ctl);
      let payload = ([ 1; 2; 3 ], "leaves", [| 4.0; 5.0 |]) in
      (match Checkpoint.write ctl ~stamp:"run/a" payload with
      | Ok () -> ()
      | Error e -> Alcotest.failf "write: %s" e);
      (match Checkpoint.read ~stamp:"run/a" file with
      | Ok p ->
          check Alcotest.bool "payload round-trips" true (p = payload)
      | Error e -> Alcotest.failf "read: %s" e);
      check Alcotest.bool "stamp mismatch refused" true
        (match (Checkpoint.read ~stamp:"run/b" file : (unit, string) result) with
        | Error _ -> true
        | Ok () -> false);
      check Alcotest.bool "no staging litter" false (Sys.file_exists (file ^ ".tmp")))

let test_checkpoint_corrupt_and_missing () =
  let file = temp_ckpt () in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists file then Sys.remove file)
    (fun () ->
      let oc = open_out_bin file in
      output_string oc "not a checkpoint at all";
      close_out oc;
      check Alcotest.bool "corrupt file is an Error, not an exception" true
        (match (Checkpoint.read ~stamp:"x" file : (unit, string) result) with
        | Error _ -> true
        | Ok () -> false));
  check Alcotest.bool "missing file is an Error" true
    (match
       (Checkpoint.read ~stamp:"x" "/nonexistent/gem-ckpt" : (unit, string) result)
     with
    | Error _ -> true
    | Ok () -> false)

let test_checkpoint_fault_preserves_previous () =
  let file = temp_ckpt () in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists file then Sys.remove file)
    (fun () ->
      let ctl = Checkpoint.ctl file in
      (match Checkpoint.write ctl ~stamp:"run/a" [ 1 ] with
      | Ok () -> ()
      | Error e -> Alcotest.failf "first write: %s" e);
      with_disarmed (fun () ->
          T.reset ();
          arm_exn "5:1:checkpoint-io";
          check Alcotest.bool "faulted write reports Error" true
            (match Checkpoint.write ctl ~stamp:"run/a" [ 2 ] with
            | Error _ -> true
            | Ok () -> false);
          check Alcotest.int "fault survived" (T.read T.Faults_injected)
            (T.read T.Faults_survived));
      match Checkpoint.read ~stamp:"run/a" file with
      | Ok p -> check Alcotest.(list int) "previous snapshot intact" [ 1 ] p
      | Error e -> Alcotest.failf "read after faulted write: %s" e)

(* Corruption: every damaged file must be refused with an [Error] before
   anything is unmarshalled. The file under attack is a real engine
   snapshot (db-update, 3 sites, cut at 1000 configurations). *)
let with_engine_snapshot f =
  let file = temp_ckpt () in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists file then Sys.remove file)
    (fun () ->
      ignore
        (Explore.explore ~max_configs:1000
           ~resilience:
             { Explore.no_resilience with
               checkpoint = Some (Checkpoint.ctl ~every:500 file);
               stamp = "run/db3"
             }
           (Csp.lang (Db.program ~sites:3)));
      let ic = open_in_bin file in
      let bytes = really_input_string ic (in_channel_length ic) in
      close_in ic;
      f file bytes)

let refused file =
  match (Checkpoint.read ~stamp:"run/db3" file : (unit, string) result) with
  | Error _ -> true
  | Ok () -> false

let rewrite file bytes =
  let oc = open_out_bin file in
  output_string oc bytes;
  close_out oc

let test_checkpoint_truncated () =
  with_engine_snapshot (fun file bytes ->
      let n = String.length bytes in
      check Alcotest.bool "snapshot reads back intact" false (refused file);
      List.iter
        (fun len ->
          rewrite file (String.sub bytes 0 len);
          check Alcotest.bool
            (Printf.sprintf "truncated to %d of %d bytes: refused" len n)
            true (refused file))
        [ 0; 4; 8; 12; 16; 23; 40; n / 3; n / 2; n - 17; n - 1 ])

let test_checkpoint_flipped_byte () =
  with_engine_snapshot (fun file bytes ->
      let n = String.length bytes in
      List.iter
        (fun at ->
          let b = Bytes.of_string bytes in
          Bytes.set b at (Char.chr (Char.code (Bytes.get b at) lxor 0x40));
          rewrite file (Bytes.to_string b);
          check Alcotest.bool
            (Printf.sprintf "byte %d of %d flipped: refused" at n)
            true (refused file))
        [ n - 1; n / 2; n - 100 ])

let test_checkpoint_old_format () =
  with_engine_snapshot (fun file bytes ->
      (* The GEMCKPT1 layout: magic, marshalled stamp, marshalled
         payload. *)
      let payload = String.sub bytes 8 (String.length bytes - 8) in
      rewrite file
        ("GEMCKPT1" ^ Marshal.to_string "run/db3" [] ^ Marshal.to_string payload []);
      check Alcotest.bool "GEMCKPT1 file refused" true (refused file);
      check Alcotest.bool "the error names the old format" true
        (match (Checkpoint.read ~stamp:"run/db3" file : (unit, string) result) with
        | Error e ->
            let sub = "GEMCKPT1" in
            let rec has i =
              i + String.length sub <= String.length e
              && (String.sub e i (String.length sub) = sub || has (i + 1))
            in
            has 0
        | Ok () -> false))

let contains hay needle =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

(* GEMCKPT2 to GEMCKPT4 files have the current header layout, so their
   lengths and digest check out; only the magic tells that the payload
   is an earlier layout of the walk state (GEMCKPT3's is a task
   frontier, not a frame stack; GEMCKPT4's frames carry no key parts),
   which must not be unmarshalled. *)
let test_checkpoint_previous_format () =
  with_engine_snapshot (fun file bytes ->
      check Alcotest.string "written as GEMCKPT5" "GEMCKPT5" (String.sub bytes 0 8);
      List.iter
        (fun old ->
          rewrite file (old ^ String.sub bytes 8 (String.length bytes - 8));
          (match (Checkpoint.read ~stamp:"run/db3" file : (unit, string) result) with
          | Ok () -> Alcotest.failf "%s file unmarshalled" old
          | Error e ->
              check Alcotest.bool
                (Printf.sprintf "the error names %s and says to rerun" old)
                true
                (contains e old && contains e "rerun"));
          match
            Explore.explore ~max_configs:1000
              ~resilience:
                { Explore.no_resilience with resume = Some file; stamp = "run/db3" }
              (Csp.lang (Db.program ~sites:3))
          with
          | _ -> Alcotest.failf "resumed from a %s file" old
          | exception Explore.Resume_error e ->
              check Alcotest.bool ("Resume_error names " ^ old) true (contains e old))
        [ "GEMCKPT2"; "GEMCKPT3"; "GEMCKPT4" ])

(* ------------------------------------------------------------------ *)
(* Bitstate engine parity matrix                                       *)
(* ------------------------------------------------------------------ *)

let bitstate_res () =
  { Explore.no_resilience with bitstate = Some (Bitstate.create ~bits:16 ()) }

let bitstate_parity name prog =
  List.iter
    (fun reduction ->
      let engine = Explore.reduction_name reduction in
      let base = Explore.explore ~reduction (Csp.lang prog) in
      check Alcotest.(option string)
        (Printf.sprintf "%s %s: exact baseline is clean" name engine)
        None (reason_opt base.Explore.exhausted);
      let o = Explore.explore ~reduction ~resilience:(bitstate_res ()) (Csp.lang prog) in
      let tag = Printf.sprintf "%s %s bitstate" name engine in
      check
        Alcotest.(list string)
        (tag ^ ": computation set")
        (fpset base.Explore.computations)
        (fpset o.Explore.computations);
      check
        Alcotest.(list string)
        (tag ^ ": deadlock set")
        (fpset base.Explore.deadlocks)
        (fpset o.Explore.deadlocks);
      check
        Alcotest.(option string)
        (tag ^ ": Verified downgraded")
        (Some "bitstate-collision-risk")
        (reason_opt o.Explore.exhausted))
    [ Explore.Sleep_sets; Explore.Source_sets; Explore.No_reduction ]

let test_bitstate_parity_matrix () =
  bitstate_parity "db-update-2" (Db.program ~sites:2);
  bitstate_parity "rwd-1r1w" (Rwd.csp_program ~readers:1 ~writers:1)

(* Source-DPOR through a bitstate store keeps no subtree summaries, so
   every covered arrival saturates the open stack. A verdict through it
   is the exact source run's where that one is Falsified (a reported
   counterexample was really executed), and Inconclusive
   bitstate-collision-risk everywhere else. *)
let test_bitstate_source_verdicts () =
  let module Runner = Gem_daemon.Runner in
  let module RW = Gem_problems.Readers_writers in
  let status load bitstate =
    let opts =
      {
        Runner.reduction = Some Explore.Source_sets;
        exact_keys = None;
        audit_keys = None;
        jobs = 1;
        resilience = { Explore.no_resilience with bitstate };
      }
    in
    (Runner.run load opts ~budget:(Budget.make ()) ~restrict:None).Runner.status
  in
  let rw monitor readers writers =
    Runner.Rw { monitor; version = RW.Readers_priority; readers; writers }
  in
  let buffer lang =
    Runner.Buffer { lang; capacity = 1; producers = 1; consumers = 1; items = 2 }
  in
  List.iter
    (fun (name, load, falsified) ->
      let exact = status load None in
      let lossy = status load (Some (Bitstate.create ~bits:20 ())) in
      check Alcotest.bool (name ^ ": exact source falsifies iff expected") falsified
        (exact = Gem_check.Verdict.Falsified);
      check Alcotest.bool (name ^ ": bitstate source verdict") true
        (if falsified then lossy = Gem_check.Verdict.Falsified
         else lossy = Gem_check.Verdict.Inconclusive Budget.Bitstate_collision_risk))
    [
      ("rw buggy 1r2w", rw "buggy" 1 2, true);
      ("rw no-exclusion 1r1w", rw "no-exclusion" 1 1, true);
      ("rw paper 1r1w", rw "paper" 1 1, false);
      ("rw paper 2r1w", rw "paper" 2 1, false);
      ("buffer monitor", buffer `Monitor, false);
      ("buffer csp", buffer `Csp, false);
      ("rwd csp 1r1w", Runner.Rwd { lang = `Csp; readers = 1; writers = 1; broken = false }, false);
    ]

let test_bitstate_saturated_run_is_inconclusive () =
  (* A table far too small for the workload: the run must terminate (the
     `Full answer prunes instead of looping) and must not claim
     completeness. *)
  let res =
    { Explore.no_resilience with
      bitstate = Some (Bitstate.create ~shards:1 ~bits:8 ())
    }
  in
  let o = Explore.explore ~resilience:res (Csp.lang (Db.program ~sites:3)) in
  check Alcotest.(option string) "inconclusive"
    (Some "bitstate-collision-risk")
    (reason_opt o.Explore.exhausted);
  check Alcotest.bool "found a subset of the real computations" true
    (List.length o.Explore.computations <= 720);
  check Alcotest.bool "saturation counted" true (T.read T.Bitstate_saturated_prunes > 0)

(* ------------------------------------------------------------------ *)
(* Checkpoint/resume at the engine level                               *)
(* ------------------------------------------------------------------ *)

(* Under sleep sets and under source-DPOR alike: the source frames
   (backtrack, executed and skipped sets, summaries) resume as they were
   snapshotted. *)
let test_resume_reaches_identical_verdict () =
  let prog = Db.program ~sites:3 in
  let stamp_res file =
    { Explore.no_resilience with checkpoint = Some (Checkpoint.ctl ~every:500 file) }
  in
  List.iter
    (fun reduction ->
      let engine what = Explore.reduction_name reduction ^ ": " ^ what in
      let explore ?max_configs resilience =
        Explore.explore ~reduction ?max_configs ~resilience (Csp.lang prog)
      in
      let ck_a = temp_ckpt () and ck_b = temp_ckpt () in
      Fun.protect
        ~finally:(fun () ->
          List.iter (fun f -> if Sys.file_exists f then Sys.remove f) [ ck_a; ck_b ])
        (fun () ->
          (* Uninterrupted run through the same (checkpointing) engine. *)
          let full = explore (stamp_res ck_a) in
          check Alcotest.(option string) (engine "uninterrupted run is clean") None
            (reason_opt full.Explore.exhausted);
          (* Interrupted: stop on a config budget aligned with [every]. *)
          let cut = explore ~max_configs:2000 (stamp_res ck_b) in
          check Alcotest.(option string)
            (engine "interrupted run reports the budget")
            (Some "config-budget")
            (reason_opt cut.Explore.exhausted);
          check Alcotest.bool (engine "checkpoint file exists") true (Sys.file_exists ck_b);
          (* Resumed: must reproduce the uninterrupted run exactly. *)
          let resumed = explore { (stamp_res ck_b) with resume = Some ck_b } in
          check Alcotest.(option string) (engine "resumed run is clean") None
            (reason_opt resumed.Explore.exhausted);
          check
            Alcotest.(list string)
            (engine "identical computation multiset")
            (List.sort compare (List.map Explore.fingerprint full.Explore.computations))
            (List.sort compare (List.map Explore.fingerprint resumed.Explore.computations));
          check
            Alcotest.(list string)
            (engine "identical deadlock multiset")
            (List.sort compare (List.map Explore.fingerprint full.Explore.deadlocks))
            (List.sort compare (List.map Explore.fingerprint resumed.Explore.deadlocks));
          check Alcotest.int (engine "identical explored counter") full.Explore.explored
            resumed.Explore.explored;
          check Alcotest.int (engine "identical reduced counter") full.Explore.reduced
            resumed.Explore.reduced;
          check Alcotest.bool (engine "no staging litter") false
            (Sys.file_exists (ck_b ^ ".tmp"))))
    [ Explore.Sleep_sets; Explore.Source_sets ]

(* The plain walk over a 400-step comb (each step also offers a dead
   end), snapshotted every 50 visits: the checkpointing run and a run cut
   at 300 visits and resumed both end as the plain run does. *)
let test_deep_walk_checkpoints () =
  let last = 400 in
  let moves n = if n >= 0 && n < last then [ n + 1; -n - 1 ] else [] in
  let terminated n = n = last in
  let run ?max_configs resilience = Explore.run ?max_configs ~resilience ~moves ~terminated 0 in
  let base = run Explore.no_resilience in
  check Alcotest.int "plain: every configuration" ((2 * last) + 1) base.Explore.explored;
  let ck = temp_ckpt () in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists ck then Sys.remove ck)
    (fun () ->
      let res = { Explore.no_resilience with checkpoint = Some (Checkpoint.ctl ~every:50 ck) } in
      let same what (r : int Explore.result) =
        check Alcotest.(option string) (what ^ ": clean") None (reason_opt r.Explore.exhausted);
        check Alcotest.int (what ^ ": explored") base.Explore.explored r.Explore.explored;
        check Alcotest.(list int) (what ^ ": completed") base.Explore.completed r.Explore.completed;
        check Alcotest.(list int) (what ^ ": deadlocked") base.Explore.deadlocked
          r.Explore.deadlocked
      in
      same "checkpointing" (run res);
      let cut = run ~max_configs:300 res in
      check Alcotest.(option string) "cut" (Some "config-budget") (reason_opt cut.Explore.exhausted);
      same "resumed" (run { res with resume = Some ck }))

(* An allocation fault drops a pushed frame, and its parent settles the
   move as if the subtree were done. A snapshot from then on would let a
   resume skip that subtree and end clean, so none is written: a resume
   from the file the faulted run leaves is either cut or the clean run. *)
let test_faulted_run_resumes_soundly () =
  let prog = Db.program ~sites:3 in
  List.iter
    (fun reduction ->
      let clean = Explore.explore ~reduction (Csp.lang prog) in
      List.iter
        (fun seed ->
          let ck = temp_ckpt () in
          Fun.protect
            ~finally:(fun () -> if Sys.file_exists ck then Sys.remove ck)
            (fun () ->
              let res =
                { Explore.no_resilience with checkpoint = Some (Checkpoint.ctl ~every:1 ck) }
              in
              let faulted =
                with_disarmed (fun () ->
                    arm_exn (Printf.sprintf "%d:40:alloc" seed);
                    Explore.explore ~reduction ~resilience:res (Csp.lang prog))
              in
              let tag what =
                Printf.sprintf "%s seed %d: %s" (Explore.reduction_name reduction) seed what
              in
              check Alcotest.(option string) (tag "faulted run stops at the watermark")
                (Some "memory-watermark")
                (reason_opt faulted.Explore.exhausted);
              let resumed =
                Explore.explore ~reduction
                  ~resilience:{ Explore.no_resilience with resume = Some ck }
                  (Csp.lang prog)
              in
              if resumed.Explore.exhausted = None then begin
                check Alcotest.int (tag "a clean resume explores the clean run")
                  clean.Explore.explored resumed.Explore.explored;
                check
                  Alcotest.(list string)
                  (tag "a clean resume finds the clean computations")
                  (fpset clean.Explore.computations) (fpset resumed.Explore.computations)
              end))
        [ 1; 2; 3 ])
    [ Explore.Sleep_sets; Explore.Source_sets ]

let test_resume_refuses_foreign_stamp () =
  (* A checkpoint carries the caller-supplied run-identity stamp (the
     CLI derives it from the resolved command line); resuming under a
     different stamp must raise Resume_error rather than silently
     splicing one run's state into another's verdict. *)
  let ck = temp_ckpt () in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists ck then Sys.remove ck)
    (fun () ->
      let res stamp =
        { Explore.no_resilience with
          checkpoint = Some (Checkpoint.ctl ~every:500 ck);
          stamp
        }
      in
      ignore
        (Explore.explore ~max_configs:2000 ~resilience:(res "run/db3")
           (Csp.lang (Db.program ~sites:3)));
      check Alcotest.bool "checkpoint written" true (Sys.file_exists ck);
      check Alcotest.bool "foreign stamp refused" true
        (try
           ignore
             (Explore.explore
                ~resilience:{ (res "run/db4") with resume = Some ck }
                (Csp.lang (Db.program ~sites:4)));
           false
         with Explore.Resume_error _ -> true))

(* ------------------------------------------------------------------ *)
(* Resilience options do not change counts                             *)
(* ------------------------------------------------------------------ *)

(* The default walk and a walk that checkpoints as it goes must agree
   configuration by configuration: equal explored, reduced and
   truncated counts and equal leaf fingerprint multisets, under sleep
   sets and under source-DPOR. *)
type counts = {
  c_explored : int;
  c_reduced : int;
  c_truncated : int;
  c_comps : string list;
  c_deads : string list;
}

let fps comps = List.sort compare (List.map Explore.fingerprint comps)

(* [run reduction resilience] explores one program; the result is
   compared across the default and checkpointing resilience settings,
   under each reducing engine. Returns the number of checkpoints
   written, so callers can check the checkpoint leg really wrote one. *)
let assert_same_counts ?(every = 500) name run =
  List.fold_left
    (fun writes reduction ->
      let ck = temp_ckpt () in
      Fun.protect
        ~finally:(fun () -> if Sys.file_exists ck then Sys.remove ck)
        (fun () ->
          let base = run reduction Explore.no_resilience in
          let writes0 = T.read T.Checkpoint_writes in
          let o =
            run reduction
              { Explore.no_resilience with
                checkpoint = Some (Checkpoint.ctl ~every ck)
              }
          in
          let tag what =
            Printf.sprintf "%s %s checkpoint: %s" name
              (Explore.reduction_name reduction) what
          in
          check Alcotest.int (tag "explored") base.c_explored o.c_explored;
          check Alcotest.int (tag "reduced") base.c_reduced o.c_reduced;
          check Alcotest.int (tag "truncated") base.c_truncated o.c_truncated;
          check Alcotest.(list string) (tag "computations") base.c_comps o.c_comps;
          check Alcotest.(list string) (tag "deadlocks") base.c_deads o.c_deads;
          writes + T.read T.Checkpoint_writes - writes0))
    0
    [ Explore.Sleep_sets; Explore.Source_sets ]

let counts lang reduction resilience =
  let o = Explore.explore ~reduction ~resilience lang in
  {
    c_explored = o.explored;
    c_reduced = o.reduced;
    c_truncated = o.truncated;
    c_comps = fps o.computations;
    c_deads = fps o.deadlocks;
  }

let mon prog = counts (Gem_lang.Monitor.lang prog)
let csp prog = counts (Csp.lang prog)
let ada prog = counts (Gem_lang.Ada.lang prog)

let test_workload_counts_unchanged () =
  let module RW = Gem_problems.Readers_writers in
  let module Buf = Gem_problems.Buffer in
  let writes =
    List.fold_left
      (fun n (name, run) -> n + assert_same_counts name run)
      0
      [
        ("rw-paper-2r1w", mon (RW.program ~monitor:RW.paper_monitor ~readers:2 ~writers:1));
        ( "rw-no-exclusion-2r1w",
          mon (RW.program ~monitor:RW.no_exclusion_monitor ~readers:2 ~writers:1) );
        ("rw-buggy-1r2w", mon (RW.program ~monitor:RW.buggy_monitor ~readers:1 ~writers:2));
        ( "buffer-monitor-2p2c",
          mon (Buf.monitor_solution ~capacity:2 ~producers:2 ~consumers:2 ~items_each:1) );
        ( "buffer-buggy-monitor-1p1c2i",
          mon
            (Buf.buggy_monitor_solution ~capacity:1 ~producers:1 ~consumers:1
               ~items_each:2) );
        ( "buffer-csp-1p1c2i",
          csp (Buf.csp_solution ~capacity:1 ~producers:1 ~consumers:1 ~items_each:2) );
        ( "buffer-ada-1p1c2i",
          ada (Buf.ada_solution ~capacity:1 ~producers:1 ~consumers:1 ~items_each:2) );
        ("rwd-csp-1r1w", csp (Rwd.csp_program ~readers:1 ~writers:1));
        ("rwd-csp-no-priority-1r1w", csp (Rwd.csp_program_no_priority ~readers:1 ~writers:1));
        ("rwd-ada-1r1w", ada (Rwd.ada_program ~readers:1 ~writers:1));
        ("db-update-3-sites", csp (Db.program ~sites:3));
      ]
  in
  check Alcotest.bool "a checkpoint was really written" true (writes > 0)

(* Random programs are small, so the checkpointing leg writes every 5
   configurations instead of every 500 — otherwise it would never
   write at all. *)
let prop_random_monitor_counts =
  QCheck.Test.make ~name:"random Monitor: checkpoint keeps counts"
    ~count:25 Gen_csp.monitor_arb (fun prog ->
      ignore (assert_same_counts ~every:5 "random monitor" (mon prog));
      true)

let prop_random_csp_counts =
  QCheck.Test.make ~name:"random CSP: checkpoint keeps counts" ~count:25
    Gen_csp.prog_arb (fun prog ->
      ignore (assert_same_counts ~every:5 "random csp" (csp prog));
      true)

(* ------------------------------------------------------------------ *)
(* Parallel teardown under crashes                                     *)
(* ------------------------------------------------------------------ *)

exception Boom

(* A synthetic 512-leaf binary tree with one poisoned interior node:
   moves from node 37 raise. Eight checking domains each walk a subtree;
   the walks under roots 1, 2, 4 and 9 reach the poisoned node while the
   others are still busy. *)
let tree_moves c = if c = 37 then raise Boom else if c >= 512 then [] else [ (2 * c); (2 * c) + 1 ]
let tree_done c = c >= 512

let test_worker_crash_reraises_by_default () =
  check Alcotest.bool "a crashing domain's exception reaches the caller" true
    (try
       ignore
         (Gem_check.Par.map ~jobs:8
            (fun root -> Explore.run ~moves:tree_moves ~terminated:tree_done root)
            (List.init 8 (fun i -> i + 1)));
       false
     with Boom -> true)

(* ------------------------------------------------------------------ *)
(* Random CSP programs under injected faults (qcheck)                  *)
(* ------------------------------------------------------------------ *)

let prop_faulted_runs_sound =
  QCheck.Test.make
    ~name:"random CSP under GEM_FAULT: subset of clean, loss reported, faults survived"
    ~count:30 Gen_csp.prog_arb (fun prog ->
      let clean = Explore.explore (Csp.lang prog) in
      QCheck.assume (clean.Explore.exhausted = None);
      let clean_comps = fpset clean.Explore.computations in
      let clean_dead = fpset clean.Explore.deadlocks in
      List.for_all
        (fun (seed, period) ->
          with_disarmed (fun () ->
              T.reset ();
              arm_exn (Printf.sprintf "%d:%d:alloc,checkpoint-io" seed period);
              let ck = temp_ckpt () in
              let res =
                { Explore.no_resilience with
                  bitstate = Some (Bitstate.create ~bits:14 ());
                  checkpoint = Some (Checkpoint.ctl ~every:5 ck)
                }
              in
              let o =
                Fun.protect
                  ~finally:(fun () -> if Sys.file_exists ck then Sys.remove ck)
                  (fun () -> Explore.explore ~resilience:res (Csp.lang prog))
              in
              let comps = fpset o.Explore.computations in
              let dead = fpset o.Explore.deadlocks in
              let subset xs ys = List.for_all (fun x -> List.mem x ys) xs in
              (* Never fabricate: every leaf found is a real one. *)
              subset comps clean_comps && subset dead clean_dead
              (* Never overclaim: bitstate alone forces Inconclusive, so a
                 clean exhaustion here would be an unsound Verified. *)
              && o.Explore.exhausted <> None
              (* Every injected fault was handled. *)
              && T.read T.Faults_injected = T.read T.Faults_survived))
        [ (1, 3); (2, 25); (3, 101) ])

let () =
  (* Counters are collected only while telemetry is enabled; the
     fault-survival and saturation assertions read them. *)
  T.enable ();
  let to_alc = QCheck_alcotest.to_alcotest in
  Alcotest.run "gem_resilience"
    [
      ( "bitstate-table",
        [
          Alcotest.test_case "membership" `Quick test_bitstate_membership;
          Alcotest.test_case "saturation" `Quick test_bitstate_saturation;
          Alcotest.test_case "snapshot round-trip" `Quick test_bitstate_snapshot_roundtrip;
          Alcotest.test_case "bits validated" `Quick test_bitstate_bits_validated;
        ] );
      ( "faults",
        [
          Alcotest.test_case "spec parsing" `Quick test_faults_parse;
          Alcotest.test_case "deterministic stream" `Quick
            test_faults_deterministic_stream;
          Alcotest.test_case "point filter" `Quick test_faults_point_filter;
        ] );
      ( "checkpoint",
        [
          Alcotest.test_case "round-trip" `Quick test_checkpoint_roundtrip;
          Alcotest.test_case "corrupt and missing" `Quick
            test_checkpoint_corrupt_and_missing;
          Alcotest.test_case "faulted write keeps previous" `Quick
            test_checkpoint_fault_preserves_previous;
          Alcotest.test_case "truncated file refused" `Quick test_checkpoint_truncated;
          Alcotest.test_case "flipped payload byte refused" `Quick
            test_checkpoint_flipped_byte;
          Alcotest.test_case "old format refused" `Quick test_checkpoint_old_format;
          Alcotest.test_case "GEMCKPT2 refused" `Quick test_checkpoint_previous_format;
        ] );
      ( "bitstate-engine",
        [
          Alcotest.test_case "parity matrix" `Quick test_bitstate_parity_matrix;
          Alcotest.test_case "saturated run inconclusive" `Quick
            test_bitstate_saturated_run_is_inconclusive;
          Alcotest.test_case "source verdicts" `Quick test_bitstate_source_verdicts;
        ] );
      ( "checkpoint-engine",
        [
          Alcotest.test_case "resume identical verdict" `Quick
            test_resume_reaches_identical_verdict;
          Alcotest.test_case "foreign stamp refused" `Quick
            test_resume_refuses_foreign_stamp;
          Alcotest.test_case "deep walk checkpoints" `Quick test_deep_walk_checkpoints;
          Alcotest.test_case "faulted run resumes soundly" `Quick
            test_faulted_run_resumes_soundly;
        ] );
      ( "count-parity",
        [
          Alcotest.test_case "lib/problems workloads" `Quick
            test_workload_counts_unchanged;
          to_alc prop_random_monitor_counts;
          to_alc prop_random_csp_counts;
        ] );
      ( "par-teardown",
        [
          Alcotest.test_case "crash re-raises by default" `Quick
            test_worker_crash_reraises_by_default;
        ] );
      ("random-faulted", [ to_alc prop_faulted_runs_sound ]);
    ]
