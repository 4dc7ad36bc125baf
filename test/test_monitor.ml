(* Tests for the Monitor language: semantics, event emission, the GEM
   description of the Monitor primitive, and failure modes. *)

module V = Gem_model.Value
module C = Gem_model.Computation
module Event = Gem_model.Event
module E = Gem_lang.Expr
open Gem_lang.Monitor

let check = Alcotest.check

(* A counter monitor: inc(k) adds k, get returns the count. *)
let counter_monitor =
  {
    mon_name = "M";
    vars = [ ("count", V.Int 0) ];
    conditions = [];
    entries =
      [
        {
          entry_name = "inc";
          formals = [ "k" ];
          body = [ MAssign { var = "count"; value = E.Add (E.Var "count", E.Var "k"); site = None } ];
        };
        { entry_name = "get"; formals = []; body = [ MReturn (E.Var "count") ] };
      ];
  }

let incrementer name k =
  {
    proc_name = name;
    locals = [];
    code = [ PCall { monitor = "M"; entry = "inc"; args = [ E.Int k ]; bind = None } ];
  }

let getter name =
  {
    proc_name = name;
    locals = [ ("r", V.Int 0) ];
    code =
      [
        PCall { monitor = "M"; entry = "get"; args = []; bind = Some "r" };
        PMark { klass = "Got"; params = [ E.Var "r" ] };
      ];
  }

let test_counter_final_values () =
  let program =
    { monitors = [ counter_monitor ]; shared = [];
      processes = [ incrementer "P1" 2; incrementer "P2" 3 ] }
  in
  let o = Gem_lang.Explore.explore (lang program) in
  check Alcotest.bool "no deadlocks" true (o.deadlocks = []);
  (* Both interleavings produce the same set of assignments {2,5} or {3,5}. *)
  List.iter
    (fun comp ->
      let finals =
        List.filter_map
          (fun h ->
            let e = C.event comp h in
            if Event.has_class e "Assign" then Some (V.as_int (Event.param e "newval"))
            else None)
          (C.events_at comp "M.count")
      in
      match finals with
      | [ 0; a; 5 ] -> Alcotest.(check bool) "intermediate" true (a = 2 || a = 3)
      | _ -> Alcotest.fail "unexpected assignment history")
    o.computations

let test_get_returns_count () =
  let program =
    { monitors = [ counter_monitor ]; shared = [];
      processes = [ incrementer "P1" 2; getter "G" ] }
  in
  let o = Gem_lang.Explore.explore (lang program) in
  let results =
    List.map
      (fun comp ->
        match C.events_of_class comp "Got" with
        | [ h ] -> V.as_int (Event.param (C.event comp h) "p0")
        | _ -> Alcotest.fail "expected one Got")
      o.computations
  in
  check Alcotest.bool "0 or 2" true
    (List.for_all (fun r -> r = 0 || r = 2) results
    && List.exists (fun r -> r = 0) results
    && List.exists (fun r -> r = 2) results)

let test_lock_serialization_events () =
  let program =
    { monitors = [ counter_monitor ]; shared = [];
      processes = [ incrementer "P1" 1; incrementer "P2" 1 ] }
  in
  let o = Gem_lang.Explore.explore (lang program) in
  List.iter
    (fun comp ->
      let lock = C.events_at comp "M.lock" in
      check Alcotest.int "acq/rel pairs" 4 (List.length lock);
      (* Strict alternation Acq/Rel at the lock element. *)
      List.iteri
        (fun i h ->
          let e = C.event comp h in
          let expected = if i mod 2 = 0 then "Acq" else "Rel" in
          check Alcotest.string "alternates" expected e.Event.klass)
        lock)
    o.computations

let test_language_spec_accepts () =
  let program =
    { monitors = [ counter_monitor ]; shared = [];
      processes = [ incrementer "P1" 2; getter "G" ] }
  in
  let spec = language_spec program in
  let o = Gem_lang.Explore.explore (lang program) in
  List.iter
    (fun comp ->
      let v = Gem_check.Check.check spec comp in
      if not (Gem_check.Verdict.ok v) then
        Alcotest.failf "language spec rejected: %s"
          (Format.asprintf "%a" (Gem_check.Verdict.pp (Some comp)) v))
    o.computations

let test_language_spec_rejects_foreign () =
  let program =
    { monitors = [ counter_monitor ]; shared = []; processes = [ incrementer "P1" 1 ] }
  in
  let spec = language_spec program in
  let b = Gem_model.Build.create () in
  let _ = Gem_model.Build.emit b ~element:"Rogue" ~klass:"X" () in
  check Alcotest.bool "foreign rejected" false
    (Gem_check.Verdict.ok (Gem_check.Check.check spec (Gem_model.Build.finish b)))

let test_wait_signal_release () =
  (* One-slot handoff: consumer waits until producer signals. *)
  let handoff =
    {
      mon_name = "M";
      vars = [ ("full", V.Int 0); ("slot", V.Int 0) ];
      conditions = [ "nonempty" ];
      entries =
        [
          {
            entry_name = "put";
            formals = [ "x" ];
            body =
              [
                MAssign { var = "slot"; value = E.Var "x"; site = None };
                MAssign { var = "full"; value = E.Int 1; site = None };
                MSignal "nonempty";
              ];
          };
          {
            entry_name = "take";
            formals = [];
            body =
              [
                MIf (E.Eq (E.Var "full", E.Int 0), [ MWait "nonempty" ], []);
                MReturn (E.Var "slot");
              ];
          };
        ];
    }
  in
  let program =
    {
      monitors = [ handoff ];
      shared = [];
      processes =
        [
          { proc_name = "Prod"; locals = [];
            code = [ PCall { monitor = "M"; entry = "put"; args = [ E.Int 9 ]; bind = None } ] };
          { proc_name = "Cons"; locals = [ ("x", V.Int 0) ];
            code =
              [ PCall { monitor = "M"; entry = "take"; args = []; bind = Some "x" };
                PMark { klass = "Took"; params = [ E.Var "x" ] } ] };
        ];
    }
  in
  let o = Gem_lang.Explore.explore (lang program) in
  check Alcotest.bool "no deadlock" true (o.deadlocks = []);
  List.iter
    (fun comp ->
      (match C.events_of_class comp "Took" with
      | [ h ] -> check Alcotest.int "value 9" 9 (V.as_int (Event.param (C.event comp h) "p0"))
      | _ -> Alcotest.fail "one Took expected");
      (* If the consumer waited, Release must be enabled by exactly the
         Signal (plus the waiter chain). *)
      match C.events_of_class comp "Release" with
      | [] -> ()
      | [ r ] ->
          let signal_preds =
            List.filter
              (fun p -> Event.has_class (C.event comp p) "Signal")
              (C.enable_preds comp r)
          in
          check Alcotest.int "one signal enabler" 1 (List.length signal_preds)
      | _ -> Alcotest.fail "at most one Release here")
    o.computations

let test_deadlock_detected () =
  (* A process waits on a condition nobody signals. *)
  let stuck =
    {
      mon_name = "M";
      vars = [];
      conditions = [ "never" ];
      entries = [ { entry_name = "block"; formals = []; body = [ MWait "never" ] } ];
    }
  in
  let program =
    { monitors = [ stuck ]; shared = [];
      processes =
        [ { proc_name = "P"; locals = [];
            code = [ PCall { monitor = "M"; entry = "block"; args = []; bind = None } ] } ] }
  in
  let o = Gem_lang.Explore.explore (lang program) in
  check Alcotest.int "no completion" 0 (List.length o.computations);
  check Alcotest.int "one deadlock" 1 (List.length o.deadlocks)

let test_getvals_emitted () =
  let program =
    { monitors = [ counter_monitor ]; shared = []; processes = [ incrementer "P1" 2 ] }
  in
  let with_g = Gem_lang.Explore.explore (lang ~emit_getvals:true program) in
  let without = Gem_lang.Explore.explore (lang program) in
  let count_getvals (o : Gem_lang.Explore.outcome) =
    List.fold_left
      (fun acc comp -> acc + List.length (C.events_of_class comp "Getval"))
      0 o.computations
  in
  check Alcotest.bool "getvals present" true (count_getvals with_g > 0);
  check Alcotest.int "getvals absent" 0 (count_getvals without);
  (* With getvals on, the Variable restriction is exercised and holds. *)
  let spec = language_spec program in
  List.iter
    (fun comp ->
      Alcotest.(check bool) "variable restriction holds" true
        (Gem_check.Verdict.ok (Gem_check.Check.check spec comp)))
    with_g.computations

let test_shared_variable_events () =
  let program =
    { monitors = []; shared = [ ("x", V.Int 5) ];
      processes =
        [ { proc_name = "W"; locals = [];
            code = [ PWrite { var = "x"; value = E.Int 6 } ] };
          { proc_name = "R"; locals = [ ("v", V.Int 0) ];
            code = [ PRead { var = "x"; bind = "v" };
                     PMark { klass = "Saw"; params = [ E.Var "v" ] } ] } ] }
  in
  let o = Gem_lang.Explore.explore (lang program) in
  (* Both orders of the race are distinct computations. *)
  check Alcotest.int "two computations" 2 (List.length o.computations);
  let seen =
    List.map
      (fun comp ->
        match C.events_of_class comp "Saw" with
        | [ h ] -> V.as_int (Event.param (C.event comp h) "p0")
        | _ -> Alcotest.fail "one Saw")
      o.computations
  in
  check Alcotest.bool "5 and 6 observed" true (List.mem 5 seen && List.mem 6 seen)

let test_run_one_smoke () =
  let program =
    { monitors = [ counter_monitor ]; shared = [];
      processes = [ incrementer "P1" 1; getter "G" ] }
  in
  let comp = Gem_lang.Explore.run_one ~seed:3 (lang program) in
  check Alcotest.bool "nonempty" true (C.n_events comp > 0);
  check Alcotest.bool "acyclic" true (C.temporal comp <> None)

let test_mwhile_and_mskip () =
  (* An entry that sums 1..n with a monitor-body loop. *)
  let summer =
    { mon_name = "M";
      vars = [ ("total", V.Int 0); ("i", V.Int 0) ];
      conditions = [];
      entries =
        [ { entry_name = "sum"; formals = [ "n" ];
            body =
              [ MSkip;
                MAssign { var = "i"; value = E.Int 1; site = None };
                MWhile
                  ( E.Le (E.Var "i", E.Var "n"),
                    [ MAssign { var = "total"; value = E.Add (E.Var "total", E.Var "i"); site = None };
                      MAssign { var = "i"; value = E.Add (E.Var "i", E.Int 1); site = None } ] );
                MReturn (E.Var "total") ] } ] }
  in
  let program =
    { monitors = [ summer ]; shared = [];
      processes =
        [ { proc_name = "P"; locals = [ ("r", V.Int 0) ];
            code =
              [ PCall { monitor = "M"; entry = "sum"; args = [ E.Int 4 ]; bind = Some "r" };
                PMark { klass = "Sum"; params = [ E.Var "r" ] } ] } ] }
  in
  let o = Gem_lang.Explore.explore (lang program) in
  let comp = List.hd o.computations in
  match C.events_of_class comp "Sum" with
  | [ h ] -> check Alcotest.int "1+2+3+4" 10 (V.as_int (Event.param (C.event comp h) "p0"))
  | _ -> Alcotest.fail "one Sum"

let test_process_control_flow () =
  (* PIf and PWhile in process code. *)
  let program =
    { monitors = [ counter_monitor ]; shared = [];
      processes =
        [ { proc_name = "P"; locals = [ ("k", V.Int 0) ];
            code =
              [ PWhile
                  ( E.Lt (E.Var "k", E.Int 3),
                    [ PIf
                        ( E.Eq (E.Mod (E.Var "k", E.Int 2), E.Int 0),
                          [ PCall { monitor = "M"; entry = "inc"; args = [ E.Int 10 ]; bind = None } ],
                          [ PCall { monitor = "M"; entry = "inc"; args = [ E.Int 1 ]; bind = None } ] );
                      PLocal ("k", E.Add (E.Var "k", E.Int 1)) ] ) ] } ] }
  in
  let o = Gem_lang.Explore.explore (lang program) in
  let comp = List.hd o.computations in
  (* inc(10), inc(1), inc(10): final count = 21. *)
  let finals =
    List.filter_map
      (fun h ->
        let e = C.event comp h in
        if Event.has_class e "Assign" then Some (V.as_int (Event.param e "newval")) else None)
      (C.events_at comp "M.count")
  in
  check Alcotest.int "final count" 21 (List.fold_left max 0 finals)

let test_multiple_monitors () =
  (* A process moving data between two monitors. *)
  let cell name init =
    { mon_name = name;
      vars = [ ("v", V.Int init) ];
      conditions = [];
      entries =
        [ { entry_name = "get"; formals = []; body = [ MReturn (E.Var "v") ] };
          { entry_name = "set"; formals = [ "x" ];
            body = [ MAssign { var = "v"; value = E.Var "x"; site = None } ] } ] }
  in
  let mover =
    { proc_name = "P"; locals = [ ("t", V.Int 0) ];
      code =
        [ PCall { monitor = "A"; entry = "get"; args = []; bind = Some "t" };
          PCall { monitor = "B"; entry = "set"; args = [ E.Var "t" ]; bind = None };
          PMark { klass = "Done"; params = [ E.Var "t" ] } ] }
  in
  let program = { monitors = [ cell "A" 42; cell "B" 0 ]; shared = []; processes = [ mover ] } in
  let o = Gem_lang.Explore.explore (lang program) in
  check Alcotest.int "one computation" 1 (List.length o.computations);
  let comp = List.hd o.computations in
  (match C.events_of_class comp "Done" with
  | [ h ] -> check Alcotest.int "moved" 42 (V.as_int (Event.param (C.event comp h) "p0"))
  | _ -> Alcotest.fail "one Done");
  (* Both monitors' language restrictions hold. *)
  check Alcotest.bool "spec ok" true
    (Gem_check.Verdict.ok (Gem_check.Check.check (language_spec program) comp))

let test_umbrella_helpers () =
  let program =
    Gem_problems.Buffer.monitor_solution ~capacity:1 ~producers:1 ~consumers:1 ~items_each:1
  in
  let comps, deadlocks, ok =
    Gem.verify_monitor_program
      ~strategy:(Gem_check.Strategy.Linearizations (Some 50))
      ~problem:(Gem_problems.Buffer.spec ~capacity:1)
      ~map:Gem_problems.Buffer.monitor_correspondence program
  in
  check Alcotest.bool "computations" true (comps > 0);
  check Alcotest.int "no deadlock" 0 deadlocks;
  check Alcotest.bool "sat" true ok;
  let comp = Gem_lang.Explore.run_one (lang program) in
  check Alcotest.bool "check_spec" true (Gem.check_spec (language_spec program) comp)

let test_runtime_errors () =
  let program =
    { monitors = [ counter_monitor ]; shared = [];
      processes =
        [ { proc_name = "P"; locals = [];
            code = [ PCall { monitor = "M"; entry = "nope"; args = []; bind = None } ] } ] }
  in
  (try
     ignore (Gem_lang.Explore.explore (lang program));
     Alcotest.fail "expected unknown-entry error"
   with E.Eval_error _ -> ());
  let bad_arity =
    { monitors = [ counter_monitor ]; shared = [];
      processes =
        [ { proc_name = "P"; locals = [];
            code = [ PCall { monitor = "M"; entry = "inc"; args = []; bind = None } ] } ] }
  in
  try
    ignore (Gem_lang.Explore.explore (lang bad_arity));
    Alcotest.fail "expected arity error"
  with E.Eval_error _ -> ()

let () =
  Alcotest.run "gem_monitor"
    [
      ( "monitor",
        [
          Alcotest.test_case "counter-values" `Quick test_counter_final_values;
          Alcotest.test_case "get-returns" `Quick test_get_returns_count;
          Alcotest.test_case "lock-serialization" `Quick test_lock_serialization_events;
          Alcotest.test_case "language-spec-accepts" `Quick test_language_spec_accepts;
          Alcotest.test_case "language-spec-rejects" `Quick test_language_spec_rejects_foreign;
          Alcotest.test_case "wait-signal-release" `Quick test_wait_signal_release;
          Alcotest.test_case "deadlock" `Quick test_deadlock_detected;
          Alcotest.test_case "getvals" `Quick test_getvals_emitted;
          Alcotest.test_case "shared-variables" `Quick test_shared_variable_events;
          Alcotest.test_case "run-one" `Quick test_run_one_smoke;
          Alcotest.test_case "runtime-errors" `Quick test_runtime_errors;
          Alcotest.test_case "multiple-monitors" `Quick test_multiple_monitors;
          Alcotest.test_case "mwhile-mskip" `Quick test_mwhile_and_mskip;
          Alcotest.test_case "process-control-flow" `Quick test_process_control_flow;
          Alcotest.test_case "umbrella-helpers" `Quick test_umbrella_helpers;
        ] );
    ]
