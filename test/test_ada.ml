(* Tests for ADA tasking: rendezvous, select, FIFO entry queues, nesting,
   deadlock, and the GEM description. *)

module V = Gem_model.Value
module C = Gem_model.Computation
module Event = Gem_model.Event
module E = Gem_lang.Expr
open Gem_lang.Ada

let check = Alcotest.check

let echo_server =
  { task_name = "S"; locals = [];
    code =
      [ AAccept { acc_entry = "Echo"; acc_formals = [ "x" ]; acc_body = [];
                  acc_result = Some (E.Var "x") } ] }

let caller name v =
  { task_name = name; locals = [ ("r", V.Int 0) ];
    code =
      [ ACall { task = "S"; entry = "Echo"; args = [ E.Int v ]; bind = Some "r" };
        AMark { klass = "Got"; params = [ E.Var "r" ] } ] }

let test_rendezvous () =
  let o = Gem_lang.Explore.explore (lang [ echo_server; caller "C" 42 ]) in
  check Alcotest.int "one computation" 1 (List.length o.computations);
  check Alcotest.int "no deadlock" 0 (List.length o.deadlocks);
  let comp = List.hd o.computations in
  (match C.events_of_class comp "Got" with
  | [ h ] -> check Alcotest.int "echoed" 42 (V.as_int (Event.param (C.event comp h) "p0"))
  | _ -> Alcotest.fail "one Got");
  let call = List.hd (C.events_of_class comp "Call") in
  let ab = List.hd (C.events_of_class comp "AcceptBegin") in
  let ae = List.hd (C.events_of_class comp "AcceptEnd") in
  let ret = List.hd (C.events_of_class comp "Return") in
  check Alcotest.bool "call enables accept" true (C.enables comp call ab);
  check Alcotest.bool "end enables return" true (C.enables comp ae ret)

let test_caller_blocked_during_rendezvous () =
  (* The accept body emits a marker; the caller cannot act before Return. *)
  let server =
    { task_name = "S"; locals = [];
      code =
        [ AAccept { acc_entry = "E"; acc_formals = []; acc_body = [ AMark { klass = "Mid"; params = [] } ];
                    acc_result = None } ] }
  in
  let c = { task_name = "C"; locals = [];
            code = [ ACall { task = "S"; entry = "E"; args = []; bind = None };
                     AMark { klass = "After"; params = [] } ] } in
  let o = Gem_lang.Explore.explore (lang [ server; c ]) in
  let comp = List.hd o.computations in
  let mid = List.hd (C.events_of_class comp "Mid") in
  let after = List.hd (C.events_of_class comp "After") in
  check Alcotest.bool "body precedes caller resume" true (C.temp_lt comp mid after)

let test_select_explores_choices () =
  let server =
    { task_name = "S"; locals = [ ("k", V.Int 0) ];
      code =
        [ AWhile (E.Lt (E.Var "k", E.Int 2),
            [ ASelect
                [ { when_ = E.Bool true;
                    accept = { acc_entry = "A"; acc_formals = []; acc_body = []; acc_result = None } };
                  { when_ = E.Bool true;
                    accept = { acc_entry = "B"; acc_formals = []; acc_body = []; acc_result = None } } ];
              ALocal ("k", E.Add (E.Var "k", E.Int 1)) ]) ] }
  in
  let ca = { task_name = "CA"; locals = [];
             code = [ ACall { task = "S"; entry = "A"; args = []; bind = None };
                      AMark { klass = "DoneA"; params = [] } ] } in
  let cb = { task_name = "CB"; locals = [];
             code = [ ACall { task = "S"; entry = "B"; args = []; bind = None };
                      AMark { klass = "DoneB"; params = [] } ] } in
  let o = Gem_lang.Explore.explore (lang [ server; ca; cb ]) in
  check Alcotest.int "no deadlock" 0 (List.length o.deadlocks);
  (* Both acceptance orders are explored; the partial orders differ by the
     order of AcceptBegins at S. *)
  check Alcotest.bool "at least 2 computations" true (List.length o.computations >= 2)

let test_select_guard_closed () =
  let server =
    { task_name = "S"; locals = [];
      code =
        [ ASelect
            [ { when_ = E.Bool false;
                accept = { acc_entry = "A"; acc_formals = []; acc_body = []; acc_result = None } } ] ] }
  in
  let c = { task_name = "C"; locals = [];
            code = [ ACall { task = "S"; entry = "A"; args = []; bind = None } ] } in
  let o = Gem_lang.Explore.explore (lang [ server; c ]) in
  check Alcotest.int "deadlock (closed guard)" 1 (List.length o.deadlocks)

let test_entry_queue_fifo () =
  (* Two callers to one entry: whoever calls first is served first; both
     call orders appear across computations, but within each computation
     Call order at the queue = AcceptBegin arg order. *)
  let server =
    { task_name = "S"; locals = [ ("k", V.Int 0) ];
      code =
        [ AWhile (E.Lt (E.Var "k", E.Int 2),
            [ AAccept { acc_entry = "E"; acc_formals = [ "x" ]; acc_body = []; acc_result = None };
              ALocal ("k", E.Add (E.Var "k", E.Int 1)) ]) ] }
  in
  let c name v = { task_name = name; locals = [];
                   code = [ ACall { task = "S"; entry = "E"; args = [ E.Int v ]; bind = None } ] } in
  let o = Gem_lang.Explore.explore (lang [ server; c "C1" 1; c "C2" 2 ]) in
  check Alcotest.int "no deadlock" 0 (List.length o.deadlocks);
  List.iter
    (fun comp ->
      let abs = C.events_of_class comp "AcceptBegin" in
      let calls = C.events_of_class comp "Call" in
      check Alcotest.int "two rendezvous" 2 (List.length abs);
      (* FIFO: the first accept is enabled by the temporally-first call. *)
      let first_ab = List.hd abs in
      let enabler =
        List.find (fun c -> List.mem c calls) (C.enable_preds comp first_ab)
      in
      List.iter
        (fun other -> if other <> enabler then
            check Alcotest.bool "enabler not after other call" false
              (C.temp_lt comp other enabler))
        calls)
    o.computations

let test_nested_rendezvous () =
  (* S's accept body calls T. *)
  let t = { task_name = "T"; locals = [];
            code = [ AAccept { acc_entry = "Inner"; acc_formals = []; acc_body = [];
                               acc_result = Some (E.Int 5) } ] } in
  let s =
    { task_name = "S"; locals = [ ("r", V.Int 0) ];
      code =
        [ AAccept { acc_entry = "Outer"; acc_formals = [];
                    acc_body = [ ACall { task = "T"; entry = "Inner"; args = []; bind = Some "r" } ];
                    acc_result = Some (E.Var "r") } ] }
  in
  let c = { task_name = "C"; locals = [ ("x", V.Int 0) ];
            code = [ ACall { task = "S"; entry = "Outer"; args = []; bind = Some "x" };
                     AMark { klass = "Got"; params = [ E.Var "x" ] } ] } in
  let o = Gem_lang.Explore.explore (lang [ t; s; c ]) in
  check Alcotest.int "no deadlock" 0 (List.length o.deadlocks);
  let comp = List.hd o.computations in
  match C.events_of_class comp "Got" with
  | [ h ] -> check Alcotest.int "nested result" 5 (V.as_int (Event.param (C.event comp h) "p0"))
  | _ -> Alcotest.fail "one Got"

let test_call_cycle_deadlock () =
  let a = { task_name = "A"; locals = [];
            code = [ ACall { task = "B"; entry = "E"; args = []; bind = None } ] } in
  let b = { task_name = "B"; locals = [];
            code = [ ACall { task = "A"; entry = "E"; args = []; bind = None } ] } in
  let o = Gem_lang.Explore.explore (lang [ a; b ]) in
  (* Two distinct deadlocked partial orders: queue insertion is an event at
     the callee's element, so "A called first" and "B called first" differ
     in the callees' element orders. *)
  check Alcotest.int "deadlock" 2 (List.length o.deadlocks);
  check Alcotest.int "no completion" 0 (List.length o.computations)

let test_language_spec () =
  let program = [ echo_server; caller "C" 7 ] in
  let spec = language_spec program in
  let o = Gem_lang.Explore.explore (lang program) in
  List.iter
    (fun comp ->
      Alcotest.(check bool) "ada spec ok" true
        (Gem_check.Verdict.ok (Gem_check.Check.check spec comp)))
    o.computations

let test_language_spec_rejects_unmatched () =
  (* An AcceptBegin with no enabling Call violates rendezvous-matching. *)
  let module Build = Gem_model.Build in
  let b = Build.create () in
  let sm = Build.emit b ~element:"main" ~klass:"Start" () in
  let ss = Build.emit_enabled_by b ~by:sm ~element:"S" ~klass:"Start" () in
  let _ = Build.emit_enabled_by b ~by:ss ~element:"S" ~klass:"AcceptBegin"
      ~params:[ ("entry", V.Str "Echo"); ("args", V.List []) ] () in
  let _ = Build.emit_enabled_by b ~by:sm ~element:"C" ~klass:"Start" () in
  let spec = language_spec [ echo_server; caller "C" 1 ] in
  check Alcotest.bool "unmatched rejected" false
    (Gem_check.Verdict.ok (Gem_check.Check.check spec (Build.finish b)))

let () =
  Alcotest.run "gem_ada"
    [
      ( "ada",
        [
          Alcotest.test_case "rendezvous" `Quick test_rendezvous;
          Alcotest.test_case "caller-blocked" `Quick test_caller_blocked_during_rendezvous;
          Alcotest.test_case "select" `Quick test_select_explores_choices;
          Alcotest.test_case "closed-guard" `Quick test_select_guard_closed;
          Alcotest.test_case "fifo-queue" `Quick test_entry_queue_fifo;
          Alcotest.test_case "nested" `Quick test_nested_rendezvous;
          Alcotest.test_case "call-cycle" `Quick test_call_cycle_deadlock;
          Alcotest.test_case "language-spec" `Quick test_language_spec;
          Alcotest.test_case "rejects-unmatched" `Quick test_language_spec_rejects_unmatched;
        ] );
    ]
