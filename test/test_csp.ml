(* Tests for the CSP language: synchronous communication, guarded
   alternation/repetition, distributed termination, deadlock, and the GEM
   description of CSP. *)

module V = Gem_model.Value
module C = Gem_model.Computation
module Event = Gem_model.Event
module E = Gem_lang.Expr
open Gem_lang.Csp

let check = Alcotest.check

let sender ?(to_ = "Q") v =
  { proc_name = "P"; locals = []; code = [ CComm (Send { to_; value = E.Int v }) ] }

let receiver ?(from_ = "P") () =
  { proc_name = "Q"; locals = [ ("x", V.Int 0) ];
    code = [ CComm (Recv { from_; bind = "x" });
             CMark { klass = "Got"; params = [ E.Var "x" ] } ] }

let test_basic_communication () =
  let o = Gem_lang.Explore.explore (lang [ sender 42; receiver () ]) in
  check Alcotest.int "one computation" 1 (List.length o.computations);
  check Alcotest.int "no deadlock" 0 (List.length o.deadlocks);
  let comp = List.hd o.computations in
  (match C.events_of_class comp "Got" with
  | [ h ] -> check Alcotest.int "value" 42 (V.as_int (Event.param (C.event comp h) "p0"))
  | _ -> Alcotest.fail "one Got");
  (* Four communication events with the paper's cross enables. *)
  let req_out = List.hd (C.events_of_class comp "ReqOut") in
  let req_in = List.hd (C.events_of_class comp "ReqIn") in
  let end_out = List.hd (C.events_of_class comp "EndOut") in
  let end_in = List.hd (C.events_of_class comp "EndIn") in
  check Alcotest.bool "inp.req |> out.end" true (C.enables comp req_in end_out);
  check Alcotest.bool "out.req |> inp.end" true (C.enables comp req_out end_in)

let test_mismatched_partners_deadlock () =
  (* P sends to Q, Q expects from R: no match, both stuck. *)
  let o = Gem_lang.Explore.explore (lang [ sender ~to_:"Q" 1; receiver ~from_:"R" () ]) in
  check Alcotest.int "no completion" 0 (List.length o.computations);
  check Alcotest.int "deadlock" 1 (List.length o.deadlocks)

let test_choice_both_ways () =
  (* Q chooses between two senders; both resolutions explored. *)
  let s name v = { proc_name = name; locals = [];
                   code = [ CComm (Send { to_ = "Q"; value = E.Int v }) ] } in
  let q =
    { proc_name = "Q"; locals = [ ("x", V.Int 0) ];
      code =
        [ CIf
            [ { guard = E.Bool true; comm = Some (Recv { from_ = "A"; bind = "x" }); body = [] };
              { guard = E.Bool true; comm = Some (Recv { from_ = "B"; bind = "x" }); body = [] } ];
          CMark { klass = "First"; params = [ E.Var "x" ] };
          CIf
            [ { guard = E.Bool true; comm = Some (Recv { from_ = "A"; bind = "x" }); body = [] };
              { guard = E.Bool true; comm = Some (Recv { from_ = "B"; bind = "x" }); body = [] } ];
        ] }
  in
  let o = Gem_lang.Explore.explore (lang [ s "A" 1; s "B" 2; q ]) in
  check Alcotest.int "no deadlock" 0 (List.length o.deadlocks);
  let firsts =
    List.map
      (fun comp ->
        match C.events_of_class comp "First" with
        | [ h ] -> V.as_int (Event.param (C.event comp h) "p0")
        | _ -> Alcotest.fail "one First")
      o.computations
  in
  check Alcotest.bool "both resolutions" true (List.mem 1 firsts && List.mem 2 firsts)

let test_guard_false_blocks_branch () =
  let q =
    { proc_name = "Q"; locals = [ ("x", V.Int 0) ];
      code =
        [ CIf
            [ { guard = E.Bool false; comm = Some (Recv { from_ = "P"; bind = "x" }); body = [] } ] ] }
  in
  let o = Gem_lang.Explore.explore (lang [ sender 1; q ]) in
  check Alcotest.int "deadlocked" 1 (List.length o.deadlocks)

let test_repetition_terminates () =
  (* Echo loop ends when the producer is done (distributed termination). *)
  let producer =
    { proc_name = "P"; locals = [ ("i", V.Int 0) ];
      code =
        [ CWhile (E.Lt (E.Var "i", E.Int 3),
            [ CComm (Send { to_ = "Q"; value = E.Var "i" });
              CLocal ("i", E.Add (E.Var "i", E.Int 1)) ]) ] }
  in
  let consumer =
    { proc_name = "Q"; locals = [ ("x", V.Int 0); ("n", V.Int 0) ];
      code =
        [ CDo
            [ { guard = E.Bool true; comm = Some (Recv { from_ = "P"; bind = "x" });
                body = [ CLocal ("n", E.Add (E.Var "n", E.Int 1)) ] } ];
          CMark { klass = "Count"; params = [ E.Var "n" ] } ] }
  in
  let o = Gem_lang.Explore.explore (lang [ producer; consumer ]) in
  check Alcotest.int "no deadlock" 0 (List.length o.deadlocks);
  check Alcotest.int "one computation" 1 (List.length o.computations);
  let comp = List.hd o.computations in
  match C.events_of_class comp "Count" with
  | [ h ] -> check Alcotest.int "received all" 3 (V.as_int (Event.param (C.event comp h) "p0"))
  | _ -> Alcotest.fail "one Count"

let test_boolean_only_branch () =
  let p =
    { proc_name = "P"; locals = [ ("done_", V.Int 0) ];
      code =
        [ CDo
            [ { guard = E.Eq (E.Var "done_", E.Int 0); comm = None;
                body = [ CMark { klass = "Tick"; params = [] };
                         CLocal ("done_", E.Int 1) ] } ];
          CMark { klass = "Fin"; params = [] } ] }
  in
  let o = Gem_lang.Explore.explore (lang [ p ]) in
  check Alcotest.int "one run" 1 (List.length o.computations);
  let comp = List.hd o.computations in
  check Alcotest.int "ticked once" 1 (List.length (C.events_of_class comp "Tick"));
  check Alcotest.int "finished" 1 (List.length (C.events_of_class comp "Fin"))

let test_language_spec () =
  let program = [ sender 7; receiver () ] in
  let spec = language_spec program in
  let o = Gem_lang.Explore.explore (lang program) in
  List.iter
    (fun comp ->
      Alcotest.(check bool) "csp spec ok" true
        (Gem_check.Verdict.ok (Gem_check.Check.check spec comp)))
    o.computations

let test_language_spec_catches_corruption () =
  (* Forge a computation where the received value differs from the sent. *)
  let b = Gem_model.Build.create () in
  let module Build = Gem_model.Build in
  let sm = Build.emit b ~element:"main" ~klass:"Start" () in
  let sp = Build.emit_enabled_by b ~by:sm ~element:"P" ~klass:"Start" () in
  let sq = Build.emit_enabled_by b ~by:sm ~element:"Q" ~klass:"Start" () in
  let ro = Build.emit_enabled_by b ~by:sp ~element:"P" ~klass:"ReqOut"
      ~params:[ ("to", V.Str "Q"); ("value", V.Int 1) ] () in
  let ri = Build.emit_enabled_by b ~by:sq ~element:"Q" ~klass:"ReqIn"
      ~params:[ ("from", V.Str "P") ] () in
  let eo = Build.emit_enabled_by b ~by:ro ~element:"P" ~klass:"EndOut"
      ~params:[ ("value", V.Int 1) ] () in
  Build.enable b ri eo;
  let ei = Build.emit_enabled_by b ~by:ri ~element:"Q" ~klass:"EndIn"
      ~params:[ ("value", V.Int 999) ] () in
  Build.enable b ro ei;
  let spec = language_spec [ sender 1; receiver () ] in
  check Alcotest.bool "corruption detected" false
    (Gem_check.Verdict.ok (Gem_check.Check.check spec (Build.finish b)))

let test_same_partial_order_deduped () =
  (* Two independent sender/receiver pairs: schedules differ, computation
     identical — dedup leaves exactly one. *)
  let s name to_ = { proc_name = name; locals = [];
                     code = [ CComm (Send { to_; value = E.Int 1 }) ] } in
  let r name from_ = { proc_name = name; locals = [ ("x", V.Int 0) ];
                       code = [ CComm (Recv { from_; bind = "x" }) ] } in
  let o = Gem_lang.Explore.explore (lang [ s "A" "B"; r "B" "A"; s "C" "D"; r "D" "C" ]) in
  check Alcotest.int "one partial order" 1 (List.length o.computations)

let () =
  Alcotest.run "gem_csp"
    [
      ( "csp",
        [
          Alcotest.test_case "basic" `Quick test_basic_communication;
          Alcotest.test_case "mismatch-deadlock" `Quick test_mismatched_partners_deadlock;
          Alcotest.test_case "choice" `Quick test_choice_both_ways;
          Alcotest.test_case "false-guard" `Quick test_guard_false_blocks_branch;
          Alcotest.test_case "repetition-termination" `Quick test_repetition_terminates;
          Alcotest.test_case "boolean-branch" `Quick test_boolean_only_branch;
          Alcotest.test_case "language-spec" `Quick test_language_spec;
          Alcotest.test_case "spec-catches-corruption" `Quick test_language_spec_catches_corruption;
          Alcotest.test_case "dedup" `Quick test_same_partial_order_deduped;
        ] );
    ]
