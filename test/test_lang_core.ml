(* Unit tests for the language-substrate core: expressions, the persistent
   trace builder, and the generic explorer (bounds, deadlock vs completion,
   keyed partial-order reduction). *)

module E = Gem_lang.Expr
module Trace = Gem_lang.Trace
module Explore = Gem_lang.Explore
module V = Gem_model.Value
module C = Gem_model.Computation

let check = Alcotest.check

(* ------------------------------------------------------------------ *)
(* Expressions                                                         *)
(* ------------------------------------------------------------------ *)

let test_expr_arith () =
  let store = [ ("x", V.Int 10); ("y", V.Int 3) ] in
  check Alcotest.int "add" 13 (E.eval_int store (E.Add (E.Var "x", E.Var "y")));
  check Alcotest.int "sub" 7 (E.eval_int store (E.Sub (E.Var "x", E.Var "y")));
  check Alcotest.int "mul" 30 (E.eval_int store (E.Mul (E.Var "x", E.Var "y")));
  check Alcotest.int "div" 3 (E.eval_int store (E.Div (E.Var "x", E.Var "y")));
  check Alcotest.int "mod" 1 (E.eval_int store (E.Mod (E.Var "x", E.Var "y")));
  check Alcotest.int "neg" (-10) (E.eval_int store (E.Neg (E.Var "x")))

let test_expr_bool () =
  let store = [ ("x", V.Int 1); ("b", V.Bool true) ] in
  check Alcotest.bool "lt" true (E.eval_bool store (E.Lt (E.Var "x", E.Int 2)));
  check Alcotest.bool "and" true
    (E.eval_bool store (E.And (E.Var "b", E.Ge (E.Var "x", E.Int 1))));
  check Alcotest.bool "or short" true (E.eval_bool store (E.Or (E.Var "b", E.Var "b")));
  check Alcotest.bool "not" false (E.eval_bool store (E.Not (E.Var "b")));
  check Alcotest.bool "eq mixed" false
    (E.eval_bool store (E.Eq (E.Var "x", E.Var "b")));
  check Alcotest.bool "ne" true (E.eval_bool store (E.Ne (E.Var "x", E.Int 2)))

let test_expr_lists () =
  let store = [ ("l", V.List [ V.Int 1; V.Int 2 ]) ] in
  check Alcotest.int "len" 2 (E.eval_int store (E.Len (E.Var "l")));
  check Alcotest.int "head" 1 (E.eval_int store (E.Head (E.Var "l")));
  check Alcotest.int "len tail" 1 (E.eval_int store (E.Len (E.Tail (E.Var "l"))));
  check Alcotest.int "append" 3
    (E.eval_int store (E.Len (E.Append (E.Var "l", E.Int 9))));
  check Alcotest.bool "nil" true (E.eval_bool [] (E.Eq (E.Nil, E.Nil)))

let test_expr_errors () =
  let expect_error f =
    try
      ignore (f ());
      Alcotest.fail "expected Eval_error"
    with E.Eval_error _ -> ()
  in
  expect_error (fun () -> E.eval [] (E.Var "missing"));
  expect_error (fun () -> E.eval [] (E.Div (E.Int 1, E.Int 0)));
  expect_error (fun () -> E.eval [] (E.Add (E.Int 1, E.Bool true)));
  expect_error (fun () -> E.eval [] (E.Head E.Nil));
  expect_error (fun () -> E.eval [] (E.Queue_non_empty "c"));
  expect_error (fun () -> E.eval [] (E.Queue_length "c"))

let test_expr_queue_callbacks () =
  let queue_test c = String.equal c "busy" in
  let queue_len c = if String.equal c "busy" then 2 else 0 in
  check Alcotest.bool "queue()" true
    (E.eval_bool ~queue_test ~queue_len [] (E.Queue_non_empty "busy"));
  check Alcotest.int "queue_length()" 2
    (E.eval_int ~queue_test ~queue_len [] (E.Queue_length "busy"));
  check Alcotest.int "empty queue" 0
    (E.eval_int ~queue_test ~queue_len [] (E.Queue_length "idle"))

let test_expr_reads () =
  let e = E.Add (E.Var "a", E.Mul (E.Var "b", E.Var "a")) in
  check Alcotest.(list string) "reads dedup, order" [ "a"; "b" ] (E.reads e);
  check Alcotest.(list string) "no reads" [] (E.reads (E.Int 3))

let test_expr_update_shadowing () =
  let store = E.update (E.update [] "x" (V.Int 1)) "x" (V.Int 2) in
  check Alcotest.int "latest wins" 2 (V.as_int (E.lookup store "x"));
  check Alcotest.int "no duplicates" 1 (List.length store)

(* ------------------------------------------------------------------ *)
(* Trace                                                               *)
(* ------------------------------------------------------------------ *)

let test_trace_persistence () =
  let t0 = Trace.empty in
  let a, t1 = Trace.emit t0 ~element:"X" ~klass:"K" () in
  let _b, t2a = Trace.emit t1 ~element:"X" ~klass:"K" () in
  let _c, t2b = Trace.emit t1 ~element:"Y" ~klass:"K" () in
  (* Branching from t1: both branches see [a] but not each other. *)
  let ca = Trace.to_computation t2a in
  let cb = Trace.to_computation t2b in
  check Alcotest.int "branch a" 2 (C.n_events ca);
  check Alcotest.int "branch b" 2 (C.n_events cb);
  check Alcotest.int "X events in a" 2 (List.length (C.events_at ca "X"));
  check Alcotest.int "X events in b" 1 (List.length (C.events_at cb "X"));
  ignore a

let test_trace_indices_and_edges () =
  let t = Trace.empty in
  let a, t = Trace.emit t ~element:"X" ~klass:"K" () in
  let b, t = Trace.emit_after t ~after:(Some a) ~element:"X" ~klass:"K" () in
  let comp = Trace.to_computation t in
  check Alcotest.bool "enable edge" true (C.enables comp a b);
  check Alcotest.int "indices" 1 (C.event comp b).Gem_model.Event.id.index;
  check Alcotest.int "count" 2 (Trace.n_events t)

let test_trace_rejects_bad_edges () =
  let t = Trace.empty in
  let a, t = Trace.emit t ~element:"X" ~klass:"K" () in
  Alcotest.check_raises "self" (Invalid_argument "Trace.enable: self-enable") (fun () ->
      ignore (Trace.enable t a a));
  Alcotest.check_raises "unknown" (Invalid_argument "Trace.enable: bad handle") (fun () ->
      ignore (Trace.enable t a 99))

let test_trace_extra_elements () =
  let t = Trace.empty in
  let _, t = Trace.emit t ~element:"X" ~klass:"K" () in
  let comp = Trace.to_computation ~extra_elements:[ "Idle"; "X" ] t in
  check Alcotest.(list string) "declared" [ "X"; "Idle" ] (C.elements comp)

let test_trace_actor () =
  let t = Trace.empty in
  let a, t = Trace.emit t ~actor:"P" ~element:"X" ~klass:"K" () in
  let comp = Trace.to_computation t in
  check Alcotest.(option string) "actor kept" (Some "P") (C.event comp a).Gem_model.Event.actor

(* ------------------------------------------------------------------ *)
(* Explore                                                             *)
(* ------------------------------------------------------------------ *)

(* A counter system: from n, moves to n+1 and n+2, terminal at >= 4;
   terminated iff exactly 4. *)
let counter_moves n = if n >= 4 then [] else [ n + 1; n + 2 ]

let test_explore_classification () =
  let r = Explore.run ~moves:counter_moves ~terminated:(fun n -> n = 4) 0 in
  check Alcotest.bool "completed nonempty" true (r.Explore.completed <> []);
  check Alcotest.bool "deadlocked nonempty" true (r.Explore.deadlocked <> []);
  check Alcotest.bool "all completed are 4" true (List.for_all (fun n -> n = 4) r.Explore.completed);
  check Alcotest.bool "all deadlocked are 5" true (List.for_all (fun n -> n = 5) r.Explore.deadlocked)

let test_explore_budget () =
  (* Exhaustion no longer raises: the result reports the cut and keeps the
     configurations visited so far. *)
  let r = Explore.run ~max_configs:5 ~moves:counter_moves ~terminated:(fun n -> n = 4) 0 in
  check Alcotest.bool "exhausted = Config_budget" true
    (r.Explore.exhausted = Some Gem_check.Budget.Config_budget);
  check Alcotest.int "visited exactly the budget" 5 r.Explore.explored

let test_explore_deadline () =
  (* A deadline of zero is exhausted on the first poll; no exception, and
     the reason survives into the result. *)
  let budget = Gem_check.Budget.make ~timeout:0.0 () in
  let moves n = [ n + 1 ] (* infinite chain; only the budget stops it *) in
  let r = Explore.run ~budget ~moves ~terminated:(fun _ -> false) 0 in
  check Alcotest.bool "exhausted = Deadline_exceeded" true
    (r.Explore.exhausted = Some Gem_check.Budget.Deadline_exceeded)

let test_explore_depth_truncation () =
  let r =
    Explore.run ~max_steps:1 ~moves:counter_moves ~terminated:(fun n -> n = 4) 0
  in
  check Alcotest.bool "truncated" true (r.Explore.truncated > 0)

let test_explore_key_dedup () =
  (* Without a key, the counter reaches 4 along many paths; with the
     identity key, each value is expanded once. *)
  let no_key = Explore.run ~moves:counter_moves ~terminated:(fun n -> n = 4) 0 in
  let keyed =
    Explore.run
      ~key:(fun _ n -> (Explore.Exact (string_of_int n), ()))
      ~moves:counter_moves ~terminated:(fun n -> n = 4) 0
  in
  check Alcotest.bool "fewer configs with key" true
    (keyed.Explore.explored < no_key.Explore.explored);
  check Alcotest.int "one completed leaf" 1 (List.length keyed.Explore.completed)

let test_explore_initial_seen () =
  (* Regression: the initial configuration must be inserted into the seen
     set before expansion, so a move mapping the start state to itself is
     pruned rather than re-expanded. *)
  let moves n = if n = 0 then [ 0 ] else [] in
  let r =
    Explore.run
      ~key:(fun _ n -> (Explore.Exact (string_of_int n), ()))
      ~moves ~terminated:(fun _ -> false) 0
  in
  check Alcotest.int "expanded exactly once" 1 r.Explore.explored;
  check Alcotest.int "self-loop pruned" 1 r.Explore.reduced

let test_explore_sleep_sets () =
  (* Two independent moves a/b from (0,0): the sleep set prunes one of the
     two interleavings, and the one completed leaf survives. *)
  let footprint (a, b) =
    (if a < 1 then [ ("a", fun () -> ({ Explore.label = "a"; touches = [ "A" ] }, (a + 1, b))) ]
     else [])
    @ if b < 1 then [ ("b", fun () -> ({ Explore.label = "b"; touches = [ "B" ] }, (a, b + 1))) ]
      else []
  in
  let moves c = List.map (fun (_, fire) -> snd (fire ())) (footprint c) in
  let key _ (a, b) = (Explore.Exact (Printf.sprintf "%d,%d" a b), ()) in
  let r =
    Explore.run ~key ~footprint ~moves ~terminated:(fun c -> c = (1, 1)) (0, 0)
  in
  check Alcotest.(list (pair int int)) "one completed leaf" [ (1, 1) ] r.Explore.completed;
  check Alcotest.(list (pair int int)) "no deadlocks" [] r.Explore.deadlocked;
  check Alcotest.bool "a branch was pruned" true (r.Explore.reduced > 0)

(* Two paths of 201 configurations, 0 -> 1 -> ... -> 200, far deeper
   than the walk's initial stack. On the chain each configuration has one
   successor; on the comb each also has a dead end [1000 + n], listed
   second, so every configuration of the path stays open on the stack
   while its first successor is explored. *)
let path_end = 200
let chain_moves n = if n < path_end then [ n + 1 ] else []
let comb_moves n = if n < path_end then [ n + 1; 1000 + n ] else []
let step label touch n = (label, fun () -> ({ Explore.label; touches = [ touch ] }, n))

let chain_footprint n = if n < path_end then [ step "s" "S" (n + 1) ] else []

let comb_footprint n =
  if n < path_end then [ step "s" "S" (n + 1); step "d" "D" (1000 + n) ] else []

let test_explore_deep_paths () =
  let terminated n = n = path_end in
  let key _ n = (Explore.Exact (string_of_int n), ()) in
  let expect what ~dead (r : int Explore.result) =
    check Alcotest.(list int) (what ^ ": one completed leaf") [ path_end ] r.Explore.completed;
    check Alcotest.int (what ^ ": dead ends") dead (List.length r.Explore.deadlocked);
    check Alcotest.int (what ^ ": every configuration visited") (path_end + 1 + dead)
      r.Explore.explored;
    check Alcotest.bool (what ^ ": not cut") true (r.Explore.exhausted = None)
  in
  List.iter
    (fun (shape, moves, footprint, dead, engines) ->
      expect (shape ^ " plain") ~dead (Explore.run ~moves ~terminated 0);
      expect (shape ^ " keyed") ~dead (Explore.run ~key ~moves ~terminated 0);
      List.iter
        (fun reduction ->
          expect
            (shape ^ " " ^ Explore.reduction_name reduction)
            ~dead
            (Explore.run ~key ~reduction ~footprint ~moves ~terminated 0))
        engines)
    [
      ( "chain",
        chain_moves,
        chain_footprint,
        0,
        [ Explore.No_reduction; Explore.Sleep_sets; Explore.Source_sets ] );
      (* Source would schedule no dead end: no race puts one in a
         backtrack set. *)
      ("comb", comb_moves, comb_footprint, path_end, [ Explore.No_reduction; Explore.Sleep_sets ]);
    ]

let test_move_independence () =
  let m touches = { Explore.label = "m"; touches } in
  check Alcotest.bool "disjoint" true (Explore.independent (m [ "A" ]) (m [ "B" ]));
  check Alcotest.bool "overlap" false
    (Explore.independent (m [ "A"; "C" ]) (m [ "B"; "C" ]));
  check Alcotest.bool "empty footprint" true (Explore.independent (m []) (m [ "A" ]))

let test_fingerprint_order_independent () =
  let build order =
    let t = Trace.empty in
    let t =
      List.fold_left
        (fun t el -> snd (Trace.emit t ~element:el ~klass:"K" ()))
        t order
    in
    Trace.to_computation t
  in
  (* Emission order differs; events and (empty) edges identical. *)
  check Alcotest.string "same fingerprint"
    (Explore.fingerprint (build [ "A"; "B" ]))
    (Explore.fingerprint (build [ "B"; "A" ]));
  (* Different event content differs. *)
  Alcotest.(check bool) "different fingerprint" false
    (String.equal
       (Explore.fingerprint (build [ "A"; "A" ]))
       (Explore.fingerprint (build [ "A"; "B" ])))

let test_dedup_computations () =
  let comps =
    Explore.dedup_computations
      (fun order ->
        let t = Trace.empty in
        let t =
          List.fold_left (fun t el -> snd (Trace.emit t ~element:el ~klass:"K" ())) t order
        in
        Trace.to_computation t)
      [ [ "A"; "B" ]; [ "B"; "A" ]; [ "A"; "C" ] ]
  in
  check Alcotest.int "two distinct partial orders" 2 (List.length comps)

let () =
  Alcotest.run "gem_lang_core"
    [
      ( "expr",
        [
          Alcotest.test_case "arith" `Quick test_expr_arith;
          Alcotest.test_case "bool" `Quick test_expr_bool;
          Alcotest.test_case "lists" `Quick test_expr_lists;
          Alcotest.test_case "errors" `Quick test_expr_errors;
          Alcotest.test_case "queue-callbacks" `Quick test_expr_queue_callbacks;
          Alcotest.test_case "reads" `Quick test_expr_reads;
          Alcotest.test_case "update" `Quick test_expr_update_shadowing;
        ] );
      ( "trace",
        [
          Alcotest.test_case "persistence" `Quick test_trace_persistence;
          Alcotest.test_case "indices-edges" `Quick test_trace_indices_and_edges;
          Alcotest.test_case "bad-edges" `Quick test_trace_rejects_bad_edges;
          Alcotest.test_case "extra-elements" `Quick test_trace_extra_elements;
          Alcotest.test_case "actor" `Quick test_trace_actor;
        ] );
      ( "explore",
        [
          Alcotest.test_case "classification" `Quick test_explore_classification;
          Alcotest.test_case "budget" `Quick test_explore_budget;
          Alcotest.test_case "deadline" `Quick test_explore_deadline;
          Alcotest.test_case "depth-truncation" `Quick test_explore_depth_truncation;
          Alcotest.test_case "key-dedup" `Quick test_explore_key_dedup;
          Alcotest.test_case "initial-seen" `Quick test_explore_initial_seen;
          Alcotest.test_case "sleep-sets" `Quick test_explore_sleep_sets;
          Alcotest.test_case "deep-paths" `Quick test_explore_deep_paths;
          Alcotest.test_case "independence" `Quick test_move_independence;
          Alcotest.test_case "fingerprint" `Quick test_fingerprint_order_independent;
          Alcotest.test_case "dedup-computations" `Quick test_dedup_computations;
        ] );
    ]
