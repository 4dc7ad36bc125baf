(* Unit tests for the GEM model of execution: values, events, groups,
   computations, the builder and DOT export. *)

module V = Gem_model.Value
module Event = Gem_model.Event
module Group = Gem_model.Group
module C = Gem_model.Computation
module Build = Gem_model.Build

let check = Alcotest.check

(* ------------------------------------------------------------------ *)
(* Values                                                              *)
(* ------------------------------------------------------------------ *)

let test_value_compare_total () =
  let vs =
    [
      V.Unit; V.Bool false; V.Bool true; V.Int (-1); V.Int 3; V.Str "a"; V.Str "b";
      V.Pair (V.Int 1, V.Int 2); V.List [ V.Int 1 ]; V.List [];
    ]
  in
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          let ab = V.compare a b and ba = V.compare b a in
          Alcotest.(check bool) "antisymmetric" true (compare ab 0 = compare 0 ba))
        vs)
    vs;
  check Alcotest.bool "equal refl" true (V.equal (V.Pair (V.Int 1, V.Str "x")) (V.Pair (V.Int 1, V.Str "x")))

let test_value_pp () =
  check Alcotest.string "pair" "(1, true)" (V.to_string (V.Pair (V.Int 1, V.Bool true)));
  check Alcotest.string "list" "[1; 2]" (V.to_string (V.List [ V.Int 1; V.Int 2 ]));
  check Alcotest.string "unit" "()" (V.to_string V.Unit)

let test_value_coercions () =
  check Alcotest.int "as_int" 5 (V.as_int (V.Int 5));
  check Alcotest.bool "as_bool" true (V.as_bool (V.Bool true));
  check Alcotest.string "as_string" "s" (V.as_string (V.Str "s"));
  Alcotest.check_raises "bad as_int" (Invalid_argument "Value.as_int: true") (fun () ->
      ignore (V.as_int (V.Bool true)))

(* ------------------------------------------------------------------ *)
(* Events                                                              *)
(* ------------------------------------------------------------------ *)

let test_event_identity () =
  let a = { Event.element = "Var"; index = 2 } in
  let b = { Event.element = "Var"; index = 2 } in
  let c = { Event.element = "Var"; index = 3 } in
  check Alcotest.bool "equal" true (Event.id_equal a b);
  check Alcotest.bool "ordered by index" true (Event.id_compare a c < 0);
  check Alcotest.string "paper notation" "Var^2" (Format.asprintf "%a" Event.pp_id a)

let test_event_params_threads () =
  let e = Event.make ~element:"Var" ~index:0 ~klass:"Assign" [ ("newval", V.Int 7) ] in
  check Alcotest.bool "param" true (V.equal (Event.param e "newval") (V.Int 7));
  check Alcotest.bool "param_opt none" true (Event.param_opt e "missing" = None);
  check Alcotest.bool "class" true (Event.has_class e "Assign");
  let e' = Event.with_thread e "pi" 4 in
  check Alcotest.(option int) "thread" (Some 4) (Event.thread_instance e' "pi");
  check Alcotest.(option int) "no thread" None (Event.thread_instance e "pi")

let test_event_actor () =
  let e = Event.make ~actor:"P1" ~element:"x" ~index:0 ~klass:"K" [] in
  check Alcotest.(option string) "actor" (Some "P1") e.Event.actor

(* ------------------------------------------------------------------ *)
(* Groups                                                              *)
(* ------------------------------------------------------------------ *)

let test_group_membership () =
  let g = Group.make "G" [ Group.Elem "a"; Group.Grp "H" ]
      ~ports:[ { Group.port_element = "a"; port_class = "Start" } ]
  in
  check Alcotest.bool "elem" true (Group.contains_element g "a");
  check Alcotest.bool "not elem" false (Group.contains_element g "H");
  check Alcotest.bool "group" true (Group.contains_group g "H");
  check Alcotest.bool "port" true (Group.is_port g ~element:"a" ~klass:"Start");
  check Alcotest.bool "not port" false (Group.is_port g ~element:"a" ~klass:"End")

(* ------------------------------------------------------------------ *)
(* Builder and computations                                            *)
(* ------------------------------------------------------------------ *)

(* Var with two assignments and a read; a process element driving them. *)
let sample () =
  let b = Build.create () in
  let p0 = Build.emit b ~element:"P" ~klass:"Step" () in
  let a0 = Build.emit_enabled_by b ~by:p0 ~element:"Var" ~klass:"Assign"
      ~params:[ ("newval", V.Int 1) ] () in
  let p1 = Build.emit_enabled_by b ~by:a0 ~element:"P" ~klass:"Step" () in
  let a1 = Build.emit_enabled_by b ~by:p1 ~element:"Var" ~klass:"Assign"
      ~params:[ ("newval", V.Int 2) ] () in
  let g = Build.emit_enabled_by b ~by:a1 ~element:"Var" ~klass:"Getval"
      ~params:[ ("oldval", V.Int 2) ] () in
  (Build.finish b, p0, a0, p1, a1, g)

let test_build_indices () =
  let comp, p0, a0, p1, a1, g = sample () in
  check Alcotest.int "n_events" 5 (C.n_events comp);
  check Alcotest.int "Var^0" 0 (C.event comp a0).Event.id.index;
  check Alcotest.int "Var^1" 1 (C.event comp a1).Event.id.index;
  check Alcotest.int "Var^2" 2 (C.event comp g).Event.id.index;
  check Alcotest.int "P^0" 0 (C.event comp p0).Event.id.index;
  check Alcotest.int "P^1" 1 (C.event comp p1).Event.id.index

let test_computation_lookup () =
  let comp, _, a0, _, _, _ = sample () in
  check Alcotest.(option int) "find" (Some a0) (C.find comp { Event.element = "Var"; index = 0 });
  check Alcotest.(option int) "find missing" None (C.find comp { Event.element = "Var"; index = 9 });
  check Alcotest.(list int) "events_at Var" [ 1; 3; 4 ] (C.events_at comp "Var");
  check Alcotest.(list int) "by class" [ 1; 3 ] (C.events_of_class comp "Assign");
  check Alcotest.(list int) "class at" [ 4 ]
    (C.events_of_class_at comp ~element:"Var" ~klass:"Getval");
  check Alcotest.(list string) "elements in order" [ "P"; "Var" ] (C.elements comp)

let test_computation_orders () =
  let comp, p0, a0, _, a1, g = sample () in
  check Alcotest.bool "enable" true (C.enables comp p0 a0);
  check Alcotest.bool "elem order a0 < a1" true (C.elem_lt comp a0 a1);
  check Alcotest.bool "elem order transitive" true (C.elem_lt comp a0 g);
  check Alcotest.bool "not cross element" false (C.elem_lt comp p0 a0);
  check Alcotest.bool "temporal" true (C.temp_lt comp p0 g);
  check Alcotest.bool "not concurrent" false (C.concurrent comp p0 g)

let test_computation_concurrency () =
  let b = Build.create () in
  let x = Build.emit b ~element:"X" ~klass:"E" () in
  let y = Build.emit b ~element:"Y" ~klass:"E" () in
  let comp = Build.finish b in
  check Alcotest.bool "independent events concurrent" true (C.concurrent comp x y)

let test_cyclic_computation () =
  let b = Build.create () in
  let x = Build.emit b ~element:"X" ~klass:"E" () in
  let y = Build.emit b ~element:"Y" ~klass:"E" () in
  Build.enable b x y;
  Build.enable b y x;
  let comp = Build.finish b in
  check Alcotest.bool "no temporal order" true (C.temporal comp = None);
  Alcotest.check_raises "temporal_exn"
    (Invalid_argument "Computation: causal graph is cyclic, no temporal order") (fun () ->
      ignore (C.temporal_exn comp))

(* The element order participates in the causal graph: an enable edge
   against the element order is a cycle. *)
let test_element_order_cycles () =
  let b = Build.create () in
  let e0 = Build.emit b ~element:"X" ~klass:"E" () in
  let e1 = Build.emit b ~element:"X" ~klass:"E" () in
  Build.enable b e1 e0;
  let comp = Build.finish b in
  check Alcotest.bool "cyclic" true (C.temporal comp = None)

(* The one-pass constructor reads each element's events in handle order
   as its element order; a computation whose handles disagree with the
   occurrence indices (or repeat one) is refused, not mis-sealed. *)
let test_unsafe_make_handle_order () =
  let make indices =
    C.unsafe_make ~elements:[ "X" ] ~groups:[] ~enable:[]
      ~events:
        (Array.of_list
           (List.map (fun index -> Event.make ~element:"X" ~index ~klass:"E" []) indices))
  in
  check Alcotest.(list int) "in order" [ 0; 1 ] (C.events_at (make [ 0; 1 ]) "X");
  List.iter
    (fun indices ->
      Alcotest.check_raises "refused"
        (Invalid_argument
           "Computation.unsafe_make: element order differs from handle order")
        (fun () -> ignore (make indices)))
    [ [ 1; 0 ]; [ 0; 0 ] ]

let test_build_rejects_self_enable () =
  let b = Build.create () in
  let x = Build.emit b ~element:"X" ~klass:"E" () in
  Alcotest.check_raises "self enable"
    (Invalid_argument "Build.enable: the enable relation is irreflexive") (fun () ->
      Build.enable b x x)

let test_build_snapshots () =
  let b = Build.create () in
  let _ = Build.emit b ~element:"X" ~klass:"E" () in
  let c1 = Build.finish b in
  let _ = Build.emit b ~element:"X" ~klass:"E" () in
  let c2 = Build.finish b in
  check Alcotest.int "snapshot 1" 1 (C.n_events c1);
  check Alcotest.int "snapshot 2" 2 (C.n_events c2)

let test_map_events () =
  let comp, _, a0, _, _, _ = sample () in
  let comp' = C.map_events (fun _ e -> Event.with_thread e "pi" 0) comp in
  check Alcotest.(option int) "thread added" (Some 0)
    (Event.thread_instance (C.event comp' a0) "pi");
  Alcotest.check_raises "identity change"
    (Invalid_argument "Computation.map_events: event identity changed") (fun () ->
      ignore
        (C.map_events
           (fun _ e -> { e with Event.id = { e.Event.id with Event.index = 99 } })
           comp))

let test_declared_but_empty_element () =
  let b = Build.create () in
  Build.declare_element b "Idle";
  let _ = Build.emit b ~element:"X" ~klass:"E" () in
  let comp = Build.finish b in
  check Alcotest.bool "declared" true (C.has_element comp "Idle");
  check Alcotest.(list int) "no events" [] (C.events_at comp "Idle")

let test_groups_in_computation () =
  let b = Build.create () in
  Build.declare_group b (Group.make "G" [ Group.Elem "X" ]);
  let _ = Build.emit b ~element:"X" ~klass:"E" () in
  let comp = Build.finish b in
  check Alcotest.bool "group present" true (C.group comp "G" <> None);
  check Alcotest.bool "group absent" true (C.group comp "H" = None);
  Alcotest.check_raises "duplicate group"
    (Invalid_argument "Build.declare_group: duplicate group G") (fun () ->
      Build.declare_group b (Group.make "G" []))

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec loop i = i + n <= m && (String.equal (String.sub s i n) sub || loop (i + 1)) in
  n = 0 || loop 0

let test_dot_export () =
  let comp, _, _, _, _, _ = sample () in
  let dot = Gem_model.Dot.to_string comp in
  check Alcotest.bool "digraph" true (contains ~sub:"digraph" dot);
  check Alcotest.bool "clusters per element" true (contains ~sub:"cluster" dot);
  check Alcotest.bool "solid enable edge" true (contains ~sub:"n0 -> n1" dot)

let () =
  Alcotest.run "gem_model"
    [
      ( "value",
        [
          Alcotest.test_case "compare-total" `Quick test_value_compare_total;
          Alcotest.test_case "pp" `Quick test_value_pp;
          Alcotest.test_case "coercions" `Quick test_value_coercions;
        ] );
      ( "event",
        [
          Alcotest.test_case "identity" `Quick test_event_identity;
          Alcotest.test_case "params-threads" `Quick test_event_params_threads;
          Alcotest.test_case "actor" `Quick test_event_actor;
        ] );
      ("group", [ Alcotest.test_case "membership" `Quick test_group_membership ]);
      ( "computation",
        [
          Alcotest.test_case "build-indices" `Quick test_build_indices;
          Alcotest.test_case "lookup" `Quick test_computation_lookup;
          Alcotest.test_case "orders" `Quick test_computation_orders;
          Alcotest.test_case "concurrency" `Quick test_computation_concurrency;
          Alcotest.test_case "cyclic" `Quick test_cyclic_computation;
          Alcotest.test_case "element-order-cycle" `Quick test_element_order_cycles;
          Alcotest.test_case "self-enable" `Quick test_build_rejects_self_enable;
          Alcotest.test_case "snapshots" `Quick test_build_snapshots;
          Alcotest.test_case "map-events" `Quick test_map_events;
          Alcotest.test_case "empty-element" `Quick test_declared_but_empty_element;
          Alcotest.test_case "groups" `Quick test_groups_in_computation;
          Alcotest.test_case "dot" `Quick test_dot_export;
          Alcotest.test_case "handle-order" `Quick test_unsafe_make_handle_order;
        ] );
    ]
