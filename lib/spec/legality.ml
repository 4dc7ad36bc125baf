module Computation = Gem_model.Computation
module Event = Gem_model.Event
module Digraph = Gem_order.Digraph

type violation =
  | Cyclic_causality of int list
  | Self_enable of int
  | Undeclared_element of string
  | Undeclared_class of int
  | Bad_params of int
  | Access_violation of int * int

let pp_violation comp ppf v =
  let pe ppf h = Event.pp ppf (Computation.event comp h) in
  match v with
  | Cyclic_causality hs ->
      Format.fprintf ppf "causal cycle through %a"
        (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf " -> ") pe)
        hs
  | Self_enable h -> Format.fprintf ppf "event %a enables itself" pe h
  | Undeclared_element el -> Format.fprintf ppf "element %s not declared" el
  | Undeclared_class h ->
      Format.fprintf ppf "event %a: class not declared at its element" pe h
  | Bad_params h -> Format.fprintf ppf "event %a: parameters do not match schema" pe h
  | Access_violation (a, b) ->
      Format.fprintf ppf "enable %a |> %a violates group access" pe a pe b

(* One directed cycle's node list, via DFS with a gray stack. *)
let find_cycle g =
  let n = Digraph.size g in
  let color = Array.make n 0 in
  (* 0 white, 1 gray, 2 black *)
  let cycle = ref None in
  let rec dfs path v =
    if !cycle = None then begin
      color.(v) <- 1;
      List.iter
        (fun w ->
          if !cycle = None then
            if color.(w) = 1 then begin
              let rec upto acc = function
                | [] -> acc
                | x :: rest -> if x = w then x :: acc else upto (x :: acc) rest
              in
              cycle := Some (upto [] (v :: path))
            end
            else if color.(w) = 0 then dfs (v :: path) w)
        (Digraph.succs g v);
      color.(v) <- 2
    end
  in
  let v = ref 0 in
  while !cycle = None && !v < n do
    if color.(!v) = 0 then dfs [] !v;
    incr v
  done;
  !cycle

(* The causal graph, rebuilt for the one computation that needs it: a
   cyclic one, which has no temporal order to keep instead. *)
let causal_graph comp =
  let g = Digraph.create (Computation.n_events comp) in
  List.iter
    (fun h -> List.iter (Digraph.add_edge g h) (Computation.enable_succs comp h))
    (Computation.all_events comp);
  let rec chain = function
    | a :: (b :: _ as rest) ->
        Digraph.add_edge g a b;
        chain rest
    | [ _ ] | [] -> ()
  in
  List.iter (fun el -> chain (Computation.events_at comp el)) (Computation.event_elements comp);
  g

let check spec comp =
  let violations = ref [] in
  let push v = violations := v :: !violations in
  (* 1. Acyclicity. *)
  (match Computation.temporal comp with
  | Some _ -> ()
  | None -> (
      match find_cycle (causal_graph comp) with
      | Some c -> push (Cyclic_causality c)
      | None -> assert false));
  (* 2. Irreflexive enable. *)
  let enable = Computation.enable_graph comp in
  List.iter
    (fun h -> if Digraph.mem_edge enable h h then push (Self_enable h))
    (Computation.all_events comp);
  (* 3/4. Declared elements, classes, schemas. *)
  let undeclared = Hashtbl.create 4 in
  List.iter
    (fun h ->
      let e = Computation.event comp h in
      match Spec.element_type spec e.Event.id.element with
      | None ->
          if not (Hashtbl.mem undeclared e.Event.id.element) then begin
            Hashtbl.add undeclared e.Event.id.element ();
            push (Undeclared_element e.Event.id.element)
          end
      | Some ty -> (
          match Etype.event_decl ty e.Event.klass with
          | None -> push (Undeclared_class h)
          | Some decl -> if not (Etype.schema_ok decl e.Event.params) then push (Bad_params h)))
    (Computation.all_events comp);
  (* 5. Group access. *)
  let table = Spec.access_table spec in
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          let ea = Computation.event comp a and eb = Computation.event comp b in
          if
            not
              (Access.may_enable table ~from_element:ea.Event.id.element
                 ~to_element:eb.Event.id.element ~to_class:eb.Event.klass)
          then push (Access_violation (a, b)))
        (Computation.enable_succs comp a))
    (Computation.all_events comp);
  List.rev !violations

let is_legal spec comp = check spec comp = []
