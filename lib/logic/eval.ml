module Computation = Gem_model.Computation
module Event = Gem_model.Event
module Value = Gem_model.Value
open Formula

exception Error of string

type env = (string * int) list

let lookup env x =
  match List.assoc_opt x env with
  | Some h -> h
  | None -> raise (Error ("unbound event variable " ^ x))

let rec matches_domain comp h = function
  | Any -> true
  | Cls c -> Event.has_class (Computation.event comp h) c
  | At_elem el -> String.equal (Computation.event comp h).Event.id.element el
  | Cls_at (el, c) ->
      let e = Computation.event comp h in
      String.equal e.Event.id.element el && Event.has_class e c
  | Union ds -> List.exists (matches_domain comp h) ds

let domain_events comp d =
  List.filter (fun h -> matches_domain comp h d) (Computation.all_events comp)

let rec eval_texp comp env = function
  | Const v -> v
  | Param (x, p) -> (
      let e = Computation.event comp (lookup env x) in
      match Event.param_opt e p with
      | Some v -> v
      | None ->
          raise
            (Error
               (Format.asprintf "event %a has no parameter %s" Event.pp e p)))
  | Index x -> Value.Int (Computation.event comp (lookup env x)).Event.id.index
  | Plus (t, n) -> (
      match eval_texp comp env t with
      | Value.Int k -> Value.Int (k + n)
      | v -> raise (Error ("Plus over non-integer " ^ Value.to_string v)))

let eval_cmp c v1 v2 =
  let n = Value.compare v1 v2 in
  match c with
  | Eq -> n = 0
  | Ne -> n <> 0
  | Lt -> n < 0
  | Le -> n <= 0
  | Gt -> n > 0
  | Ge -> n >= 0

let thread_pair comp env pi x y =
  let ex = Computation.event comp (lookup env x) in
  let ey = Computation.event comp (lookup env y) in
  (Event.thread_instance ex pi, Event.thread_instance ey pi)

let eval_atom hist env a =
  let comp = History.computation hist in
  let in_h x = History.mem hist (lookup env x) in
  match a with
  | Occurred x -> in_h x
  | Enables (x, y) -> in_h x && in_h y && Computation.enables comp (lookup env x) (lookup env y)
  | Elem_lt (x, y) -> in_h x && in_h y && Computation.elem_lt comp (lookup env x) (lookup env y)
  | Temp_lt (x, y) -> in_h x && in_h y && Computation.temp_lt comp (lookup env x) (lookup env y)
  | Same_event (x, y) -> lookup env x = lookup env y
  | Same_element (x, y) ->
      String.equal
        (Computation.event comp (lookup env x)).Event.id.element
        (Computation.event comp (lookup env y)).Event.id.element
  | In_class (x, d) -> matches_domain comp (lookup env x) d
  | Cmp (c, t1, t2) -> eval_cmp c (eval_texp comp env t1) (eval_texp comp env t2)
  | At_class (x, d) ->
      History.at hist (lookup env x) (fun e2 -> matches_domain comp e2 d)
  | New x -> History.is_new hist (lookup env x)
  | Potential x -> History.potential hist (lookup env x)
  | Same_thread (pi, x, y) -> (
      match thread_pair comp env pi x y with
      | Some i, Some j -> i = j
      | _ -> false)
  | Distinct_thread (pi, x, y) -> (
      match thread_pair comp env pi x y with
      | Some i, Some j -> i <> j
      | _ -> false)
  | In_thread (pi, x) ->
      Event.thread_instance (Computation.event comp (lookup env x)) pi <> None
  | Sem (_, xs, fn) -> fn comp (History.members hist) (List.map (lookup env) xs)

let count_until_two comp d env x pred =
  (* 0, 1 or 2 (meaning >= 2) witnesses; short-circuits. *)
  let rec loop n = function
    | [] -> n
    | h :: rest ->
        if pred ((x, h) :: env) then if n = 1 then 2 else loop 1 rest else loop n rest
  in
  loop 0 (domain_events comp d)

let rec eval_history hist env f =
  let comp = History.computation hist in
  match f with
  | True -> true
  | False -> false
  | Atom a -> eval_atom hist env a
  | Not f -> not (eval_history hist env f)
  | And fs -> List.for_all (eval_history hist env) fs
  | Or fs -> List.exists (eval_history hist env) fs
  | Implies (a, b) -> (not (eval_history hist env a)) || eval_history hist env b
  | Iff (a, b) -> eval_history hist env a = eval_history hist env b
  | Forall (x, d, body) ->
      List.for_all (fun h -> eval_history hist ((x, h) :: env) body) (domain_events comp d)
  | Exists (x, d, body) ->
      List.exists (fun h -> eval_history hist ((x, h) :: env) body) (domain_events comp d)
  | Exists_unique (x, d, body) ->
      count_until_two comp d env x (fun env -> eval_history hist env body) = 1
  | At_most_one (x, d, body) ->
      count_until_two comp d env x (fun env -> eval_history hist env body) <= 1
  | Henceforth _ | Eventually _ ->
      raise (Error "temporal operator in immediate context")

let eval_computation ?(env = []) comp f =
  Gem_obs.Telemetry.(hit Formula_evals);
  let span = Gem_obs.Telemetry.(span_begin Formula_eval) in
  let v = eval_history (History.full comp) env f in
  Gem_obs.Telemetry.(span_end Formula_eval) span;
  v

let ground ?(env = []) comp f =
  let full = History.full comp in
  (* A history-independent atom has its value, or its exception, at
     every history. *)
  let static env a =
    match eval_atom full env a with
    | v -> Ground.Const v
    | exception ((Error _ | Invalid_argument _) as e) -> Ground.Fail e
  in
  let handle env x make =
    match lookup env x with h -> make h | exception (Error _ as e) -> Ground.Fail e
  in
  let rec atom env = function
    | Occurred x -> handle env x (fun h -> Ground.Occurred h)
    | (Enables (x, y) | Elem_lt (x, y) | Temp_lt (x, y)) as a ->
        (* Both ends occurred, and the fixed relation holds. *)
        Ground.conj (List.to_seq [ atom env (Occurred x); atom env (Occurred y); static env a ])
    | At_class (x, d) ->
        handle env x (fun h ->
            Ground.At
              (h, List.filter (fun e2 -> matches_domain comp e2 d) (Computation.enable_succs comp h)))
    | New x -> handle env x (fun h -> Ground.New h)
    | Potential x -> handle env x (fun h -> Ground.Potential h)
    | Sem (_, xs, fn) -> (
        match List.map (lookup env) xs with
        | hs -> Ground.Sem (fn, hs)
        | exception (Error _ as e) -> Ground.Fail e)
    | ( Same_event _ | Same_element _ | In_class _ | Cmp _ | Same_thread _
      | Distinct_thread _ | In_thread _ ) as a ->
        static env a
  in
  let rec go env = function
    | True -> Ground.Const true
    | False -> Ground.Const false
    | Atom a -> atom env a
    | Not f -> Ground.neg (go env f)
    | And fs -> Ground.conj (Seq.map (go env) (List.to_seq fs))
    | Or fs -> Ground.disj (Seq.map (go env) (List.to_seq fs))
    | Implies (a, b) -> Ground.implies (go env a) (fun () -> go env b)
    | Iff (a, b) -> Ground.iff (go env a) (go env b)
    | Forall (x, d, body) -> Ground.conj (bindings env x d body)
    | Exists (x, d, body) -> Ground.disj (bindings env x d body)
    | Exists_unique (x, d, body) -> Ground.exactly_one (List.of_seq (bindings env x d body))
    | At_most_one (x, d, body) -> Ground.at_most_one (List.of_seq (bindings env x d body))
    | Henceforth f -> Ground.always (go env f)
    | Eventually f -> Ground.eventually (go env f)
  and bindings env x d body =
    Seq.map (fun h -> go ((x, h) :: env) body) (List.to_seq (domain_events comp d))
  in
  go env f

let eval_ground_run run g =
  Gem_obs.Telemetry.(hit Formula_evals);
  Gem_obs.Telemetry.(time Formula_eval) @@ fun () -> Ground.holds_on_run run g

let eval_run ?(env = []) run f =
  Gem_obs.Telemetry.(hit Formula_evals);
  Gem_obs.Telemetry.(time Formula_eval) @@ fun () ->
  Ground.holds_on_run run (ground ~env (Vhs.computation run) f)
