module F = Gem_logic.Formula
module Computation = Gem_model.Computation
module Event = Gem_model.Event

type pat =
  | Step of F.domain
  | Seq of pat list
  | Alt of pat list
  | Opt of pat
  | Star of pat

type def = { thread_name : string; pattern : pat }

let def thread_name pattern = { thread_name; pattern }

let seq_of_domains ds = Seq (List.map (fun d -> Step d) ds)

(* Thompson-style NFA: integer states, epsilon edges, domain-labelled
   edges. State 0 is the start. *)
type nfa = {
  mutable n_states : int;
  mutable eps : (int * int) list;
  mutable moves : (int * F.domain * int) list;
}

let compile pat =
  let nfa = { n_states = 1; eps = []; moves = [] } in
  let fresh () =
    let s = nfa.n_states in
    nfa.n_states <- s + 1;
    s
  in
  (* build returns the accepting state of the fragment started at [entry]. *)
  let rec build entry = function
    | Step d ->
        let exit = fresh () in
        nfa.moves <- (entry, d, exit) :: nfa.moves;
        exit
    | Seq ps -> List.fold_left build entry ps
    | Alt ps ->
        let exit = fresh () in
        List.iter
          (fun p ->
            let s = fresh () in
            nfa.eps <- (entry, s) :: nfa.eps;
            let e = build s p in
            nfa.eps <- (e, exit) :: nfa.eps)
          ps;
        exit
    | Opt p ->
        let exit = build entry p in
        nfa.eps <- (entry, exit) :: nfa.eps;
        exit
    | Star p ->
        (* Exit via the fragment's own accepting state [e]: entry -eps-> e
           covers zero iterations, e -eps-> s re-enters for repetition. *)
        let s = fresh () in
        nfa.eps <- (entry, s) :: nfa.eps;
        let e = build s p in
        nfa.eps <- (e, s) :: nfa.eps;
        nfa.eps <- (entry, e) :: nfa.eps;
        e
  in
  let _accept = build 0 pat in
  nfa

module Iset = Set.Make (Int)

let eps_closure nfa states =
  let rec grow states =
    let states' =
      List.fold_left
        (fun acc (a, b) -> if Iset.mem a acc then Iset.add b acc else acc)
        states nfa.eps
    in
    if Iset.equal states states' then states else grow states'
  in
  grow states

(* States reachable from [states] by consuming an event matching via
   [matches]. *)
let step nfa comp states h =
  let after =
    List.fold_left
      (fun acc (a, d, b) ->
        if Iset.mem a states && Gem_logic.Eval.matches_domain comp h d then Iset.add b acc
        else acc)
      Iset.empty nfa.moves
  in
  if Iset.is_empty after then None else Some (eps_closure nfa after)

let label comp defs =
  let n = Computation.n_events comp in
  let order =
    match Computation.temporal comp with
    | Some p -> Gem_order.Poset.linear_extension p
    | None -> invalid_arg "Thread.label: cyclic computation"
  in
  (* labels.(h) = (def name, instance, nfa state set) list *)
  let labels : (string * int * Iset.t) list array = Array.make n [] in
  List.iter
    (fun d ->
      let nfa = compile d.pattern in
      let start = eps_closure nfa (Iset.singleton 0) in
      let next_instance = ref 0 in
      List.iter
        (fun h ->
          (* Continuations: extend instances carried by enable-predecessors. *)
          let continued = ref [] in
          List.iter
            (fun p ->
              List.iter
                (fun (dn, inst, states) ->
                  if String.equal dn d.thread_name then
                    match step nfa comp states h with
                    | Some states' ->
                        if not (List.exists (fun (_, i, _) -> i = inst) !continued)
                        then continued := (dn, inst, states') :: !continued
                    | None -> ())
                labels.(p))
            (Computation.enable_preds comp h);
          if !continued <> [] then labels.(h) <- !continued @ labels.(h)
          else
            (* Roots: found a new instance at pattern start. *)
            match step nfa comp start h with
            | Some states' ->
                let inst = !next_instance in
                incr next_instance;
                labels.(h) <- (d.thread_name, inst, states') :: labels.(h)
            | None -> ())
        order)
    defs;
  Computation.map_events
    (fun h e ->
      List.fold_left (fun e (dn, inst, _) -> Event.with_thread e dn inst) e labels.(h))
    comp

let instances comp name =
  let module S = Set.Make (Int) in
  let s =
    List.fold_left
      (fun acc h ->
        match Event.thread_instance (Computation.event comp h) name with
        | Some i -> S.add i acc
        | None -> acc)
      S.empty (Computation.all_events comp)
  in
  S.elements s

let events_of_instance comp name inst =
  List.filter
    (fun h -> Event.thread_instance (Computation.event comp h) name = Some inst)
    (Computation.all_events comp)
