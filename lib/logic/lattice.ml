module Telemetry = Gem_obs.Telemetry
open Formula

type runs = One_event_steps | Antichain_steps

(* The fragment, with its immediate subformulas marked once. *)
type frag =
  | Imm of Formula.t
  | Conj of frag list
  | All of string * domain * frag
  | Imp of Formula.t * frag
  | Always of frag
  | Finally of Formula.t

let rec fragment runs f =
  if is_immediate f then Some (Imm f)
  else
    match f with
    | And fs ->
        let parts = List.filter_map (fragment runs) fs in
        if List.compare_lengths parts fs = 0 then Some (Conj parts) else None
    | Forall (x, d, body) -> Option.map (fun b -> All (x, d, b)) (fragment runs body)
    | Implies (p, body) when is_immediate p ->
        Option.map (fun b -> Imp (p, b)) (fragment runs body)
    | Henceforth body -> Option.map (fun b -> Always b) (fragment runs body)
    | Eventually p when runs = One_event_steps && is_immediate p -> Some (Finally p)
    | _ -> None

let decides runs f = Option.is_some (fragment runs f)

let build ?cap ?stop comp =
  Telemetry.(time Run_enum) @@ fun () ->
  let l = History.lattice ?cap ?stop comp in
  Option.iter
    (fun l -> Telemetry.(add Lattice_histories) (Array.length l.History.histories))
    l;
  l

(* A subformula under one variable binding: [holds i] is its value on
   every maximal path from history [i]; [refute i], when it does not
   hold, is the events of a path from [i] to the top on which it fails. *)
type node = { holds : int -> bool; refute : int -> int list }

(* A value per history, computed on demand from the values above it.
   Edges go to higher indices, so the recursion ends at the top. The
   table is allocated on first use: most bindings under an implication
   never reach their temporal body. *)
let memoized n step =
  let memo = ref Bytes.empty in
  let rec holds i =
    if Bytes.length !memo = 0 then memo := Bytes.make n '\000';
    match Bytes.get !memo i with
    | '\001' -> false
    | '\002' -> true
    | _ ->
        let v = step holds i in
        Bytes.set !memo i (if v then '\002' else '\001');
        v
  in
  holds

let compile (l : History.lattice) frag =
  let hs = l.History.histories and succs = l.History.succs in
  let comp = History.computation hs.(0) in
  let rec to_top i = match succs.(i) with [] -> [] | (e, j) :: _ -> e :: to_top j in
  let all_succs holds i = List.for_all (fun (_, j) -> holds j) succs.(i) in
  let all_of cs =
    {
      holds = (fun i -> List.for_all (fun c -> c.holds i) cs);
      refute = (fun i -> (List.find (fun c -> not (c.holds i)) cs).refute i);
    }
  in
  let rec go env = function
    | Imm p -> { holds = (fun i -> Eval.eval_history hs.(i) env p); refute = to_top }
    | Conj fs -> all_of (List.map (go env) fs)
    | All (x, d, body) ->
        all_of (List.map (fun h -> go ((x, h) :: env) body) (Eval.domain_events comp d))
    | Imp (p, body) ->
        let c = go env body in
        {
          holds = (fun i -> (not (Eval.eval_history hs.(i) env p)) || c.holds i);
          refute = c.refute;
        }
    | Always body ->
        (* AG: the body here and everywhere above. *)
        let c = go env body in
        let holds =
          memoized (Array.length hs) (fun holds i -> c.holds i && all_succs holds i)
        in
        let rec refute i =
          if not (c.holds i) then c.refute i
          else
            let e, j = List.find (fun (_, j) -> not (holds j)) succs.(i) in
            e :: refute j
        in
        { holds; refute }
    | Finally p ->
        (* AF: p here, or else on every path on; a run ends at the top. *)
        let holds =
          memoized (Array.length hs) (fun holds i ->
              Eval.eval_history hs.(i) env p || (succs.(i) <> [] && all_succs holds i))
        in
        let rec refute i =
          match List.find_opt (fun (_, j) -> not (holds j)) succs.(i) with
          | Some (e, j) -> e :: refute j
          | None -> []
        in
        { holds; refute }
  in
  go [] frag

let refute l f =
  match fragment One_event_steps f with
  | None -> invalid_arg "Lattice.refute: formula outside the fragment"
  | Some frag ->
      Telemetry.(hit Formula_evals);
      Telemetry.(time Formula_eval) @@ fun () ->
      let top = compile l frag in
      if top.holds 0 then None else Some (top.refute 0)
