module Telemetry = Gem_obs.Telemetry
open Formula

type runs = One_event_steps | Antichain_steps

let rec decides runs f =
  is_immediate f
  ||
  match f with
  | And fs -> List.for_all (decides runs) fs
  | Forall (_, _, body) | Henceforth body -> decides runs body
  | Implies (p, body) -> is_immediate p && decides runs body
  | Eventually p -> runs = One_event_steps && is_immediate p
  | _ -> false

let build ?cap ?stop comp =
  Telemetry.(time Run_enum) @@ fun () ->
  let l = History.lattice ?cap ?stop comp in
  Option.iter
    (fun l -> Telemetry.(add Lattice_histories) (Array.length l.History.histories))
    l;
  l

(* A part of the ground form: [holds i] is its value on every maximal
   path from history [i]; [refute i], when it does not hold, is the
   events of a path from [i] to the top on which it fails. *)
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

(* The ground form of a formula in the fragment is again in it: folding
   only replaces parts by constants, failures or immediate forms. A
   binding whose guard folds to false is gone before it gets a table. *)
let compile (l : History.lattice) g =
  let hs = l.History.histories and succs = l.History.succs in
  let rec to_top i = match succs.(i) with [] -> [] | (e, j) :: _ -> e :: to_top j in
  let all_succs holds i = List.for_all (fun (_, j) -> holds j) succs.(i) in
  let all_of cs =
    {
      holds = (fun i -> List.for_all (fun c -> c.holds i) cs);
      refute = (fun i -> (List.find (fun c -> not (c.holds i)) cs).refute i);
    }
  in
  let rec go g =
    if Ground.is_immediate g then { holds = (fun i -> Ground.holds hs.(i) g); refute = to_top }
    else
      match g with
      | Ground.And gs -> all_of (List.map go gs)
      | Ground.Implies (p, body) ->
          let c = go body in
          { holds = (fun i -> (not (Ground.holds hs.(i) p)) || c.holds i); refute = c.refute }
      | Ground.Always body ->
          (* AG: the body here and everywhere above. *)
          let c = go body in
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
      | Ground.Eventually p ->
          (* AF: p here, or else on every path on; a run ends at the top. *)
          let holds =
            memoized (Array.length hs) (fun holds i ->
                Ground.holds hs.(i) p || (succs.(i) <> [] && all_succs holds i))
          in
          let rec refute i =
            match List.find_opt (fun (_, j) -> not (holds j)) succs.(i) with
            | Some (e, j) -> e :: refute j
            | None -> []
          in
          { holds; refute }
      | _ -> invalid_arg "Lattice.compile: ground form outside the fragment"
  in
  go g

let refute l f =
  if not (decides One_event_steps f) then
    invalid_arg "Lattice.refute: formula outside the fragment";
  Telemetry.(hit Formula_evals);
  Telemetry.(time Formula_eval) @@ fun () ->
  let top = compile l (Eval.ground (History.computation l.History.histories.(0)) f) in
  if top.holds 0 then None else Some (top.refute 0)
