module Vhs = Gem_logic.Vhs

type t =
  | Exhaustive_vhs of int option
  | Linearizations of int option
  | Sampled of { seed : int; count : int }

let default = Exhaustive_vhs (Some 20_000)
let default_run_cap = 400

let of_budget budget =
  Linearizations (Some (Option.value ~default:default_run_cap (Budget.max_runs budget)))

type enumeration = {
  runs : Vhs.t list;
  truncated_at : int option;
  complete : bool;
}

let min_opt a b =
  match (a, b) with
  | None, c | c, None -> c
  | Some a, Some b -> Some (min a b)

(* Enumerate one run past the cap: getting cap+1 runs proves truncation,
   getting <= cap proves the cap did not drop anything. The enumerators
   stop lazily at their limit, so the probe costs one extra run. *)
let capped enum cap comp =
  match cap with
  | None -> (enum ?limit:None comp, None)
  | Some cap -> (
      match enum ?limit:(Some (cap + 1)) comp with
      | runs when List.length runs > cap ->
          (List.filteri (fun i _ -> i < cap) runs, Some cap)
      | runs -> (runs, None))

let cap ?budget t =
  let tighten cap = min_opt cap (Option.bind budget Budget.max_runs) in
  match t with
  | Exhaustive_vhs limit | Linearizations limit -> tighten limit
  | Sampled { count; _ } -> tighten (Some count)

let enumerate ?budget t comp =
  match t with
  | Exhaustive_vhs _ ->
      let runs, truncated_at = capped Vhs.all (cap ?budget t) comp in
      { runs; truncated_at; complete = truncated_at = None }
  | Linearizations _ ->
      let runs, truncated_at = capped Vhs.all_linearizations (cap ?budget t) comp in
      { runs; truncated_at; complete = false }
  | Sampled { seed; _ } ->
      let rng = Random.State.make [| seed |] in
      let count = Option.get (cap ?budget t) in
      { runs = List.init count (fun _ -> Vhs.sample rng comp); truncated_at = None;
        complete = false }

let runs t comp = (enumerate t comp).runs

let is_complete t comp =
  match t with
  | Exhaustive_vhs None -> true
  | Exhaustive_vhs (Some cap) -> Vhs.count ~cap:(cap + 1) comp <= cap
  | Linearizations _ | Sampled _ -> false

let pp ppf = function
  | Exhaustive_vhs None -> Format.fprintf ppf "exhaustive-vhs"
  | Exhaustive_vhs (Some n) -> Format.fprintf ppf "exhaustive-vhs(<=%d)" n
  | Linearizations None -> Format.fprintf ppf "linearizations"
  | Linearizations (Some n) -> Format.fprintf ppf "linearizations(<=%d)" n
  | Sampled { seed; count } -> Format.fprintf ppf "sampled(seed=%d,n=%d)" seed count
