(* The differential oracle over the engine-configuration lattice. *)

module Csp = Gem_lang.Csp
module Monitor = Gem_lang.Monitor
module Ada = Gem_lang.Ada
module Explore = Gem_lang.Explore
module Budget = Gem_check.Budget
module Bitstate = Gem_check.Bitstate
module Check = Gem_check.Check

type cell = { reduction : Explore.reduction; exact : bool; bitstate : bool }

let baseline = { reduction = Explore.Sleep_sets; exact = true; bitstate = false }

(* The core grid is {plain, sleep} x {fp, exact} x {unbounded, bitstate};
   two source-DPOR cells ride along, with the exact seen table and with a
   bitstate one, so every fuzz run differentially tests source against
   the baseline under both stores. *)
let lattice =
  (baseline
  :: List.filter
       (fun c -> c <> baseline)
       (List.concat_map
          (fun reduction ->
            List.concat_map
              (fun exact ->
                List.map (fun bitstate -> { reduction; exact; bitstate }) [ false; true ])
              [ true; false ])
          [ Explore.Sleep_sets; Explore.No_reduction ]))
  @ List.map
      (fun bitstate -> { reduction = Explore.Source_sets; exact = false; bitstate })
      [ false; true ]

let cell_name c =
  Printf.sprintf "reduction=%s keys=%s seen=%s"
    (Explore.reduction_name c.reduction)
    (if c.exact then "exact" else "fp")
    (if c.bitstate then "bitstate" else "unbounded")

type run = {
  r_completed : string list;  (* canonical fps, sorted: a multiset *)
  r_deadlocked : string list;
  r_exhausted : string option;
  r_verdicts : (string * bool) list;  (* per completed computation, sorted *)
  r_explored : int;
}

type disagreement = {
  d_cell : cell;
  d_kind : string;
  d_expected : string;
  d_actual : string;
}

let pp_disagreement ppf d =
  Format.fprintf ppf "[%s] %s: expected %s, got %s" (cell_name d.d_cell) d.d_kind
    d.d_expected d.d_actual

(* Bitstate tables are tiny (2^16 slots = 1 MiB) but ample for generated
   programs, so in practice the subset comparisons are equalities; the
   contract the oracle enforces is only the subset. *)
let resilience_of c =
  {
    Explore.no_resilience with
    Explore.bitstate =
      (if c.bitstate then Some (Bitstate.create ~bits:16 ()) else None);
  }

let explore_cell ~max_configs c prog =
  let explore lang =
    Explore.explore ~reduction:c.reduction ~exact_keys:c.exact ~audit_keys:false
      ~max_configs ~resilience:(resilience_of c) lang
  in
  match prog with
  | Case.P_csp p -> explore (Csp.lang p)
  | Case.P_monitor p -> explore (Monitor.lang p)
  | Case.P_ada p -> explore (Ada.lang p)

let language_spec = function
  | Case.P_csp p -> Csp.language_spec p
  | Case.P_monitor p -> Monitor.language_spec p
  | Case.P_ada p -> Ada.language_spec p

let fps comps = List.sort compare (List.map Explore.fingerprint comps)

let run_cell ~max_configs ~spec ~formula c prog =
  let { Explore.computations = comps; deadlocks = deads; exhausted; explored; _ } =
    explore_cell ~max_configs c prog
  in
  let verdicts =
    match (formula, spec) with
    | Some f, Some spec ->
        List.sort compare
          (List.map (fun comp -> (Explore.fingerprint comp, Check.holds spec comp f)) comps)
    | _ -> []
  in
  {
    r_completed = fps comps;
    r_deadlocked = fps deads;
    r_exhausted = Option.map Budget.reason_keyword exhausted;
    r_verdicts = verdicts;
    r_explored = explored;
  }

let show_multiset fps = Printf.sprintf "{%d: %s}" (List.length fps) (String.concat "," (List.map (fun f -> String.sub f 0 (min 12 (String.length f))) fps))

let show_exhausted = function None -> "none" | Some r -> r

let show_verdicts vs =
  Printf.sprintf "{%s}"
    (String.concat ","
       (List.map
          (fun (f, b) ->
            Printf.sprintf "%s=%b" (String.sub f 0 (min 12 (String.length f))) b)
          vs))

let subset xs ys = List.for_all (fun x -> List.mem x ys) xs

let compare_runs ~base c r : disagreement option =
  let fail kind expected actual =
    Some { d_cell = c; d_kind = kind; d_expected = expected; d_actual = actual }
  in
  if not c.bitstate then
    if r.r_completed <> base.r_completed then
      fail "completed" (show_multiset base.r_completed) (show_multiset r.r_completed)
    else if r.r_deadlocked <> base.r_deadlocked then
      fail "deadlocks" (show_multiset base.r_deadlocked) (show_multiset r.r_deadlocked)
    else if r.r_exhausted <> base.r_exhausted then
      fail "exhausted" (show_exhausted base.r_exhausted) (show_exhausted r.r_exhausted)
    else if r.r_verdicts <> base.r_verdicts then
      fail "verdicts" (show_verdicts base.r_verdicts) (show_verdicts r.r_verdicts)
    else None
  else
    (* Lossy mode: a clean sweep is unconditionally downgraded, and
       whatever it did find must be a subset of the clean baseline. *)
    let setify l = List.sort_uniq compare l in
    if r.r_exhausted <> Some "bitstate-collision-risk" then
      fail "exhausted" "bitstate-collision-risk" (show_exhausted r.r_exhausted)
    else if not (subset (setify r.r_completed) (setify base.r_completed)) then
      fail "completed-subset" (show_multiset base.r_completed) (show_multiset r.r_completed)
    else if not (subset (setify r.r_deadlocked) (setify base.r_deadlocked)) then
      fail "deadlocks-subset" (show_multiset base.r_deadlocked)
        (show_multiset r.r_deadlocked)
    else if not (subset (setify r.r_verdicts) (setify base.r_verdicts)) then
      fail "verdicts-subset" (show_verdicts base.r_verdicts) (show_verdicts r.r_verdicts)
    else None

let check ?(max_configs = 1_000_000) ?formula prog =
  let spec =
    match formula with None -> None | Some _ -> Some (language_spec prog)
  in
  let guarded c f =
    try Ok (f ()) with
    | e ->
        Error
          {
            d_cell = c;
            d_kind = "exception";
            d_expected = "a verdict";
            d_actual = Printexc.to_string e;
          }
  in
  match guarded baseline (fun () -> run_cell ~max_configs ~spec ~formula baseline prog) with
  | Error d -> Error d
  | Ok base when base.r_exhausted <> None -> Ok 0
  | Ok base ->
      let rec go explored = function
        | [] -> Ok explored
        | c :: rest -> (
            match guarded c (fun () -> run_cell ~max_configs ~spec ~formula c prog) with
            | Error d -> Error d
            | Ok r -> (
                match compare_runs ~base c r with
                | Some d -> Error d
                | None -> go (explored + r.r_explored) rest))
      in
      go base.r_explored (List.tl lattice)

let skeys prog c =
  let o = explore_cell ~max_configs:1_000_000 c prog in
  (fps o.Explore.computations, fps o.Explore.deadlocks)
