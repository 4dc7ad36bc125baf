(* The differential oracle over the engine-configuration lattice. *)

module Csp = Gem_lang.Csp
module Monitor = Gem_lang.Monitor
module Ada = Gem_lang.Ada
module Explore = Gem_lang.Explore
module Budget = Gem_check.Budget
module Bitstate = Gem_check.Bitstate
module Spool = Gem_check.Spool
module Check = Gem_check.Check

type cell = {
  reduction : Explore.reduction;
  exact : bool;
  bitstate : bool;
  spool : bool;
}

let baseline =
  { reduction = Explore.Sleep_sets; exact = true; bitstate = false; spool = false }

(* The core grid is {plain, sleep} x {fp, exact} x {unbounded, bitstate};
   the source-DPOR cell and the spool cell (sleep, fp keys, a frontier
   that spills from the first check on) ride along, so every fuzz run
   differentially tests both against the baseline. *)
let lattice =
  (baseline
  :: List.filter
       (fun c -> c <> baseline)
       (List.concat_map
          (fun reduction ->
            List.concat_map
              (fun exact ->
                List.map
                  (fun bitstate -> { reduction; exact; bitstate; spool = false })
                  [ false; true ])
              [ true; false ])
          [ Explore.Sleep_sets; Explore.No_reduction ]))
  @ [
      { reduction = Explore.Source_sets; exact = false; bitstate = false; spool = false };
      { reduction = Explore.Sleep_sets; exact = false; bitstate = false; spool = true };
    ]

let cell_name c =
  Printf.sprintf "reduction=%s keys=%s seen=%s frontier=%s"
    (Explore.reduction_name c.reduction)
    (if c.exact then "exact" else "fp")
    (if c.bitstate then "bitstate" else "unbounded")
    (if c.spool then "spool" else "memory")

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
    spool =
      (if c.spool then Some (Spool.policy ~chunk:2 ~watermark_mb:0 ()) else None);
  }

let explore_cell ~max_configs c prog =
  let resilience = resilience_of c in
  match prog with
  | Case.P_csp p ->
      let o =
        Csp.explore ~reduction:c.reduction ~exact_keys:c.exact ~audit_keys:false
          ~max_configs ~resilience p
      in
      (o.Csp.computations, o.Csp.deadlocks, o.Csp.exhausted, o.Csp.explored)
  | Case.P_monitor p ->
      let o =
        Monitor.explore ~reduction:c.reduction ~exact_keys:c.exact ~audit_keys:false
          ~max_configs ~resilience p
      in
      (o.Monitor.computations, o.Monitor.deadlocks, o.Monitor.exhausted, o.Monitor.explored)
  | Case.P_ada p ->
      let o =
        Ada.explore ~reduction:c.reduction ~exact_keys:c.exact ~audit_keys:false
          ~max_configs ~resilience p
      in
      (o.Ada.computations, o.Ada.deadlocks, o.Ada.exhausted, o.Ada.explored)

let language_spec = function
  | Case.P_csp p -> Csp.language_spec p
  | Case.P_monitor p -> Monitor.language_spec p
  | Case.P_ada p -> Ada.language_spec p

let fps comps = List.sort compare (List.map Explore.fingerprint comps)

let run_cell ~max_configs ~spec ~formula c prog =
  let comps, deads, exhausted, explored = explore_cell ~max_configs c prog in
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

let compare_runs ~base ~twin c r : disagreement option =
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
    else
      (* A spooled frontier only moves where pending tasks live: its walk
         must match its in-memory twin configuration by configuration. *)
      (match twin with
      | Some t when t.r_explored <> r.r_explored ->
          fail "explored" (string_of_int t.r_explored) (string_of_int r.r_explored)
      | Some _ | None -> None)
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
      let rec go done_ explored = function
        | [] -> Ok explored
        | c :: rest -> (
            match guarded c (fun () -> run_cell ~max_configs ~spec ~formula c prog) with
            | Error d -> Error d
            | Ok r -> (
                let twin =
                  if c.spool then List.assoc_opt { c with spool = false } done_
                  else None
                in
                match compare_runs ~base ~twin c r with
                | Some d -> Error d
                | None -> go ((c, r) :: done_) (explored + r.r_explored) rest))
      in
      go [ (baseline, base) ] base.r_explored (List.tl lattice)

let skeys prog c =
  let comps, deads, _, _ = explore_cell ~max_configs:1_000_000 c prog in
  (fps comps, fps deads)
