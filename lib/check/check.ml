module F = Gem_logic.Formula
module Eval = Gem_logic.Eval
module Lattice = Gem_logic.Lattice
module Vhs = Gem_logic.Vhs
module Spec = Gem_spec.Spec
module Legality = Gem_spec.Legality

exception Restriction_error of { restriction : string; message : string }

let restriction_error_message ~restriction ~message =
  Printf.sprintf "restriction %s: %s" restriction message

(* Evaluation errors of a restriction (an unknown parameter, a type
   mismatch) carry the restriction's name out of the checker. *)
let guarded restriction f x =
  try f x with Eval.Error message -> raise (Restriction_error { restriction; message })

(* Which runs a strategy enumerates, when they are paths of the history
   lattice. A sample is not a set of paths the lattice can stand for. *)
let lattice_runs = function
  | Strategy.Linearizations _ -> Some Lattice.One_event_steps
  | Strategy.Exhaustive_vhs _ -> Some Lattice.Antichain_steps
  | Strategy.Sampled _ -> None

type lattice = Built of Gem_logic.History.lattice | Too_big | Stopped of Budget.reason

(* The lattice is built only while it holds at most as many histories as
   the capped enumeration would (cap x (events + 1)); an exhausted budget
   stops it before or during the build. *)
let build_lattice ?budget strategy comp =
  let stopped () = Option.bind budget Budget.exhausted in
  match stopped () with
  | Some reason -> Stopped reason
  | None -> (
      let per_run = Gem_model.Computation.n_events comp + 1 in
      let cap =
        match Strategy.cap ?budget strategy with
        | Some c when c <= max_int / per_run -> Some (c * per_run)
        | Some _ | None -> None
      in
      match Lattice.build ?cap ~stop:(fun () -> stopped () <> None) comp with
      | Some l -> Built l
      | None -> ( match stopped () with Some reason -> Stopped reason | None -> Too_big))

(* A lattice refutation becomes a witness only once the run semantics
   refutes it too; it then counts as the one run checked. *)
let confirm comp f events =
  match Vhs.of_linearization comp events with
  | Some run when not (Eval.eval_run run f) ->
      Gem_obs.Telemetry.(hit Runs_enumerated);
      Some run
  | Some _ | None -> None

let check_restrictions ?budget ~strategy ~spec_name comp restrictions =
  let immediate, temporal = List.partition (fun (_, f) -> F.is_immediate f) restrictions in
  let failures = ref [] in
  let fail name f witness =
    failures := { Verdict.restriction = name; formula = f; witness } :: !failures
  in
  List.iter
    (fun (name, f) ->
      if not (guarded name (Eval.eval_computation comp) f) then fail name f None)
    immediate;
  let runs_checked = ref 0 in
  let exhaustion = ref None in
  let complete = ref true in
  let runs = lattice_runs strategy in
  let on_lattice, enumerated =
    match runs with
    | Some runs ->
        List.partition (fun (name, f) -> guarded name (Lattice.decides runs) f) temporal
    | None -> ([], temporal)
  in
  let enumerated =
    if on_lattice = [] then enumerated
    else
      match build_lattice ?budget strategy comp with
      | Stopped reason ->
          exhaustion := Some reason;
          complete := false;
          []
      | Too_big -> temporal
      | Built l ->
          complete := runs = Some Lattice.Antichain_steps;
          let unconfirmed =
            List.filter
              (fun (name, f) ->
                match guarded name (Lattice.refute l) f with
                | None -> false
                | Some events -> (
                    match guarded name (confirm comp f) events with
                    | Some run ->
                        incr runs_checked;
                        fail name f (Some run);
                        false
                    | None -> true))
              on_lattice
          in
          unconfirmed @ enumerated
  in
  if enumerated <> [] then begin
    let enum = Strategy.enumerate ?budget strategy comp in
    complete := enum.Strategy.complete;
    (* The cap is per enumeration, so it is counted here, once per
       capped enumeration, and not noted on the shared budget: a sticky
       stop there would halt every remaining computation. *)
    (match enum.Strategy.truncated_at with
    | Some cap ->
        exhaustion := Some (Budget.Run_cap cap);
        Gem_obs.Telemetry.(hit Budget_stop_runs)
    | None -> ());
    let pending =
      ref
        (Gem_obs.Telemetry.(time Formula_eval) @@ fun () ->
         List.map (fun (name, f) -> (name, f, guarded name (Eval.ground comp) f)) enumerated)
    in
    (try
       List.iter
         (fun run ->
           (match budget with
           | Some b when not (Budget.charge_run b) ->
               exhaustion := Budget.exhausted b;
               raise Exit
           | _ -> ());
           incr runs_checked;
           Gem_obs.Telemetry.(hit Runs_enumerated);
           pending :=
             List.filter
               (fun (name, f, g) ->
                 guarded name (Eval.eval_ground_run run) g
                 || begin
                      fail name f (Some run);
                      false
                    end)
               !pending;
           if !pending = [] then raise Exit)
         enum.Strategy.runs
     with Exit -> ())
  end;
  {
    Verdict.spec_name;
    legality = [];
    failures = List.rev !failures;
    runs_checked = !runs_checked;
    complete = !complete;
    exhaustion = !exhaustion;
    coverage =
      {
        Budget.full_coverage with
        Budget.runs_enumerated = !runs_checked;
        runs_complete = !complete;
      };
  }

type prepared = Illegal of Legality.violation list | Legal of Gem_model.Computation.t

let prepare spec comp =
  match Legality.check spec comp with
  | [] -> Legal (Spec.label_threads spec comp)
  | violations -> Illegal violations

(* The verdict is named after the spec being checked, not the one the
   computation was prepared with: the two may differ in name. *)
let evaluate ~strategy ?budget spec prepared restrictions =
  match prepared with
  | Illegal violations -> Verdict.legal_verdict ~spec_name:spec.Spec.spec_name violations
  | Legal comp ->
      check_restrictions ?budget ~strategy ~spec_name:spec.Spec.spec_name comp restrictions

let check_prepared ?(strategy = Strategy.default) ?budget spec prepared =
  evaluate ~strategy ?budget spec prepared (Spec.all_restrictions spec)

let check ?strategy ?budget spec comp =
  check_prepared ?strategy ?budget spec (prepare spec comp)

(* A restriction that cannot be evaluated stops the batch with the error
   of the first failing computation in list order, whatever [jobs] is: a
   computation after the first failure found so far is skipped, and every
   one before it is still checked. *)
let map_checked ?jobs f comps =
  let first = Atomic.make max_int in
  let rec lower i =
    let j = Atomic.get first in
    if i < j && not (Atomic.compare_and_set first j i) then lower i
  in
  let results =
    Par.mapi ?jobs
      (fun i comp ->
        if i > Atomic.get first then None
        else
          match f comp with
          | v -> Some (Ok v)
          | exception (Restriction_error _ as e) ->
              lower i;
              Some (Error e))
      comps
  in
  List.map
    (function Some (Ok v) -> v | Some (Error e) -> raise e | None -> assert false)
    results

let check_all ?strategy ?budget ?jobs spec comps =
  map_checked ?jobs (fun comp -> check ?strategy ?budget spec comp) comps

let check_formula ?(strategy = Strategy.default) ?budget spec comp ~name f =
  evaluate ~strategy ?budget spec (prepare spec comp) [ (name, f) ]

let holds ?strategy ?budget spec comp f =
  Verdict.ok (check_formula ?strategy ?budget spec comp ~name:"property" f)
