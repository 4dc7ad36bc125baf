module F = Gem_logic.Formula
module Eval = Gem_logic.Eval
module Spec = Gem_spec.Spec
module Legality = Gem_spec.Legality

let check_restrictions ?budget ~strategy ~spec_name comp restrictions =
  let immediate, temporal = List.partition (fun (_, f) -> F.is_immediate f) restrictions in
  let failures = ref [] in
  List.iter
    (fun (name, f) ->
      if not (Eval.eval_computation comp f) then
        failures := { Verdict.restriction = name; formula = f; witness = None } :: !failures)
    immediate;
  let runs_checked = ref 0 in
  let exhaustion = ref None in
  let complete = ref true in
  if temporal <> [] then begin
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
    let pending = ref temporal in
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
               (fun (name, f) ->
                 if Eval.eval_run run f then true
                 else begin
                   failures :=
                     { Verdict.restriction = name; formula = f; witness = Some run }
                     :: !failures;
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

let check ?(strategy = Strategy.default) ?budget spec comp =
  let legality = Legality.check spec comp in
  if legality <> [] then Verdict.legal_verdict ~spec_name:spec.Spec.spec_name legality
  else begin
    let comp = Spec.label_threads spec comp in
    check_restrictions ?budget ~strategy ~spec_name:spec.Spec.spec_name comp
      (Spec.all_restrictions spec)
  end

let check_all ?strategy ?budget ?jobs spec comps =
  Par.map ?jobs (fun comp -> check ?strategy ?budget spec comp) comps

let check_formula ?(strategy = Strategy.default) ?budget spec comp ~name f =
  let legality = Legality.check spec comp in
  if legality <> [] then Verdict.legal_verdict ~spec_name:spec.Spec.spec_name legality
  else begin
    let comp = Spec.label_threads spec comp in
    check_restrictions ?budget ~strategy ~spec_name:spec.Spec.spec_name comp [ (name, f) ]
  end

let holds ?strategy ?budget spec comp f =
  Verdict.ok (check_formula ?strategy ?budget spec comp ~name:"property" f)
