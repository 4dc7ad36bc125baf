module F = Gem_logic.Formula
module V = Gem_model.Value
module E = Gem_lang.Expr
module Csp = Gem_lang.Csp

let site_name i = Printf.sprintf "S%d" i

(* One site: a guarded loop that offers its own stamped update to every
   peer not yet served, and accepts any incoming update, applying the
   Thomas write rule (newest timestamp wins). The stamped update is a
   single integer [100 + i]; timestamps are the site index, so "newest"
   is simply the larger value — all replicas must converge to the maximum. *)
let site ~sites i =
  let peers = List.filter (fun j -> j <> i) (List.init sites (fun j -> j + 1)) in
  let sent_flag j = Printf.sprintf "sent%d" j in
  {
    Csp.proc_name = site_name i;
    locals =
      [ ("cur", V.Int (100 + i)); ("m", V.Int 0); ("recvd", V.Int 0) ]
      @ List.map (fun j -> (sent_flag j, V.Int 0)) peers;
    code =
      [
        Csp.CDo
          (List.map
             (fun j ->
               {
                 Csp.guard = E.Eq (E.Var (sent_flag j), E.Int 0);
                 comm = Some (Csp.Send { to_ = site_name j; value = E.Int (100 + i) });
                 body = [ Csp.CLocal (sent_flag j, E.Int 1) ];
               })
             peers
           @ List.map
               (fun j ->
                 {
                   Csp.guard = E.Lt (E.Var "recvd", E.Int (sites - 1));
                   comm = Some (Csp.Recv { from_ = site_name j; bind = "m" });
                   body =
                     [
                       Csp.CIfb
                         (E.Gt (E.Var "m", E.Var "cur"),
                          [ Csp.CLocal ("cur", E.Var "m") ],
                          []);
                       Csp.CLocal ("recvd", E.Add (E.Var "recvd", E.Int 1));
                     ];
                 })
               peers);
        Csp.CMark { klass = "Final"; params = [ E.Var "cur" ] };
      ];
  }

let program ~sites =
  if sites < 2 then invalid_arg "Db_update.program: need at least 2 sites";
  List.init sites (fun i -> site ~sites (i + 1))

let convergence =
  let open F in
  forall
    [ ("f1", Cls "Final"); ("f2", Cls "Final") ]
    (param "f1" "p0" =. param "f2" "p0")

let converges_to ~sites =
  let open F in
  forall [ ("f", Cls "Final") ] (param "f" "p0" =. const_int (100 + sites))

type report = {
  computations : int;
  deadlocks : int;
  converges : bool;
  explored : int;
  reduced : int;
  exhausted : Gem_check.Budget.reason option;
}

let check ?reduction ?exact_keys ?audit_keys ?max_configs ?budget ?jobs
    ?resilience ~sites () =
  let program = program ~sites in
  let o =
    Gem_lang.Explore.explore ?reduction ?exact_keys ?audit_keys ?max_configs ?budget
      ?resilience (Csp.lang program)
  in
  let spec = Csp.language_spec ~name:"db-update" program in
  let prop = F.conj [ convergence; converges_to ~sites ] in
  let verdicts =
    Gem_check.Par.map ?jobs
      (fun comp -> Gem_check.Check.check_formula ?budget spec comp ~name:"convergence" prop)
      o.Gem_lang.Explore.computations
  in
  let exhausted =
    match o.exhausted with
    | Some r -> Some r
    | None -> List.find_map (fun v -> v.Gem_check.Verdict.exhaustion) verdicts
  in
  {
    computations = List.length o.computations;
    deadlocks = List.length o.deadlocks;
    converges = List.for_all Gem_check.Verdict.ok verdicts;
    explored = o.explored;
    reduced = o.reduced;
    exhausted;
  }
