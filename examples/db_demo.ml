(* The distributed database update application (paper sec. 11): timestamped
   updates propagate over CSP channels; every exhaustively-explored
   execution converges and none deadlocks.

   Run with: dune exec examples/db_demo.exe *)

open Gem

let () =
  let sites = 3 in
  Printf.printf "Distributed database update, %d sites, full mesh, Thomas write rule\n\n" sites;
  let program = Db_update.program ~sites in
  let outcome = Explore.explore (Csp.lang program) in
  Printf.printf "distinct computations: %d, deadlocks: %d\n"
    (List.length outcome.Explore.computations)
    (List.length outcome.Explore.deadlocks);

  let spec = Csp.language_spec ~name:"db-update" program in
  let converge = Db_update.convergence in
  let to_max = Db_update.converges_to ~sites in
  let all_ok =
    List.for_all
      (fun comp -> Check.holds spec comp Formula.(converge &&& to_max))
      outcome.Explore.computations
  in
  Printf.printf "all executions converge to the newest update (%d): %b\n" (100 + sites)
    all_ok;

  match outcome.Explore.computations with
  | comp :: _ ->
      let finals = Computation.events_of_class comp "Final" in
      Printf.printf "\nfinal values in one computation:\n";
      List.iter
        (fun h ->
          let e = Computation.event comp h in
          Format.printf "  %s: %a@." e.Event.id.element Value.pp (Event.param e "p0"))
        finals
  | [] -> ()
