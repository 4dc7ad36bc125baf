(* A CSP bounded-buffer pipeline: producers -> buffer process -> consumers,
   in Hoare's guarded-command style, verified against the bounded-buffer
   problem specification and CSP's own GEM description.

   Run with: dune exec examples/csp_pipeline.exe *)

open Gem

let () =
  let capacity = 2 and producers = 2 and consumers = 1 and items_each = 1 in
  Printf.printf "CSP bounded buffer: capacity=%d, %d producers x %d items, %d consumer\n\n"
    capacity producers items_each consumers;
  let program = Buffer_problem.csp_solution ~capacity ~producers ~consumers ~items_each in
  let outcome = Explore.explore (Csp.lang program) in
  Printf.printf "schedules explored: %d distinct computations, %d deadlocks\n"
    (List.length outcome.Explore.computations)
    (List.length outcome.Explore.deadlocks);

  (* Every computation satisfies CSP's own semantics restrictions
     (simultaneity of I/O exchange, matching, value transfer). *)
  let lang_spec = Csp.language_spec program in
  let lang_ok =
    List.for_all
      (fun comp -> Verdict.ok (Check.check lang_spec comp))
      outcome.Explore.computations
  in
  Printf.printf "CSP language restrictions (io-simultaneity, matching, value): %s\n"
    (if lang_ok then "SAT" else "VIOLATED");

  (* And refines the bounded-buffer problem. *)
  let problem = Buffer_problem.spec ~capacity in
  let ok =
    Refine.sat_ok
      ~strategy:(Strategy.Linearizations (Some 200))
      ~problem ~map:Buffer_problem.csp_correspondence outcome.Explore.computations
  in
  Printf.printf "bounded-buffer-%d problem (value-fifo + capacity): %s\n" capacity
    (if ok then "SAT" else "VIOLATED");

  (* Show one computation. *)
  match outcome.Explore.computations with
  | comp :: _ ->
      Printf.printf "\nfirst computation (%d events):\n" (Computation.n_events comp);
      Format.printf "%a@." Computation.pp comp
  | [] -> ()
