(* The paper's §9 case study, mechanized: the ReadersWriters monitor is
   explored exhaustively and verified against all five versions of the
   Readers/Writers problem specification; mutated monitors are refuted.

   Run with: dune exec examples/readers_writers_demo.exe *)

open Gem
module RW = Readers_writers

let strategy = Strategy.Linearizations (Some 400)

let verdict_of monitor version ~readers ~writers =
  let program = RW.program ~monitor ~readers ~writers in
  let outcome = Explore.explore (Monitor.lang program) in
  let problem = RW.spec version ~users:(RW.user_names ~readers ~writers) in
  let ok =
    Refine.sat_ok ~strategy ~edges:Refine.Actor_paths ~problem ~map:RW.correspondence
      outcome.Explore.computations
  in
  (List.length outcome.Explore.computations, List.length outcome.Explore.deadlocks, ok)

let () =
  let readers = 2 and writers = 1 in
  Printf.printf "Readers/Writers, %d readers + %d writer, exhaustive schedules\n\n" readers
    writers;
  let monitors =
    [
      ("paper-monitor (sec. 9)", RW.paper_monitor);
      ("writers-priority", RW.writers_priority_monitor);
      ("buggy-wakeup", RW.buggy_monitor);
      ("no-exclusion", RW.no_exclusion_monitor);
    ]
  in
  Printf.printf "%-24s %-22s %6s %5s  %s\n" "monitor" "problem version" "comps" "dead"
    "verdict";
  List.iter
    (fun (mname, monitor) ->
      List.iter
        (fun version ->
          let comps, dead, ok = verdict_of monitor version ~readers ~writers in
          Printf.printf "%-24s %-22s %6d %5d  %s\n%!" mname (RW.version_name version)
            comps dead
            (if ok then "SAT" else "VIOLATED"))
        RW.all_versions;
      print_newline ())
    monitors;
  (* The buggy wakeup only shows with two contending writers. *)
  Printf.printf "with 1 reader + 2 writers (exposes the buggy wakeup):\n";
  List.iter
    (fun (mname, monitor) ->
      let comps, dead, ok = verdict_of monitor RW.Readers_priority ~readers:1 ~writers:2 in
      Printf.printf "%-24s %-22s %6d %5d  %s\n%!" mname
        (RW.version_name RW.Readers_priority)
        comps dead
        (if ok then "SAT" else "VIOLATED"))
    [ ("paper-monitor (sec. 9)", RW.paper_monitor); ("buggy-wakeup", RW.buggy_monitor) ];
  print_newline ();
  print_endline
    "Expected: the paper's monitor satisfies free-for-all and readers-priority\n\
     (its sec. 9 theorem) and violates the writer-favouring versions; the\n\
     buggy variant (EndWrite wakes writers first) loses readers-priority once\n\
     two writers contend; the no-exclusion variant even loses mutual exclusion."
