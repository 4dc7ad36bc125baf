(* The fuzzing subsystem under test: deterministic instance streams, the
   loop-free termination guarantee, lossless corpus round-trips, the
   committed reproducer corpus replayed across the full engine lattice,
   1-minimality of the greedy shrinker, and a bounded driver run that
   must find zero disagreements.

   The corpus replay is the regression ratchet: every shrunk reproducer
   a past fuzz run wrote (plus the hand-seeded edge cases) re-runs
   through Oracle.check on every dune runtest, so a disagreement fixed
   once can never silently come back. *)

module Fuzz = Gem.Fuzz
module Case = Fuzz.Case
module Gen = Fuzz.Gen
module Oracle = Fuzz.Oracle
module Shrink = Fuzz.Shrink
module Corpus = Fuzz.Corpus
module Driver = Fuzz.Driver

let check = Alcotest.check

(* Tests run from _build/default/test; the committed corpus lives at the
   workspace root (same resolution dance as test_syntax.ml). *)
let corpus_dir =
  if Sys.file_exists "../../../fuzz/corpus" then "../../../fuzz/corpus"
  else "fuzz/corpus"

(* ---- determinism ---- *)

let test_instance_deterministic () =
  for index = 0 to 8 do
    let a = Gen.instance ~seed:7 ~index and b = Gen.instance ~seed:7 ~index in
    check Alcotest.string "same (seed, index) -> same program" (Case.to_string a)
      (Case.to_string b);
    let f1 = Gen.formula_for ~seed:7 ~index and f2 = Gen.formula_for ~seed:7 ~index in
    check Alcotest.string "same (seed, index) -> same formula"
      (Format.asprintf "%a" Gem.Formula.pp f1)
      (Format.asprintf "%a" Gem.Formula.pp f2)
  done

let test_instance_seed_sensitive () =
  (* Not every index need differ, but across a handful of indices two
     seeds must diverge somewhere. *)
  let render seed =
    String.concat "\n"
      (List.init 9 (fun index -> Case.to_string (Gen.instance ~seed ~index)))
  in
  check Alcotest.bool "different seeds -> different stream" true
    (render 1 <> render 2)

let test_instance_language_rotation () =
  List.iter
    (fun (index, lang) ->
      let c = Gen.instance ~seed:3 ~index in
      check Alcotest.string
        (Printf.sprintf "index %d language" index)
        lang (Case.lang c.Case.prog))
    [ (0, "csp"); (1, "monitor"); (2, "ada"); (3, "csp"); (4, "monitor"); (5, "ada") ]

let test_generated_loop_free () =
  for index = 0 to 29 do
    let c = Gen.instance ~seed:11 ~index in
    check Alcotest.bool
      (Printf.sprintf "instance %d loop-free" index)
      true
      (Case.loop_free c.Case.prog)
  done

let test_formulas_immediate () =
  for index = 0 to 29 do
    let f = Gen.formula_for ~seed:11 ~index in
    check Alcotest.bool
      (Printf.sprintf "formula %d immediate" index)
      true (Gem.Formula.is_immediate f)
  done

(* ---- corpus codec ---- *)

let test_roundtrip_generated () =
  for index = 0 to 17 do
    let c = Gen.instance ~seed:23 ~index in
    match Corpus.decode (Corpus.encode c) with
    | Error m -> Alcotest.failf "instance %d did not round-trip: %s" index m
    | Ok c' ->
        check Alcotest.bool
          (Printf.sprintf "instance %d round-trips losslessly" index)
          true
          (c'.Case.name = c.Case.name && c'.Case.prog = c.Case.prog)
  done

let test_decode_rejects_garbage () =
  let reject what s =
    match Corpus.decode s with
    | Ok _ -> Alcotest.failf "decoder accepted %s" what
    | Error _ -> ()
  in
  reject "empty input" "";
  reject "bad version" "(gemfuzz 99 (case x (csp)))";
  reject "unknown node" "(gemfuzz 1 (case x (csp (process P0 (locals) (seq (zap))))))";
  reject "trailing input" "(gemfuzz 1 (case x (csp))) extra"

(* ---- committed corpus replay: the whole lattice must agree ---- *)

let test_corpus_replay () =
  let entries = Corpus.load_dir corpus_dir in
  check Alcotest.bool
    (Printf.sprintf "corpus present under %s" corpus_dir)
    true
    (List.length entries >= 4);
  List.iter
    (fun (path, parsed) ->
      match parsed with
      | Error m -> Alcotest.failf "%s does not parse: %s" path m
      | Ok case -> (
          match Oracle.check case.Case.prog with
          | Ok _ -> ()
          | Error d ->
              Alcotest.failf "%s disagrees: %a" path Oracle.pp_disagreement d))
    entries

let find_case name entries =
  match
    List.find_opt
      (fun (_, parsed) ->
        match parsed with Ok c -> c.Case.name = name | Error _ -> false)
      entries
  with
  | Some (_, Ok c) -> c
  | _ -> Alcotest.failf "corpus case %s missing" name

let test_corpus_deadlock_leaf () =
  let case = find_case "csp-deadlock-leaf" (Corpus.load_dir corpus_dir) in
  let _, deadlocks = Oracle.skeys case.Case.prog Oracle.baseline in
  check Alcotest.bool "mutual send deadlocks" true (deadlocks <> [])

let test_corpus_bitstate_downgrade () =
  let case = find_case "csp-bitstate-downgrade" (Corpus.load_dir corpus_dir) in
  match Case.(case.prog) with
  | Case.P_csp program ->
      let bitstate =
        { Gem.Explore.no_resilience with
          bitstate = Some (Gem.Bitstate.create ~bits:16 ())
        }
      in
      let o = Gem.Csp.explore ~resilience:bitstate program in
      check
        Alcotest.(option string)
        "bitstate run downgrades"
        (Some "bitstate-collision-risk")
        (Option.map Gem.Budget.reason_keyword o.Gem.Csp.exhausted)
  | _ -> Alcotest.fail "csp-bitstate-downgrade is not a CSP case"

(* The hand-seeded source-DPOR case: rendezvous chains racing against
   independent processes, the shape the source engine reduces hardest.
   The source cell must reproduce the baseline's completed/deadlocked
   fingerprint multisets exactly. *)
let test_corpus_source_dpor () =
  let case = find_case "csp-source-dpor" (Corpus.load_dir corpus_dir) in
  let base_comps, base_deads = Oracle.skeys case.Case.prog Oracle.baseline in
  check Alcotest.bool "the seed explores to completion" true (base_comps <> []);
  let source_cells =
    List.filter (fun c -> c.Oracle.reduction = Gem.Explore.Source_sets) Oracle.lattice
  in
  check Alcotest.int "one source-DPOR cell in the lattice" 1
    (List.length source_cells);
  List.iter
    (fun cell ->
      let comps, deads = Oracle.skeys case.Case.prog cell in
      let name = Oracle.cell_name cell in
      check
        Alcotest.(list string)
        (name ^ ": completed multiset matches baseline")
        base_comps comps;
      check
        Alcotest.(list string)
        (name ^ ": deadlock multiset matches baseline")
        base_deads deads)
    source_cells

(* ---- shrinker ---- *)

let test_shrink_candidates_well_formed () =
  for index = 0 to 11 do
    let c = Gen.instance ~seed:31 ~index in
    List.iter
      (fun cand ->
        check Alcotest.bool "candidate stays loop-free" true (Case.loop_free cand);
        check Alcotest.bool "candidate explores without raising" true
          (let _ = Oracle.skeys cand Oracle.baseline in
           true))
      (Shrink.candidates c.Case.prog)
  done

(* Minimize under a synthetic predicate; the result must satisfy it and
   be 1-minimal (no candidate of the result still satisfies it). *)
let test_shrink_minimal () =
  let has_mark prog =
    (* cheap syntactic predicate: the rendered program mentions a marker *)
    let s = Case.prog_to_string prog in
    let contains hay needle =
      let lh = String.length hay and ln = String.length needle in
      let rec go i = i + ln <= lh && (String.sub hay i ln = needle || go (i + 1)) in
      ln = 0 || go 0
    in
    contains s "mark"
  in
  let tried = ref 0 in
  let minimized = ref 0 in
  for index = 0 to 11 do
    let c = Gen.instance ~seed:37 ~index in
    if has_mark c.Case.prog then begin
      incr tried;
      let small, steps = Shrink.minimize has_mark c.Case.prog in
      check Alcotest.bool "result satisfies the predicate" true (has_mark small);
      check Alcotest.bool "no candidate still satisfies it" true
        (not (List.exists has_mark (Shrink.candidates small)));
      if steps > 0 then incr minimized;
      check Alcotest.bool "size never grows" true
        (Case.size small <= Case.size c.Case.prog)
    end
  done;
  check Alcotest.bool "predicate exercised" true (!tried > 0);
  check Alcotest.bool "shrinking actually shrank something" true (!minimized > 0)

(* ---- driver smoke ---- *)

let test_driver_agrees () =
  let o = Driver.run ~seed:5 ~iters:9 () in
  check Alcotest.int "all instances ran" 9 o.Driver.o_ran;
  check Alcotest.bool "no disagreement" true (o.Driver.o_failure = None);
  check Alcotest.int "lattice size" 9 o.Driver.o_cells;
  check Alcotest.bool "explored counted" true (o.Driver.o_explored > 0)

let test_driver_time_budget () =
  let o = Driver.run ~time_budget:0. ~seed:5 ~iters:1000 () in
  check Alcotest.int "zero budget runs zero instances" 0 o.Driver.o_ran;
  check Alcotest.bool "and agrees vacuously" true (o.Driver.o_failure = None)

let () =
  Alcotest.run "fuzz"
    [
      ( "determinism",
        [
          Alcotest.test_case "same seed, same instance" `Quick
            test_instance_deterministic;
          Alcotest.test_case "different seeds diverge" `Quick
            test_instance_seed_sensitive;
          Alcotest.test_case "language rotation" `Quick test_instance_language_rotation;
        ] );
      ( "generators",
        [
          Alcotest.test_case "loop-free guarantee" `Quick test_generated_loop_free;
          Alcotest.test_case "formulas immediate" `Quick test_formulas_immediate;
        ] );
      ( "corpus",
        [
          Alcotest.test_case "round-trip generated cases" `Quick test_roundtrip_generated;
          Alcotest.test_case "decoder rejects garbage" `Quick test_decode_rejects_garbage;
          Alcotest.test_case "replay across the lattice" `Slow test_corpus_replay;
          Alcotest.test_case "deadlock leaf deadlocks" `Quick test_corpus_deadlock_leaf;
          Alcotest.test_case "bitstate downgrade" `Quick test_corpus_bitstate_downgrade;
          Alcotest.test_case "source-dpor seed" `Quick test_corpus_source_dpor;
        ] );
      ( "shrinker",
        [
          Alcotest.test_case "candidates well-formed" `Quick
            test_shrink_candidates_well_formed;
          Alcotest.test_case "greedy 1-minimality" `Quick test_shrink_minimal;
        ] );
      ( "driver",
        [
          Alcotest.test_case "bounded run agrees" `Slow test_driver_agrees;
          Alcotest.test_case "zero time budget" `Quick test_driver_time_budget;
        ] );
    ]
