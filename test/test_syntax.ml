(* Tests for the GEM concrete syntax: lexer, formula parser (with a
   print/parse round-trip property), thread patterns, and whole
   specifications — including a transcription of the paper's Variable
   element type. *)

module F = Gem_logic.Formula
module Parser = Gem_syntax.Parser
module Lexer = Gem_syntax.Lexer
module V = Gem_model.Value
module Build = Gem_model.Build
module Etype = Gem_spec.Etype
module Spec = Gem_spec.Spec

let check = Alcotest.check

let parse_ok src =
  match Parser.parse_formula src with
  | Ok f -> f
  | Error m -> Alcotest.failf "parse error on %S: %s" src m

let roundtrip f =
  let printed = F.to_string f in
  match Parser.parse_formula printed with
  | Ok f' -> if f' = f then true else Alcotest.failf "roundtrip changed: %s" printed
  | Error m -> Alcotest.failf "roundtrip parse failed on %s: %s" printed m

(* ------------------------------------------------------------------ *)
(* Lexer                                                               *)
(* ------------------------------------------------------------------ *)

let test_lexer_operators () =
  match Lexer.tokenize "a -> b =>el c => d |> e /\\ ~f" with
  | Ok
      [ IDENT "a"; IMPLIES; IDENT "b"; ELEM_LT; IDENT "c"; TEMP_LT; IDENT "d";
        ENABLES; IDENT "e"; AND; NOT; IDENT "f"; EOF ] ->
      ()
  | Ok _ -> Alcotest.fail "wrong tokens"
  | Error e -> Alcotest.failf "lex error: %s" e.Lexer.message

let test_lexer_comments_strings () =
  match Lexer.tokenize "x -- a comment\n\"hi\\n\" -3" with
  | Ok [ IDENT "x"; STRING "hi\n"; INT (-3); EOF ] -> ()
  | Ok _ -> Alcotest.fail "wrong tokens"
  | Error e -> Alcotest.failf "lex error: %s" e.Lexer.message

let test_lexer_dashed_idents () =
  match Lexer.tokenize "readers-priority a->b" with
  | Ok [ IDENT "readers-priority"; IDENT "a"; IMPLIES; IDENT "b"; EOF ] -> ()
  | Ok _ -> Alcotest.fail "wrong tokens"
  | Error e -> Alcotest.failf "lex error: %s" e.Lexer.message

let test_lexer_errors () =
  (match Lexer.tokenize "\"unterminated" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected lex error");
  match Lexer.tokenize "a $ b" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected lex error"

(* ------------------------------------------------------------------ *)
(* Formula parsing                                                     *)
(* ------------------------------------------------------------------ *)

let test_parse_paper_variable_restriction () =
  (* The paper's Variable restriction (§8.2), in concrete syntax. *)
  let f =
    parse_ok
      "(ALL a: Var.Assign, g: Var.Getval)\n\
      \  ((a =>el g /\\ ~((EX a2: Var.Assign) (a =>el a2 /\\ a2 =>el g)))\n\
      \    -> a.newval = g.oldval)"
  in
  (* Spot-check the shape. *)
  (match f with
  | F.Forall ("a", F.Cls_at ("Var", "Assign"), F.Forall ("g", F.Cls_at ("Var", "Getval"), _))
    -> ()
  | _ -> Alcotest.fail "unexpected shape");
  check Alcotest.(list string) "no free vars" [] (F.free_vars f)

let test_parse_priority_shape () =
  let f =
    parse_ok
      "[]((ALL r: control.ReqRead, w: control.ReqWrite)\n\
      \   (r at control.StartRead /\\ w at control.StartWrite)\n\
      \   -> []((ALL sw: control.StartWrite) (occurred(sw) -> (EX sr: control.StartRead) occurred(sr))))"
  in
  check Alcotest.bool "temporal" true (not (F.is_immediate f))

let test_parse_operators_precedence () =
  (* -> binds weaker than /\ and \/; ~ binds tightest. *)
  let f = parse_ok "occurred(a) /\\ occurred(b) -> occurred(c) \\/ ~occurred(d)" in
  match f with
  | F.Implies (F.And [ _; _ ], F.Or [ _; F.Not _ ]) -> ()
  | _ -> Alcotest.failf "wrong precedence: %s" (F.to_string f)

let test_parse_quantifier_kinds () =
  (match parse_ok "(EX! x: A) occurred(x)" with
  | F.Exists_unique _ -> ()
  | _ -> Alcotest.fail "EX!");
  (match parse_ok "(EX<=1 x: A) occurred(x)" with
  | F.At_most_one _ -> ()
  | _ -> Alcotest.fail "EX<=1");
  match parse_ok "(EX x: A) occurred(x)" with
  | F.Exists _ -> ()
  | _ -> Alcotest.fail "EX"

let test_parse_domains () =
  (match parse_ok "(ALL x: *) occurred(x)" with
  | F.Forall (_, F.Any, _) -> ()
  | _ -> Alcotest.fail "any");
  (match parse_ok "(ALL x: RW.lock.Acq) occurred(x)" with
  | F.Forall (_, F.Cls_at ("RW.lock", "Acq"), _) -> ()
  | _ -> Alcotest.fail "dotted element");
  (match parse_ok "(ALL x: RW.lock.*) occurred(x)" with
  | F.Forall (_, F.At_elem "RW.lock", _) -> ()
  | _ -> Alcotest.fail "at-elem");
  match parse_ok "(ALL x: {A|b.C}) occurred(x)" with
  | F.Forall (_, F.Union [ F.Cls "A"; F.Cls_at ("b", "C") ], _) -> ()
  | _ -> Alcotest.fail "union"

let test_parse_thread_atoms () =
  (match parse_ok "x ~pi~ y" with
  | F.Atom (F.Same_thread ("pi", "x", "y")) -> ()
  | _ -> Alcotest.fail "same thread");
  (match parse_ok "x !~pi~ y" with
  | F.Atom (F.Distinct_thread ("pi", "x", "y")) -> ()
  | _ -> Alcotest.fail "distinct thread");
  match parse_ok "x in pi" with
  | F.Atom (F.In_thread ("pi", "x")) -> ()
  | _ -> Alcotest.fail "in thread"

let test_parse_terms () =
  (match parse_ok "index(a) + 1 = index(b)" with
  | F.Atom (F.Cmp (F.Eq, F.Plus (F.Index "a", 1), F.Index "b")) -> ()
  | _ -> Alcotest.fail "index arithmetic");
  (match parse_ok "a.value != \"x\"" with
  | F.Atom (F.Cmp (F.Ne, F.Param ("a", "value"), F.Const (V.Str "x"))) -> ()
  | _ -> Alcotest.fail "string const");
  match parse_ok "a.flag = true" with
  | F.Atom (F.Cmp (F.Eq, _, F.Const (V.Bool true))) -> ()
  | _ -> Alcotest.fail "bool const"

let test_parse_errors () =
  List.iter
    (fun src ->
      match Parser.parse_formula src with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "expected parse error on %S" src)
    [ "occurred(x"; "x |>"; "(ALL x) occurred(x)"; "x => => y"; "occurred(x) extra" ]

(* ------------------------------------------------------------------ *)
(* Round-trip property                                                 *)
(* ------------------------------------------------------------------ *)

let formula_gen =
  let open QCheck.Gen in
  let var = oneofl [ "x"; "y"; "z" ] in
  let dom =
    oneof
      [
        return F.Any;
        map (fun c -> F.Cls c) (oneofl [ "A"; "B" ]);
        return (F.Cls_at ("El.sub", "K"));
        return (F.At_elem "El");
        return (F.Union [ F.Cls "A"; F.Cls "B" ]);
      ]
  in
  let texp =
    oneof
      [
        map (fun n -> F.Const (V.Int n)) (int_range (-5) 5);
        return (F.Const (V.Str "s"));
        return (F.Const (V.Bool true));
        return (F.Const V.Unit);
        map (fun x -> F.Param (x, "p")) var;
        map (fun x -> F.Index x) var;
        map2 (fun x n -> F.Plus (F.Index x, n)) var (int_range 1 3);
      ]
  in
  let atom =
    oneof
      [
        map (fun x -> F.Occurred x) var;
        map2 (fun x y -> F.Enables (x, y)) var var;
        map2 (fun x y -> F.Elem_lt (x, y)) var var;
        map2 (fun x y -> F.Temp_lt (x, y)) var var;
        map2 (fun x y -> F.Same_event (x, y)) var var;
        map2 (fun x y -> F.Same_element (x, y)) var var;
        (let* c = oneofl [ F.Eq; F.Ne; F.Lt; F.Le; F.Gt; F.Ge ] in
         let* t1 = texp in
         let* t2 = texp in
         return (F.Cmp (c, t1, t2)));
        map2 (fun x d -> F.At_class (x, d)) var dom;
        map (fun x -> F.New x) var;
        map (fun x -> F.Potential x) var;
        map2 (fun x y -> F.Same_thread ("pi", x, y)) var var;
        map2 (fun x y -> F.Distinct_thread ("pi", x, y)) var var;
        map (fun x -> F.In_thread ("pi", x)) var;
      ]
  in
  fix
    (fun self depth ->
      if depth = 0 then oneof [ map (fun a -> F.Atom a) atom; return F.True; return F.False ]
      else
        let sub = self (depth - 1) in
        oneof
          [
            map (fun a -> F.Atom a) atom;
            map (fun f -> F.Not f) sub;
            map2 (fun a b -> F.And [ a; b ]) sub sub;
            map2 (fun a b -> F.Or [ a; b ]) sub sub;
            map2 (fun a b -> F.Implies (a, b)) sub sub;
            map2 (fun a b -> F.Iff (a, b)) sub sub;
            (let* x = var in
             let* d = dom in
             map (fun f -> F.Forall (x, d, f)) sub);
            (let* x = var in
             let* d = dom in
             map (fun f -> F.Exists (x, d, f)) sub);
            (let* x = var in
             let* d = dom in
             map (fun f -> F.Exists_unique (x, d, f)) sub);
            (let* x = var in
             let* d = dom in
             map (fun f -> F.At_most_one (x, d, f)) sub);
            map (fun f -> F.Henceforth f) sub;
            map (fun f -> F.Eventually f) sub;
          ])
    3

let prop_roundtrip =
  QCheck.Test.make ~name:"parse (print f) = f" ~count:500
    (QCheck.make formula_gen ~print:F.to_string)
    roundtrip

(* ------------------------------------------------------------------ *)
(* Wire grammar: the parsers a serve socket reaches                    *)
(* ------------------------------------------------------------------ *)

module R = Gem_syntax.Request

(* Random bytes, or random splices of a grammar's own tokens: the
   splices reach far deeper into a parser than uniform bytes do. *)
let soup words =
  let open QCheck.Gen in
  oneof
    [
      string_size (int_range 0 60);
      map (String.concat "")
        (list_size (int_range 0 24)
           (oneof [ oneofl words; map (String.make 1) printable ]));
    ]

let request_words =
  [ "check "; "ping"; "stats"; " "; "\t"; "="; "\""; "\\"; "rw "; "db ";
    "reduction="; "none"; "sleep"; "keys="; "exact"; "jobs="; "bitstate=";
    "timeout="; "max-configs="; "max-runs="; "restrict="; "off"; "8"; "30";
    "100"; "-1"; "1e308"; "nan"; "0x1p-3"; "readers="; "por=" ]

let formula_words =
  [ "ALL "; "EX "; "EX! "; "EX<=1 "; "("; ")"; "[]"; "<>"; "~"; "/\\"; "\\/";
    "->"; "<->"; "x"; "y"; ":"; "."; "="; "!="; "<"; "<="; "=>"; "=>el"; "|>";
    "occurred"; "new"; "potential"; "at"; "in"; "index"; "elem"; "\""; "-";
    "99999999999999999999"; "true"; "false"; "{"; "}"; "|"; "*"; "+"; "!~pi~" ]

let never_raises name parse words =
  QCheck.Test.make ~name ~count:3000
    (QCheck.make (soup words) ~print:(Printf.sprintf "%S"))
    (fun s -> match parse s with Ok _ | Error _ -> true)

let prop_request_total = never_raises "Request.parse never raises" R.parse request_words

let prop_formula_total =
  never_raises "Parser.parse_formula never raises" Parser.parse_formula formula_words

(* Requests as a client could send them: every engine key, workload
   values that need quoting, restrict= formulas, timeouts over the
   whole float range. Values are printable ASCII with the odd line feed
   or carriage return, which [to_line] must escape. *)
let request_gen =
  let open QCheck.Gen in
  let ident =
    string_size ~gen:(oneofl [ 'a'; 'b'; 'z'; 'X'; '0'; '9'; '-'; '_' ]) (int_range 1 6)
  in
  let value =
    string_size
      ~gen:(frequency [ (30, map Char.chr (int_range 32 126)); (1, oneofl [ '\n'; '\r' ]) ])
      (int_range 0 10)
  in
  let engine_keys =
    [ "reduction"; "keys"; "jobs"; "bitstate"; "timeout"; "max-configs"; "max-runs";
      "restrict" ]
  in
  let params =
    map
      (fun ps ->
        List.sort_uniq
          (fun (a, _) (b, _) -> compare a b)
          (List.filter (fun (k, _) -> not (List.mem k engine_keys)) ps))
      (list_size (int_range 0 4) (pair ident value))
  in
  let timeout =
    oneof
      [
        oneofl [ 0.5; 1.; 60.; 0.123456789; 1e-300; max_float ];
        float_range 1e-3 1e4;
        map2 (fun m e -> m *. (10. ** float_of_int e)) (float_range 1. 10.)
          (int_range (-300) 300);
      ]
  in
  let* reduction = opt (oneofl R.[ Reduction_none; Reduction_sleep; Reduction_source ]) in
  let* exact_keys = opt bool in
  let* jobs = int_range 1 64 in
  let* bitstate_bits = opt (int_range 8 30) in
  let* timeout = opt timeout in
  let* max_configs = opt (int_range 1 max_int) in
  let* max_runs = opt (int_range 1 max_int) in
  let* cmd = ident in
  let* params = params in
  let* restrict = opt formula_gen in
  let engine =
    { R.reduction; exact_keys; jobs; bitstate_bits; timeout; max_configs; max_runs }
  in
  frequency
    [
      (1, return R.Ping);
      (1, return R.Stats);
      (8, return (R.Check { cmd; params; restrict; engine }));
    ]

let prop_request_roundtrip =
  QCheck.Test.make ~name:"parse (to_line r) = r" ~count:2000
    (QCheck.make request_gen ~print:R.to_line)
    (fun r -> R.parse (R.to_line r) = Ok r)

(* A restriction renders on one line, however long: [Request.to_line]
   writes it into a one-line request. *)
let prop_formula_one_line =
  QCheck.Test.make ~name:"to_string has no newline" ~count:500
    (QCheck.make formula_gen ~print:(fun f -> Printf.sprintf "%S" (F.to_string f)))
    (fun f -> not (String.contains (F.to_string f) '\n'))

(* The daemon reads one request per line. *)
let prop_request_one_line =
  QCheck.Test.make ~name:"to_line r has no newline" ~count:2000
    (QCheck.make request_gen ~print:(fun r -> Printf.sprintf "%S" (R.to_line r)))
    (fun r ->
      let line = R.to_line r in
      not (String.contains line '\n' || String.contains line '\r'))

(* ------------------------------------------------------------------ *)
(* Thread patterns and specifications                                  *)
(* ------------------------------------------------------------------ *)

let test_parse_thread_pattern () =
  match Parser.parse_thread_pattern "(A :: b.B :: C* | D? :: E)" with
  | Ok
      (Gem_spec.Thread.Alt
        [
          Gem_spec.Thread.Seq
            [ Gem_spec.Thread.Step (F.Cls "A"); Step (F.Cls_at ("b", "B"));
              Star (Step (F.Cls "C")) ];
          Seq [ Opt (Step (F.Cls "D")); Step (F.Cls "E") ];
        ]) ->
      ()
  | Ok _ -> Alcotest.fail "wrong pattern"
  | Error m -> Alcotest.failf "parse error: %s" m

let paper_spec_text =
  {|
SPECIFICATION quickstart
  -- the paper's sec. 6 IntegerVariable, spelled out
  ELEMENT TYPE MyVariable
    EVENTS
      Assign(newval: INTEGER)
      Getval(oldval: INTEGER)
    RESTRICTIONS
      getval-yields-last-assigned:
        (ALL a: self.Assign, g: self.Getval)
          ((a =>el g /\ ~((EX a2: self.Assign) (a =>el a2 /\ a2 =>el g)))
            -> a.newval = g.oldval)
  END
  ELEMENT TYPE Stepper
    EVENTS
      Step
  END
  ELEMENT Var : MyVariable
  ELEMENT Proc : Stepper
  GROUP Cell (Var) PORTS (Var.Assign, Var.Getval)
  RESTRICTION reads-follow-writes:
    (ALL g: Var.Getval) (EX a: Var.Assign) a => g
  THREAD step = (Step :: Assign :: Getval)
END
|}

let test_parse_spec () =
  match Parser.parse_spec paper_spec_text with
  | Error m -> Alcotest.failf "spec parse error: %s" m
  | Ok spec ->
      check Alcotest.string "name" "quickstart" spec.Spec.spec_name;
      check Alcotest.(list string) "elements" [ "Var"; "Proc" ] (Spec.declared_elements spec);
      check Alcotest.int "groups" 1 (List.length spec.Spec.groups);
      check Alcotest.int "explicit restrictions" 1 (List.length spec.Spec.restrictions);
      check Alcotest.int "threads" 1 (List.length spec.Spec.threads);
      (* the element-type restriction instantiates with 'self' = Var *)
      check Alcotest.bool "type restriction instantiated" true
        (List.mem_assoc "Var.getval-yields-last-assigned" (Spec.type_restrictions spec))

let test_parsed_spec_checks_computations () =
  match Parser.parse_spec paper_spec_text with
  | Error m -> Alcotest.failf "spec parse error: %s" m
  | Ok spec ->
      let good =
        let b = Build.create () in
        let s = Build.emit b ~element:"Proc" ~klass:"Step" () in
        let a = Build.emit_enabled_by b ~by:s ~element:"Var" ~klass:"Assign"
            ~params:[ ("newval", V.Int 7) ] () in
        let _ = Build.emit_enabled_by b ~by:a ~element:"Var" ~klass:"Getval"
            ~params:[ ("oldval", V.Int 7) ] () in
        Build.finish b
      in
      check Alcotest.bool "good accepted" true
        (Gem_check.Verdict.ok (Gem_check.Check.check spec good));
      let stale =
        let b = Build.create () in
        let a = Build.emit b ~element:"Var" ~klass:"Assign" ~params:[ ("newval", V.Int 7) ] () in
        let _ = Build.emit_enabled_by b ~by:a ~element:"Var" ~klass:"Getval"
            ~params:[ ("oldval", V.Int 8) ] () in
        Build.finish b
      in
      check Alcotest.bool "stale read rejected" false
        (Gem_check.Verdict.ok (Gem_check.Check.check spec stale));
      let wrong_type =
        let b = Build.create () in
        let _ = Build.emit b ~element:"Var" ~klass:"Assign" ~params:[ ("newval", V.Str "x") ] () in
        Build.finish b
      in
      check Alcotest.bool "schema enforced" false
        (Gem_check.Verdict.ok (Gem_check.Check.check spec wrong_type))

let test_parse_spec_errors () =
  List.iter
    (fun src ->
      match Parser.parse_spec src with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "expected error on %S" src)
    [
      "ELEMENT Var : Variable";  (* missing SPECIFICATION *)
      "SPECIFICATION s ELEMENT Var : Nope END";  (* unknown type *)
      "SPECIFICATION s ELEMENT TYPE T EVENTS A(x: FLOAT) END END";  (* bad ptype *)
    ]

(* The paper's §6 parameterized type: TypedVariable(t: TYPE). *)
let test_parameterized_etype () =
  let src =
    {|
SPECIFICATION s
  ELEMENT TYPE TypedVariable(t: TYPE)
    EVENTS
      Assign(newval: t)
      Getval(oldval: t)
    RESTRICTIONS
      last-assigned:
        (ALL a: self.Assign, g: self.Getval)
          ((a =>el g /\ ~((EX a2: self.Assign) (a =>el a2 /\ a2 =>el g)))
             -> a.newval = g.oldval)
  END
  ELEMENT Vi : TypedVariable(INTEGER)
  ELEMENT Vs : TypedVariable(STRING)
END
|}
  in
  match Parser.parse_spec src with
  | Error m -> Alcotest.failf "parameterized parse error: %s" m
  | Ok spec ->
      let vi = Option.get (Spec.element_type spec "Vi") in
      let vs = Option.get (Spec.element_type spec "Vs") in
      let decl ty = Option.get (Etype.event_decl ty "Assign") in
      check Alcotest.bool "int instance accepts int" true
        (Etype.schema_ok (decl vi) [ ("newval", V.Int 1) ]);
      check Alcotest.bool "int instance rejects string" false
        (Etype.schema_ok (decl vi) [ ("newval", V.Str "x") ]);
      check Alcotest.bool "string instance accepts string" true
        (Etype.schema_ok (decl vs) [ ("newval", V.Str "x") ]);
      (* The shared restriction instantiates per element. *)
      check Alcotest.bool "restriction per instance" true
        (List.mem_assoc "Vi.last-assigned" (Spec.type_restrictions spec)
        && List.mem_assoc "Vs.last-assigned" (Spec.type_restrictions spec))

let test_parameterized_arity_error () =
  match
    Parser.parse_spec
      "SPECIFICATION s ELEMENT TYPE P(t: TYPE) EVENTS A(x: t) END ELEMENT V : P END"
  with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected arity error"

let test_builtin_types_available () =
  match Parser.parse_spec "SPECIFICATION s ELEMENT V : Variable ELEMENT W : IntegerVariable END" with
  | Ok spec -> check Alcotest.int "two elements" 2 (List.length spec.Spec.elements)
  | Error m -> Alcotest.failf "builtin types: %s" m

(* The shipped .gem transcription of the paper's sec. 8.3 spec parses and
   verifies the paper's monitor, end to end. *)
let test_gem_file_verifies_monitor () =
  let path =
    if Sys.file_exists "../examples/readers_writers.gem" then
      "../examples/readers_writers.gem"
    else "examples/readers_writers.gem"
  in
  let src =
    let ic = open_in path in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  match Parser.parse_spec src with
  | Error m -> Alcotest.failf "readers_writers.gem: %s" m
  | Ok problem ->
      check Alcotest.int "threads" 1 (List.length problem.Spec.threads);
      let program =
        Gem_problems.Readers_writers.program
          ~monitor:Gem_problems.Readers_writers.paper_monitor ~readers:2 ~writers:1
      in
      let o = Gem_lang.Monitor.explore program in
      check Alcotest.bool "paper monitor satisfies the .gem spec" true
        (Gem_check.Refine.sat_ok
           ~strategy:(Gem_check.Strategy.Linearizations (Some 400))
           ~edges:Gem_check.Refine.Actor_paths ~problem
           ~map:Gem_problems.Readers_writers.correspondence o.Gem_lang.Monitor.computations);
      (* The mutant must be refuted at the same 2R+1W population the .gem
         file declares (a different population would fail trivially on
         legality). *)
      let buggy =
        Gem_problems.Readers_writers.program
          ~monitor:Gem_problems.Readers_writers.no_exclusion_monitor ~readers:2 ~writers:1
      in
      let ob = Gem_lang.Monitor.explore buggy in
      check Alcotest.bool "no-exclusion monitor violates the .gem spec" false
        (Gem_check.Refine.sat_ok
           ~strategy:(Gem_check.Strategy.Linearizations (Some 400))
           ~edges:Gem_check.Refine.Actor_paths ~problem
           ~map:Gem_problems.Readers_writers.correspondence ob.Gem_lang.Monitor.computations)

let () =
  Alcotest.run "gem_syntax"
    [
      ( "lexer",
        [
          Alcotest.test_case "operators" `Quick test_lexer_operators;
          Alcotest.test_case "comments-strings" `Quick test_lexer_comments_strings;
          Alcotest.test_case "dashed-idents" `Quick test_lexer_dashed_idents;
          Alcotest.test_case "errors" `Quick test_lexer_errors;
        ] );
      ( "formula",
        [
          Alcotest.test_case "paper-variable" `Quick test_parse_paper_variable_restriction;
          Alcotest.test_case "priority-shape" `Quick test_parse_priority_shape;
          Alcotest.test_case "precedence" `Quick test_parse_operators_precedence;
          Alcotest.test_case "quantifiers" `Quick test_parse_quantifier_kinds;
          Alcotest.test_case "domains" `Quick test_parse_domains;
          Alcotest.test_case "thread-atoms" `Quick test_parse_thread_atoms;
          Alcotest.test_case "terms" `Quick test_parse_terms;
          Alcotest.test_case "errors" `Quick test_parse_errors;
          QCheck_alcotest.to_alcotest prop_roundtrip;
        ] );
      ( "wire",
        [
          QCheck_alcotest.to_alcotest prop_request_total;
          QCheck_alcotest.to_alcotest prop_formula_total;
          QCheck_alcotest.to_alcotest prop_request_roundtrip;
          QCheck_alcotest.to_alcotest prop_request_one_line;
          QCheck_alcotest.to_alcotest prop_formula_one_line;
        ] );
      ( "spec",
        [
          Alcotest.test_case "thread-pattern" `Quick test_parse_thread_pattern;
          Alcotest.test_case "parse-spec" `Quick test_parse_spec;
          Alcotest.test_case "checks-computations" `Quick test_parsed_spec_checks_computations;
          Alcotest.test_case "errors" `Quick test_parse_spec_errors;
          Alcotest.test_case "builtins" `Quick test_builtin_types_available;
          Alcotest.test_case "parameterized-types" `Quick test_parameterized_etype;
          Alcotest.test_case "parameterized-arity" `Quick test_parameterized_arity_error;
          Alcotest.test_case "gem-file-verifies-monitor" `Slow test_gem_file_verifies_monitor;
        ] );
    ]
