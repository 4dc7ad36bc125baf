(* Property-based tests (qcheck) for the core invariants: closure algebra,
   extension enumeration, history lattices, evaluator dualities, and
   bitsets against a reference model. *)

module Bitset = Gem_order.Bitset
module Digraph = Gem_order.Digraph
module Poset = Gem_order.Poset
module Linext = Gem_order.Linext
module Build = Gem_model.Build
module C = Gem_model.Computation
module History = Gem_logic.History
module Vhs = Gem_logic.Vhs
module F = Gem_logic.Formula
module Eval = Gem_logic.Eval

(* ------------------------------------------------------------------ *)
(* Generators                                                          *)
(* ------------------------------------------------------------------ *)

(* A random DAG on [n] nodes: edges only from lower to higher index. *)
let dag_gen =
  QCheck.Gen.(
    sized_size (int_range 1 7) (fun n ->
        let pairs =
          List.concat
            (List.init n (fun i -> List.init (n - i - 1) (fun d -> (i, i + d + 1))))
        in
        let* picks = flatten_l (List.map (fun e -> pair (return e) bool) pairs) in
        let edges = List.filter_map (fun (e, keep) -> if keep then Some e else None) picks in
        return (n, edges)))

let dag_arb =
  QCheck.make dag_gen ~print:(fun (n, es) ->
      Printf.sprintf "n=%d edges=[%s]" n
        (String.concat ";" (List.map (fun (a, b) -> Printf.sprintf "(%d,%d)" a b) es)))

(* A random legal computation: events assigned round-robin-randomly to a
   few elements, enable edges only from earlier-emitted to later-emitted
   events (so the causal graph is acyclic by construction). *)
let comp_gen =
  QCheck.Gen.(
    sized_size (int_range 1 8) (fun n ->
        let* n_elements = int_range 1 3 in
        let* assignment = flatten_l (List.init n (fun _ -> int_range 0 (n_elements - 1))) in
        let pairs =
          List.concat
            (List.init n (fun i -> List.init (n - i - 1) (fun d -> (i, i + d + 1))))
        in
        let* picks = flatten_l (List.map (fun e -> pair (return e) (int_range 0 3)) pairs) in
        let edges = List.filter_map (fun (e, k) -> if k = 0 then Some e else None) picks in
        return (n, assignment, edges)))

let build_comp (n, assignment, edges) =
  let b = Build.create () in
  let handles =
    List.map
      (fun el -> Build.emit b ~element:(Printf.sprintf "el%d" el) ~klass:"E" ())
      assignment
  in
  let arr = Array.of_list handles in
  List.iter (fun (i, j) -> Build.enable b arr.(i) arr.(j)) edges;
  ignore n;
  Build.finish b

let comp_arb =
  QCheck.make comp_gen ~print:(fun (n, a, es) ->
      Printf.sprintf "n=%d elems=[%s] edges=%d" n
        (String.concat ";" (List.map string_of_int a))
        (List.length es))

(* ------------------------------------------------------------------ *)
(* Closure algebra                                                     *)
(* ------------------------------------------------------------------ *)

let prop_closure_contains_base =
  QCheck.Test.make ~name:"closure contains base" ~count:200 dag_arb (fun (n, edges) ->
      let g = Digraph.of_edges n edges in
      let c = Digraph.transitive_closure g in
      List.for_all (fun (a, b) -> Digraph.mem_edge c a b) edges)

let prop_closure_idempotent =
  QCheck.Test.make ~name:"closure idempotent" ~count:200 dag_arb (fun (n, edges) ->
      let g = Digraph.of_edges n edges in
      let c = Digraph.transitive_closure g in
      Digraph.equal c (Digraph.transitive_closure c))

let prop_closure_transitive =
  QCheck.Test.make ~name:"closure transitive" ~count:200 dag_arb (fun (n, edges) ->
      let g = Digraph.of_edges n edges in
      let c = Digraph.transitive_closure g in
      List.for_all
        (fun a ->
          List.for_all
            (fun b ->
              List.for_all
                (fun d ->
                  not (Digraph.mem_edge c a b && Digraph.mem_edge c b d)
                  || Digraph.mem_edge c a d)
                (List.init n Fun.id))
            (List.init n Fun.id))
        (List.init n Fun.id))

let prop_reduction_preserves_closure =
  QCheck.Test.make ~name:"reduction preserves closure" ~count:200 dag_arb
    (fun (n, edges) ->
      let g = Digraph.of_edges n edges in
      let r = Digraph.transitive_reduction g in
      Digraph.equal (Digraph.transitive_closure g) (Digraph.transitive_closure r))

let prop_reduction_minimal =
  QCheck.Test.make ~name:"reduction edges are covers" ~count:100 dag_arb
    (fun (n, edges) ->
      let g = Digraph.of_edges n edges in
      let r = Digraph.transitive_reduction g in
      let c = Digraph.transitive_closure g in
      (* No reduction edge is implied by a two-step path in the closure. *)
      List.for_all
        (fun (a, b) ->
          not
            (List.exists
               (fun m -> m <> a && m <> b && Digraph.mem_edge c a m && Digraph.mem_edge c m b)
               (List.init n Fun.id)))
        (Digraph.edges r))

(* ------------------------------------------------------------------ *)
(* Extensions and step sequences                                       *)
(* ------------------------------------------------------------------ *)

let is_topological_sort g order =
  let pos = Hashtbl.create 16 in
  List.iteri (fun i v -> Hashtbl.replace pos v i) order;
  List.length order = Digraph.size g
  && List.for_all (fun (a, b) -> Hashtbl.find pos a < Hashtbl.find pos b) (Digraph.edges g)

let prop_extensions_are_topo_sorts =
  QCheck.Test.make ~name:"linear extensions are topological sorts" ~count:100 dag_arb
    (fun (n, edges) ->
      let g = Digraph.of_edges n edges in
      let p = Poset.of_digraph_exn g in
      let exts = Poset.linear_extensions p in
      List.for_all (is_topological_sort g) exts
      && List.length (List.sort_uniq compare exts) = List.length exts
      && List.length exts = Poset.count_linear_extensions p)

let prop_step_sequences_at_least_extensions =
  QCheck.Test.make ~name:"#step sequences >= #linear extensions" ~count:100 dag_arb
    (fun (n, edges) ->
      let p = Poset.of_digraph_exn (Digraph.of_edges n edges) in
      Linext.count_step_sequences p >= Poset.count_linear_extensions p)

let prop_step_sequences_valid =
  QCheck.Test.make ~name:"enumerated step sequences validate" ~count:60 dag_arb
    (fun (n, edges) ->
      let p = Poset.of_digraph_exn (Digraph.of_edges n edges) in
      List.for_all (Linext.is_step_sequence p) (Linext.step_sequences ~limit:200 p))

(* ------------------------------------------------------------------ *)
(* Computations and histories                                          *)
(* ------------------------------------------------------------------ *)

let prop_temporal_is_strict_order =
  QCheck.Test.make ~name:"temporal order strict" ~count:200 comp_arb (fun spec ->
      let comp = build_comp spec in
      match C.temporal comp with
      | None -> false
      | Some p ->
          let n = C.n_events comp in
          List.for_all
            (fun a ->
              (not (Poset.lt p a a))
              && List.for_all
                   (fun b ->
                     List.for_all
                       (fun c ->
                         (not (Poset.lt p a b && Poset.lt p b c)) || Poset.lt p a c)
                       (List.init n Fun.id))
                   (List.init n Fun.id))
            (List.init n Fun.id))

let prop_elem_lt_within_temporal =
  QCheck.Test.make ~name:"element order within temporal order" ~count:200 comp_arb
    (fun spec ->
      let comp = build_comp spec in
      let n = C.n_events comp in
      List.for_all
        (fun a ->
          List.for_all
            (fun b -> (not (C.elem_lt comp a b)) || C.temp_lt comp a b)
            (List.init n Fun.id))
        (List.init n Fun.id))

let prop_histories_down_closed =
  QCheck.Test.make ~name:"histories are down-closed and distinct" ~count:60 comp_arb
    (fun spec ->
      let comp = build_comp spec in
      let poset = C.temporal_exn comp in
      let hs = History.all comp in
      List.for_all (fun h -> Poset.is_down_closed poset (History.members h)) hs
      &&
      let keys = List.map (fun h -> Bitset.elements (History.members h)) hs in
      List.length (List.sort_uniq compare keys) = List.length keys
      && History.count comp = List.length hs)

let prop_vhs_runs_complete =
  QCheck.Test.make ~name:"complete runs start empty and end full" ~count:40 comp_arb
    (fun spec ->
      let comp = build_comp spec in
      let runs = Vhs.all ~limit:100 comp in
      runs <> []
      && List.for_all
           (fun run ->
             History.cardinal (Vhs.nth_history run 0) = 0
             && History.is_full (Vhs.nth_history run (Vhs.length run - 1)))
           runs)

let prop_frontier_matches_potential =
  QCheck.Test.make ~name:"frontier = potential events" ~count:100 comp_arb (fun spec ->
      let comp = build_comp spec in
      let hs = History.all comp in
      List.for_all
        (fun h ->
          let f = History.frontier h in
          List.for_all (History.potential h) f
          && List.for_all
               (fun e -> List.mem e f || not (History.potential h e))
               (C.all_events comp))
        (List.filteri (fun i _ -> i < 10) hs))

let prop_width_exact =
  QCheck.Test.make ~name:"width = brute-force max antichain" ~count:100 dag_arb
    (fun (n, edges) ->
      let p = Poset.of_digraph_exn (Digraph.of_edges n edges) in
      (* Brute force over all subsets (n <= 7). *)
      let best = ref 0 in
      for mask = 0 to (1 lsl n) - 1 do
        let members = List.filter (fun v -> mask land (1 lsl v) <> 0) (List.init n Fun.id) in
        if Poset.is_antichain p (Bitset.of_list n members) then
          best := max !best (List.length members)
      done;
      let w = Poset.width p in
      let witness = Poset.max_antichain p in
      w = !best
      && List.length witness = w
      && Poset.is_antichain p (Bitset.of_list n witness)
      && Poset.width_lower_bound p <= w)

(* ------------------------------------------------------------------ *)
(* Evaluator dualities                                                 *)
(* ------------------------------------------------------------------ *)

let prop_quantifier_duality =
  QCheck.Test.make ~name:"forall/exists duality" ~count:100 comp_arb (fun spec ->
      let comp = build_comp spec in
      let inner x = F.exists [ ("y", F.Any) ] (F.temp_lt x "y") in
      let all_form = F.forall [ ("x", F.Any) ] (inner "x") in
      let dual = F.neg (F.exists [ ("x", F.Any) ] (F.neg (inner "x"))) in
      Eval.eval_computation comp all_form = Eval.eval_computation comp dual)

let prop_temporal_duality =
  QCheck.Test.make ~name:"henceforth/eventually duality on runs" ~count:40 comp_arb
    (fun spec ->
      let comp = build_comp spec in
      let p = F.exists [ ("x", F.Any) ] (F.fresh "x") in
      List.for_all
        (fun run ->
          Eval.eval_run run (F.henceforth p)
          = not (Eval.eval_run run (F.eventually (F.neg p))))
        (Vhs.all ~limit:20 comp))

let prop_occurred_monotone =
  QCheck.Test.make ~name:"occurred is monotone along runs" ~count:40 comp_arb
    (fun spec ->
      let comp = build_comp spec in
      List.for_all
        (fun run ->
          List.for_all
            (fun e ->
              let env = [ ("e", e) ] in
              (* once occurred, henceforth occurred *)
              Eval.eval_run ~env run
                F.(henceforth (occurred "e" ==> henceforth (occurred "e"))))
            (C.all_events comp))
        (Vhs.all ~limit:10 comp))

(* ------------------------------------------------------------------ *)
(* The history lattice against run enumeration                         *)
(* ------------------------------------------------------------------ *)

module Spec = Gem_spec.Spec
module Etype = Gem_spec.Etype
module Check = Gem_check.Check
module Strategy = Gem_check.Strategy
module Verdict = Gem_check.Verdict
module Lattice = Gem_logic.Lattice

let props_spec =
  let e = Etype.make "E" ~events:[ { Etype.klass = "E"; schema = [] } ] () in
  Spec.make "props" ~elements:(List.init 3 (fun i -> (Printf.sprintf "el%d" i, e))) ()

let domain_gen = QCheck.Gen.oneofl F.[ Any; Cls "E"; At_elem "el0"; At_elem "el1" ]
let forall x d body = F.Forall (x, d, body)
let exists x d body = F.Exists (x, d, body)

(* [make x d body] for a fresh variable [x] over a random domain [d], with
   the body generated where [x] is bound. *)
let quantified make body_gen vars depth =
  QCheck.Gen.(
    let x = Printf.sprintf "x%d" (List.length vars) in
    let* d = domain_gen in
    let+ body = body_gen (x :: vars) depth in
    make x d body)

(* Immediate formulas over the bound variables [vars] (non-empty). *)
let rec imm_gen vars depth =
  QCheck.Gen.(
    let var = oneofl vars in
    let atom =
      oneof
        [
          map F.occurred var;
          map F.fresh var;
          map F.potential var;
          map2 F.at_cls var domain_gen;
          map2 F.temp_lt var var;
          map2 F.distinct var var;
          oneofl F.[ True; False ];
        ]
    in
    if depth = 0 then atom
    else
      let sub = imm_gen vars (depth - 1) in
      let literal = frequency [ (1, atom); (1, map F.neg atom) ] in
      frequency
        [
          (2, atom);
          (1, map F.neg sub);
          (2, map2 F.( &&& ) literal literal);
          (1, map2 F.( &&& ) sub sub);
          (1, map2 F.( ||| ) sub sub);
          (1, quantified exists imm_gen vars (depth - 1));
        ])

(* The fragment: immediate parts, /\, ALL, p ->, [] and, with
   [eventually], <>p. Some variable is always bound. *)
let rec frag_gen ~eventually vars depth =
  QCheck.Gen.(
    let frag = frag_gen ~eventually in
    if vars = [] then quantified forall frag vars depth
    else if depth = 0 then imm_gen vars 0
    else
      let sub = frag vars (depth - 1) in
      let guarded vars depth = map2 F.( ==> ) (imm_gen vars 0) (frag vars depth) in
      frequency
        ([
           (1, imm_gen vars 1);
           (1, map2 F.( &&& ) sub sub);
           (1, quantified forall frag vars (depth - 1));
           (2, quantified forall guarded vars (depth - 1));
           (2, guarded vars (depth - 1));
           (3, map F.henceforth sub);
         ]
        @ if eventually then [ (3, map F.eventually (imm_gen vars 2)) ] else []))

(* Just outside the fragment: a negated, disjoined or existentially
   bound temporal formula. *)
let outside_gen ~eventually =
  QCheck.Gen.(
    let frag = frag_gen ~eventually in
    let always = map F.henceforth (frag [] 2) in
    oneof
      [
        map F.neg always;
        map2 F.( ||| ) always always;
        quantified (fun x d body -> exists x d (F.henceforth body)) frag [] 1;
      ])

(* Temporal formulas only: an immediate restriction is checked on the
   full history, not on runs. *)
let formula_gen ~eventually =
  QCheck.Gen.(
    let frag = frag_gen ~eventually in
    let+ f =
      frequency
        [
          (3, map F.henceforth (frag [] 2));
          (2, frag [] 3);
          (3, quantified forall (quantified forall frag) [] 2);
          (2, outside_gen ~eventually);
        ]
    in
    if F.is_immediate f then F.henceforth f else f)

(* The lattice verdict equals the verdict of uncapped enumeration with
   [Eval.eval_run]. In the fragment the check enumerates nothing but its
   witness, which [Vhs.of_steps] accepts and the run semantics refutes;
   outside it, the check enumerates runs up to the first failing one. *)
let lattice_agrees ~strategy ~enumerate ~lattice_runs (spec, f) =
  let comp = build_comp spec in
  let runs = enumerate ~limit:1001 comp in
  QCheck.assume (List.compare_length_with runs 1000 <= 0);
  let holds = List.map (fun run -> Eval.eval_run run f) runs in
  let expected = List.for_all Fun.id holds in
  let v = Check.check_formula ~strategy props_spec comp ~name:"p" f in
  let witness_refutes =
    match v.Verdict.failures with
    | [] -> expected
    | [ { Verdict.witness = Some w; _ } ] ->
        (not expected)
        && Vhs.of_steps (Vhs.computation w) (Vhs.steps w) <> None
        && not (Eval.eval_run w f)
    | _ -> false
  in
  let runs_checked =
    if Lattice.decides lattice_runs f then if expected then 0 else 1
    else
      let rec upto i = function
        | [] -> i
        | true :: rest -> upto (i + 1) rest
        | false :: _ -> i + 1
      in
      upto 0 holds
  in
  Verdict.status v = (if expected then Verdict.Verified else Verdict.Falsified)
  && witness_refutes && v.Verdict.runs_checked = runs_checked

let lattice_arb ~eventually =
  QCheck.make
    QCheck.Gen.(pair (QCheck.gen comp_arb) (formula_gen ~eventually))
    ~print:(fun (spec, f) ->
      Printf.sprintf "%s; %s" (Option.get comp_arb.QCheck.print spec) (F.to_string f))

let prop_lattice_linearizations =
  QCheck.Test.make ~name:"lattice = linearization enumeration" ~count:3000 ~max_gen:15000
    (lattice_arb ~eventually:true)
    (lattice_agrees ~strategy:(Strategy.Linearizations None)
       ~enumerate:(fun ~limit -> Vhs.all_linearizations ~limit)
       ~lattice_runs:Lattice.One_event_steps)

let prop_lattice_vhs =
  QCheck.Test.make ~name:"lattice = vhs enumeration ([] only)" ~count:3000 ~max_gen:15000
    (lattice_arb ~eventually:false)
    (lattice_agrees ~strategy:(Strategy.Exhaustive_vhs None)
       ~enumerate:(fun ~limit -> Vhs.all ~limit)
       ~lattice_runs:Lattice.Antichain_steps)

(* ------------------------------------------------------------------ *)
(* Bitsets against a set model                                         *)
(* ------------------------------------------------------------------ *)

module Iset = Set.Make (Int)

let ops_gen =
  QCheck.Gen.(list_size (int_range 0 40) (pair (int_range 0 2) (int_range 0 15)))

let prop_bitset_model =
  QCheck.Test.make ~name:"bitset matches set model" ~count:300
    (QCheck.make ops_gen) (fun ops ->
      let bs = Bitset.create 16 in
      let model = ref Iset.empty in
      List.iter
        (fun (op, x) ->
          match op with
          | 0 ->
              Bitset.add bs x;
              model := Iset.add x !model
          | 1 ->
              Bitset.remove bs x;
              model := Iset.remove x !model
          | _ -> ignore (Bitset.mem bs x))
        ops;
      Bitset.elements bs = Iset.elements !model
      && Bitset.cardinal bs = Iset.cardinal !model)

(* ------------------------------------------------------------------ *)
(* Sealing in one pass against the generic construction                *)
(* ------------------------------------------------------------------ *)

module E = Gem_model.Event
module V = Gem_model.Value

(* Arbitrary digraphs on at most 8 nodes: edges in both directions,
   cycles and self-loops, at a density drawn per graph so that acyclic
   graphs with backward edges are common too. *)
let digraph_gen =
  QCheck.Gen.(
    let* n = int_range 0 8 in
    let* sparsity = int_range 1 12 in
    let pairs = List.concat (List.init n (fun i -> List.init n (fun j -> (i, j)))) in
    let* picks =
      flatten_l
        (List.map
           (fun (i, j) ->
             let odds = if i = j then 4 * sparsity else sparsity in
             map (fun k -> ((i, j), k = 0)) (int_range 0 odds))
           pairs)
    in
    return (n, List.filter_map (fun (e, keep) -> if keep then Some e else None) picks))

let digraph_arb = QCheck.make digraph_gen ~print:(Option.get dag_arb.QCheck.print)

(* Kahn's sort with an [Int] set as the ready queue, smallest first: the
   order [Digraph.topological_sort] gave before its ready set became a
   bitset, kept as the reference. *)
let reference_kahn g =
  let n = Digraph.size g in
  let deg = Array.make n 0 in
  for u = 0 to n - 1 do
    List.iter (fun v -> deg.(v) <- deg.(v) + 1) (Digraph.succs g u)
  done;
  let ready =
    ref (Iset.of_list (List.filter (fun v -> deg.(v) = 0) (List.init n Fun.id)))
  in
  let rec loop acc seen =
    match Iset.min_elt_opt !ready with
    | None -> if seen = n then Some (List.rev acc) else None
    | Some v ->
        ready := Iset.remove v !ready;
        List.iter
          (fun w ->
            deg.(w) <- deg.(w) - 1;
            if deg.(w) = 0 then ready := Iset.add w !ready)
          (Digraph.succs g v);
        loop (v :: acc) (seen + 1)
  in
  loop [] 0

let lt_matches_closure p closure =
  let nodes = List.init (Digraph.size closure) Fun.id in
  List.for_all
    (fun a ->
      List.for_all (fun b -> Poset.lt p a b = Digraph.mem_edge closure a b) nodes)
    nodes

let prop_walk_matches_generic =
  QCheck.Test.make ~name:"one walk = cycle check + closure + Kahn order" ~count:2000
    digraph_arb (fun (n, edges) ->
      let g = Digraph.of_edges n edges in
      let reference = reference_kahn g in
      Digraph.topological_sort g = reference
      &&
      match (Poset.of_digraph g, reference) with
      | None, None -> Digraph.has_cycle g
      | Some p, Some order ->
          (not (Digraph.has_cycle g))
          && Poset.linear_extension p = order
          && lt_matches_closure p (Digraph.transitive_closure g)
      | _ -> false)

(* What [Computation] built before the one-pass constructor: per-element
   lists sorted by occurrence index, the causal graph as a copy of the
   enable graph plus element-successor edges, and the temporal order as
   a cycle check followed by the transitive closure. *)
let reference_tables n events edges =
  let enable = Digraph.of_edges n edges in
  let at_element = Hashtbl.create 8 in
  Array.iteri
    (fun h (e : E.t) ->
      let prev = Option.value ~default:[] (Hashtbl.find_opt at_element e.id.element) in
      Hashtbl.replace at_element e.id.element (h :: prev))
    events;
  Hashtbl.filter_map_inplace
    (fun _ hs ->
      let index h = events.(h).E.id.index in
      Some (List.sort (fun a b -> Int.compare (index a) (index b)) hs))
    at_element;
  let causal = Digraph.copy enable in
  Hashtbl.iter
    (fun _ hs ->
      let rec link = function
        | a :: (b :: _ as rest) ->
            Digraph.add_edge causal a b;
            link rest
        | [ _ ] | [] -> ()
      in
      link hs)
    at_element;
  let closure =
    if Digraph.has_cycle causal then None else Some (Digraph.transitive_closure causal)
  in
  (enable, at_element, causal, closure)

(* Events on up to three elements with enable edges in both directions,
   including from later to earlier handles: the causal graph may be
   cyclic, as [Build] allows. *)
let build_any_gen =
  QCheck.Gen.(
    let* n, edges = digraph_gen in
    let* assignment = flatten_l (List.init n (fun _ -> int_range 0 2)) in
    return (n, assignment, List.filter (fun (a, b) -> a <> b) edges))

let prop_build_matches_generic =
  QCheck.Test.make ~name:"one-pass Build = generic tables" ~count:2000
    (QCheck.make build_any_gen ~print:(Option.get comp_arb.QCheck.print))
    (fun (n, assignment, edges) ->
      let comp = build_comp (n, assignment, edges) in
      let events = Array.init n (C.event comp) in
      let enable, at_element, causal, closure = reference_tables n events edges in
      Digraph.equal (C.enable_graph comp) enable
      && Digraph.equal (C.causal_graph comp) causal
      && C.event_elements comp
         = List.sort String.compare
             (Hashtbl.fold (fun el _ acc -> el :: acc) at_element [])
      && Hashtbl.fold (fun el hs ok -> ok && C.events_at comp el = hs) at_element true
      &&
      match (C.temporal comp, closure) with
      | None, None -> true
      | Some p, Some closure ->
          lt_matches_closure p closure
          && Some (Poset.linear_extension p) = Digraph.topological_sort causal
      | _ -> false)

(* The canonical rendering [Explore.fingerprint] wrote before it stopped
   sorting events: every event by [Event.id_compare], printed with
   [Event.pp], then its enable successors' ids, sorted. *)
let reference_fingerprint comp =
  let id h = (C.event comp h).E.id in
  let evs = List.sort (fun a b -> E.id_compare (id a) (id b)) (C.all_events comp) in
  String.concat ""
    (List.map
       (fun h ->
         Format.asprintf "%a;%s|" E.pp (C.event comp h)
           (String.concat ""
              (List.map
                 (Format.asprintf ">%a" E.pp_id)
                 (List.sort E.id_compare (List.map id (C.enable_succs comp h))))))
       evs)

let value_gen =
  QCheck.Gen.(
    let str =
      oneofl
        [
          ""; "plain"; "q\"uote"; "back\\slash"; "new\nline"; "tab\t"; "\001\255";
          "caf\195\169";
        ]
    in
    fix
      (fun self depth ->
        let leaf =
          oneof
            [
              return V.Unit;
              map (fun b -> V.Bool b) bool;
              map (fun i -> V.Int i) (int_range (-5) 99);
              map (fun s -> V.Str s) str;
            ]
        in
        if depth = 0 then leaf
        else
          frequency
            [
              (4, leaf);
              (1, map2 (fun a b -> V.Pair (a, b)) (self (depth - 1)) (self (depth - 1)));
              ( 1,
                map (fun xs -> V.List xs)
                  (list_size (int_range 0 2) (self (depth - 1))) );
            ])
      2)

let prop_fingerprint_unchanged =
  QCheck.Test.make ~name:"fingerprint = sorted rendering" ~count:1000
    (QCheck.make
       QCheck.Gen.(
         pair build_any_gen
           (list_size (return 8)
              (list_size (int_range 0 2) (pair (oneofl [ "k"; "v" ]) value_gen))))
       ~print:(fun (spec, _) -> Option.get comp_arb.QCheck.print spec))
    (fun ((_, assignment, edges), params) ->
      (* Element names whose [String.compare] order differs from their
         first-occurrence order. *)
      let names = [| "b"; "a"; "a2" |] in
      let b = Build.create () in
      let handles =
        Array.of_list
          (List.mapi
             (fun i el ->
               Build.emit b ~element:names.(el) ~klass:"E" ~params:(List.nth params i) ())
             assignment)
      in
      List.iter (fun (i, j) -> Build.enable b handles.(i) handles.(j)) edges;
      let comp = Build.finish b in
      Gem_lang.Explore.fingerprint comp = reference_fingerprint comp)

(* ------------------------------------------------------------------ *)
(* Grounding against the direct evaluator                              *)
(* ------------------------------------------------------------------ *)

module Ground = Gem_logic.Ground

(* [comp_gen]'s shapes with data: classes E and F alternate, most events
   carry an integer [v] and some a string [s], and two events in three
   carry a label of thread type t — so a comparison can miss its
   parameter or add to a string, and a thread atom can meet an
   unlabelled event. *)
let data_comp (_, assignment, edges) =
  let b = Build.create () in
  let handles =
    Array.of_list
      (List.mapi
         (fun i el ->
           let params =
             (if i mod 4 = 3 then [] else [ ("v", V.Int (i mod 3)) ])
             @ if i mod 3 = 0 then [ ("s", V.Str "x") ] else []
           in
           Build.emit b ~element:(Printf.sprintf "el%d" el)
             ~klass:(if i mod 2 = 0 then "E" else "F")
             ~params ())
         assignment)
  in
  List.iter (fun (i, j) -> Build.enable b handles.(i) handles.(j)) edges;
  C.map_events
    (fun h e -> if h mod 3 = 2 then e else E.with_thread e "t" (h mod 2))
    (Build.finish b)

let ground_domain_gen =
  QCheck.Gen.oneofl
    F.[ Any; Cls "E"; Cls "F"; At_elem "el0"; Cls_at ("el1", "F"); Union [ Cls "F"; At_elem "el2" ] ]

(* Semantic predicates see the history: one reads it, one raises where
   it has an odd number of events, one always raises. *)
let sems =
  [
    ("inside", fun _ members hs -> List.for_all (Bitset.mem members) hs);
    ( "even",
      fun _ members _ ->
        Bitset.cardinal members mod 2 = 0 || raise (Eval.Error "odd history") );
    ("boom", fun _ _ _ -> raise (Eval.Error "boom"));
  ]

(* Atoms over the variables [vars], now and then over the unbound
   [zz]: the history-independent ones, and the ones that look at the
   history. *)
let static_atom_gen vars =
  QCheck.Gen.(
    let var = frequency [ (12, oneofl vars); (1, return "zz") ] in
    let texp =
      frequency
        [
          (3, map2 F.param var (oneofl [ "v"; "s"; "w" ]));
          (1, map (fun x -> F.Index x) var);
          (1, map F.const_int (int_range 0 2));
          (1, map2 (fun x p -> F.Plus (F.Param (x, p), 1)) var (oneofl [ "v"; "s" ]));
        ]
    in
    oneof
      [
        map2 F.same var var;
        map2 F.same_element var var;
        map2 F.in_class var ground_domain_gen;
        map3
          (fun c a b -> F.Atom (F.Cmp (c, a, b)))
          (oneofl F.[ Eq; Ne; Lt; Le; Gt; Ge ])
          texp texp;
        map2 (F.same_thread "t") var var;
        map2 (F.distinct_thread "t") var var;
        map (F.in_thread "t") var;
        oneofl F.[ True; False ];
      ])

let dynamic_atom_gen vars =
  QCheck.Gen.(
    let var = frequency [ (12, oneofl vars); (1, return "zz") ] in
    oneof
      [
        map F.occurred var;
        map F.fresh var;
        map F.potential var;
        map2 F.at_cls var ground_domain_gen;
        map2 F.enables var var;
        map2 F.elem_lt var var;
        map2 F.temp_lt var var;
        map2
          (fun (name, fn) xs -> F.sem name xs fn)
          (oneofl sems)
          (list_size (int_range 1 2) var);
      ])

(* Static and dynamic atoms at every position of the connectives, under
   every quantifier; with [temporal], [] and <> anywhere too. *)
let rec ground_formula_gen ~temporal vars depth =
  QCheck.Gen.(
    let atom = frequency [ (1, static_atom_gen vars); (2, dynamic_atom_gen vars) ] in
    if depth = 0 then atom
    else
      let sub = ground_formula_gen ~temporal vars (depth - 1) in
      let part = frequency [ (1, static_atom_gen vars); (1, dynamic_atom_gen vars); (2, sub) ] in
      let quantifier =
        let x = Printf.sprintf "x%d" (List.length vars) in
        let* make =
          oneofl
            F.
              [
                (fun x d b -> Forall (x, d, b));
                (fun x d b -> Exists (x, d, b));
                (fun x d b -> Exists_unique (x, d, b));
                (fun x d b -> At_most_one (x, d, b));
              ]
        in
        let* d = ground_domain_gen in
        let+ body = ground_formula_gen ~temporal (x :: vars) (depth - 1) in
        make x d body
      in
      frequency
        ([
           (2, atom);
           (1, map F.neg sub);
           (2, map F.conj (list_size (int_range 1 4) part));
           (1, map F.disj (list_size (int_range 1 4) part));
           (2, map2 F.( ==> ) part part);
           (1, map2 F.( <=> ) part part);
           (2, quantifier);
         ]
        @
        if temporal then [ (1, map F.henceforth sub); (1, map F.eventually sub) ] else []))

let ground_arb ~temporal =
  QCheck.make
    QCheck.Gen.(
      triple (QCheck.gen comp_arb)
        (ground_formula_gen ~temporal [ "a"; "b" ] 3)
        (pair (int_range 0 7) (int_range 0 7)))
    ~print:(fun (spec, f, (a, b)) ->
      Printf.sprintf "%s; a=%d b=%d (mod n); %s"
        (Option.get comp_arb.QCheck.print spec)
        a b (F.to_string f))

let outcome f = match f () with v -> Ok v | exception Eval.Error m -> Error m

let binding comp (a, b) =
  let n = C.n_events comp in
  [ ("a", a mod n); ("b", b mod n) ]

let prop_ground_history =
  QCheck.Test.make ~name:"ground form = eval_history" ~count:3000
    (ground_arb ~temporal:false) (fun (spec, f, ab) ->
      let comp = data_comp spec in
      let env = binding comp ab in
      let g = Eval.ground ~env comp f in
      List.for_all
        (fun h ->
          outcome (fun () -> Ground.holds h g) = outcome (fun () -> Eval.eval_history h env f))
        (History.all comp))

(* [Eval.eval_run] before grounding: the formula walked at every
   position of the run, each quantifier over its domain events there,
   each atom by the direct evaluator. *)
let reference_eval_run env run f =
  let len = Vhs.length run in
  let comp = Vhs.computation run in
  let count_until_two d env x pred =
    let rec loop n = function
      | [] -> n
      | h :: rest ->
          if pred ((x, h) :: env) then if n = 1 then 2 else loop 1 rest else loop n rest
    in
    loop 0 (Eval.domain_events comp d)
  in
  let rec at i env f =
    match f with
    | F.True -> true
    | F.False -> false
    | F.Atom _ -> Eval.eval_history (Vhs.nth_history run i) env f
    | F.Not f -> not (at i env f)
    | F.And fs -> List.for_all (at i env) fs
    | F.Or fs -> List.exists (at i env) fs
    | F.Implies (a, b) -> (not (at i env a)) || at i env b
    | F.Iff (a, b) -> at i env a = at i env b
    | F.Forall (x, d, body) ->
        List.for_all (fun h -> at i ((x, h) :: env) body) (Eval.domain_events comp d)
    | F.Exists (x, d, body) ->
        List.exists (fun h -> at i ((x, h) :: env) body) (Eval.domain_events comp d)
    | F.Exists_unique (x, d, body) ->
        count_until_two d env x (fun env -> at i env body) = 1
    | F.At_most_one (x, d, body) ->
        count_until_two d env x (fun env -> at i env body) <= 1
    | F.Henceforth body ->
        let rec all j = j >= len || (at j env body && all (j + 1)) in
        all i
    | F.Eventually body ->
        let rec some j = j < len && (at j env body || some (j + 1)) in
        some i
  in
  at 0 env f

let prop_ground_run =
  QCheck.Test.make ~name:"ground form = eval_run walk" ~count:1000
    (ground_arb ~temporal:true) (fun (spec, f, ab) ->
      let comp = data_comp spec in
      let env = binding comp ab in
      List.for_all
        (fun run ->
          outcome (fun () -> Eval.eval_run ~env run f)
          = outcome (fun () -> reference_eval_run env run f))
        (Vhs.all ~limit:20 comp))

(* ------------------------------------------------------------------ *)
(* Thread labelling on random chains                                   *)
(* ------------------------------------------------------------------ *)

let prop_thread_chains =
  QCheck.Test.make ~name:"thread labels follow chains" ~count:60
    (QCheck.make QCheck.Gen.(int_range 1 5)) (fun k ->
      (* k disjoint A->B chains; labelling must find k instances with 2
         events each. *)
      let b = Build.create () in
      for i = 0 to k - 1 do
        let a = Build.emit b ~element:(Printf.sprintf "P%d" i) ~klass:"A" () in
        ignore (Build.emit_enabled_by b ~by:a ~element:(Printf.sprintf "P%d" i) ~klass:"B" ())
      done;
      let def = Gem_spec.Thread.def "t" (Gem_spec.Thread.seq_of_domains [ F.Cls "A"; F.Cls "B" ]) in
      let comp = Gem_spec.Thread.label (Build.finish b) [ def ] in
      let instances = Gem_spec.Thread.instances comp "t" in
      List.length instances = k
      && List.for_all
           (fun i -> List.length (Gem_spec.Thread.events_of_instance comp "t" i) = 2)
           instances)


(* ------------------------------------------------------------------ *)
(* Awake-only successors and step-local keys                           *)
(* ------------------------------------------------------------------ *)

module Explore = Gem_lang.Explore
module Monitor = Gem_lang.Monitor
module Csp = Gem_lang.Csp
module Ada = Gem_lang.Ada
module Trace = Gem_lang.Trace
module T = Gem_obs.Telemetry

(* What one walk leaves behind: its leaves (as exact state keys, in the
   walk's canonical order), its counts, every telemetry counter and the
   number of [Interp_step] spans — or the evaluation error it raised. *)
type walk_outcome = {
  w_leaves : string list * string list;
  w_counts : int * int * int * string;
  w_counters : (string * int) list;
  w_steps : int;
}

let observe ~state_key walk =
  T.reset ();
  T.enable ();
  let r =
    match walk () with
    | (r : _ Explore.result) ->
        Ok
          {
            w_leaves = (List.map state_key r.completed, List.map state_key r.deadlocked);
            w_counts =
              ( r.explored,
                r.reduced,
                r.truncated,
                match r.exhausted with
                | None -> "-"
                | Some reason -> Gem_check.Budget.reason_keyword reason );
            w_counters = T.snapshot_counters ();
            w_steps = T.span_count T.Interp_step;
          }
    | exception Gem_lang.Expr.Eval_error msg -> Error msg
  in
  T.disable ();
  T.reset ();
  r

(* The awake-only walk against the eager one, under both reducing
   engines, on one interpreter's program. A small configuration cap
   keeps generated programs quick; both walks stop at the same
   configuration. [budget_cap] caps the walks with a fresh budget each
   instead. *)
let awake_matches_eager ?(max_configs = 2000) ?budget_cap (lang : _ Explore.lang) =
  let state_key = lang.exact_key and terminated = lang.terminated in
  let eager c = List.map (fun (_, fire) -> fire ()) (Explore.successors lang c) in
  List.for_all
    (fun reduction ->
      let key c = Explore.Fp (lang.fp_key c) in
      let budget () =
        Option.map (fun n -> Gem_check.Budget.make ~max_configs:n ()) budget_cap
      in
      let lazy_ =
        observe ~state_key (fun () ->
            Explore.run ~max_configs ?budget:(budget ()) ~key
              ~footprint:(Explore.successors lang) ~reduction
              ~moves:(fun _ -> invalid_arg "plain moves") ~terminated lang.init)
      in
      let eager_ =
        observe ~state_key (fun () ->
            Eager_walk.run ~max_configs ?budget:(budget ()) ~key ~footprint:eager ~reduction
              ~terminated lang.init)
      in
      lazy_ = eager_
      || QCheck.Test.fail_reportf "%s: the awake-only walk differs from the eager one"
           (Explore.reduction_name reduction))
    [ Explore.Sleep_sets; Explore.Source_sets ]

let prop_awake_monitor =
  QCheck.Test.make ~name:"awake-only walk = eager walk (Monitor)" ~count:40
    Gem_fuzz.Gen.monitor_arb (fun prog -> awake_matches_eager (Monitor.lang prog))

let prop_awake_csp =
  QCheck.Test.make ~name:"awake-only walk = eager walk (Csp)" ~count:40
    Gem_fuzz.Gen.csp_arb (fun prog -> awake_matches_eager (Csp.lang prog))

let prop_awake_ada =
  QCheck.Test.make ~name:"awake-only walk = eager walk (Ada)" ~count:40
    Gem_fuzz.Gen.ada_arb (fun prog -> awake_matches_eager (Ada.lang prog))

(* The generated programs are small (most CSP ones have no matching
   offers), so the walks are also compared on the problem workloads,
   each of whose walks takes hundreds to thousands of configurations —
   whole, and stopped early by a cap of 100 configurations, the walk's
   own and a budget's. *)
let test_awake_workloads () =
  let module P = Gem_problems in
  let check_one name lang =
    List.iter
      (fun (cap, ok) -> if not ok then Alcotest.failf "%s%s: walks differ" name cap)
      [
        ("", awake_matches_eager lang);
        (" at 100", awake_matches_eager ~max_configs:100 lang);
        (" at a budget of 100", awake_matches_eager ~budget_cap:100 lang);
      ]
  in
  check_one "rw 1r1w"
    (Monitor.lang
       (P.Readers_writers.program ~monitor:P.Readers_writers.paper_monitor ~readers:1
          ~writers:1));
  check_one "buffer monitor"
    (Monitor.lang
       (P.Buffer.monitor_solution ~capacity:1 ~producers:1 ~consumers:2 ~items_each:2));
  check_one "buffer csp"
    (Csp.lang (P.Buffer.csp_solution ~capacity:1 ~producers:1 ~consumers:2 ~items_each:2));
  check_one "db 2 sites" (Csp.lang (P.Db_update.program ~sites:2));
  check_one "rwd csp 1r1w" (Csp.lang (P.Rw_distributed.csp_program ~readers:1 ~writers:1));
  check_one "buffer ada"
    (Ada.lang (P.Buffer.ada_solution ~capacity:1 ~producers:1 ~consumers:1 ~items_each:2));
  check_one "rwd ada 1r1w" (Ada.lang (P.Rw_distributed.ada_program ~readers:1 ~writers:1))

(* The key components a monitor configuration reuses from the one it
   was stepped from give the key a from-scratch computation gives, on
   every configuration the sleep-set and source walks key. *)
let prop_fp_key_reuse =
  QCheck.Test.make ~name:"reused fp_key = from-scratch fp_key" ~count:60
    Gem_fuzz.Gen.monitor_arb (fun prog ->
      let keyed = ref 0 in
      let lang = Monitor.lang prog in
      let key c =
        let k = lang.fp_key c in
        incr keyed;
        if not (Gem_order.Fingerprint.equal k (Monitor.config_fp_uncached prog c)) then
          QCheck.Test.fail_reportf "configuration %d: reused key differs" !keyed;
        Explore.Fp k
      in
      List.iter
        (fun reduction ->
          ignore
            (Explore.run ~max_configs:2000 ~key ~footprint:(Explore.successors lang)
               ~reduction
               ~moves:(fun _ -> invalid_arg "plain moves")
               ~terminated:lang.terminated lang.init))
        [ Explore.Sleep_sets; Explore.Source_sets ];
      !keyed > 0)

(* [touched_elements] against the fold it replaced: the elements whose
   occurrence count grew between the two traces. *)
let old_touched_elements ~before after =
  let count t el = List.length (C.events_at (Trace.to_computation t) el) in
  let comp = Trace.to_computation after in
  List.fold_left
    (fun acc el -> if count before el = List.length (C.events_at comp el) then acc else el :: acc)
    [] (C.event_elements comp)

let prop_touched_elements =
  QCheck.Test.make ~name:"touched_elements = count fold" ~count:500
    (QCheck.make
       QCheck.Gen.(
         pair
           (list_size (int_range 0 8) (int_range 0 4))
           (list_size (int_range 0 6) (int_range 0 4))))
    (fun (prefix, step) ->
      let names = [| "a"; "b"; "b.lock"; "main"; "x" |] in
      let emit_all t els =
        List.fold_left
          (fun t el -> snd (Trace.emit t ~element:names.(el) ~klass:"E" ()))
          t els
      in
      let before = emit_all Trace.empty prefix in
      let after = emit_all before step in
      List.sort_uniq String.compare (Trace.touched_elements ~before after)
      = List.sort String.compare (old_touched_elements ~before after))

(* The renderer against [Event.pp] over the whole int range: negative
   numbers, both ends, escaped strings and nested values. *)
let wide_value_gen =
  QCheck.Gen.(
    let int_gen =
      oneof
        [
          int;
          oneofl [ min_int; max_int; min_int + 1; 0; -1; -9; -10; 10; -100; 1_000_000 ];
        ]
    in
    fix
      (fun self depth ->
        let leaf =
          oneof
            [
              map (fun i -> V.Int i) int_gen;
              map (fun s -> V.Str s) (oneofl [ "-1"; "q\"uote"; "\\"; "\n"; "\255" ]);
              return V.Unit;
            ]
        in
        if depth = 0 then leaf
        else
          frequency
            [
              (2, leaf);
              (1, map2 (fun a b -> V.Pair (a, b)) (self (depth - 1)) (self (depth - 1)));
              (1, map (fun xs -> V.List xs) (list_size (int_range 0 3) (self (depth - 1))));
            ])
      3)

let prop_renderer_ints =
  QCheck.Test.make ~name:"renderer = Event.pp over every int" ~count:1000
    (QCheck.make QCheck.Gen.(list_size (int_range 1 4) wide_value_gen))
    (fun values ->
      let b = Build.create () in
      let hs =
        List.mapi
          (fun i v ->
            Build.emit b ~element:(if i mod 2 = 0 then "e" else "d") ~klass:"K"
              ~params:[ ("v", v); ("i", V.Int (-i)) ] ())
          values
      in
      (match hs with h :: (_ :: _ as rest) -> List.iter (Build.enable b h) rest | _ -> ());
      let comp = Build.finish b in
      Explore.fingerprint comp = reference_fingerprint comp)

(* A step that raises is still raised when the walk fires it: the
   process's first statement reads an unbound variable. *)
let test_step_error_raises () =
  let open Monitor in
  let prog =
    {
      monitors = [];
      shared = [];
      processes =
        [
          { proc_name = "ok"; locals = []; code = [ PMark { klass = "M"; params = [] } ] };
          {
            proc_name = "bad";
            locals = [];
            code = [ PLocal ("x", Gem_lang.Expr.Var "unbound") ];
          };
        ];
    }
  in
  List.iter
    (fun reduction ->
      match Explore.explore ~reduction (Monitor.lang prog) with
      | _ ->
          Alcotest.failf "%s: the failing step did not raise"
            (Explore.reduction_name reduction)
      | exception Gem_lang.Expr.Eval_error _ -> ())
    [ Explore.Sleep_sets; Explore.Source_sets ]

(* ------------------------------------------------------------------ *)
(* Structural formula keys                                             *)
(* ------------------------------------------------------------------ *)

(* Formulas over a tiny alphabet, with every constructor, so that
   distinct formulas often print alike: [And [f]] and [Or [f]] both
   print "(f)", [Cls "S.A"] and [Cls_at ("S", "A")] both print "S.A",
   and a semantic predicate named "occurred" prints as the atom. *)
let printable_gen =
  let open QCheck.Gen in
  let name = oneofl [ "x"; "y" ] in
  let domain =
    fix
      (fun self depth ->
        let leaf =
          oneof
            [
              return F.Any;
              map (fun c -> F.Cls c) (oneofl [ "A"; "S.A" ]);
              map (fun e -> F.At_elem e) (oneofl [ "S"; "T" ]);
              map2 (fun e c -> F.Cls_at (e, c)) (oneofl [ "S"; "T" ]) (oneofl [ "A"; "B" ]);
            ]
        in
        if depth = 0 then leaf
        else frequency [ (3, leaf); (1, map (fun ds -> F.Union ds) (list_size (int_range 0 2) (self (depth - 1)))) ])
      1
  in
  let value =
    Gem_model.Value.(
      oneof
        [
          return Unit;
          map (fun b -> Bool b) bool;
          map (fun n -> Int n) (int_range (-1) 2);
          map (fun s -> Str s) (oneofl [ "x"; "a b"; "q\"\n" ]);
          map (fun n -> Pair (Int n, Str "x")) (int_range 0 1);
          map (fun ns -> List (List.map (fun n -> Int n) ns)) (list_size (int_range 0 2) (int_range 0 1));
        ])
  in
  let rec texp depth =
    let leaf =
      oneof
        [
          map (fun v -> F.Const v) value;
          map2 (fun x p -> F.Param (x, p)) name (oneofl [ "p"; "q" ]);
          map (fun x -> F.Index x) name;
        ]
    in
    if depth = 0 then leaf
    else frequency [ (3, leaf); (1, map2 (fun t n -> F.Plus (t, n)) (texp (depth - 1)) (int_range 0 2)) ]
  in
  let sem_fn _ _ _ = true in
  let atom =
    oneof
      [
        map (fun x -> F.Occurred x) name;
        map2 (fun x y -> F.Enables (x, y)) name name;
        map2 (fun x y -> F.Elem_lt (x, y)) name name;
        map2 (fun x y -> F.Temp_lt (x, y)) name name;
        map2 (fun x y -> F.Same_event (x, y)) name name;
        map2 (fun x y -> F.Same_element (x, y)) name name;
        map2 (fun x d -> F.In_class (x, d)) name domain;
        map3 (fun c a b -> F.Cmp (c, a, b)) (oneofl F.[ Eq; Ne; Lt; Le; Gt; Ge ]) (texp 2) (texp 1);
        map2 (fun x d -> F.At_class (x, d)) name domain;
        map (fun x -> F.New x) name;
        map (fun x -> F.Potential x) name;
        map3 (fun pi x y -> F.Same_thread (pi, x, y)) (oneofl [ "pi"; "rho" ]) name name;
        map3 (fun pi x y -> F.Distinct_thread (pi, x, y)) (oneofl [ "pi"; "rho" ]) name name;
        map2 (fun pi x -> F.In_thread (pi, x)) (oneofl [ "pi"; "rho" ]) name;
        map2
          (fun n xs -> F.Sem (n, xs, sem_fn))
          (oneofl [ "occurred"; "p" ])
          (list_size (int_range 0 2) name);
      ]
  in
  let rec formula depth =
    let leaf = oneof [ return F.True; return F.False; map (fun a -> F.Atom a) atom ] in
    if depth = 0 then leaf
    else
      let sub = formula (depth - 1) in
      let binder make = map3 make name domain sub in
      frequency
        [
          (2, leaf);
          (1, map (fun f -> F.Not f) sub);
          (1, map (fun fs -> F.And fs) (list_size (int_range 0 2) sub));
          (1, map (fun fs -> F.Or fs) (list_size (int_range 0 2) sub));
          (1, map2 (fun a b -> F.Implies (a, b)) sub sub);
          (1, map2 (fun a b -> F.Iff (a, b)) sub sub);
          (1, binder (fun x d f -> F.Forall (x, d, f)));
          (1, binder (fun x d f -> F.Exists (x, d, f)));
          (1, binder (fun x d f -> F.Exists_unique (x, d, f)));
          (1, binder (fun x d f -> F.At_most_one (x, d, f)));
          (1, map (fun f -> F.Henceforth f) sub);
          (1, map (fun f -> F.Eventually f) sub);
        ]
  in
  int_range 0 5 >>= formula

(* The old recursive [Format] printer's rendering with each line break
   Format took (the newline and the indentation after it) read back as
   the one space its break hint stands for: the text the fingerprint
   hashes. No name here contains a line feed, and no piece printed after
   a break hint starts with a space, so this undoes the layout
   exactly. *)
let unbroken f =
  let s = Rendered_keys.to_string f in
  let b = Buffer.create (String.length s) in
  let i = ref 0 in
  while !i < String.length s do
    if s.[!i] = '\n' then begin
      Buffer.add_char b ' ';
      incr i;
      while !i < String.length s && s.[!i] = ' ' do
        incr i
      done
    end
    else begin
      Buffer.add_char b s.[!i];
      incr i
    end
  done;
  Buffer.contents b

module Fp = Gem_order.Fingerprint

let prop_fingerprint_is_rendering =
  QCheck.Test.make ~name:"fingerprint hashes the rendering" ~count:2000
    (QCheck.make printable_gen ~print:F.to_string)
    (fun f -> Fp.equal (F.fingerprint f) (Fp.of_string (unbroken f)))

(* [pp] and the fingerprint share one walk; [pp] must still lay out what
   the recursive printer laid out, inside another box (as a spec listing
   and a witness report print it), and [to_string] is that text on one
   line. The generated formulas run past the margin, so both ways of
   taking a break are exercised. *)
let prop_pp_as_before =
  QCheck.Test.make ~name:"pp = the recursive printer" ~count:2000
    (QCheck.make printable_gen ~print:F.to_string)
    (fun f ->
      let boxed pp = Format.asprintf "@[<v 2>RESTRICTIONS@,@[<hov 2>name:@ %a@]@]" pp f in
      String.equal (F.to_string f) (unbroken f)
      && String.equal (boxed F.pp) (boxed Rendered_keys.pp))

(* Within a batch, equal fingerprints exactly when equal renderings:
   the batches are small formulas over a tiny alphabet, so many of the
   pairs print alike. *)
let prop_fingerprint_classes =
  QCheck.Test.make ~name:"equal fingerprints iff equal to_string" ~count:40
    (QCheck.make
       QCheck.Gen.(list_size (return 150) printable_gen)
       ~print:(fun fs -> String.concat "; " (List.map F.to_string fs)))
    (fun fs ->
      let keyed = List.map (fun f -> (Rendered_keys.to_string f, F.fingerprint f)) fs in
      List.for_all
        (fun (s, k) ->
          List.for_all (fun (s', k') -> String.equal s s' = Fp.equal k k') keyed)
        keyed)

(* The problem specs' own restrictions, long enough to be laid out over
   several lines, print as they did. *)
let test_pp_specs_as_before () =
  let module Rw = Gem_problems.Readers_writers in
  let specs =
    List.map (fun v -> Rw.spec v ~users:(Rw.user_names ~readers:2 ~writers:1)) Rw.all_versions
    @ [
        Gem_problems.Buffer.spec ~capacity:2;
        Gem_problems.Rw_distributed.spec ~readers:[ "R1"; "R2" ] ~writers:[ "W1" ];
        Gem_problems.Life.spec ~width:3 ~height:3;
      ]
  in
  List.iter
    (fun spec ->
      List.iter
        (fun (name, f) ->
          let boxed pp = Format.asprintf "@[<v 2>RESTRICTIONS@,@[<hov 2>%s:@ %a@]@]" name pp f in
          Alcotest.(check string) name (unbroken f) (F.to_string f);
          Alcotest.(check string) (name ^ " in a box") (boxed Rendered_keys.pp) (boxed F.pp))
        (Gem_spec.Spec.all_restrictions spec))
    specs

(* Formulas that differ in structure but print alike share a
   fingerprint, as they shared a rendered key; a formula that prints
   differently does not. *)
let test_printing_twins () =
  let sem_fn _ _ _ = true in
  let x = F.Atom (F.Occurred "x") in
  let same a b =
    Alcotest.(check string) (F.to_string a) (F.to_string a) (F.to_string b);
    Alcotest.(check string) (F.to_string a ^ " key") (Fp.to_hex (F.fingerprint a)) (Fp.to_hex (F.fingerprint b))
  in
  let differ a b =
    Alcotest.(check bool) (F.to_string a ^ " vs " ^ F.to_string b) false
      (Fp.equal (F.fingerprint a) (F.fingerprint b))
  in
  same (F.And [ x ]) (F.Or [ x ]);
  same (F.And []) (F.Or []);
  same (F.Atom (F.In_class ("x", F.Cls "S.A"))) (F.Atom (F.In_class ("x", F.Cls_at ("S", "A"))));
  same x (F.Atom (F.Sem ("occurred", [ "x" ], sem_fn)));
  same (F.Not (F.Henceforth (F.Not x))) (F.Not (F.Henceforth (F.Not x)));
  differ (F.And [ x ]) x;
  differ (F.And [ x; x ]) (F.Or [ x; x ]);
  differ (F.Not (F.Not x)) (F.Henceforth (F.Not x));
  differ (F.Not (F.And [ F.Not x ])) (F.Not (F.Not x))

(* A 500,000-deep negation chain keys without growing the stack, in well
   under a second, and hashes the text it prints. *)
let test_deep_negation () =
  let n = 500_000 in
  let rec chain k acc = if k = 0 then acc else chain (k - 1) (F.Not acc) in
  let f = chain n F.False in
  let t0 = Unix.gettimeofday () in
  let k = F.fingerprint f in
  let took = Unix.gettimeofday () -. t0 in
  Alcotest.(check bool) (Printf.sprintf "keyed in %.3f s" took) true (took < 1.0);
  let text =
    String.concat "" [ String.concat "" (List.init n (fun _ -> "~(")); "false"; String.make n ')' ]
  in
  Alcotest.(check string) "hashes the rendering" (Fp.to_hex (Fp.of_string text)) (Fp.to_hex k)

let () =
  let to_alc = QCheck_alcotest.to_alcotest in
  Alcotest.run "gem_properties"
    [
      ( "closure",
        [
          to_alc prop_closure_contains_base;
          to_alc prop_closure_idempotent;
          to_alc prop_closure_transitive;
          to_alc prop_reduction_preserves_closure;
          to_alc prop_reduction_minimal;
        ] );
      ( "extensions",
        [
          to_alc prop_extensions_are_topo_sorts;
          to_alc prop_step_sequences_at_least_extensions;
          to_alc prop_step_sequences_valid;
          to_alc prop_width_exact;
        ] );
      ( "computations",
        [
          to_alc prop_temporal_is_strict_order;
          to_alc prop_elem_lt_within_temporal;
          to_alc prop_histories_down_closed;
          to_alc prop_vhs_runs_complete;
          to_alc prop_frontier_matches_potential;
        ] );
      ( "evaluator",
        [
          to_alc prop_quantifier_duality;
          to_alc prop_temporal_duality;
          to_alc prop_occurred_monotone;
        ] );
      ( "lattice",
        [ to_alc prop_lattice_linearizations; to_alc prop_lattice_vhs ] );
      ("grounding", [ to_alc prop_ground_history; to_alc prop_ground_run ]);
      ("bitset", [ to_alc prop_bitset_model ]);
      ( "sealing",
        [
          to_alc prop_walk_matches_generic;
          to_alc prop_build_matches_generic;
          to_alc prop_fingerprint_unchanged;
        ] );
      ("threads", [ to_alc prop_thread_chains ]);
      ( "awake-only",
        [
          to_alc prop_awake_monitor;
          to_alc prop_awake_csp;
          to_alc prop_awake_ada;
          Alcotest.test_case "problem workloads" `Quick test_awake_workloads;
          to_alc prop_fp_key_reuse;
          to_alc prop_touched_elements;
          to_alc prop_renderer_ints;
          Alcotest.test_case "failing step raises" `Quick test_step_error_raises;
        ] );
      ( "struct-keys",
        [
          to_alc prop_fingerprint_is_rendering;
          to_alc prop_pp_as_before;
          Alcotest.test_case "pp of the problem specs" `Quick test_pp_specs_as_before;
          to_alc prop_fingerprint_classes;
          Alcotest.test_case "printing twins" `Quick test_printing_twins;
          Alcotest.test_case "500,000-deep negation" `Quick test_deep_negation;
        ] );
    ]
