module Computation = Gem_model.Computation
module Event = Gem_model.Event
module Poset = Gem_order.Poset

type mapping = {
  to_element : string;
  to_class : string;
  to_params : (string * Gem_model.Value.t) list;
}

type correspondence = Computation.t -> int -> mapping option

type edge_rule = Causal_paths | Actor_paths

type projection_error =
  | Unserializable of int * int
  | Cyclic_program

let pp_projection_error ppf = function
  | Unserializable (a, b) ->
      Format.fprintf ppf
        "projection: events %d and %d map to the same problem element but are concurrent"
        a b
  | Cyclic_program -> Format.fprintf ppf "projection: program computation is cyclic"

let project ?(edges = Causal_paths) corr comp ~elements ~groups =
  Gem_obs.Telemetry.(time Project) @@ fun () ->
  match Computation.temporal comp with
  | None -> Error Cyclic_program
  | Some poset -> (
      let mapped = Array.init (Computation.n_events comp) (corr comp) in
      let significant =
        List.filter_map
          (fun h -> Option.map (fun m -> (h, m)) mapped.(h))
          (Computation.all_events comp)
      in
      (* Group significant events by target element, verify totality of the
         induced element order, and assign occurrence indices. *)
      let by_element = Hashtbl.create 8 in
      List.iter
        (fun (h, m) ->
          let prev = Option.value ~default:[] (Hashtbl.find_opt by_element m.to_element) in
          Hashtbl.replace by_element m.to_element (h :: prev))
        significant;
      let clash = ref None in
      let index_of = Hashtbl.create 16 in
      Hashtbl.iter
        (fun _el hs ->
          let hs = List.rev hs in
          List.iter
            (fun a ->
              List.iter
                (fun b ->
                  if a <> b && Poset.concurrent poset a b && !clash = None then
                    clash := Some (a, b))
                hs)
            hs;
          (* Occurrence index = number of set members strictly below. *)
          List.iter
            (fun a ->
              let idx = List.length (List.filter (fun b -> Poset.lt poset b a) hs) in
              Hashtbl.replace index_of a idx)
            hs)
        by_element;
      match !clash with
      | Some (a, b) -> Error (Unserializable (a, b))
      | None ->
          (* Array order: position in the temporal order's recorded linear
             extension (handle order is already consistent per element; the
             causal topological order makes it globally deterministic). *)
          let ordered =
            List.filter_map
              (fun h -> Option.map (fun m -> (h, m)) mapped.(h))
              (Poset.linear_extension poset)
          in
          let new_handle = Hashtbl.create 16 in
          List.iteri (fun i (h, _) -> Hashtbl.replace new_handle h i) ordered;
          let events =
            Array.of_list
              (List.map
                 (fun (h, m) ->
                   Event.make ~element:m.to_element
                     ~index:(Hashtbl.find index_of h)
                     ~klass:m.to_class m.to_params)
                 ordered)
          in
          (* Projected enable: paths through non-significant events only;
             under Actor_paths the whole path must stay within one actor's
             activity. *)
          let enable = ref [] in
          let add_edge a b =
            enable := (Hashtbl.find new_handle a, Hashtbl.find new_handle b) :: !enable
          in
          let is_significant h = Hashtbl.mem new_handle h in
          let actor_of h = (Computation.event comp h).Event.actor in
          List.iter
            (fun (a, _) ->
              let source_actor = actor_of a in
              let admissible h =
                match edges with
                | Causal_paths -> true
                | Actor_paths -> source_actor <> None && actor_of h = source_actor
              in
              let seen = Hashtbl.create 8 in
              let rec reach h =
                List.iter
                  (fun s ->
                    if not (Hashtbl.mem seen s) then begin
                      Hashtbl.add seen s ();
                      if admissible s then
                        if is_significant s then add_edge a s else reach s
                    end)
                  (Computation.enable_succs comp h)
              in
              reach a)
            ordered;
          (* Transport the program's element order: significant events at
             the same program element are observably sequential (forced by
             their shared locus), so consecutive ones are linked even when
             they map to different problem elements — otherwise that order
             would be lost, since problem element order only covers events
             mapped to the same problem element. *)
          let by_prog_element = Hashtbl.create 8 in
          List.iter
            (fun (h, m) ->
              let el = (Computation.event comp h).Event.id.element in
              let prev = Option.value ~default:[] (Hashtbl.find_opt by_prog_element el) in
              Hashtbl.replace by_prog_element el ((h, m) :: prev))
            ordered;
          Hashtbl.iter
            (fun _el hs ->
              let sorted =
                List.sort
                  (fun (a, _) (b, _) ->
                    Int.compare (Computation.event comp a).Event.id.index
                      (Computation.event comp b).Event.id.index)
                  hs
              in
              let rec link = function
                | (a, ma) :: ((b, mb) :: _ as rest) ->
                    if not (String.equal ma.to_element mb.to_element) then add_edge a b;
                    link rest
                | [ _ ] | [] -> ()
              in
              link sorted)
            by_prog_element;
          let element_names = List.map fst elements in
          Ok
            (Computation.unsafe_make ~elements:element_names ~groups ~events
               ~enable:(List.rev !enable)))

let failed_projection ~spec_name err =
  {
    Verdict.spec_name;
    legality = [];
    failures =
      [
        {
          Verdict.restriction = Format.asprintf "%a" pp_projection_error err;
          formula = Gem_logic.Formula.False;
          witness = None;
        };
      ];
    runs_checked = 0;
    complete = true;
    exhaustion = None;
    coverage = Budget.full_coverage;
  }

let sat ?strategy ?budget ?jobs ?edges ~problem ~map comps =
  let verdicts =
    Check.map_checked ?jobs
      (fun comp ->
        match
          project ?edges map comp ~elements:problem.Gem_spec.Spec.elements
            ~groups:problem.Gem_spec.Spec.groups
        with
        | Error err ->
            failed_projection ~spec_name:problem.Gem_spec.Spec.spec_name err
        | Ok projected -> Check.check ?strategy ?budget problem projected)
      comps
  in
  List.mapi (fun i verdict -> (i, verdict)) verdicts

let sat_ok ?strategy ?budget ?jobs ?edges ~problem ~map comps =
  List.for_all
    (fun (_, v) -> Verdict.ok v)
    (sat ?strategy ?budget ?jobs ?edges ~problem ~map comps)

let sat_status ?strategy ?budget ?jobs ?edges ~problem ~map comps =
  Verdict.overall (List.map snd (sat ?strategy ?budget ?jobs ?edges ~problem ~map comps))
