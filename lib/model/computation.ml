module Digraph = Gem_order.Digraph
module Poset = Gem_order.Poset

type t = {
  elements : string list;
  groups : Group.t list;
  events : Event.t array;
  enable : Digraph.t;
  at_element : (string, int list) Hashtbl.t;  (* element -> handles in order *)
  temporal : Poset.t option;
}

let elements t = t.elements
let groups t = t.groups
let group t name = List.find_opt (fun (g : Group.t) -> String.equal g.name name) t.groups
let has_element t name = List.exists (String.equal name) t.elements
let n_events t = Array.length t.events

let event t h =
  if h < 0 || h >= Array.length t.events then invalid_arg "Computation.event";
  t.events.(h)

let find t (id : Event.id) =
  Option.bind (Hashtbl.find_opt t.at_element id.element)
    (List.find_opt (fun h -> t.events.(h).Event.id.index = id.index))

let find_exn t id =
  match find t id with
  | Some h -> h
  | None -> invalid_arg (Format.asprintf "Computation.find_exn: no event %a" Event.pp_id id)

let handle_of t ~element ~index = find t { Event.element; index }

let all_events t = List.init (Array.length t.events) Fun.id

let events_at t el = Option.value ~default:[] (Hashtbl.find_opt t.at_element el)

let event_elements t =
  List.sort String.compare (Hashtbl.fold (fun el _ acc -> el :: acc) t.at_element [])

let events_of_class t klass =
  let acc = ref [] in
  Array.iteri (fun h e -> if Event.has_class e klass then acc := h :: !acc) t.events;
  List.rev !acc

let events_of_class_at t ~element ~klass =
  List.filter (fun h -> Event.has_class t.events.(h) klass) (events_at t element)

let enables t a b = Digraph.mem_edge t.enable a b
let enable_succs t a = Digraph.succs t.enable a
let enable_preds t a = Digraph.preds t.enable a
let enable_graph t = t.enable

let elem_lt t a b =
  let ea = (event t a).Event.id and eb = (event t b).Event.id in
  String.equal ea.element eb.element && ea.index < eb.index

let temporal t = t.temporal

let temporal_exn t =
  match t.temporal with
  | Some p -> p
  | None -> invalid_arg "Computation: causal graph is cyclic, no temporal order"

let temp_lt t a b = Poset.lt (temporal_exn t) a b
let concurrent t a b = a <> b && not (temp_lt t a b) && not (temp_lt t b a)

(* One pass over the enable edges and the events builds the enable graph,
   the per-element lists and the successor lists of the temporal order's
   walk (enable plus element-successor edges). A scan from the last
   handle down meets each element's events from the highest occurrence
   index down, so consing links each event to its element successor and
   leaves every list in element order. *)
let unsafe_make ~elements ~groups ~events ~enable:edges =
  let n = Array.length events in
  let enable = Digraph.create n in
  let succs = Array.make n [] in
  List.iter
    (fun (a, b) ->
      Digraph.add_edge enable a b;
      succs.(a) <- b :: succs.(a))
    edges;
  let at_element = Hashtbl.create 16 in
  for h = n - 1 downto 0 do
    let id = events.(h).Event.id in
    match Hashtbl.find_opt at_element id.element with
    | Some (next :: _ as hs) ->
        if id.index >= events.(next).Event.id.index then
          invalid_arg "Computation.unsafe_make: element order differs from handle order";
        succs.(h) <- next :: succs.(h);
        Hashtbl.replace at_element id.element (h :: hs)
    | Some [] | None -> Hashtbl.replace at_element id.element [ h ]
  done;
  let temporal = Poset.of_succs succs in
  { elements; groups; events; enable; at_element; temporal }

let map_events f t =
  let events =
    Array.mapi
      (fun h e ->
        let e' = f h e in
        if not (Event.id_equal e'.Event.id e.Event.id) then
          invalid_arg "Computation.map_events: event identity changed";
        e')
      t.events
  in
  { t with events }

let pp ppf t =
  Format.fprintf ppf "@[<v>computation: %d elements, %d groups, %d events"
    (List.length t.elements) (List.length t.groups) (Array.length t.events);
  Array.iteri
    (fun h e ->
      Format.fprintf ppf "@,%3d  %a" h Event.pp e;
      match Digraph.succs t.enable h with
      | [] -> ()
      | ss ->
          Format.fprintf ppf "  |> %a"
            (Format.pp_print_list
               ~pp_sep:(fun ppf () -> Format.fprintf ppf ",")
               Format.pp_print_int)
            ss)
    t.events;
  Format.fprintf ppf "@]"
