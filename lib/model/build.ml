type t = {
  mutable element_order : string list;  (* reversed declaration order *)
  element_counts : (string, int) Hashtbl.t;
  mutable groups : Group.t list;  (* reversed *)
  mutable events : Event.t list;  (* reversed *)
  mutable n : int;
  mutable enable_edges : (int * int) list;
}

let create () =
  {
    element_order = [];
    element_counts = Hashtbl.create 16;
    groups = [];
    events = [];
    n = 0;
    enable_edges = [];
  }

let declare_element t name =
  if not (Hashtbl.mem t.element_counts name) then begin
    Hashtbl.add t.element_counts name 0;
    t.element_order <- name :: t.element_order
  end

let declare_group t (g : Group.t) =
  if List.exists (fun (g' : Group.t) -> String.equal g'.name g.name) t.groups then
    invalid_arg ("Build.declare_group: duplicate group " ^ g.name);
  t.groups <- g :: t.groups

let emit t ~element ~klass ?(params = []) () =
  declare_element t element;
  let index = Hashtbl.find t.element_counts element in
  Hashtbl.replace t.element_counts element (index + 1);
  let e = Event.make ~element ~index ~klass params in
  t.events <- e :: t.events;
  let handle = t.n in
  t.n <- t.n + 1;
  handle

let enable t a b =
  if a = b then invalid_arg "Build.enable: the enable relation is irreflexive";
  if a < 0 || a >= t.n || b < 0 || b >= t.n then invalid_arg "Build.enable: bad handle";
  t.enable_edges <- (a, b) :: t.enable_edges

let emit_enabled_by t ~by ~element ~klass ?params () =
  let h = emit t ~element ~klass ?params () in
  enable t by h;
  h

let event_count t = t.n

let finish t =
  Computation.unsafe_make
    ~elements:(List.rev t.element_order)
    ~groups:(List.rev t.groups)
    ~events:(Array.of_list (List.rev t.events))
    ~enable:(List.rev t.enable_edges)
