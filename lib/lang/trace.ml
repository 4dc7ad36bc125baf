module Smap = Map.Make (String)
module Imap = Map.Make (Int)
module Event = Gem_model.Event
module Fp = Gem_order.Fingerprint

(* The running fingerprint hashes the same information the canonical
   computation rendering ([Explore.fingerprint]) exposes — event identity
   (element + occurrence index), class, params, and enable edges between
   identities — as a commutative multiset, so it is emission-order
   independent without ever walking the history. Actors and threads are
   deliberately excluded, exactly as the rendering excludes them: the
   fingerprint partitions configurations into the same classes as the
   exact key (up to hash collisions), which keeps memo hit counts
   identical between the two key modes. *)
let event_tag = Fp.of_int 0x3e7
let edge_tag = Fp.of_int 0xed6e

(* An element's next occurrence index, and the fingerprint of its name,
   hashed once at the element's first event. *)
type count = { next : int; name_fp : Fp.t }

type t = {
  rev_events : Event.t list;
  counts : count Smap.t;
  rev_edges : (int * int) list;
  n : int;
  fp : Fp.t;  (** Commutative hash of the event and edge multisets. *)
  id_fps : Fp.t Imap.t;  (** Handle -> fingerprint of its stable identity. *)
}

let empty =
  {
    rev_events = [];
    counts = Smap.empty;
    rev_edges = [];
    n = 0;
    fp = Fp.zero;
    id_fps = Imap.empty;
  }

let fp t = t.fp
let id_fp t h = Imap.find h t.id_fps

let emit t ?actor ~element ~klass ?(params = []) () =
  let index, name_fp =
    match Smap.find_opt element t.counts with
    | Some c -> (c.next, c.name_fp)
    | None -> (0, Fp.of_string element)
  in
  let e = Event.make ?actor ~element ~index ~klass params in
  let idf = Fp.combine name_fp (Fp.of_int index) in
  let contrib =
    Fp.combine event_tag
      (Fp.combine idf (Fp.combine (Fp.of_string klass) (Fp.of_struct params)))
  in
  ( t.n,
    {
      rev_events = e :: t.rev_events;
      counts = Smap.add element { next = index + 1; name_fp } t.counts;
      rev_edges = t.rev_edges;
      n = t.n + 1;
      fp = Fp.cadd t.fp contrib;
      id_fps = Imap.add t.n idf t.id_fps;
    } )

let enable t a b =
  if a = b then invalid_arg "Trace.enable: self-enable";
  if a < 0 || a >= t.n || b < 0 || b >= t.n then invalid_arg "Trace.enable: bad handle";
  let contrib =
    Fp.combine edge_tag (Fp.combine (Imap.find a t.id_fps) (Imap.find b t.id_fps))
  in
  { t with rev_edges = (a, b) :: t.rev_edges; fp = Fp.cadd t.fp contrib }

let emit_after t ?actor ~after ~element ~klass ?params () =
  let h, t = emit t ?actor ~element ~klass ?params () in
  let t = match after with Some a -> enable t a h | None -> t in
  (h, t)

let n_events t = t.n

let touched_elements ~before after =
  (* Traces are persistent and only ever extended, so the events a step
     added are the first [after.n - before.n] of [after.rev_events]. *)
  let rec added k events acc =
    match events with
    | (e : Event.t) :: rest when k > 0 -> added (k - 1) rest (e.id.element :: acc)
    | _ -> acc
  in
  added (after.n - before.n) after.rev_events []

let to_computation ?(extra_elements = []) ?(groups = []) t =
  let events = Array.of_list (List.rev t.rev_events) in
  let seen = Hashtbl.create 16 in
  let elements_in_order =
    Array.to_list events
    |> List.filter_map (fun (e : Event.t) ->
           if Hashtbl.mem seen e.id.element then None
           else begin
             Hashtbl.add seen e.id.element ();
             Some e.id.element
           end)
  in
  let extras = List.filter (fun el -> not (Hashtbl.mem seen el)) extra_elements in
  Gem_model.Computation.unsafe_make
    ~elements:(elements_in_order @ extras)
    ~groups ~events ~enable:(List.rev t.rev_edges)
