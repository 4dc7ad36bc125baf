(** GEM computations: finite sets of events with the three relations
    (paper §3, §5).

    A computation holds
    - its declared elements and groups,
    - its events, densely numbered [0 .. n_events-1] (the {e handle}),
    - the enable relation [e1 |> e2] as an explicit edge set,
    - the element order [e1 =>el e2], which is structural: [e1] precedes
      [e2] in the element order iff they occur at the same element and
      [e1]'s occurrence index is smaller,
    - the temporal order [e1 => e2]: transitive closure of the union of the
      enable relation and the element order, minus identity. It exists (is
      a strict partial order) iff that union is acyclic; an acyclic-ness
      failure makes the computation illegal (checked by
      {!Gem_spec.Legality}).

    Computations are immutable; use {!Build} to construct them. *)

type t

(** {1 Structure} *)

val elements : t -> string list
(** Declared element names in declaration order. *)

val groups : t -> Group.t list

val group : t -> string -> Group.t option

val has_element : t -> string -> bool

(** {1 Events} *)

val n_events : t -> int

val event : t -> int -> Event.t
(** Raises [Invalid_argument] on an out-of-range handle. *)

val find : t -> Event.id -> int option
(** Handle of the event with the given identity, by a scan of its
    element's events. *)

val find_exn : t -> Event.id -> int

val handle_of : t -> element:string -> index:int -> int option

val all_events : t -> int list

val events_at : t -> string -> int list
(** Handles of the events at an element, in element order. *)

val event_elements : t -> string list
(** The elements that have events, in [String.compare] order. *)

val events_of_class : t -> string -> int list
(** Handles of all events of a class, ascending handle order. *)

val events_of_class_at : t -> element:string -> klass:string -> int list

(** {1 Relations} *)

val enables : t -> int -> int -> bool
(** The enable relation [|>] on handles. *)

val enable_succs : t -> int -> int list

val enable_preds : t -> int -> int list

val enable_graph : t -> Gem_order.Digraph.t

val elem_lt : t -> int -> int -> bool
(** The element order: same element, strictly smaller occurrence index. *)

val causal_graph : t -> Gem_order.Digraph.t
(** Enable edges plus element-successor edges — the generator whose
    transitive closure is the temporal order. *)

val temporal : t -> Gem_order.Poset.t option
(** The temporal order, or [None] when the causal graph is cyclic
    (computed once at construction). Its
    {!Gem_order.Poset.linear_extension} is the causal graph's
    topological order, smallest ready handle first. *)

val temporal_exn : t -> Gem_order.Poset.t

val temp_lt : t -> int -> int -> bool
(** [e1 => e2]. Raises [Invalid_argument] if the computation is cyclic. *)

val concurrent : t -> int -> int -> bool
(** Potentially concurrent: distinct and temporally unordered. *)

(** {1 Transformation} *)

val map_events : (int -> Event.t -> Event.t) -> t -> t
(** Rebuild with transformed events (identities must be preserved); used by
    the thread-labelling engine. Raises [Invalid_argument] if a transformed
    event changes its [id]. *)

val pp : Format.formatter -> t -> unit

(** {1 Construction (used by {!Build})} *)

val unsafe_make :
  elements:string list ->
  groups:Group.t list ->
  events:Event.t array ->
  enable:(int * int) list ->
  t
(** [enable] lists the enable edges between handles (repeats allowed).
    At each element, handle order must be occurrence-index order, which
    also makes identities unique; {!Build.finish}, [Trace.to_computation]
    and [Refine.project] guarantee this, and a violation raises
    [Invalid_argument]. Builds every table and the temporal order in one
    pass. *)
