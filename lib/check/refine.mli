(** The paper's [sat] relation (§9): a program specification satisfies a
    problem specification when every legal computation of the program,
    restricted to its {e significant objects}, behaves like a legal
    computation of the problem.

    A {!correspondence} maps each significant program event to its problem
    counterpart (problem element, event class, parameters). {!project}
    erases everything else:

    - significant events are renumbered per problem element, ordered by the
      program computation's temporal order — if two significant events
      mapped to the same problem element are potentially concurrent, the
      element order required by the problem does not exist and projection
      fails ({!Unserializable});
    - the projected enable relation has an edge [a' |> b'] iff the program
      has an enable path from [a] to [b] through non-significant events
      only — intermediate machinery (lock acquisitions, queue hops) is
      erased while direct causality is kept. *)

type mapping = {
  to_element : string;
  to_class : string;
  to_params : (string * Gem_model.Value.t) list;
}

type correspondence = Gem_model.Computation.t -> int -> mapping option
(** [None] = not a significant event. *)

(* How projected enable edges are derived from program enable paths. *)
type edge_rule =
  | Causal_paths
      (** [a' |> b'] iff the program has an enable path from [a] to [b]
          through non-significant events only — full causality, including
          scheduler artifacts such as lock handovers. Right when the
          problem's restrictions are purely temporal/data (the buffer
          problems). *)
  | Actor_paths
      (** Additionally, every event on the path (including [a] and [b])
          must carry the same actor — the projected enable relation is the
          per-activity control flow, which is what transaction-chain
          prerequisites mean (Readers/Writers). Cross-activity ordering is
          still captured by the problem's element orders. *)

type projection_error =
  | Unserializable of int * int
      (** Two significant program events (handles in the program
          computation) map to the same problem element but are potentially
          concurrent. *)
  | Cyclic_program
      (** The program computation has no temporal order. *)

val project :
  ?edges:edge_rule ->
  correspondence ->
  Gem_model.Computation.t ->
  elements:(string * Gem_spec.Etype.t) list ->
  groups:Gem_model.Group.t list ->
  (Gem_model.Computation.t, projection_error) result
(** [edges] defaults to [Causal_paths]; [elements]/[groups] give the
    projected computation the problem spec's declared structure. *)

val sat :
  ?strategy:Strategy.t ->
  ?budget:Budget.t ->
  ?jobs:int ->
  ?edges:edge_rule ->
  problem:Gem_spec.Spec.t ->
  map:correspondence ->
  Gem_model.Computation.t list ->
  (int * Verdict.t) list
(** Check every program computation's projection against the problem spec;
    returns the index of each computation with its verdict. A projection
    error is reported as a legality-style failed verdict. Budget
    exhaustion surfaces as [Inconclusive] verdicts, never an exception.
    [jobs] (default 1) projects and checks computations on that many
    domains via {!Par.map}; indices and order are preserved regardless.
    A restriction that cannot be evaluated raises
    {!Check.Restriction_error} for the first failing computation in list
    order, whatever [jobs] is. *)

(** {1 Prepared computations}

    {!sat} prepares each computation just before checking it, so a
    one-shot check never holds more than the computations being checked
    at once. A caller that checks one set of computations against
    several restriction sets (the daemon's shared explorations) prepares
    them once with {!prepare} and checks them with {!sat_prepared}; both
    go through one checking path. *)

type prepared
(** A program computation projected onto the problem's significant
    objects and {!Check.prepare}d, or the projection's error. *)

val prepare :
  ?edges:edge_rule ->
  problem:Gem_spec.Spec.t ->
  map:correspondence ->
  Gem_model.Computation.t ->
  prepared
(** Reads only the problem's elements, groups, element types and
    threads (never its restrictions or its name), like
    {!Check.prepare}. *)

val sat_prepared :
  ?strategy:Strategy.t ->
  ?budget:Budget.t ->
  ?jobs:int ->
  problem:Gem_spec.Spec.t ->
  prepared list ->
  (int * Verdict.t) list
(** {!sat} on computations prepared already: the same verdicts, indices
    and {!Check.Restriction_error}. *)

val sat_ok :
  ?strategy:Strategy.t ->
  ?budget:Budget.t ->
  ?jobs:int ->
  ?edges:edge_rule ->
  problem:Gem_spec.Spec.t ->
  map:correspondence ->
  Gem_model.Computation.t list ->
  bool

val sat_status :
  ?strategy:Strategy.t ->
  ?budget:Budget.t ->
  ?jobs:int ->
  ?edges:edge_rule ->
  problem:Gem_spec.Spec.t ->
  map:correspondence ->
  Gem_model.Computation.t list ->
  Verdict.status
(** Three-valued aggregate over all computations ({!Verdict.overall}). *)

val pp_projection_error : Format.formatter -> projection_error -> unit
