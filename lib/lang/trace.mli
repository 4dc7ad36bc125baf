(** Persistent (purely functional) event-trace builder.

    Language interpreters thread a trace through their configurations;
    because it is persistent, the scheduler can branch without copying.
    Handles issued by {!emit} are stable across branches that share a
    prefix. [to_computation] seals a branch's trace into a
    {!Gem_model.Computation.t}. *)

type t

val empty : t

val emit :
  t ->
  ?actor:string ->
  element:string ->
  klass:string ->
  ?params:(string * Gem_model.Value.t) list ->
  unit ->
  int * t
(** New event at the element (next occurrence index there); returns its
    handle. *)

val enable : t -> int -> int -> t
(** Raises [Invalid_argument] on a self-enable or unknown handle. *)

val emit_after :
  t ->
  ?actor:string ->
  after:int option ->
  element:string ->
  klass:string ->
  ?params:(string * Gem_model.Value.t) list ->
  unit ->
  int * t
(** [emit], plus an enable edge from [after] when given — the common
    "sequential control passes" shape. *)

val n_events : t -> int

val fp : t -> Gem_order.Fingerprint.t
(** Running history fingerprint: a commutative (emission-order
    independent) hash of the event multiset — identity, class, params;
    actors/threads excluded, mirroring [Explore.fingerprint] — and the
    enable-edge multiset over event identities. Maintained incrementally
    by {!emit}/{!enable}, so reading it is O(1); two traces sealing to
    the same canonical computation have equal fingerprints, and distinct
    computations collide with negligible probability. *)

val id_fp : t -> int -> Gem_order.Fingerprint.t
(** Fingerprint of a handle's stable event identity (element +
    occurrence index) — what interpreters hash instead of the raw handle,
    which is an emission-order-dependent global index. Raises [Not_found]
    on an unknown handle. *)

val touched_elements : before:t -> t -> string list
(** Elements that gained at least one event between [before] and the
    (extended) trace — the event-footprint of the step that produced it —
    one entry per added event, in emission order, so an element can
    repeat ({!Explore.successors} sorts and deduplicates the footprint).
    It reads only the events the step added. Only meaningful when the
    second trace extends [before]. *)

val to_computation :
  ?extra_elements:string list ->
  ?groups:Gem_model.Group.t list ->
  t ->
  Gem_model.Computation.t
(** Elements are those events occurred at (in first-occurrence order) plus
    [extra_elements] (declared even if eventless). *)
