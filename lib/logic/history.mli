(** Histories: downward-closed prefixes of a computation (paper §7).

    A history describes "what has happened so far": a subset of the
    computation's events that contains every temporal predecessor of each of
    its members, together with the (restriction of the) relations between
    them. We represent a history as the computation plus a member bitset,
    so event handles remain stable across prefixes. *)

type t

val computation : t -> Gem_model.Computation.t

val members : t -> Gem_order.Bitset.t
(** The member set (a copy; histories are immutable). *)

val empty : Gem_model.Computation.t -> t

val full : Gem_model.Computation.t -> t

val of_set : Gem_model.Computation.t -> Gem_order.Bitset.t -> t option
(** [None] unless the set is downward closed under the temporal order.
    Requires the computation to be acyclic. *)

val down_closure : Gem_model.Computation.t -> Gem_order.Bitset.t -> t
(** Smallest history containing the given events. *)

val mem : t -> int -> bool
(** The paper's [occurred(e)] relative to this history. *)

val cardinal : t -> int

val is_full : t -> bool

val prefix : t -> t -> bool
(** [prefix a b]: [a] is a prefix of (subset of) [b]. *)

val equal : t -> t -> bool

val add_step : t -> int list -> t option
(** Extend by one vhs step: all step events fresh, pairwise potentially
    concurrent, and with all temporal predecessors already in the history
    (equivalently, the result is again a history and the step is an
    antichain). [None] if any condition fails. *)

val frontier : t -> int list
(** Events not in the history whose temporal predecessors are all in it —
    exactly the events [potential] in this history (paper §9 footnote). *)

val potential : t -> int -> bool
(** [potential h e]: [e] has not occurred and all its prerequisites have. *)

val is_new : t -> int -> bool
(** The paper's [new(e)]: [e] occurred and no event observably follows it
    within the history. *)

val at : t -> int -> (int -> bool) -> bool
(** [at h e1 is_e2]: the paper's [e1 at E2] — [e1] occurred and has not
    enabled any event satisfying [is_e2] within the history. *)

type lattice = {
  histories : t array;
      (** Every history, breadth-first from the empty one: index 0 is the
          empty history, the last index the full one, and histories are
          ordered by cardinality, so every edge goes to a higher index. *)
  succs : (int * int) list array;
      (** [succs.(i)] holds [(e, j)] for each event [e] of the
          {!frontier} of history [i], in increasing [e], where [j] is the
          index of history [i] plus [e]. *)
}
(** The lattice of histories (down-sets) with single-event edges — the
    consistent cuts of the temporal order. Its maximal paths from index
    0 are exactly the linearizations. *)

val lattice :
  ?cap:int -> ?stop:(unit -> bool) -> Gem_model.Computation.t -> lattice option
(** The whole lattice, or [None] once it would exceed [cap] histories or
    [stop] returns true; [stop] is polled before the first history and
    then every 64. Exponential in the computation's width. *)

val all : Gem_model.Computation.t -> t list
(** Every history of the computation, in {!lattice} order; exponential —
    intended for small computations and tests. *)

val count : ?cap:int -> Gem_model.Computation.t -> int
(** Number of histories (down-sets), capped. *)

val pp : Format.formatter -> t -> unit
