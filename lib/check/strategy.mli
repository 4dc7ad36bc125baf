(** Run-enumeration strategies for temporal restriction checking.

    The set of valid history sequences grows explosively with the number of
    concurrent events; this module packages the three ways we cope (the E14
    ablation compares them):

    - exhaustively enumerate all complete runs (sound and complete, small
      computations only);
    - enumerate only maximal runs — linear extensions, one event per step
      (complete for properties insensitive to simultaneous occurrence;
      every vhs's history set is a subset of the union of linearization
      history sets... not in general — see EXPERIMENTS.md E14 discussion);
    - sample random runs (sound for falsification only).

    {!Check} decides the restrictions of the lattice fragment on the
    lattice of histories instead ({!Gem_logic.Lattice}); for those the
    strategy only says which runs are meant and bounds the lattice
    through {!cap}.

    {b Domain safety.} Enumeration is pure per call: [Sampled] draws from
    a [Random.State] seeded inside the call (no global generator), and no
    strategy touches module-level mutable state, so concurrent
    {!enumerate} calls from different domains (e.g. under
    {!Check.check_all} or {!Refine.sat} with [~jobs]) never interfere and
    stay per-call deterministic. *)

type t =
  | Exhaustive_vhs of int option  (** Optional cap on the number of runs. *)
  | Linearizations of int option
  | Sampled of { seed : int; count : int }

val default : t
(** [Exhaustive_vhs (Some 20_000)]. *)

val default_run_cap : int
(** The run cap {!of_budget} falls back to when the budget carries no
    [max_runs] (400 — the cap the CLI and experiments historically
    hard-coded). *)

val of_budget : Budget.t -> t
(** [Linearizations (Some cap)] with the cap taken from the budget's
    [max_runs] (default {!default_run_cap}) — the one knob the CLI,
    benches and experiments share. *)

type enumeration = {
  runs : Gem_logic.Vhs.t list;
  truncated_at : int option;
      (** [Some cap] iff the computation has strictly more runs than the
          effective cap — the enumeration was cut, never silently. *)
  complete : bool;
      (** [runs] is every complete run of the computation (exhaustive
          strategy, cap did not fire). *)
}

val cap : ?budget:Budget.t -> t -> int option
(** The most runs {!enumerate} hands out: the strategy's own cap (a
    sample's count) tightened by the budget's [max_runs]; [None] when
    nothing caps it. *)

val enumerate : ?budget:Budget.t -> t -> Gem_model.Computation.t -> enumeration
(** Enumerate under the strategy's own cap tightened by the budget's
    [max_runs]. Truncation detection is exact: one extra run is probed
    past the cap, so [truncated_at = None] means nothing was dropped. *)

val runs : t -> Gem_model.Computation.t -> Gem_logic.Vhs.t list
(** [(enumerate t comp).runs] — kept for callers that don't need
    truncation provenance. *)

val is_complete : t -> Gem_model.Computation.t -> bool
(** Whether [runs] covered every complete run of this computation (i.e.
    exhaustive and the cap did not truncate). *)

val pp : Format.formatter -> t -> unit
