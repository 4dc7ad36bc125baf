(** The GEM checker: does a computation satisfy a specification?

    [legal(C, sigma)] per the paper: the built-in legality restrictions
    ({!Gem_spec.Legality}) plus every explicit and element-type restriction
    of the specification. Immediate restrictions are evaluated once on the
    full history. Temporal restrictions that {!Gem_logic.Lattice} decides
    exactly for the {!Strategy}'s runs are decided on the lattice of
    histories, built only while it has at most cap x (events + 1)
    histories for the strategy's run cap; a failure there is reported
    with a witness run that {!Gem_logic.Eval.eval_run} refutes, counted
    as the one run checked. The others, and all of them when the lattice
    is bigger, are grounded once on the computation
    ({!Gem_logic.Eval.ground}) and evaluated over the runs the
    {!Strategy} enumerates.
    Thread labels are attached before any restriction is evaluated.

    All entry points accept an optional {!Budget.t}. Budget exhaustion
    never raises: it surfaces as an [Inconclusive] {!Verdict.status} with
    a machine-readable reason and coverage statistics. *)

exception Restriction_error of { restriction : string; message : string }
(** A restriction could not be evaluated on a computation — an unknown
    event parameter, a type mismatch ({!Gem_logic.Eval.Error}). It names
    the restriction; the CLI and the daemon report it as a usage error. *)

val restriction_error_message : restriction:string -> message:string -> string
(** ["restriction NAME: MESSAGE"], the text both front ends print. *)

val check :
  ?strategy:Strategy.t ->
  ?budget:Budget.t ->
  Gem_spec.Spec.t ->
  Gem_model.Computation.t ->
  Verdict.t
(** Stops collecting witnesses at the first failing run per restriction
    (all restrictions are always reported). If legality fails, restriction
    checking is skipped — the orders the formulas quantify over may not
    exist. *)

val check_all :
  ?strategy:Strategy.t ->
  ?budget:Budget.t ->
  ?jobs:int ->
  Gem_spec.Spec.t ->
  Gem_model.Computation.t list ->
  Verdict.t list
(** {!check} over a batch of computations, order-preserving. [jobs]
    (default 1) checks computations on that many domains via {!Par.map};
    a shared [budget]'s counters are atomic, so exhaustion observed by
    one domain stops the others. A {!Restriction_error} is raised for
    the first failing computation in list order, whatever [jobs] is. *)

val map_checked : ?jobs:int -> ('a -> 'b) -> 'a list -> 'b list
(** The parallel map under {!check_all}: order-preserving over [jobs]
    domains, and a {!Restriction_error} raised by [f] stops the batch
    with the error of the first failing item in list order. *)

val check_formula :
  ?strategy:Strategy.t ->
  ?budget:Budget.t ->
  Gem_spec.Spec.t ->
  Gem_model.Computation.t ->
  name:string ->
  Gem_logic.Formula.t ->
  Verdict.t
(** Check a single extra restriction (e.g. a problem property) against a
    computation, with the spec supplying threads and legality context. *)

val holds :
  ?strategy:Strategy.t ->
  ?budget:Budget.t ->
  Gem_spec.Spec.t ->
  Gem_model.Computation.t ->
  Gem_logic.Formula.t ->
  bool
(** [ok (check_formula ...)] without the verdict plumbing. *)
