(** Evaluation of restriction formulae.

    Three entry points matching the paper's three uses of restrictions:
    on a history (immediate assertion at a point of progress), on a whole
    computation (immediate assertion about the complete execution — the
    full history), and on a valid history sequence (temporal assertion,
    §7). The first two walk the formula directly; a formula evaluated at
    many histories or over many runs of one computation is grounded on it
    first ({!ground}). *)

exception Error of string
(** Raised on unbound variables, missing event parameters, or a temporal
    operator reaching immediate evaluation. *)

type env = (string * int) list
(** Variable bindings to event handles. *)

val matches_domain : Gem_model.Computation.t -> int -> Formula.domain -> bool

val domain_events : Gem_model.Computation.t -> Formula.domain -> int list

val eval_history : History.t -> env -> Formula.t -> bool
(** Quantifiers range over the computation's events; atoms are relative to
    the history. Raises {!Error} on temporal operators. *)

val eval_computation : ?env:env -> Gem_model.Computation.t -> Formula.t -> bool
(** [eval_history] on the full history: one direct pass, with no
    grounding to pay for. *)

val ground : ?env:env -> Gem_model.Computation.t -> Formula.t -> Ground.t
(** The formula grounded on the computation under [env], for evaluation
    at many histories or over many runs of it. For an immediate [f],
    [Ground.holds h (ground ~env (History.computation h) f)] gives the
    value of [eval_history h env f], or raises its exception. Grounding
    itself never raises: an error becomes a node that raises where
    evaluation reaches it. *)

val eval_ground_run : Vhs.t -> Ground.t -> bool
(** {!Ground.holds_on_run}, counted as one formula evaluation. *)

val eval_run : ?env:env -> Vhs.t -> Formula.t -> bool
(** Temporal semantics over the (finite) sequence: [[]p] holds at position
    [i] iff [p] holds at every [j >= i]; [<>p] iff at some [j >= i]. A run's
    final history is the complete computation, so this is the standard
    finite-trace reading with terminal stuttering. The formula is evaluated
    at position 0, by grounding it on the run's computation. *)
