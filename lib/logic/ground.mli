(** Restrictions grounded on one computation under one variable binding.

    {!Eval.ground} expands every quantifier over its domain events and
    folds the atoms that do not depend on the history ([same_thread],
    [distinct_thread], [in_thread], [in_class], data comparisons, [=],
    same element, and the relation part of [|>], [=>el] and [=>]) to
    constants. What is left is a propositional formula over the history
    atoms of fixed events — [occurred], [at] (with its matching enable
    successors resolved), [new], [potential] and semantic predicates —
    plus the temporal operators. It is built once per computation and
    evaluated at many histories ({!holds}) or over many runs
    ({!holds_on_run}).

    {b Evaluation order and errors are those of {!Eval}.} Conjunctions,
    disjunctions and implications are evaluated left to right and stop
    at the first part that decides them; quantifiers are evaluated in
    domain order. A static atom that raises becomes a [Fail] node that
    raises only where evaluation reaches it. The constructors below fold
    constants only where that keeps both the value and the exception
    raised: a constant [false] conjunct, for instance, decides its
    conjunction outright only when no conjunct before it can raise.

    Ground forms are built for computations with a temporal order (the
    ones that have histories), where the history atoms never raise. *)

type t =
  | Const of bool
  | Fail of exn  (** Raises the exception where evaluation reaches it. *)
  | Occurred of int
  | At of int * int list
      (** [At (e, succs)]: [e] occurred and none of [succs] (its enable
          successors in the atom's domain) has. *)
  | New of int
  | Potential of int
  | Sem of Formula.sem_fn * int list  (** Applied to the resolved handles. *)
  | Not of t
  | And of t list
  | Or of t list
  | Implies of t * t
  | Iff of t * t
  | Exactly_one of t list  (** Counts true parts in order, stopping at two. *)
  | At_most_one of t list
  | Always of t
  | Eventually of t

(** {1 Folding constructors} *)

val neg : t -> t

val conj : t Seq.t -> t
(** The parts are forced left to right and no further than the first
    constant [false] or [Fail], where evaluation would stop. *)

val disj : t Seq.t -> t
(** Dual to {!conj}, stopping at the first constant [true] or [Fail]. *)

val implies : t -> (unit -> t) -> t
(** The consequent is built only when the antecedent does not decide. *)

val iff : t -> t -> t

val exactly_one : t list -> t

val at_most_one : t list -> t

val always : t -> t

val eventually : t -> t

val is_immediate : t -> bool
(** No temporal operator anywhere. *)

(** {1 Evaluation} *)

val holds : History.t -> t -> bool
(** The value at a history. Raises [Invalid_argument] on a temporal
    operator. *)

val holds_on_run : Vhs.t -> t -> bool
(** The value at position 0 of the run, with [Always]/[Eventually] over
    the positions from the current one to the end ({!Eval.eval_run}). *)
