(** Temporal restrictions decided on the lattice of histories.

    Every run of a computation passes only through the down-sets of its
    temporal order, which form the lattice of its consistent cuts
    ({!History.lattice}). For the fragment below, "the restriction holds
    on every run" is a backward fixpoint over that lattice — [[]] as AG,
    [<>p] as AF p — so each history is visited once per variable binding
    instead of once per run through it.

    The fragment (with [p] immediate, i.e. free of temporal operators):
    {v phi ::= p | phi /\ phi | ALL x:D. phi | p -> phi | []phi | <>p v}

    Over single-event runs (the linearizations) the whole fragment is
    exact: the runs are the maximal paths from the empty history, and the
    rest of a run after history [h] can be any maximal path from [h].
    Over all valid history sequences only the [<>]-free part is exact:
    every vhs history is a down-set and every down-set above [h] lies on
    a run through [h], but a step of simultaneous events can skip the
    history where [p] held, so [<>p] is not AF p there. *)

type runs =
  | One_event_steps  (** The linearizations of the temporal order. *)
  | Antichain_steps  (** Every valid history sequence (paper §7). *)

val decides : runs -> Formula.t -> bool
(** The formula is temporal-free or in the fragment exact for [runs]. *)

val build :
  ?cap:int -> ?stop:(unit -> bool) -> Gem_model.Computation.t -> History.lattice option
(** {!History.lattice} under the [Run_enum] span, adding the histories
    of a finished build to the [Lattice_histories] counter. *)

val refute : History.lattice -> Formula.t -> int list option
(** [None] if the formula holds at the empty history on every maximal
    path of the lattice. Otherwise a linearization, as its event order,
    on which {!Eval.eval_run} finds the formula false: the path walks
    from the empty history through a failing history to the full one.
    The formula is grounded once on the lattice's computation
    ({!Eval.ground}) and each history evaluates the ground form. Counts
    one [Formula_evals] under the [Formula_eval] span. Raises
    [Invalid_argument] unless [decides One_event_steps] holds. *)
