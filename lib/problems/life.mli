(** The asynchronous, distributed Game of Life (paper §1, §11).

    Each cell of a [width] x [height] torus is its own GEM element (its
    own locus of activity). The cell's generation-[g] state event is
    enabled by its own and its eight neighbours' generation-[g-1] events —
    the enable edges {e are} the state messages of the distributed
    implementation. No global clock exists: the temporal order is genuinely
    partial, and distant cells can be generations apart in a single
    history, which is what "asynchronous" means here (checked by
    {!asynchrony_witness}).

    The paper's claims, checked mechanically:
    - {e functional correctness}: every state event carries exactly the
      value the synchronous reference computes ({!matches_reference});
    - {e progress}: every cell eventually reaches the final generation
      ({!progress} over runs — and structurally, the events exist). *)

type cell = int * int

val build :
  width:int -> height:int -> generations:int -> alive:cell list -> Gem_model.Computation.t
(** The computation of the distributed execution: one [State(gen, alive)]
    event per cell per generation [0..generations], plus the [main] start
    event. *)

val reference :
  width:int -> height:int -> generations:int -> alive:cell list -> bool array array list
(** Synchronous reference: the grid at each generation [0..generations];
    [(grid).(y).(x)]. Raises [Invalid_argument] when [generations] is
    negative. *)

val spec : width:int -> height:int -> Gem_spec.Spec.t
(** Cell elements with their [State] event class. *)

val matches_reference :
  width:int -> height:int -> generations:int -> alive:cell list -> Gem_logic.Formula.t
(** Every State event's [alive] parameter equals the reference value for
    its cell and generation (a [Sem] restriction). *)

val progress : generations:int -> Gem_logic.Formula.t
(** [<> occurred] for every final-generation state event. *)

val asynchrony_witness :
  Gem_model.Computation.t -> (Gem_model.Event.id * Gem_model.Event.id) option
(** Two state events of {e different} generations that are potentially
    concurrent — impossible in a synchronous (barrier-stepped) execution. *)

val element_of_cell : cell -> string
