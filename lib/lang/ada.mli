(** ADA tasking: tasks communicating by rendezvous (entry call / accept /
    select), the third language primitive the paper describes.

    {b Event emission.} One GEM element per task:
    - [Call(entry, args)] at the caller, which then blocks;
    - [AcceptBegin(entry, args)] at the acceptor, enabled by the [Call] —
      the rendezvous;
    - [AcceptEnd(entry, value)] at the acceptor when the accept body
      finishes;
    - [Return(value)] at the caller, enabled by the [AcceptEnd] — the
      caller resumes.

    Entry queues are FIFO per (task, entry). A [Select] chooses among its
    open (guard-true) branches with a queued caller; the choice is a
    scheduler branch, so exploration covers every selection order. Accept
    bodies execute as ordinary task code and may themselves call or
    accept (nested rendezvous). *)

type stmt =
  | ALocal of string * Expr.t
  | AIf of Expr.t * stmt list * stmt list
  | AWhile of Expr.t * stmt list
  | AMark of { klass : string; params : Expr.t list }
  | ACall of { task : string; entry : string; args : Expr.t list; bind : string option }
  | AAccept of accept
  | ASelect of branch list

and accept = {
  acc_entry : string;
  acc_formals : string list;
  acc_body : stmt list;
  acc_result : Expr.t option;
      (** Evaluated (over the acceptor's locals) when the body ends; the
          caller's bound result. *)
}

and branch = { when_ : Expr.t; accept : accept }

type task = {
  task_name : string;
  locals : (string * Gem_model.Value.t) list;
  code : stmt list;
}

type program = task list

(** {1 Exploration} *)

type config

val lang : program -> config Explore.lang
(** ADA tasking as {!Explore.explore} and {!Explore.run_one} drive it.
    Its steps are the Active tasks, the accepts with a queued caller and
    the open select branches with one (labelled by task, entry and branch
    index). Building it builds the initial configuration only; the
    program's element list is built at the first seal. *)

val language_spec : ?name:string -> program -> Gem_spec.Spec.t
(** The GEM description of ADA tasking applied to this program:
    - ["rendezvous-matching"]: every [AcceptBegin] is enabled by exactly
      one [Call] and vice-versa at most once; every [Return] by exactly
      one [AcceptEnd];
    - ["rendezvous-entry"]: an enabling [Call] names the entry its
      [AcceptBegin] accepts, and is addressed to the acceptor's task;
    - ["caller-suspended"]: no event occurs at the caller's element between
      a [Call] and the [Return] it leads to. *)

val element_of_task : string -> string
