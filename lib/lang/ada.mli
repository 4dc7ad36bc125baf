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

type outcome = {
  computations : Gem_model.Computation.t list;
  deadlocks : Gem_model.Computation.t list;
  explored : int;
  truncated : int;  (** Branches cut by [max_steps]. *)
  reduced : int;  (** Configurations pruned by partial-order reduction. *)
  exhausted : Gem_check.Budget.reason option;
      (** [Some _] iff exploration was cut short — the computation set is
          then a sound but incomplete sample. *)
}

val explore :
  ?reduction:Explore.reduction ->
  ?exact_keys:bool ->
  ?audit_keys:bool ->
  ?max_steps:int ->
  ?max_configs:int ->
  ?budget:Gem_check.Budget.t ->
  ?resilience:Explore.resilience ->
  program ->
  outcome
(** Resource exhaustion never raises; it is reported in [exhausted].
    [reduction] (default {!Explore.reduction_default}) picks the
    reduction engine.
    [exact_keys] (default {!Explore.exact_keys_default}) keys the reduced
    search on exact canonical strings instead of incremental
    fingerprints; [audit_keys] (default {!Explore.audit_keys_default})
    runs fingerprint keys with the exact key as a collision oracle. The
    canonically ordered [computations]/[deadlocks] are identical for
    every engine and either key mode. *)

val run_one : ?seed:int -> program -> Gem_model.Computation.t

(** {1 Small-step interface}

    Exposed for the POR differential harness. *)

type config

val initial_config : program -> config

val config_successors : config -> config Explore.successor list
(** The enabled moves as the exploration walks see them — Active tasks,
    accepts with a queued caller, open select branches with one — each a
    labelled thunk that takes the step. Listing them steps nothing. *)

val config_moves : config -> (Explore.move * config) list
(** Every scheduler choice, labeled (acting task, entry, branch index)
    and carrying its element footprint: {!config_successors}, all forced
    in list order. *)

val config_key : program -> config -> string
(** Canonical state key: byte-equal for configurations reached by
    different interleavings of commuting moves. *)

val config_fp : program -> config -> Gem_order.Fingerprint.t
(** Incremental fingerprint of the configuration — equal whenever
    {!config_key} is byte-equal; distinct keys collide with negligible
    probability. *)

val config_terminated : config -> bool

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
