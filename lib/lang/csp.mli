(** Communicating Sequential Processes (Hoare's CSP) as described by the
    paper (§8.2): processes communicating only by synchronous, named
    input/output commands, with guarded alternation and repetition.

    {b Event emission.} Each process is one GEM element (its actions are
    sequential). A communication [P!v || Q?x] emits four events, following
    the paper's CSP model:
    - [ReqOut(to, value)] at the sender, [ReqIn(from)] at the receiver;
    - [EndOut(value)] at the sender, enabled by the receiver's [ReqIn];
    - [EndIn(value)] at the receiver, enabled by the sender's [ReqOut].
    The cross enables encode the paper's simultaneity restriction
    ([inp.req |> out.end <=> out.req |> inp.end]); the received value
    equals the sent value (message-passing restriction, §5).

    {b Semantics of guards.} An alternative ([CIf]) or repetition ([CDo])
    branch is ready when its boolean guard holds and, if it carries an I/O
    guard, the named partner is ready to co-execute the matching
    communication. A repetition terminates when no boolean-only guard
    holds and every I/O-guarded partner has terminated (CSP's distributed
    termination convention). An alternative with no ready branch blocks;
    if it can never unblock the execution deadlocks — Dijkstra's abort is
    reported as a deadlock leaf. *)

type comm =
  | Send of { to_ : string; value : Expr.t }  (** [to_!value] *)
  | Recv of { from_ : string; bind : string }  (** [from_?bind] *)

type guarded = { guard : Expr.t; comm : comm option; body : stmt list }

and stmt =
  | CLocal of string * Expr.t
  | CIfb of Expr.t * stmt list * stmt list  (** Plain boolean conditional. *)
  | CWhile of Expr.t * stmt list  (** Plain boolean loop. *)
  | CComm of comm
  | CIf of guarded list  (** Alternative command. *)
  | CDo of guarded list  (** Repetitive command. *)
  | CMark of { klass : string; params : Expr.t list }

type process = {
  proc_name : string;
  locals : (string * Gem_model.Value.t) list;
  code : stmt list;
}

type program = process list

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
(** The enabled moves as the exploration walks see them — guard-true
    boolean branches, matched offers, distributed terminations — each a
    labelled thunk that takes the step. Listing them steps nothing. *)

val config_moves : config -> (Explore.move * config) list
(** Every scheduler choice, labeled (acting process, branch/offer
    indices) and carrying its element footprint: {!config_successors},
    all forced in list order. *)

val config_key : program -> config -> string
(** Canonical state key: byte-equal for configurations reached by
    different interleavings of commuting moves. *)

val config_fp : program -> config -> Gem_order.Fingerprint.t
(** Incremental fingerprint of the configuration — equal whenever
    {!config_key} is byte-equal; distinct keys collide with negligible
    probability. *)

val config_terminated : config -> bool

val language_spec : ?name:string -> program -> Gem_spec.Spec.t
(** The GEM description of CSP applied to this program: one typed element
    per process and the CSP restrictions —
    - ["io-simultaneity"]: [ReqIn |> EndOut] at a pair of elements iff
      [ReqOut |> EndIn] between the same two elements;
    - ["io-matching"]: every [EndIn] is enabled by exactly one [ReqOut]
      and vice versa for [EndOut]/[ReqIn];
    - ["io-value"]: an enabling [ReqOut]'s value equals the [EndIn]'s;
    - ["io-addressing"]: communications connect the processes they name. *)

val element_of_process : string -> string
