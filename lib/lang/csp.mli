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

(** {1 Exploration} *)

type config

val lang : program -> config Explore.lang
(** CSP as {!Explore.explore} and {!Explore.run_one} drive it. Its steps
    are the guard-true boolean branches, the matched offers (labelled by
    the pair of offer indices) and the distributed terminations. Building
    it builds the initial configuration only; the program's element list
    is built at the first seal. *)

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
