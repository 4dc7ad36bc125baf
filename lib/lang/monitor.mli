(** The Monitor language primitive (paper §9), as an embedded language with
    Hoare (signal-and-urgent-wait) semantics, an exhaustive scheduler, and
    mechanical translation of runs into GEM computations.

    {b Event emission} (one GEM element per sequential locus, as in §2):
    - element ["<P>"] per process: [Start], [Mark] classes (user-defined
      marker events such as the paper's [u.Read]), [Call], [Return];
    - element ["<M>.lock"]: [Acq]/[Rel] pairs bracketing every tenure of
      the monitor lock — their total element order {e is} the monitor's
      serialization;
    - element ["<M>.<entry>"]: [Begin]/[End] per entry execution;
    - element ["<M>.<var>"]: [Assign] (and, with [~emit_getvals:true],
      [Getval]) events, Variable-typed;
    - element ["<M>.<cond>"]: [Wait], [Signal], [Release] — a [Release] is
      enabled by exactly one [Signal], per the paper's prerequisite
      example;
    - element ["<M>.init"]: [Init], enabling the initial [Assign]s;
    - element ["main"]: a single [Start] event enabling every process and
      monitor initialization.

    Control is chained through the enable relation: each event of a
    process's activity is enabled by that activity's previous event; lock
    handovers add [Rel |> Acq] edges; waking from a condition adds the
    [Signal |> Release] edge ({e not} [Wait |> Release] — the waiter's
    resumption is caused by the signal).

    {b Scheduling.} The explorer branches only on conflicting actions
    (entry calls and shared-variable accesses); process-local statements
    commute with everything and are bundled into the following global
    action, so the set of {e computations} (partial orders) is complete
    even though the set of interleavings is reduced. Lock handover chains
    (signal cascades, urgent resumptions, FIFO entry admission) are
    deterministic and run to quiescence within the move that triggers
    them. *)

(** {1 Syntax} *)

type mstmt =
  | MAssign of { var : string; value : Expr.t; site : string option }
      (** Monitor-variable assignment; [site] tags the emitted [Assign]
          event with a [site] parameter so correspondences can tell
          occurrences apart (e.g. the [readernum := 0] of [StartWrite]
          vs that of [EndWrite]). *)
  | MIf of Expr.t * mstmt list * mstmt list
  | MWhile of Expr.t * mstmt list
  | MWait of string
  | MSignal of string
  | MReturn of Expr.t
  | MSkip

type pstmt =
  | PLocal of string * Expr.t  (** Process-local assignment; no event. *)
  | PIf of Expr.t * pstmt list * pstmt list
  | PWhile of Expr.t * pstmt list
  | PCall of { monitor : string; entry : string; args : Expr.t list; bind : string option }
  | PRead of { var : string; bind : string }
      (** Shared (non-monitor) variable read: a [Getval] event. *)
  | PWrite of { var : string; value : Expr.t }  (** [Assign] event. *)
  | PMark of { klass : string; params : Expr.t list }
      (** Marker event at the process element (e.g. [Read], [FinishRead]). *)

type entry = { entry_name : string; formals : string list; body : mstmt list }

type monitor = {
  mon_name : string;
  vars : (string * Gem_model.Value.t) list;  (** With initial values. *)
  conditions : string list;
  entries : entry list;
}

type process = {
  proc_name : string;
  locals : (string * Gem_model.Value.t) list;
  code : pstmt list;
}

type program = {
  monitors : monitor list;
  shared : (string * Gem_model.Value.t) list;
      (** Shared variables outside any monitor (e.g. the database the
          paper requires to live outside the ReadersWriters monitor). *)
  processes : process list;
}

(** {1 Exploration} *)

type config

val lang : ?emit_getvals:bool -> program -> config Explore.lang
(** The Monitor language as {!Explore.explore} and {!Explore.run_one}
    drive it. Its steps are one per Active process, labelled by it.
    [emit_getvals] (default [false]) also emits a [Getval] event for
    every monitor-variable read. Building it builds the initial
    configuration only; the program's element and group lists are built
    at the first seal.

    Its state key lists each process runtime, each monitor runtime and
    the shared store, in that order: a step that leaves one of them
    physically unchanged lets {!Explore.key} reuse its fingerprint. *)

(** {1 Mechanical GEM translation (paper §9: "simple and mechanical enough
    to lend itself to automation")} *)

val language_spec : ?name:string -> program -> Gem_spec.Spec.t
(** The GEM program specification of this program under the Monitor
    primitive's GEM description: typed elements for every process,
    monitor component and shared variable; one group per monitor (with the
    lock-acquire port) enforcing the paper's scope rules; and the Monitor
    semantics restrictions:
    - ["<M>.release-needs-signal"]: Release of a wait is enabled by exactly
      one Signal, and each Signal enables at most one Release;
    - ["<M>.lock-alternation"]: between any two Acq events there is a Rel;
    - ["<M>.entries-sequential"]: entry bodies are mutually exclusive —
      between a Begin/End pair, no other Begin intervenes;
    plus the Variable restrictions on every variable element. *)

val element_of_process : string -> string

val element_of_lock : string -> string

val element_of_entry : string -> string -> string

val element_of_var : string -> string -> string

val element_of_cond : string -> string -> string
