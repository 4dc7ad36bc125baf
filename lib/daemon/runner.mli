(** One verification request, end to end — the engine shared by the
    one-shot CLI subcommands ([gemcheck rw] and friends) and the
    [gemcheck serve] daemon.

    Byte-identity is the point: a daemon response must be byte-identical
    to the [--json] report of the equivalent one-shot run, whether it was
    computed fresh, answered from the verdict cache, or assembled from a
    shared exploration. That only holds if there is exactly one code path
    from workload to report, so the CLI's per-command pipelines (build
    program, explore, refine against the problem spec, combine verdicts,
    render) live here and both front ends call them.

    {b Two-phase budgets.} [explore] and [conclude] split a run at the
    exploration/checking boundary so the daemon can reuse an exploration
    across requests that differ only in their restriction. The protocol:
    run [explore] on a fresh budget, capture {!exploration} (which
    records the configurations charged and any exhaustion reason), then
    for each consumer build a second budget with the same limits,
    [Budget.restore] the charge, re-[Budget.note] the reason, and call
    [conclude]. Because the checking phase reads only the budget's
    charge counters, its sticky first-reason-wins exhaustion cell and
    its run cap, the restored budget is observationally identical to the
    one that did the exploring — {!run} (the single-budget one-shot
    path) and the two-phase path produce the same bytes, which
    [test/test_serve.ml] checks across the whole parameter grid. *)

type load =
  | Rw of {
      monitor : string;  (** paper | writers-priority | buggy | no-exclusion *)
      version : Gem_problems.Readers_writers.version;
      readers : int;
      writers : int;
    }
  | Buffer of {
      lang : [ `Monitor | `Csp | `Ada ];
      capacity : int;
      producers : int;
      consumers : int;
      items : int;
    }
  | Rwd of {
      lang : [ `Csp | `Ada ];
      readers : int;
      writers : int;
      broken : bool;
    }
  | Db of { sites : int }
  | Life of { width : int; height : int; generations : int }

val command_name : load -> string

val validate : load -> (load, string) result
(** The load itself when every count is in the range its program builder
    accepts: counts [>= 0], [producers] and [consumers] [>= 1], [sites]
    [>= 2], [producers * items] divisible by [consumers], and a Life
    board of at most 10,000 cell states ([width x height x (generations
    + 1)], each side counted as at least 1, computed without overflow):
    sealing n events fills n x n bit tables, about 56 MB at the bound.
    Otherwise a one-line error naming the key, e.g.
    ["readers expects an integer >= 0, got -1"]. Both front ends apply it
    before anything is built. *)

val of_request : Gem_syntax.Request.check -> (load, string) result
(** Interpret a wire request's workload parameters, then {!validate}
    them. Unknown commands, unknown keys, malformed and out-of-range
    values are one-line errors. *)

val monitor_of_name :
  string -> (Gem_lang.Monitor.monitor, string) result

val supports_restrict : load -> bool
(** Whether the command checks computations against a problem spec a
    client restriction can be appended to ([rw], [buffer], [rwd]). *)

val has_exploration : load -> bool
(** Whether the command has a separable exploration phase whose result
    can be shared across restrictions ([rw], [buffer], [rwd]). *)

(** {1 Cache keying} *)

val verdict_key :
  load ->
  restrict:Gem_logic.Formula.t option ->
  Gem_syntax.Request.engine ->
  string
(** Hex of a fingerprint over every verdict-relevant input: the
    {!explore_key} inputs, rw's [version] (which picks the problem
    spec), and the client restriction by its name and
    {!Gem_logic.Formula.fingerprint}, so two requests share a key
    exactly when their restrictions print alike. Nothing is built or
    rendered: within one process the program and the problem spec's
    name and fixed restrictions are functions of the hashed parameters,
    so requests share a key exactly when they would share one over the
    built program and spec. *)

val explore_key : load -> Gem_syntax.Request.engine -> string
(** Hex of a fingerprint over the program-determining workload
    parameters (every one but rw's [version]) and the engine
    configuration with environment defaults resolved — {!verdict_key}
    minus the version and the restriction, so requests that agree on it
    can share one exploration. *)

(** {1 Running} *)

val stamp :
  load ->
  reduction:Gem_lang.Explore.reduction option ->
  exact_keys:bool option ->
  bitstate_bits:int option ->
  string
(** The checkpoint stamp of a run: command, workload parameters and the
    engine with environment defaults resolved, e.g.
    ["gemcheck/1 db sites=3 reduction=sleep exact=false bitstate=off"].
    The engine is named ([reduction=none|sleep|source]) because a
    checkpoint holds that engine's frames: a source checkpoint keeps
    backtrack sets and summaries that a sleep run has no use for. *)

type opts = {
  reduction : Gem_lang.Explore.reduction option;
      (** [None] defers to {!Gem_lang.Explore.reduction_default} inside
          the interpreter; {!opts_of_engine} always resolves it. *)
  exact_keys : bool option;
  audit_keys : bool option;
  jobs : int;  (** Checking domains ([Refine.sat], [Db_update.check]). *)
  resilience : Gem_lang.Explore.resilience;
}

val opts_of_engine : load -> Gem_syntax.Request.engine -> opts
(** The daemon's options: bitstate per the engine record, no
    checkpointing, {!stamp} of the resolved engine. *)

type computations =
  | Computations of Gem_model.Computation.t list
      (** As explored: {!conclude} prepares each one just before it
          checks it, so no more prepared forms are held at once than
          are being checked. *)
  | Prepared of Gem_check.Refine.prepared list
      (** Prepared once by {!prepare}, for an exploration that several
          requests conclude on. *)

type exploration = {
  x_computations : computations;
  x_deadlocks : int;
  x_explored : int;
  x_reduced : int;
  x_truncated : int;
  x_exhausted : Gem_check.Budget.reason option;
  x_configs_used : int;  (** [Budget.configs_used] after exploring. *)
}

val explore :
  load -> opts -> budget:Gem_check.Budget.t -> exploration option
(** The exploration phase; [None] when {!has_exploration} is false. *)

val prepare : load -> opts -> exploration -> exploration
(** Project every computation onto the problem, check its legality and
    label its threads ({!Gem_check.Refine.prepare}), on [opts.jobs]
    domains, and drop the program computations. This reads nothing of
    the restrictions or the spec's name, so the result serves every
    request that shares the exploration: all of rw's versions, and any
    client restriction. {!conclude} on the result renders what it
    renders on the unprepared exploration. *)

type result = {
  status : Gem_check.Verdict.status;
  detail : string;
  coverage : Gem_check.Budget.coverage;
  failures : (int * Gem_check.Verdict.t) list;
      (** Failing (computation index, verdict) pairs, for the CLI's
          human-readable witness printing. *)
  computations : int;
      (** Distinct computations checked: explored ones, or [1] for
          [life]'s single built computation. *)
  deadlocks : int;  (** Distinct deadlocked schedules. *)
  exit_code : int;
}

val conclude :
  load ->
  opts ->
  budget:Gem_check.Budget.t ->
  restrict:Gem_logic.Formula.t option ->
  exploration option ->
  result
(** The checking phase. Requires an exploration iff {!has_exploration};
    raises [Invalid_argument] on a mismatch. *)

val run :
  load ->
  opts ->
  budget:Gem_check.Budget.t ->
  restrict:Gem_logic.Formula.t option ->
  result
(** [explore] then [conclude] on the one given budget — the one-shot
    path. *)

(** {1 Reporting} *)

val render_json : command:string -> result -> string
(** The exact [--json] report object (no trailing newline). *)

val print_report : json:bool -> command:string -> result -> int
(** Print the report to stdout ([--json] or human form) and return the
    exit code. *)
