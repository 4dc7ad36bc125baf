(** Generic exhaustive scheduler exploration.

    Each language interpreter describes itself by one {!lang} record: its
    initial configuration, its enabled steps, the footprint of a step,
    termination, its two state keys and how a leaf is sealed into a
    computation. {!explore} is the one driver over it: it walks the
    choice tree depth-first ({!run}), within bounds, classifies the
    leaves, and seals and deduplicates them into the computation set.
    Monitor, CSP and ADA programs are explored, keyed and sealed the same
    way.

    Exploration never raises on resource exhaustion: exceeding
    [max_configs], a budget deadline, or a memory watermark stops the walk
    and is reported as structured truncation provenance in the result, so
    callers can degrade to an [Inconclusive] verdict instead of crashing
    or silently under-reporting. *)

type move = { label : string; touches : string list }
(** A scheduler choice as the independence oracle sees it: [label] names
    the choice stably across configurations (e.g. the acting process, or
    process plus branch index), and [touches] lists every element the move
    reads or writes — the elements of the events it emits plus a
    representative element for each runtime component it changes or whose
    state its enabledness depends on. [touches] {b must be sorted
    (ascending [String.compare]) and duplicate-free} so {!independent} can
    intersect footprints in one linear merge walk; {!successors} sorts
    each interpreter's footprint with [List.sort_uniq], so every move the
    driver builds has that form. Two moves with disjoint [touches]
    commute and can neither enable nor disable one another. *)

type 'c successor = string * (unit -> move * 'c)
(** An enabled move as the walks first see it: its label, and a thunk
    that takes the step and returns the move (with its footprint) and the
    successor configuration. A GEM move belongs to one sequential locus —
    a process, a task, a matched pair of offers — so an interpreter names
    it without computing its effect. The walks read labels to decide
    which moves to fire and force only those thunks: a sleeping move is
    never built. The thunk's move carries the listed label, and labels
    are distinct within one configuration, so each label stands for
    exactly one successor. *)

val independent : move -> move -> bool
(** Element-footprint disjointness — the independence relation used by the
    sleep-set search. O(|touches|) over the pre-sorted footprints; each
    call is counted under the [Footprint_checks] telemetry counter. *)

(** {1 Search keys}

    The memoizing searches key their seen tables on one of two key
    spaces: [Fp], a 126-bit incremental state fingerprint (the default —
    O(1) to extend per interpreter step, collisions possible but
    negligibly likely and detectable), or [Exact], the exact
    marshal-string canonical key (the [--exact-keys]/[GEM_EXACT_KEYS]
    fallback, byte-equal iff the states are structurally equal). Verdict
    ordering and deduplication always use exact computation fingerprints
    ({!dedup_computations}), so the key-space choice can never change a
    rendered verdict — only, on a fingerprint collision, silently prune a
    distinct state, which the [audit] oracle detects. *)

type skey = Fp of Gem_order.Fingerprint.t | Exact of string

val skey_equal : skey -> skey -> bool
val skey_compare : skey -> skey -> int
val skey_hash : skey -> int

val exact_keys_default : unit -> bool
(** [true] iff the [GEM_EXACT_KEYS] environment variable is [1], [true]
    or [yes]: interpreters then key exploration on exact canonical
    strings instead of fingerprints when the caller passes no explicit
    argument. *)

val audit_keys_default : unit -> bool
(** Same reading of [GEM_AUDIT_KEYS]: run fingerprint-keyed exploration
    with the exact key recorded at first insert and compared on every
    hit, counting mismatches under [Fingerprint_collisions]. *)

(** What {!explore} returns: the walk's counts and its leaves sealed into
    computations. It is declared before {!result}, whose field names it
    shares, so an unannotated [r.explored] reads a walk's result. *)
type outcome = {
  computations : Gem_model.Computation.t list;
      (** Distinct partial orders of completed executions, canonically
          ordered ({!dedup_computations}). *)
  deadlocks : Gem_model.Computation.t list;
      (** Distinct partial orders of executions that got stuck. *)
  explored : int;
  truncated : int;  (** Branches cut by [max_steps]. *)
  reduced : int;  (** Configurations pruned by partial-order reduction. *)
  exhausted : Gem_check.Budget.reason option;
      (** [Some _] iff exploration was cut short — the computation set is
          then a sound but incomplete sample. *)
}

type 'c result = {
  completed : 'c list;  (** Leaves with no moves that satisfy [terminated]. *)
  deadlocked : 'c list;  (** Leaves with no moves that do not. *)
  truncated : int;  (** Branches cut by [max_steps]. *)
  explored : int;  (** Configurations visited. *)
  reduced : int;
      (** Configurations pruned as redundant — already-seen keys, and
          successors skipped by the sleep-set rule because an equivalent
          interleaving was already explored. *)
  exhausted : Gem_check.Budget.reason option;
      (** [Some _] iff the walk stopped early — the completed/deadlocked
          sets are then a sound but incomplete sample. [Config_budget]
          covers both the [max_configs] argument and a budget's own
          configuration counter. *)
}

(** {1 Reduction engines}

    Three ways to walk the scheduler tree, ordered by how much of it
    they visit: [No_reduction] (plain memoized DFS, every interleaving),
    [Sleep_sets] (PR 2: prune arrivals whose move slept — the default),
    and [Source_sets] (source-DPOR: schedule a sibling only when a
    detected race demands it — never more states than sleep sets on the
    shipped workloads, asymptotically fewer on rendezvous families).
    Every engine feeds the same {!dedup_computations} canonicalization,
    so rendered verdicts are byte-identical across the three. *)

type reduction = No_reduction | Sleep_sets | Source_sets

val reduction_name : reduction -> string
(** ["none"], ["sleep"] or ["source"] — the CLI / wire spellings. *)

val reduction_of_string : string -> reduction option
(** Inverse of {!reduction_name}; [None] on any other string. *)

val reduction_default : unit -> reduction
(** The engine used when the caller passes no [~reduction]: the
    [GEM_REDUCTION] environment variable when it names an engine, else
    [Sleep_sets]. Interpreters consult it, so one environment switch
    flips every test and tool. *)

(** {1 Resilience}

    The degradation ladder: when a resource wall would otherwise kill
    the run (seen set outgrowing RAM, the heap reaching the budget's
    watermark, the process itself being killed), exploration degrades
    to a sound partial result instead — Inconclusive with a
    machine-readable reason, never a wrong Verified/Falsified. *)

type resilience = {
  bitstate : Gem_check.Bitstate.t option;
      (** Replace the exact seen table with a bounded fingerprint-only
          one. Requires a [key] (ignored without one); the final verdict
          is downgraded to Inconclusive
          ({!Gem_check.Budget.reason}[.Bitstate_collision_risk]) because
          collisions can silently prune unseen states. Under POR the
          bitstate key covers the (state, sleep set) pair, a strict
          refinement of the subset rule — more exploration, never an
          unsound prune. *)
  checkpoint : Gem_check.Checkpoint.ctl option;
      (** Periodically snapshot the complete walk state. *)
  resume : string option;
      (** Start from this checkpoint file instead of the initial
          configuration; the resumed run finishes with a verdict
          byte-identical to an uninterrupted one. Raises
          {!Resume_error} on a missing/corrupt file or a stamp
          mismatch. *)
  stamp : string;
      (** Run identity written into (and checked against) checkpoints —
          callers encode the command, workload parameters and engine
          configuration. *)
}

val no_resilience : resilience
(** All off — [run] behaves exactly as before the resilience layer. *)

exception Resume_error of string

val run :
  ?max_steps:int ->
  ?max_configs:int ->
  ?budget:Gem_check.Budget.t ->
  ?key:('c -> skey) ->
  ?audit:('c -> string) ->
  ?footprint:('c -> 'c successor list) ->
  ?reduction:reduction ->
  ?resilience:resilience ->
  moves:('c -> 'c list) ->
  terminated:('c -> bool) ->
  'c ->
  'c result
(** The walk itself, over plain functions. {!explore} calls it with a
    {!lang}'s parts; tests and benches drive it directly. [moves] lists
    every successor of a configuration, in order; [terminated] tells a
    completed leaf from a deadlocked one.

    [max_steps] bounds each branch's depth (default 10_000);
    [max_configs] bounds the total visit budget (default 1_000_000) —
    exceeding it stops the walk with [exhausted = Some Config_budget]
    rather than raising, since an incomplete computation set makes
    "verified" claims unsound but is still a sound falsifier. [budget]
    adds a wall-clock deadline, a cumulative configuration counter and a
    heap watermark, polled as the walk proceeds. A budget that caps
    configurations replaces [max_configs] and its default: the budget is
    then the one configuration limit.

    [key], when given, enables partial-order reduction by memoization: two
    configurations with equal keys generate the same set of future
    computations (up to emission order), so the second subtree is skipped.
    Language interpreters build the key from the runtime state with event
    handles replaced by stable event identities — interleavings of
    commuting moves then converge to one key. Each admitted
    configuration's key is computed exactly once: it is reused for the
    seen-table check, carried to the leaf, and reused again by the
    canonical leaf sort.

    [audit], when given alongside a [key], supplies the exact structural
    key as a collision oracle: it is computed per visited configuration
    (forfeiting the fingerprint speedup — a diagnostic mode), stored at
    first insert, and compared on every seen-table arrival; mismatches
    are counted under the [Fingerprint_collisions] telemetry counter.

    [footprint], when given, supersedes [moves] (which is ignored) and
    switches the walk to a sleep-set DFS: after a branch explores move
    [m] from a state, sibling branches put [m] to sleep and prune any
    successor reached by a sleeping move, since the interleaving that
    fires the sleeping move first was already covered; a move wakes when
    a dependent move (per {!independent}) fires. With [key] also given,
    a state is skipped only when it was previously visited under a sleep
    set no larger than the current one, which keeps the combination
    sound. The successor configurations of [footprint]'s thunks must
    enumerate exactly [moves config], in the same order, and each move's
    [touches] must be sorted and duplicate-free; {!successors} and
    {!moves} of one {!lang} satisfy both by construction.

    [reduction] picks the reduction engine used over [footprint]
    (default [Sleep_sets]; ignored without a [footprint], where every
    walk is plain). [No_reduction] fires every successor and reads no
    footprint. [Source_sets] runs the source-DPOR engine:
    per-execution happens-before is derived from footprints, reversible
    races on the DFS stack schedule backtrack points, and successors no
    race demands are never visited ([Source_prunes] telemetry) — the
    computation/deadlock sets still cover one representative per
    Mazurkiewicz trace, so verdicts are byte-identical to the other
    engines.

    {b One walk.} Every engine is one sequential DFS over a stack of
    frames, one per configuration on the current path that still has
    moves to fire (under source, one per step of the path), and differs
    only in which moves a frame fires. A frame lists its successors once,
    under one [Interp_step] span, and forces a thunk only when it fires
    it, so no built sibling is held and a step raises only if its move
    fires. Every engine runs over every seen store and resilience
    option, with no fallback. The budget is charged once per visited
    configuration; before firing, the walk only checks whether it has
    stopped or reached [max_configs], and once stopped it fires and
    probes nothing more, so a cap of N visits N configurations. A
    stopped walk writes no checkpoint.

    [resilience] (default {!no_resilience}) selects the degradation
    ladder. A [checkpoint] never changes the explored, reduced or
    truncated counts. Any run through a bitstate seen set finishes
    Inconclusive ([Bitstate_collision_risk]) unless a counterexample or
    an earlier stop reason takes priority; source-DPOR keeps no subtree
    summaries there, so every covered arrival saturates the stack. *)

val fingerprint : Gem_model.Computation.t -> string
(** Canonical string of a computation's events (identity, class, params)
    and enable edges — emission-order independent. *)

val fingerprint_into : Buffer.t -> Gem_model.Computation.t -> unit
(** {!fingerprint}, appended to an existing buffer — the exact-key
    builders use this to avoid an intermediate string. *)

val add_id : Buffer.t -> Gem_model.Event.id -> unit
(** Append an event identity in its canonical [element^index] rendering
    (byte-identical to {!Gem_model.Event.pp_id}) without going through a
    formatter. *)

val dedup_computations :
  ('c -> Gem_model.Computation.t) -> 'c list -> Gem_model.Computation.t list
(** Seal each leaf and drop partial-order duplicates: different
    interleavings of commuting steps produce the same computation (same
    event identities, parameters and enable edges), and are collapsed by a
    canonical fingerprint. The survivors are returned sorted by
    fingerprint, so the list is identical however the leaves were
    discovered — the anchor for byte-identical verdicts across POR
    on/off, re-runs, and resumed runs. *)

(** {1 The exploration driver} *)

type 'c lang = {
  init : 'c;  (** The initial configuration. *)
  steps : 'c -> (string * (unit -> 'c)) list;
      (** The enabled moves, listed without stepping: each a label,
          distinct within the configuration and stable for as long as the
          move stays enabled, and a thunk that takes the step. *)
  footprint : 'c -> 'c -> string list;
      (** [footprint c c'] lists the elements the step from [c] to [c']
          reads or writes (see {!move}), in any order, duplicates
          allowed. *)
  terminated : 'c -> bool;  (** A leaf that completed, not deadlocked. *)
  fp_key : 'c -> Gem_order.Fingerprint.t;
      (** Incremental fingerprint of the configuration: equal whenever
          [exact_key] is byte-equal; distinct keys collide with
          negligible probability. The default search key. *)
  exact_key : 'c -> string;
      (** Canonical state key: byte-equal for configurations reached by
          different interleavings of commuting moves. The
          [--exact-keys] search key and the collision audit's oracle. *)
  seal : 'c -> Gem_model.Computation.t;
      (** The computation a configuration's trace records. *)
}
(** What differs between the languages: everything else about exploring
    a program is {!explore}'s. *)

val successors : 'c lang -> 'c -> 'c successor list
(** [lang.steps], each thunk returning its move with the footprint
    sorted and deduplicated. Listing them steps nothing. *)

val moves : 'c lang -> 'c -> 'c list
(** Every successor configuration: [lang.steps], all taken, in order —
    exactly the configurations {!successors}' thunks return. *)

val explore :
  ?reduction:reduction ->
  ?exact_keys:bool ->
  ?audit_keys:bool ->
  ?max_steps:int ->
  ?max_configs:int ->
  ?budget:Gem_check.Budget.t ->
  ?resilience:resilience ->
  'c lang ->
  outcome
(** Explore every schedule of a program and seal its leaves. Resource
    exhaustion (configuration budget, deadline, memory watermark) never
    raises: it is reported in [exhausted]. A step's own error
    ([Expr.Eval_error] on a runtime type error) still raises.

    [reduction] (default {!reduction_default}) picks the engine: the
    reducing engines walk {!successors} keyed on the state key, and
    [No_reduction] fires [lang.steps] with no footprint and no keys, except
    under bitstate, whose bounded seen set needs one. [exact_keys]
    (default {!exact_keys_default}) keys the search on [lang.exact_key]
    instead of [lang.fp_key]; [audit_keys] (default
    {!audit_keys_default}) keeps fingerprint keys and runs the exact key
    alongside as a collision oracle. [max_steps], [max_configs],
    [budget] and [resilience] are {!run}'s. [computations] and
    [deadlocks] are identical for every engine and either key mode. *)

val run_one : ?seed:int -> 'c lang -> Gem_model.Computation.t
(** One pseudo-randomly scheduled complete or stuck run (default seed
    42): at each configuration one move is drawn uniformly from
    [lang.steps] and taken. *)
