(** Generic exhaustive scheduler exploration.

    Language interpreters expose their operational semantics as a [moves]
    function (all configurations reachable in one scheduler choice); this
    module walks the choice tree depth-first, within bounds, and classifies
    the leaves. Configurations carry their own traces, so a completed leaf
    can be sealed into a computation by the caller.

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
    (ascending [String.compare]) and duplicate-free} — the interpreters
    build it with [List.sort_uniq] — so {!independent} can intersect
    footprints in one linear merge walk. Two moves with disjoint
    [touches] commute and can neither enable nor disable one another. *)

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
(** [max_steps] bounds each branch's depth (default 10_000);
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
    enumerate exactly [moves config], in the same order. The sleep-set
    walk forces the awake thunks of a configuration in list order, under
    one [Interp_step] span; source-DPOR forces a thunk only when it
    executes the move, so a step that raises is raised only if its move
    is fired.

    [reduction] picks the reduction engine used over [footprint]
    (default [Sleep_sets]; ignored without a [footprint], where every
    walk is plain). [No_reduction] ignores the footprint and runs the
    plain walk. [Source_sets] runs the source-DPOR engine: per-execution
    happens-before is derived from footprints, reversible races on the
    DFS stack schedule backtrack points, and successors no race demands
    are never visited ([Source_prunes] telemetry) — the
    computation/deadlock sets still cover one representative per
    Mazurkiewicz trace, so verdicts are byte-identical to the other
    engines. Because race detection needs the recursive execution
    stack, [Source_sets] degrades to sleep sets under [bitstate],
    [checkpoint] or [resume]; see DESIGN.md for the decision record.

    The walk is sequential: the plain and sleep-set engines share one
    task-stack walk over every seen store, so a [checkpoint] never
    changes the explored, reduced or truncated counts. Parallelism lives
    in the checking layer ({!Gem_check.Par}).

    [resilience] (default {!no_resilience}) selects the degradation
    ladder. Any run through a bitstate seen set finishes Inconclusive
    ([Bitstate_collision_risk]) unless a counterexample or an earlier
    stop reason takes priority. *)

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
