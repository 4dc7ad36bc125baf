(** Resource budgets and graceful degradation.

    The checker's work is worst-case explosive: the set of valid history
    sequences grows combinatorially with concurrency (paper §6), and the
    language interpreters explore exponentially many schedules. A budget
    carries the resources a caller is willing to spend — a wall-clock
    deadline, configuration/run counters, and a heap watermark — and is
    threaded through the whole pipeline
    ({!Gem_lang.Explore}, {!Strategy}, {!Check}, {!Refine}).

    Exhaustion never raises and never truncates silently: every entry
    point degrades to a three-valued outcome ({!Verdict.status}) whose
    [Inconclusive] state carries a machine-readable {!reason} plus
    {!coverage} statistics, so "verified" is only ever claimed when
    coverage was complete for the requested enumeration. *)

type reason =
  | Deadline_exceeded  (** The wall-clock deadline passed. *)
  | Config_budget  (** The configuration-visit budget ran out. *)
  | Run_cap of int  (** Run enumeration was cut at this cap. *)
  | Memory_watermark
      (** The major-heap watermark was crossed: the caller's
          [max_heap_mb], else the one derived from the process's own
          memory limits (see {!make}). *)
  | Interrupted
      (** SIGINT/SIGTERM arrived; the run stopped at the next poll and
          reported partial coverage instead of dying. *)
  | Bitstate_collision_risk
      (** The seen set ran in bitstate (fingerprint-only, bounded-RAM)
          mode: an unseen state may have hashed onto a seen slot, so a
          clean sweep cannot claim Verified. Falsified stays sound —
          every reported counterexample was actually executed. *)

type coverage = {
  configs_explored : int;  (** Interpreter configurations visited. *)
  configs_reduced : int;
      (** Configurations pruned by partial-order reduction (sleep sets
          and canonical-key memoization). *)
  branches_truncated : int;  (** Exploration branches cut short. *)
  runs_enumerated : int;  (** Runs the temporal check consumed. *)
  runs_complete : bool;
      (** The run enumeration covered every complete run. *)
}

type t
(** Mutable: counters accumulate across every phase the budget is
    threaded through, so one budget bounds an entire pipeline.

    Domain-safe: all mutable cells are atomics, so one budget may be
    shared by every domain of a parallel check ({!Check.check_all} or
    {!Refine.sat} with [jobs > 1]). Counters use fetch-and-add;
    the exhaustion verdict is set with a first-reason-wins
    compare-and-set, so concurrent observers agree on a single
    {!reason} and cancellation propagates to all domains through the
    shared cell. *)

val make :
  ?timeout:float ->
  ?max_configs:int ->
  ?max_runs:int ->
  ?max_heap_mb:int ->
  unit ->
  t
(** [timeout] is seconds of wall-clock from now; [max_configs] bounds
    interpreter configuration visits (cumulative); [max_runs] caps run
    enumeration {e per temporal check} (it tightens strategy caps, and
    with them the history-lattice bound — checking many computations
    does not exhaust it); [max_heap_mb] is a major-heap watermark, and a
    crossing is confirmed on the live heap (after a full major
    collection) before it stops the run. Omitted dimensions are
    unlimited, except the heap: without [max_heap_mb] the watermark is
    60% of the smallest memory limit of the process (see
    {!watermark_of_limits}), read once per process at the first poll —
    [make] itself reads no file. *)

val unlimited : unit -> t
(** No caller limits; counters still accumulate (useful for coverage
    stats), and the derived heap watermark still applies. *)

val watermark_of_limits :
  limits:string option ->
  cgroup:string option ->
  meminfo:string option ->
  int option
(** The derived heap watermark in bytes: 60% of the smallest limit the
    three texts give. [limits] is [/proc/self/limits] (the soft
    ["Max address space"], i.e. [RLIMIT_AS]); [cgroup] is the cgroup's
    memory limit file (v2 [memory.max], else v1
    [memory.limit_in_bytes]); [meminfo] is [/proc/meminfo]
    (["MemTotal:"], in kB). A missing text or field, or an unlimited
    value ([unlimited], [max], or one past [max_int] such as v1's
    9223372036854771712), gives no bound; [None] when none does. *)

val max_configs : t -> int option
val max_runs : t -> int option
val configs_used : t -> int
val runs_used : t -> int

val restore : t -> configs:int -> runs:int -> unit
(** Overwrite the cumulative counters — used by [--resume] so a resumed
    run continues charging from the interrupted run's totals (and a
    [max_configs] cap keeps its end-to-end meaning). *)

val exhausted : t -> reason option
(** Probe: also (re)checks the deadline and the heap watermark. Once a
    budget is exhausted the verdict is sticky. *)

val charge_config : t -> bool
(** Count one configuration visit; [false] once the budget is exhausted
    (the deadline and watermark are polled every few dozen charges). *)

val charge_run : t -> bool
(** Count one enumerated run; [false] once the budget is exhausted. *)

val note : t -> reason -> unit
(** Record an exhaustion observed outside the budget's own counters
    (e.g. a strategy's run cap firing). First reason wins. *)

val full_coverage : coverage
(** Complete coverage with zeroed counters — the starting point for
    callers that fill counters in as they learn them. *)

val pp_reason : Format.formatter -> reason -> unit
val reason_keyword : reason -> string
(** Stable machine-readable keyword: ["deadline-exceeded"],
    ["config-budget"], ["run-cap"], ["memory-watermark"],
    ["interrupted"], ["bitstate-collision-risk"]. *)

val reason_json : reason -> string
val pp_coverage : Format.formatter -> coverage -> unit
val coverage_json : coverage -> string
