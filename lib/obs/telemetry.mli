(** Process-wide observability: lock-free counters, phase timing spans
    and an optional Chrome-trace-event exporter.

    The checker's performance story (sleep-set effectiveness, memo-table
    hit rates, where the time goes) is invisible from verdicts alone;
    this module gives every layer a place to record what it did without
    changing any result. Instrumentation sites live in
    {!Gem_lang.Explore}, the three language interpreters,
    {!Gem_check.Budget}/[Check]/[Refine] and {!Gem_logic.Eval}/[Vhs];
    the CLI surfaces the totals via [gemcheck --stats] and [--trace].

    {b Disabled by default, and a no-op sink when disabled.} All state
    is a pre-allocated record of [Atomic.t] cells guarded by one flag:
    the disabled hot path is a single atomic load and branch — no
    closures, no allocation, no syscalls. Measured overhead on the bench
    workloads is well under the 2% budget (see [BENCH_telemetry.json]).

    {b Domain-safety.} Counters are [Atomic.t] (fetch-and-add), span
    aggregates too, and trace events go to domain-local buffers, so any
    number of domains may record concurrently.

    {b Conservation invariants} (asserted in [test/test_telemetry.ml]
    for every reduction engine):
    - [Configs_explored] = the [explored] field of the exploration
      result, and [Configs_reduced] = its [reduced] field;
    - [Configs_reduced] = [Sleep_prunes] + [Memo_hits] +
      [Source_prunes] — every pruned arrival is asleep, memo-covered by
      the seen table, or skipped by a source set that never scheduled
      it, never more than one;
    - the {e invariant} section of {!stats_json} ([Runs_enumerated],
      [Formula_evals], [Vhs_histories], [Lattice_histories]) is
      byte-stable across job
      counts, because it is derived from the canonical computation
      list. *)

type counter =
  | Configs_explored  (** Interpreter configurations claimed and visited. *)
  | Configs_reduced  (** Arrivals pruned (sleep set or memo coverage). *)
  | Memo_hits  (** Seen-table lookups answered "already covered". *)
  | Memo_misses  (** Seen-table lookups that recorded a new entry. *)
  | Sleep_prunes  (** Successors skipped because their move slept. *)
  | Runs_enumerated  (** Runs consumed by temporal checks. *)
  | Formula_evals
      (** Formula evaluations: per run, per computation, and per
          restriction decided on a history lattice. *)
  | Vhs_histories  (** Valid history sequences materialized. *)
  | Budget_stop_deadline  (** Budget stops: wall-clock deadline. *)
  | Budget_stop_configs  (** Budget stops: configuration budget. *)
  | Budget_stop_runs  (** Budget stops: run cap. *)
  | Budget_stop_memory  (** Budget stops: heap watermark. *)
  | Fingerprint_collisions
      (** Audit mode only: seen-table hits whose exact structural key
          differs from the one recorded at first insert — a lossy
          fingerprint merge that would silently prune a distinct state. *)
  | Footprint_checks  (** Move-independence (footprint disjointness) tests. *)
  | Checkpoint_writes  (** Checkpoint snapshots successfully persisted. *)
  | Faults_injected  (** Faults fired by the {!Gem_check.Faults} harness. *)
  | Faults_survived
      (** Injected faults handled gracefully (degraded, not crashed). *)
  | Bitstate_saturated_prunes
      (** Arrivals pruned because the bitstate table refused an insert at
          its load cap — coverage silently lost, hence the mandatory
          [Bitstate_collision_risk] downgrade. *)
  | Cache_hits
      (** Serve mode: requests answered from the verdict cache without
          recomputing anything ({!Gem_check.Cache}). *)
  | Cache_misses
      (** Serve mode: requests that computed (and cached) a fresh
          verdict. [Cache_hits + Cache_misses + Requests_coalesced] =
          well-formed check requests handled. *)
  | Requests_coalesced
      (** Serve mode: requests that arrived while an identical request
          was already in flight and waited for its result instead of
          recomputing (single-flight coalescing). *)
  | Explorations_shared
      (** Serve mode: verdict-cache misses that still skipped
          exploration because another request for the same (program,
          workload, engine) key — differing only in restriction — had
          already populated the exploration cache. *)
  | Races_detected
      (** Source-DPOR: reversible races found between an executed (or
          summarized) event and an earlier event on the DFS stack. *)
  | Backtrack_points
      (** Source-DPOR: labels added to a stack frame's backtrack set in
          response to a race (including conservative fills when no
          initial of the reversing sequence is enabled at the frame). *)
  | Source_prunes
      (** Source-DPOR: awake successors never scheduled into a frame's
          backtrack set by any race — the engine's saving over sleep
          sets. Counted into [Configs_reduced] alongside [Sleep_prunes]
          and [Memo_hits]. *)
  | Lattice_histories
      (** Histories in the lattices built to decide temporal
          restrictions without enumerating runs ({!Gem_logic.Lattice}). *)

type phase =
  | Interp_step  (** One interpreter successor computation. *)
  | Canon_key  (** Canonical state-key construction (seal + marshal). *)
  | Seen_table  (** Seen-table lookup/record (memo subset rule). *)
  | Run_enum  (** Linext/vhs run enumeration and history-lattice builds. *)
  | Formula_eval  (** Temporal/immediate formula evaluation. *)
  | Project  (** Program-to-problem projection ({!Gem_check.Refine}). *)
  | Merge  (** Canonical leaf sort and fingerprint dedup. *)
  | Race_analysis
      (** Source-DPOR happens-before clocks and race detection on the
          DFS stack. *)

val enabled : unit -> bool
val enable : unit -> unit

val disable : unit -> unit
(** Turns collection off; recorded totals remain readable. *)

val reset : unit -> unit
(** Zero every counter and span and drop buffered trace events. The
    enabled/tracing flags are untouched. *)

val hit : counter -> unit
(** Add one. A single atomic load + branch when disabled. *)

val add : counter -> int -> unit
val read : counter -> int

val span_begin : phase -> int
(** Start a span; returns an opaque token (0 when disabled). No closure:
    pair with {!span_end} around the timed expression. *)

val span_end : phase -> int -> unit
(** Close a span started by {!span_begin}: accumulates wall-clock
    nanoseconds into the phase aggregate and, when tracing, appends a
    Chrome trace event to the current domain's buffer. *)

val span_extend : phase -> int -> unit
(** Close a span like {!span_end}, but as a continuation of a span
    already counted: its time is added to the phase total and the span
    count stays as it is. The source-DPOR walk lists a configuration's
    moves under one [Interp_step] span and builds each successor only
    when it executes it; those builds extend that one span. *)

val span_count : phase -> int
val span_ns : phase -> int

val time : phase -> (unit -> 'a) -> 'a
(** [time p f] = {!span_begin}/{!span_end} around [f ()] — for cold
    call sites where the closure cost is irrelevant. *)

val trace_to : string -> unit
(** Start collecting Chrome trace events (also enables collection).
    Nothing is written until {!flush_trace}. *)

val tracing : unit -> bool

val flush_trace : unit -> unit
(** Write buffered events to the {!trace_to} file, one JSON trace-event
    object per line ([ph:"X"], microsecond [ts]/[dur], [tid] = domain
    id) — loadable by Perfetto / chrome://tracing. Raises [Sys_error]
    if the file cannot be written. *)

val counter_name : counter -> string
val phase_name : phase -> string

val snapshot_counters : unit -> (string * int) list
(** Every counter's current total, keyed by {!counter_name} — the
    telemetry component of a checkpoint snapshot. *)

val restore_counters : (string * int) list -> unit
(** Overwrite counters present in the list (by {!counter_name}); absent
    counters are left untouched. Used on [--resume] so a resumed run's
    totals continue from the interrupted run's. *)

val stats_json : ?deterministic:bool -> unit -> string
(** One-line JSON snapshot:
    [{"schema_version":1,"invariant":{...},"schedule":{...},"timings":{...}}].

    The [invariant] counters are schedule-independent (byte-stable
    across [--jobs] and reduction engines for a given workload);
    [schedule] counters are exact but depend on the reduction engine and
    key mode; [timings] are per-phase [{"count","total_ns"}].
    [~deterministic:true] keeps only [schema_version] + [invariant], so
    the output is byte-identical across job counts. *)
