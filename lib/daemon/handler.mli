(** The [gemcheck serve] request handler: {!Gem_syntax.Request} in,
    header + verdict lines out, with a verdict cache and an exploration
    cache in between.

    Response shape (one JSON object per line):
    - every response starts with a {e header} line
      [{"serve":1,...,"body":N,"code":C}]; [N] more lines follow.
      [C] is the exit code the equivalent one-shot run would have
      returned (0 verified / 1 falsified / 2 inconclusive / 3 error).
    - a [check] response's header carries provenance — [who] computed
      the verdict ([{"cache":"hit|miss|coalesced|uncached"}]), the cache
      [key], and [elapsed_ms] — and its single body line is byte-for-byte
      the [--json] report of the equivalent one-shot run.
    - errors (parse errors, unknown commands, handler-level crashes,
      injected faults) are a header with an ["error"] field and no body.

    Caching:
    - the {e verdict cache} maps {!Runner.verdict_key} to the rendered
      report, with single-flight coalescing ({!Gem_check.Cache});
    - the {e exploration cache} maps {!Runner.explore_key} to the
      exploration phase's outcome, {!Runner.prepare}d once inside the
      cache's compute, so requests that differ only in their
      restriction evaluate restrictions without re-exploring or
      re-projecting (counted under the [Explorations_shared] telemetry
      counter);
    - requests with a [timeout] bypass both caches ([cache]:
      ["uncached"]) — their verdicts depend on wall-clock time, and the
      byte-identity guarantee is only meaningful for deterministic
      requests. *)

type t

val create : cache_size:int -> unit -> t
(** [cache_size] bounds each cache's completed-entry count. *)

val handle : t -> string -> string list
(** Thread-safe; pass as the {!Gem_check.Server.run} handler. Never
    raises: anything thrown by the engines (including
    {!Gem_check.Faults.Injected}) becomes an error header. *)

val stats_body : t -> string
(** The [stats] verb's body line: both caches' counters and, with
    telemetry on ([serve --stats]), beside them the members of the
    object [--stats] prints ({!Gem_obs.Telemetry.stats_json}): the
    process's counters and phase timings so far. *)
