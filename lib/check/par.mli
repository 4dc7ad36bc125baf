(** Domain-parallelism substrate for the checking layer.

    Built on the stdlib's [Domain] and [Atomic] only. Parallelism is
    always opt-in: every entry point that accepts a [jobs] count defaults
    it to {!jobs_default}, which is [1] unless the [GEM_JOBS] environment
    variable says otherwise — so sequential behavior is the default and
    one environment switch turns the whole pipeline parallel. *)

val jobs_default : unit -> int
(** The worker-count default: the [GEM_JOBS] environment variable when it
    parses as an integer [>= 1], else [1]. Mirrors
    {!Gem_lang.Explore.reduction_default}'s treatment of
    [GEM_REDUCTION]: library entry points consult it when the caller
    passes no explicit [jobs], so the CLI flag and the environment
    variable compose. Invalid values are
    ignored (the strict rejection lives in the CLI, which refuses them
    with a usage error). *)

val map : ?jobs:int -> ('a -> 'b) -> 'a list -> 'b list
(** Order-preserving parallel map over [jobs] domains (the caller's domain
    included). [jobs <= 1] — or a list too short to split — degrades to
    [List.map]. Work is dealt by an atomic cursor, so uneven item costs
    balance automatically. A worker exception aborts the remaining work
    and is re-raised (with its backtrace) in the calling domain; when
    several workers fail concurrently the first failure wins. [f] must be
    safe to call from multiple domains: pure, or confined to domain-safe
    shared state such as {!Budget.t}. *)

val mapi : ?jobs:int -> (int -> 'a -> 'b) -> 'a list -> 'b list
(** [map] with the element index, same ordering and failure contract. *)
