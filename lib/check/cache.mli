(** Bounded LRU cache with single-flight request coalescing — the verdict
    cache behind [gemcheck serve].

    A long-running checking service sees two access patterns a one-shot
    CLI never does: {e repeats} (the same spec re-checked on every push)
    and {e stampedes} (many clients asking the same question at once,
    e.g. a CI fan-out). The cache answers repeats in O(1); single-flight
    coalescing makes a stampede cost one exploration — every concurrent
    duplicate blocks on the first request's in-flight slot and receives
    the {e same} value, so a cached verdict is byte-identical to the one
    the computing request saw.

    Keys are opaque strings (the daemon uses the hex of a composite
    {!Gem_order.Fingerprint}); values are arbitrary. Capacity bounds the
    number of {e completed} entries: eviction is strict LRU over
    completed entries, and in-flight slots are never evicted (they are
    not results yet, and waiters hold references to them).

    Thread-safety: every operation may be called from any thread or
    domain. Internally one mutex guards the table; the compute function
    runs {e outside} the lock, so unrelated keys never serialize behind
    a slow computation.

    Failure: if the compute function raises, the exception propagates to
    the computing caller {e and} to every coalesced waiter, and the slot
    is removed — a later request retries instead of caching the failure
    (transient faults, e.g. {!Faults} injection, must not poison the
    cache). *)

type 'v t

val create : ?telemetry:bool -> capacity:int -> unit -> 'v t
(** [capacity] must be at least 1 (raises [Invalid_argument] otherwise).
    At most [capacity] completed entries are retained. [telemetry]
    (default [true]) counts operations under the global [Cache_hits] /
    [Cache_misses] / [Requests_coalesced] counters; secondary caches
    (e.g. the daemon's exploration cache) pass [false] so the [--stats]
    counters describe the verdict cache alone. *)

type provenance =
  | Hit  (** Answered from a completed entry; nothing recomputed. *)
  | Miss  (** This request computed the value (and cached it). *)
  | Coalesced
      (** An identical request was already in flight; this one waited
          for — and shares — its result. *)

val provenance_name : provenance -> string
(** ["hit"], ["miss"] or ["coalesced"]. *)

val find_or_compute :
  ?keep:('v -> bool) -> 'v t -> string -> (unit -> 'v) -> 'v * provenance
(** [find_or_compute t key f] returns the cached value for [key], or
    computes it with [f] exactly once per concurrent burst. A computed
    value for which [keep] (default: always) is false goes to the
    computing caller and its coalesced waiters but is not stored, so the
    next request for [key] computes again. Also counts the outcome under
    the [Cache_hits] / [Cache_misses] / [Requests_coalesced] telemetry
    counters and the cache's own {!stats}. *)

val find : 'v t -> string -> 'v option
(** Peek without computing; bumps recency on hit but counts nothing. *)

val remove : 'v t -> string -> unit
(** Drop a completed entry if present. In-flight slots are untouched. *)

val clear : 'v t -> unit
(** Drop every completed entry. In-flight slots are untouched. *)

type stats = {
  entries : int;  (** Completed entries currently resident. *)
  capacity : int;
  hits : int;
  misses : int;
  coalesced : int;
  evictions : int;
}

val stats : 'v t -> stats
