(** Bounded-RAM fingerprint-only seen set (SPIN-style bitstate hashing).

    Exact exploration stores a canonical key (or at least a memo entry)
    per visited configuration, so RAM caps the reachable state count.
    Bitstate mode stores only the 126-bit fingerprint in a fixed
    open-addressed table — 16 bytes per slot, allocated once — trading
    certainty for capacity: a lookup answering "seen" may be a hash
    collision with a genuinely different state, silently pruning it.

    The trade is made sound through the verdict layer: any run using
    this table has its Verified downgraded to Inconclusive with
    {!Budget.reason}[.Bitstate_collision_risk], while Falsified remains
    trustworthy (counterexamples are executed, not inferred). The
    [--audit-keys] oracle composes with bitstate mode to {e measure} the
    realized collision rate on workloads that still fit exactly.

    Sharded (shard from the low fingerprint lane, probe sequence from
    the high lane), each shard with its own 7/8 load cap and its own
    mutex, so one table may be shared across domains. *)

type t

val min_bits : int
val max_bits : int
(** The accepted table sizes, [min_bits]..[max_bits] = 8..30: 2^30
    slots is 16 GiB, past any sensible single-table budget. The CLI and
    the wire grammar reject other widths as usage errors. *)

val create : ?shards:int -> bits:int -> unit -> t
(** [create ~bits ()] allocates [2^bits] slots split over [shards]
    (default 64, rounded to a power of two, clamped so each shard keeps
    ≥ 8 slots). Raises [Invalid_argument] unless [bits] lies in
    {!min_bits}..{!max_bits}. *)

val add : t -> Gem_order.Fingerprint.t -> [ `New | `Seen | `Full ]
(** Insert-or-lookup: [`New] recorded (first sight), [`Seen] already
    present {e or colliding}, [`Full] the shard is at its 7/8 load cap
    and the fingerprint was {b not} recorded. Callers must treat [`Full]
    as "seen" (prune) and count it ([Bitstate_saturated_prunes]) —
    admitting inserts past the cap would degenerate probe chains and
    effectively hang the exploration. *)

val bits : t -> int
val capacity : t -> int
val occupancy : t -> int

val saturated : t -> bool
(** Some [add] returned [`Full] — coverage was definitely, not just
    probabilistically, lost. *)

type snapshot
(** Marshal-safe image of the table (plain arrays, no mutexes) for
    checkpoint/resume. *)

val snapshot : t -> snapshot
val restore : snapshot -> t
