(** Crash-safe periodic run snapshots ([--checkpoint]/[--resume]).

    A long exploration should survive its process: every [every] visited
    configurations the engine marshals its complete resumable state —
    seen set, the stack of open frames, accumulated leaves and counters,
    budget usage, telemetry totals — to a file, atomically (write to [FILE.tmp], then
    rename), so the file always holds either the previous complete
    snapshot or the new one, never a torn write. A killed run resumed
    from the snapshot replays to a {e byte-identical} verdict, because
    the walk is sequential-deterministic and the canonical
    merge anchors the output.

    {b Format}: ["GEMCKPT4"] magic, the [stamp] (8-byte big-endian
    length, then its bytes), the payload length (8 bytes, big-endian),
    an MD5 {!Digest} of the payload, then the payload (the marshalled
    walk state). The stamp encodes the full run identity (command,
    workload parameters, engine configuration); {!read} refuses a
    mismatch — resuming into a different run would silently corrupt the
    verdict, the one thing this subsystem exists to protect. {!read}
    checks both lengths and the digest before it unmarshals anything,
    so a truncated or bit-flipped file, or one in an older format
    (["GEMCKPT1"], or ["GEMCKPT2"] and ["GEMCKPT3"], whose payloads have
    earlier layouts of the walk state), is an [Error] that says to
    rerun, and never a crash.

    Write failures (real, or injected at {!Faults.Checkpoint_io})
    return [Error] and the run continues without that snapshot; a
    checkpoint is an opportunity, not an obligation. *)

type ctl

val ctl : ?every:int -> string -> ctl
(** [ctl file] snapshots to [file] every [every] (default 50_000)
    visited configurations. *)

val file : ctl -> string
val every : ctl -> int

val write : ctl -> stamp:string -> 'a -> (unit, string) result
(** Atomic snapshot write; counts [Checkpoint_writes] on success. The
    payload must be marshal-safe (interpreter configurations are pure
    data — no closures, no custom blocks). *)

val read : stamp:string -> string -> ('a, string) result
(** Load and validate a snapshot. [Error] on a missing, truncated or
    corrupt file, an old-format file, or a stamp mismatch. The caller
    asserts the payload type — safe only because the stamp pins the
    producing run configuration and the magic pins the format. *)
