(** Deterministic fault injection for the resilience ladder.

    The degradation machinery (bitstate seen sets, frontier spilling,
    checkpointing) exists precisely for the paths that are hardest to
    reach in tests: allocation pressure, failing disks, interrupted
    writes. This
    harness makes those paths reachable {e deterministically}: armed
    from the [GEM_FAULT] environment variable (or {!arm} in tests), a
    seeded splitmix64 stream decides at each registered injection point
    whether the operation "fails". The soundness suite
    ([test/test_resilience.ml]) then asserts the only observable
    outcomes are correct verdicts or reasoned Inconclusive — never a
    wrong Verified/Falsified.

    Spec grammar: ["SEED[:PERIOD[:POINTS]]"], e.g. ["42"],
    ["42:17"], ["42:17:spill-io,checkpoint-io"]. [PERIOD] (default 101)
    makes roughly one draw in [PERIOD] fire; [POINTS] restricts which
    sites are eligible (default all).

    Draws are consumed from one atomic process-wide counter, so a given
    seed produces a deterministic fault stream for a deterministic
    (sequential) run, and a fixed fault {e rate} for parallel ones. *)

type point =
  | Alloc  (** Frontier-growth allocation (simulated [Out_of_memory]). *)
  | Spill_io  (** Spool chunk write/read. *)
  | Checkpoint_io  (** Checkpoint snapshot write. *)

exception Injected of point
(** Raised {e by call sites} (never by {!fire} itself) when simulating a
    failure that the real operation would signal by exception. *)

val point_name : point -> string
val all_points : point list

val arm : string -> (unit, string) result
(** Arm from a spec string; resets the draw counter. [Error] describes
    the parse failure. *)

val arm_from_env : unit -> (bool, string) result
(** Arm from [GEM_FAULT] if set. [Ok true] if armed, [Ok false] if the
    variable is unset/empty, [Error] if set but malformed (the CLI turns
    that into a usage error rather than running unfaulted). *)

val disarm : unit -> unit
val armed : unit -> bool

val fire : point -> bool
(** Consume one draw; [true] iff the harness is armed, the point is
    eligible and the draw fires. Counts [Faults_injected]. Always
    [false] when disarmed — call sites pay one ref-read on the hot
    path. *)

val survived : unit -> unit
(** Record that an injected fault was handled gracefully (operation
    degraded, run continued or stopped with a reasoned verdict). The
    soundness suite checks [Faults_survived = Faults_injected] at exit
    on crash-free runs. *)
