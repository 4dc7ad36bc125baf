(** The differential oracle: run one case across the engine-configuration
    lattice and assert agreement.

    The lattice is {plain, sleep-set POR} x {fp, exact keys} x
    {unbounded, bitstate} — 8 cells — plus a source-DPOR cell and a
    spool cell (sleep sets, fp keys, a frontier that spills to disk from
    the first check on), 10 in total. The exact (non-bitstate) cells must
    produce identical completed/deadlocked computation {e multisets}
    (canonical fingerprints), identical exhaustion, and identical
    per-computation verdicts for the case's random restriction; the
    spool cell must also explore exactly as many configurations as its
    in-memory twin. Bitstate cells are lossy by design: they must report
    exactly [bitstate-collision-risk] (the unconditional clean-sweep
    downgrade) and their computation/deadlock {e sets} must be a subset
    of the baseline's — the subset-of-clean soundness contract of the
    resilience layer. *)

type cell = {
  reduction : Gem_lang.Explore.reduction;
  exact : bool;
  bitstate : bool;
  spool : bool;  (** Keep the frontier on an always-spilling spool. *)
}

val lattice : cell list
(** All 10 cells; the head is {!baseline}. *)

val baseline : cell
(** Sleep sets, exact keys, no bitstate, in-memory frontier — the
    truth anchor. *)

val cell_name : cell -> string

type disagreement = {
  d_cell : cell;
  d_kind : string;
      (** [completed] | [deadlocks] | [exhausted] | [verdicts] |
          [explored] | [completed-subset] | [deadlocks-subset] |
          [verdicts-subset] | [exception]. *)
  d_expected : string;
  d_actual : string;
}

val pp_disagreement : Format.formatter -> disagreement -> unit

val check :
  ?max_configs:int ->
  ?formula:Gem_logic.Formula.t ->
  Case.prog ->
  (int, disagreement) result
(** Run every lattice cell; [Ok total_explored] (configurations summed
    over all cells) when they agree, the first disagreement otherwise.
    [formula] (default none) additionally compares the per-computation
    verdict vector of the given restriction, checked against the
    program's {e language spec} context. A cell that raises is itself a
    disagreement ([exception]), never an escape: the fuzzer treats
    crashes as findings. If the baseline cell exhausts its budget
    ([max_configs], default 1_000_000) the instance is vacuously [Ok 0]
    — tiny generated programs never hit this. *)

val skeys : Case.prog -> cell -> string list * string list
(** The (completed, deadlocked) canonical-fingerprint multisets of one
    cell, exposed for the corpus replay tests. *)
