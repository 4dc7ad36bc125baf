(** The distributed database update application (paper §1, §11 —
    "an algorithm for performing updates to a distributed database").

    Each of [sites] sites holds a replica of one register and originates
    one timestamped update; updates propagate over synchronous CSP
    channels in a full mesh, and each site applies the Thomas write rule
    (keep the update with the highest timestamp). Every site runs a single
    guarded loop offering its unsent updates and accepting any incoming
    one, so the symmetric protocol cannot deadlock.

    The paper's claims, checked mechanically:
    - {e lack of deadlock}: the exhaustive exploration reports no
      deadlocked leaf;
    - {e functional correctness}: in every computation, all sites finish
      with the same value — the maximum timestamp ({!convergence},
      {!converges_to}). *)

val program : sites:int -> Gem_lang.Csp.program
(** Site [i] (1-based) originates update value [100 + i] with timestamp
    [i]. Requires [sites >= 2]. *)

val site_name : int -> string

val convergence : Gem_logic.Formula.t
(** All [Final] marker events carry equal values. *)

val converges_to : sites:int -> Gem_logic.Formula.t
(** Every [Final] value is the maximum update ([100 + sites]). *)

type report = {
  computations : int;
  deadlocks : int;
  converges : bool;  (** Every computation's runs converge. *)
  explored : int;  (** Interpreter configurations visited. *)
  reduced : int;  (** Configurations pruned by partial-order reduction. *)
  exhausted : Gem_check.Budget.reason option;
      (** Exploration or checking was cut short; [converges] then covers
          only the sample actually examined. *)
}

val check :
  ?reduction:Gem_lang.Explore.reduction ->
  ?exact_keys:bool ->
  ?audit_keys:bool ->
  ?max_configs:int ->
  ?budget:Gem_check.Budget.t ->
  ?jobs:int ->
  ?resilience:Gem_lang.Explore.resilience ->
  sites:int ->
  unit ->
  report
(** Explore every schedule and check convergence on each computation,
    within the given budget. Never raises on exhaustion. [reduction]
    selects the reduction engine (default
    {!Gem_lang.Explore.reduction_default}); [exact_keys]/[audit_keys]
    select the search-key mode (defaults
    {!Gem_lang.Explore.exact_keys_default} /
    {!Gem_lang.Explore.audit_keys_default}). [jobs] spreads the
    per-computation checking over that many domains (default
    {!Gem_check.Par.jobs_default}); the report is identical for every job
    count. *)
