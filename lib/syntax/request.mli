(** The [gemcheck serve] wire request language.

    One request per line. Three verbs:

    {[
      request  ::= "ping"
                 | "stats"
                 | "check" cmd (key "=" value)*
      cmd      ::= ident                      -- rw, buffer, rwd, db, life
      value    ::= bare-token | '"' escaped '"'
    ]}

    Values containing spaces (notably [restrict=...] formulas) are
    double-quoted, with backslash-quote, backslash-backslash, and
    backslash-n and backslash-r (a line feed and a carriage return, which
    a line cannot carry raw) as the only escapes. Keys split into two
    vocabularies:

    - {e engine} keys, parsed and validated here because every check
      command shares them: [reduction=none|sleep|source],
      [keys=fp|exact], [jobs=N], [bitstate=off|BITS] (BITS in 8..30),
      [timeout=SECS], [max-configs=N], [max-runs=N] ([jobs] sets the
      checking domains);
    - {e workload} keys (e.g. [readers=2], [version=readers-priority]),
      kept as an association list for the command runner to interpret.

    The one workload key interpreted here is [restrict]: its value is a
    restriction formula in the concrete GEM formula syntax ({!Parser}),
    parsed at request-parse time so a malformed formula is rejected at
    the wire — the daemon never starts an exploration it cannot finish
    checking. The formula's canonical rendering ([Formula.to_string])
    is what enters the cache key's restriction component.

    {!to_line} renders the canonical form — workload keys sorted,
    engine keys in a fixed order with defaults omitted — and
    [parse (to_line r)] returns a request equal to [r] (a qcheck
    property in [test/test_syntax.ml], over every engine key, quoted
    values and [restrict=] formulas). *)

type reduction = Reduction_none | Reduction_sleep | Reduction_source
(** Mirror of [Explore.reduction] — [Gem_syntax] cannot depend on
    [Gem_lang], so the wire protocol carries its own copy; the daemon
    runner translates. *)

val reduction_to_string : reduction -> string
(** ["none"], ["sleep"] or ["source"] — the wire spellings. *)

val reduction_of_string : string -> reduction option

type engine = {
  reduction : reduction option;
      (** [None] defers to [Explore.reduction_default]. *)
  exact_keys : bool option;
      (** [None] defers to [Explore.exact_keys_default]. *)
  jobs : int;  (** Checking domains. Default 1. *)
  bitstate_bits : int option;
      (** [Some bits] = bitstate mode with a [2^bits]-slot table. *)
  timeout : float option;
  max_configs : int option;
  max_runs : int option;
}

val default_engine : engine

type check = {
  cmd : string;
  params : (string * string) list;
      (** Workload parameters, sorted by key; excludes [restrict]. *)
  restrict : Gem_logic.Formula.t option;
      (** Extra named restriction to check alongside the problem's own. *)
  engine : engine;
}

type t = Ping | Stats | Check of check

val parse : string -> (t, string) result
(** Errors are one-line human-readable descriptions (no newlines), so
    the daemon can embed them in a JSON error reply verbatim. *)

val to_line : t -> string
(** Canonical rendering; see above. It contains no line feed or carriage
    return: values that hold one are quoted with the escape. *)

val restriction_name : string
(** The name under which a [restrict=...] formula is added to the
    problem specification (and reported in failure verdicts). *)
