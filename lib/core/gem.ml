(** GEM — the Group Element Model of concurrent computation
    (Lansky & Owicki, 1983), as an executable specification and
    verification toolkit.

    This umbrella module re-exports the layers under one roof:

    {ul
    {- order substrate: {!Bitset}, {!Digraph}, {!Poset}, {!Linext},
       {!Relation}, {!Fingerprint};}
    {- the model of execution: {!Value}, {!Event}, {!Group},
       {!Computation}, {!Build}, {!Dot};}
    {- the restriction logic: {!Formula}, {!History}, {!Vhs}, {!Eval};}
    {- the specification layer: {!Etype}, {!Access}, {!Abbrev}, {!Thread},
       {!Spec}, {!Legality};}
    {- checking: {!Budget}, {!Strategy}, {!Verdict}, {!Check}, {!Refine};}
    {- the checking service: {!Cache} (LRU + single-flight), {!Server}
       (Unix-socket transport), {!Request} (wire requests), {!Runner}
       (the shared verification pipeline), {!Handler}, {!Client},
       {!Matrix} (the workload matrix);}
    {- resilience: {!Bitstate}, {!Checkpoint}, {!Faults};}
    {- observability: {!Telemetry} (counters, spans, trace export);}
    {- the concrete syntax: {!Lexer}, {!Parser};}
    {- language substrates: {!Expr}, {!Trace}, {!Explore}, {!Monitor},
       {!Csp}, {!Ada};}
    {- case studies: {!Buffer_problem}, {!Readers_writers},
       {!Rw_distributed}, {!Db_update}, {!Life};}
    {- differential fuzzing: {!Fuzz} (generators, oracle, shrinker,
       corpus);}
    {- dynamic group structures: {!Dyngroup}.}}

    Quick start: build a computation with {!Build}, describe a
    specification with {!Spec} (formulas via {!Formula}'s constructors),
    and check with {!Check.check}; or transcribe a Monitor/CSP/ADA
    program, explore its schedules, and verify it against a problem spec
    with {!Refine.sat}. See [examples/]. *)

module Bitset = Gem_order.Bitset
module Digraph = Gem_order.Digraph
module Poset = Gem_order.Poset
module Linext = Gem_order.Linext
module Relation = Gem_order.Relation
module Fingerprint = Gem_order.Fingerprint
module Value = Gem_model.Value
module Event = Gem_model.Event
module Group = Gem_model.Group
module Computation = Gem_model.Computation
module Build = Gem_model.Build
module Dot = Gem_model.Dot
module Formula = Gem_logic.Formula
module History = Gem_logic.History
module Vhs = Gem_logic.Vhs
module Eval = Gem_logic.Eval
module Lattice = Gem_logic.Lattice
module Etype = Gem_spec.Etype
module Access = Gem_spec.Access
module Abbrev = Gem_spec.Abbrev
module Thread = Gem_spec.Thread
module Spec = Gem_spec.Spec
module Legality = Gem_spec.Legality
module Dyngroup = Gem_spec.Dyngroup
module Telemetry = Gem_obs.Telemetry
module Budget = Gem_check.Budget
module Bitstate = Gem_check.Bitstate
module Checkpoint = Gem_check.Checkpoint
module Faults = Gem_check.Faults
module Strategy = Gem_check.Strategy
module Verdict = Gem_check.Verdict
module Check = Gem_check.Check
module Refine = Gem_check.Refine
module Cache = Gem_check.Cache
module Server = Gem_check.Server
module Lexer = Gem_syntax.Lexer
module Parser = Gem_syntax.Parser
module Request = Gem_syntax.Request
module Runner = Gem_daemon.Runner
module Handler = Gem_daemon.Handler
module Matrix = Gem_daemon.Matrix
module Client = Gem_daemon.Client
module Expr = Gem_lang.Expr
module Trace = Gem_lang.Trace
module Explore = Gem_lang.Explore
module Monitor = Gem_lang.Monitor
module Csp = Gem_lang.Csp
module Ada = Gem_lang.Ada
module Buffer_problem = Gem_problems.Buffer
module Readers_writers = Gem_problems.Readers_writers
module Rw_distributed = Gem_problems.Rw_distributed
module Db_update = Gem_problems.Db_update
module Life = Gem_problems.Life
module Fuzz = Gem_fuzz

(** [check_spec spec comp] — is the computation legal for the spec and do
    all its restrictions hold (default strategy)? *)
let check_spec spec comp = Verdict.ok (Check.check spec comp)

(** [verify_monitor_program ?strategy ?edges ~problem ~map program] —
    explore every schedule of a Monitor program and check every resulting
    computation's projection against the problem specification. Returns
    [(n_computations, n_deadlocks, all_satisfied)]. *)
let verify_monitor_program ?strategy ?budget ?edges ~problem ~map program =
  let outcome = Monitor.explore ?budget program in
  ( List.length outcome.Monitor.computations,
    List.length outcome.Monitor.deadlocks,
    Refine.sat_ok ?strategy ?budget ?edges ~problem ~map outcome.Monitor.computations )
