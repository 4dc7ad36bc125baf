type reason =
  | Deadline_exceeded
  | Config_budget
  | Run_cap of int
  | Memory_watermark
  | Interrupted
  | Bitstate_collision_risk
  | Spill_io_error

type coverage = {
  configs_explored : int;
  configs_reduced : int;
  branches_truncated : int;
  runs_enumerated : int;
  runs_complete : bool;
}

(* All mutable cells are atomics: one budget is shared by every domain of
   a parallel check, so charges race. Counters tolerate the benign
   interleaving (fetch-and-add); [stopped] is first-reason-wins via
   compare-and-set, so the merged result carries exactly one reason no
   matter how many domains observe exhaustion simultaneously. *)
type t = {
  deadline : float option;  (* absolute, Unix.gettimeofday *)
  max_configs : int option;
  max_runs : int option;
  max_heap_words : int option;
  configs_used : int Atomic.t;
  runs_used : int Atomic.t;
  stopped : reason option Atomic.t;
  until_poll : int Atomic.t;
}

(* Deadline/watermark probes cost a syscall (or a Gc stat); amortize them
   over counter charges. Small enough that tiny timeouts still bite. *)
let poll_interval = 64

let words_per_mb = 1024 * 1024 / (Sys.word_size / 8)

let make ?timeout ?max_configs ?max_runs ?max_heap_mb () =
  {
    deadline = Option.map (fun s -> Unix.gettimeofday () +. s) timeout;
    max_configs;
    max_runs;
    max_heap_words = Option.map (fun mb -> mb * words_per_mb) max_heap_mb;
    configs_used = Atomic.make 0;
    runs_used = Atomic.make 0;
    stopped = Atomic.make None;
    until_poll = Atomic.make poll_interval;
  }

let unlimited () = make ()

let is_limited t =
  t.deadline <> None || t.max_configs <> None || t.max_runs <> None
  || t.max_heap_words <> None

let max_configs t = t.max_configs
let max_runs t = t.max_runs
let configs_used t = Atomic.get t.configs_used
let runs_used t = Atomic.get t.runs_used

let restore t ~configs ~runs =
  Atomic.set t.configs_used configs;
  Atomic.set t.runs_used runs

(* The stop counter records only the winning CAS, so "budget stops by
   reason" counts decisions, not the many racing observers of one. *)
let stop_counter = function
  | Deadline_exceeded -> Some Gem_obs.Telemetry.Budget_stop_deadline
  | Config_budget -> Some Gem_obs.Telemetry.Budget_stop_configs
  | Run_cap _ -> Some Gem_obs.Telemetry.Budget_stop_runs
  | Memory_watermark -> Some Gem_obs.Telemetry.Budget_stop_memory
  (* Resilience reasons are counted at their own injection/degradation
     sites (spill, bitstate, fault counters) — no budget-stop counter. *)
  | Interrupted | Bitstate_collision_risk | Spill_io_error -> None

let note t reason =
  if Atomic.compare_and_set t.stopped None (Some reason) then
    Option.iter Gem_obs.Telemetry.hit (stop_counter reason)

let poll t =
  (match t.deadline with
  | Some d when Atomic.get t.stopped = None && Unix.gettimeofday () > d ->
      note t Deadline_exceeded
  | _ -> ());
  match t.max_heap_words with
  | Some w
    when Atomic.get t.stopped = None && (Gc.quick_stat ()).Gc.heap_words > w ->
      note t Memory_watermark
  | _ -> ()

let exhausted t =
  if Atomic.get t.stopped = None then poll t;
  Atomic.get t.stopped

(* A charge is granted on its own count, not on a re-read of [stopped]:
   when domains race past the cap, a charge that landed within it stays
   granted, so concurrent charges grant exactly the cap in total. *)
let charge t counter limit_reason =
  Atomic.get t.stopped = None
  && begin
       let remaining = Atomic.fetch_and_add t.until_poll (-1) - 1 in
       if remaining <= 0 then begin
         Atomic.set t.until_poll poll_interval;
         poll t
       end;
       Atomic.get t.stopped = None
       &&
       match counter () with
       | used, Some cap when used > cap ->
           note t limit_reason;
           false
       | _ -> true
     end

let charge_config t =
  charge t
    (fun () -> (Atomic.fetch_and_add t.configs_used 1 + 1, t.max_configs))
    Config_budget

(* [max_runs] is a per-enumeration cap (it tightens strategy caps in
   {!Strategy.enumerate}), not a cumulative counter — checking many
   computations under one budget must not exhaust it. Charging a run
   still polls the deadline/watermark and feeds coverage stats. *)
let charge_run t =
  charge t
    (fun () -> (Atomic.fetch_and_add t.runs_used 1 + 1, None))
    Config_budget

let full_coverage =
  {
    configs_explored = 0;
    configs_reduced = 0;
    branches_truncated = 0;
    runs_enumerated = 0;
    runs_complete = true;
  }

let reason_keyword = function
  | Deadline_exceeded -> "deadline-exceeded"
  | Config_budget -> "config-budget"
  | Run_cap _ -> "run-cap"
  | Memory_watermark -> "memory-watermark"
  | Interrupted -> "interrupted"
  | Bitstate_collision_risk -> "bitstate-collision-risk"
  | Spill_io_error -> "spill-io-error"

let pp_reason ppf = function
  | Deadline_exceeded -> Format.fprintf ppf "wall-clock deadline exceeded"
  | Config_budget -> Format.fprintf ppf "configuration budget exhausted"
  | Run_cap n -> Format.fprintf ppf "run enumeration capped at %d" n
  | Memory_watermark -> Format.fprintf ppf "memory watermark crossed"
  | Interrupted -> Format.fprintf ppf "interrupted by signal"
  | Bitstate_collision_risk ->
      Format.fprintf ppf
        "bitstate mode: unseen states may have hashed onto seen ones"
  | Spill_io_error -> Format.fprintf ppf "frontier spill I/O failed"

let reason_json r =
  match r with
  | Run_cap n -> Printf.sprintf {|{"kind":"%s","cap":%d}|} (reason_keyword r) n
  | _ -> Printf.sprintf {|{"kind":"%s"}|} (reason_keyword r)

let pp_coverage ppf c =
  Format.fprintf ppf
    "@[<h>configs explored: %d; configs reduced: %d; branches truncated: %d; \
     runs enumerated: %d; run coverage: %s@]"
    c.configs_explored c.configs_reduced c.branches_truncated c.runs_enumerated
    (if c.runs_complete then "complete" else "partial")

let coverage_json c =
  Printf.sprintf
    {|{"configs_explored":%d,"configs_reduced":%d,"branches_truncated":%d,"runs_enumerated":%d,"runs_complete":%b}|}
    c.configs_explored c.configs_reduced c.branches_truncated c.runs_enumerated
    c.runs_complete
