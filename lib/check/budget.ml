type reason =
  | Deadline_exceeded
  | Config_budget
  | Run_cap of int
  | Memory_watermark
  | Interrupted
  | Bitstate_collision_risk

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

(* Deadline/watermark probes cost a syscall and a Gc stat; amortize them
   over counter charges. Small enough that tiny timeouts still bite. *)
let poll_interval = 64

let word_bytes = Sys.word_size / 8
let words_per_mb = 1024 * 1024 / word_bytes

(* ------------------------------------------------------------------ *)
(* The derived heap watermark                                          *)
(* ------------------------------------------------------------------ *)

(* A limit value in bytes; [unlimited], [max] and values past [max_int]
   (cgroup v1 spells "no limit" as 9223372036854771712) give no bound. *)
let bytes_of s =
  match int_of_string_opt (String.trim s) with
  | Some n when n > 0 -> Some n
  | Some _ | None -> None

(* The first word after [prefix] on the line of [text] that starts with
   it. *)
let field prefix text =
  List.find_map
    (fun l ->
      if String.starts_with ~prefix l then
        let n = String.length prefix in
        let rest = String.trim (String.sub l n (String.length l - n)) in
        Some (List.hd (String.split_on_char ' ' rest))
      else None)
    (String.split_on_char '\n' text)

let watermark_of_limits ~limits ~cgroup ~meminfo =
  let ( let* ) = Option.bind in
  let rlimit_as =
    let* t = limits in
    let* v = field "Max address space" t in
    bytes_of v
  in
  let cgroup = Option.bind cgroup bytes_of in
  let mem_total =
    let* t = meminfo in
    let* v = field "MemTotal:" t in
    let* kb = bytes_of v in
    if kb > max_int / 1024 then None else Some (kb * 1024)
  in
  match List.filter_map Fun.id [ rlimit_as; cgroup; mem_total ] with
  | [] -> None
  | l -> Some (List.fold_left min max_int l / 10 * 6)

let read_file path =
  try Some (In_channel.with_open_bin path In_channel.input_all)
  with Sys_error _ -> None

(* Read once per process, at the first poll: [Budget.make] stays free of
   file reads, which would cost more than a small check's whole setup.
   An atomic cell, not a [Lazy.t]: domains and daemon threads poll
   concurrently, and forcing a lazy value that another domain is forcing
   raises. Two first polls may both read; they store the same value. *)
let unread = -1
let derived_words = Atomic.make unread

let derived_heap_words () =
  let w = Atomic.get derived_words in
  if w <> unread then w
  else begin
    let cgroup =
      match read_file "/sys/fs/cgroup/memory.max" with
      | Some _ as v2 -> v2
      | None -> read_file "/sys/fs/cgroup/memory/memory.limit_in_bytes"
    in
    let w =
      match
        watermark_of_limits ~limits:(read_file "/proc/self/limits") ~cgroup
          ~meminfo:(read_file "/proc/meminfo")
      with
      | Some bytes -> bytes / word_bytes
      | None -> max_int
    in
    Atomic.set derived_words w;
    w
  end

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
  (* Resilience reasons are counted at their own degradation sites
     (bitstate, fault counters) — no budget-stop counter. *)
  | Interrupted | Bitstate_collision_risk -> None

let note t reason =
  if Atomic.compare_and_set t.stopped None (Some reason) then
    Option.iter Gem_obs.Telemetry.hit (stop_counter reason)

let poll t =
  (match t.deadline with
  | Some d when Atomic.get t.stopped = None && Unix.gettimeofday () > d ->
      note t Deadline_exceeded
  | _ -> ());
  let limit =
    match t.max_heap_words with Some w -> w | None -> derived_heap_words ()
  in
  (* [heap_words] counts garbage until a major cycle has swept it, such
     as what an earlier run in the same daemon or matrix left behind, so
     a crossing is confirmed on the live heap before it stops the run. *)
  let over () = (Gc.quick_stat ()).Gc.heap_words > limit in
  if
    limit < max_int
    && Atomic.get t.stopped = None
    && over ()
    && (Gc.full_major ();
        over ())
  then note t Memory_watermark

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

let pp_reason ppf = function
  | Deadline_exceeded -> Format.fprintf ppf "wall-clock deadline exceeded"
  | Config_budget -> Format.fprintf ppf "configuration budget exhausted"
  | Run_cap n -> Format.fprintf ppf "run enumeration capped at %d" n
  | Memory_watermark -> Format.fprintf ppf "memory watermark crossed"
  | Interrupted -> Format.fprintf ppf "interrupted by signal"
  | Bitstate_collision_risk ->
      Format.fprintf ppf
        "bitstate mode: unseen states may have hashed onto seen ones"

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
