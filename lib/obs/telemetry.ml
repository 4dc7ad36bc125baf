(* The whole sink is pre-allocated at load time: a fixed array of
   atomics for counters, another for span aggregates. Recording is
   [if Atomic.get on then Atomic.incr cell] — when disabled that is one
   load and a branch, which is what keeps the instrumented hot paths
   within the <2% overhead budget (BENCH_telemetry.json measures it).
   Nothing here allocates on the hot path. *)

type counter =
  | Configs_explored
  | Configs_reduced
  | Memo_hits
  | Memo_misses
  | Sleep_prunes
  | Runs_enumerated
  | Formula_evals
  | Vhs_histories
  | Budget_stop_deadline
  | Budget_stop_configs
  | Budget_stop_runs
  | Budget_stop_memory
  | Fingerprint_collisions
  | Footprint_checks
  | Checkpoint_writes
  | Faults_injected
  | Faults_survived
  | Bitstate_saturated_prunes
  | Cache_hits
  | Cache_misses
  | Requests_coalesced
  | Explorations_shared
  | Races_detected
  | Backtrack_points
  | Source_prunes
  | Lattice_histories

let counter_idx = function
  | Configs_explored -> 0
  | Configs_reduced -> 1
  | Memo_hits -> 2
  | Memo_misses -> 3
  | Sleep_prunes -> 4
  | Runs_enumerated -> 5
  | Formula_evals -> 6
  | Vhs_histories -> 7
  | Budget_stop_deadline -> 8
  | Budget_stop_configs -> 9
  | Budget_stop_runs -> 10
  | Budget_stop_memory -> 11
  | Fingerprint_collisions -> 12
  | Footprint_checks -> 13
  | Checkpoint_writes -> 14
  | Faults_injected -> 15
  | Faults_survived -> 16
  | Bitstate_saturated_prunes -> 17
  | Cache_hits -> 18
  | Cache_misses -> 19
  | Requests_coalesced -> 20
  | Explorations_shared -> 21
  | Races_detected -> 22
  | Backtrack_points -> 23
  | Source_prunes -> 24
  | Lattice_histories -> 25

let n_counters = 26

let counter_name = function
  | Configs_explored -> "configs_explored"
  | Configs_reduced -> "configs_reduced"
  | Memo_hits -> "memo_hits"
  | Memo_misses -> "memo_misses"
  | Sleep_prunes -> "sleep_prunes"
  | Runs_enumerated -> "runs_enumerated"
  | Formula_evals -> "formula_evals"
  | Vhs_histories -> "vhs_histories"
  | Budget_stop_deadline -> "deadline-exceeded"
  | Budget_stop_configs -> "config-budget"
  | Budget_stop_runs -> "run-cap"
  | Budget_stop_memory -> "memory-watermark"
  | Fingerprint_collisions -> "fingerprint_collisions"
  | Footprint_checks -> "footprint_checks"
  | Checkpoint_writes -> "checkpoint_writes"
  | Faults_injected -> "faults_injected"
  | Faults_survived -> "faults_survived"
  | Bitstate_saturated_prunes -> "bitstate_saturated_prunes"
  | Cache_hits -> "cache_hits"
  | Cache_misses -> "cache_misses"
  | Requests_coalesced -> "requests_coalesced"
  | Explorations_shared -> "explorations_shared"
  | Races_detected -> "races_detected"
  | Backtrack_points -> "backtrack_points"
  | Source_prunes -> "source_prunes"
  | Lattice_histories -> "lattice_histories"

type phase =
  | Interp_step
  | Canon_key
  | Seen_table
  | Run_enum
  | Formula_eval
  | Project
  | Merge
  | Race_analysis

let phase_idx = function
  | Interp_step -> 0
  | Canon_key -> 1
  | Seen_table -> 2
  | Run_enum -> 3
  | Formula_eval -> 4
  | Project -> 5
  | Merge -> 6
  | Race_analysis -> 7

let n_phases = 8

let phases =
  [ Interp_step; Canon_key; Seen_table; Run_enum; Formula_eval; Project; Merge; Race_analysis ]

let phase_name = function
  | Interp_step -> "interp_step"
  | Canon_key -> "canon_key"
  | Seen_table -> "seen_table"
  | Run_enum -> "run_enum"
  | Formula_eval -> "formula_eval"
  | Project -> "project"
  | Merge -> "merge"
  | Race_analysis -> "race_analysis"

let on = Atomic.make false
let trace_on = Atomic.make false
let counters = Array.init n_counters (fun _ -> Atomic.make 0)
let span_totals = Array.init n_phases (fun _ -> Atomic.make 0)
let span_counts = Array.init n_phases (fun _ -> Atomic.make 0)

let enabled () = Atomic.get on
let enable () = Atomic.set on true
let disable () = Atomic.set on false

(* gettimeofday is the only wall clock the stdlib offers portably; spans
   clamp negative deltas to zero so an NTP step cannot produce nonsense
   aggregates. Resolution (~1us) is fine for the phases timed here. *)
let now_ns () = int_of_float (Unix.gettimeofday () *. 1e9)

(* ------------------------------------------------------------------ *)
(* Counters                                                            *)
(* ------------------------------------------------------------------ *)

let hit c = if Atomic.get on then Atomic.incr counters.(counter_idx c)

let add c n =
  if Atomic.get on then ignore (Atomic.fetch_and_add counters.(counter_idx c) n)

let read c = Atomic.get counters.(counter_idx c)

(* ------------------------------------------------------------------ *)
(* Trace buffers (domain-local, registered globally)                   *)
(* ------------------------------------------------------------------ *)

type trace_sink = { mutable t_file : string option; mutable t_epoch : int }

let sink = { t_file = None; t_epoch = 0 }
let trace_mutex = Mutex.create ()
let trace_bufs : Buffer.t list ref = ref []

let trace_key =
  Domain.DLS.new_key (fun () ->
      let b = Buffer.create 4096 in
      Mutex.protect trace_mutex (fun () -> trace_bufs := b :: !trace_bufs);
      b)

let emit_trace p t0 dur_ns =
  let b = Domain.DLS.get trace_key in
  Buffer.add_string b
    (Printf.sprintf
       {|{"name":"%s","cat":"gem","ph":"X","ts":%.3f,"dur":%.3f,"pid":0,"tid":%d}|}
       (phase_name p)
       (float_of_int (t0 - sink.t_epoch) /. 1e3)
       (float_of_int dur_ns /. 1e3)
       (Domain.self () :> int));
  Buffer.add_char b '\n'

let trace_to file =
  Mutex.protect trace_mutex (fun () ->
      sink.t_file <- Some file;
      sink.t_epoch <- now_ns ());
  Atomic.set trace_on true;
  enable ()

let tracing () = Atomic.get trace_on

let flush_trace () =
  match sink.t_file with
  | None -> ()
  | Some file ->
      let bufs = Mutex.protect trace_mutex (fun () -> !trace_bufs) in
      let oc = open_out file in
      Fun.protect
        ~finally:(fun () -> close_out oc)
        (fun () -> List.iter (fun b -> Buffer.output_buffer oc b) bufs)

(* ------------------------------------------------------------------ *)
(* Spans                                                               *)
(* ------------------------------------------------------------------ *)

let span_begin _p = if Atomic.get on then now_ns () else 0

let close_span ~counted p t0 =
  if t0 <> 0 then begin
    let dt = now_ns () - t0 in
    let dt = if dt < 0 then 0 else dt in
    let i = phase_idx p in
    ignore (Atomic.fetch_and_add span_totals.(i) dt);
    if counted then Atomic.incr span_counts.(i);
    if Atomic.get trace_on then emit_trace p t0 dt
  end

let span_end p t0 = close_span ~counted:true p t0
let span_extend p t0 = close_span ~counted:false p t0

let span_count p = Atomic.get span_counts.(phase_idx p)
let span_ns p = Atomic.get span_totals.(phase_idx p)

let time p f =
  let t0 = span_begin p in
  Fun.protect ~finally:(fun () -> span_end p t0) f

(* Checkpoint support: export/import counter totals by name. Only
   counters are persisted — spans and trace buffers are diagnostic
   timing data that cannot meaningfully survive a process restart. *)

let all_counters =
  [
    Configs_explored; Configs_reduced; Memo_hits; Memo_misses; Sleep_prunes;
    Runs_enumerated; Formula_evals; Vhs_histories; Budget_stop_deadline;
    Budget_stop_configs; Budget_stop_runs; Budget_stop_memory;
    Fingerprint_collisions; Footprint_checks; Checkpoint_writes;
    Faults_injected; Faults_survived; Bitstate_saturated_prunes; Cache_hits;
    Cache_misses; Requests_coalesced;
    Explorations_shared; Races_detected; Backtrack_points; Source_prunes;
    Lattice_histories;
  ]

let snapshot_counters () = List.map (fun c -> (counter_name c, read c)) all_counters

let restore_counters kvs =
  List.iter
    (fun c ->
      match List.assoc_opt (counter_name c) kvs with
      | Some v -> Atomic.set counters.(counter_idx c) v
      | None -> ())
    all_counters

let reset () =
  Array.iter (fun c -> Atomic.set c 0) counters;
  Array.iter (fun c -> Atomic.set c 0) span_totals;
  Array.iter (fun c -> Atomic.set c 0) span_counts;
  Mutex.protect trace_mutex (fun () ->
      List.iter Buffer.clear !trace_bufs;
      sink.t_epoch <- now_ns ())

(* ------------------------------------------------------------------ *)
(* Stats snapshot                                                      *)
(* ------------------------------------------------------------------ *)

(* Field order is fixed by construction, so equal counter values render
   to byte-equal JSON — the property the CLI's --stats-deterministic
   mode and the bench golden gate rely on. *)

let stats_json ?(deterministic = false) () =
  let c name = Printf.sprintf {|"%s":%d|} (counter_name name) (read name) in
  let invariant =
    Printf.sprintf {|"invariant":{%s,%s,%s,%s}|} (c Runs_enumerated)
      (c Formula_evals) (c Vhs_histories) (c Lattice_histories)
  in
  if deterministic then Printf.sprintf {|{"schema_version":1,%s}|} invariant
  else begin
    let schedule =
      Printf.sprintf
        {|"schedule":{%s,%s,%s,%s,%s,%s,%s,%s,%s,%s,"budget_stops":{%s,%s,%s,%s},"resilience":{%s,%s,%s,%s},"serve":{%s,%s,%s,%s}}|}
        (c Configs_explored) (c Configs_reduced) (c Memo_hits) (c Memo_misses)
        (c Sleep_prunes) (c Fingerprint_collisions) (c Footprint_checks)
        (c Races_detected) (c Backtrack_points) (c Source_prunes)
        (c Budget_stop_deadline) (c Budget_stop_configs) (c Budget_stop_runs)
        (c Budget_stop_memory) (c Checkpoint_writes) (c Faults_injected)
        (c Faults_survived) (c Bitstate_saturated_prunes)
        (c Cache_hits) (c Cache_misses) (c Requests_coalesced)
        (c Explorations_shared)
    in
    let timings =
      Printf.sprintf {|"timings":{%s}|}
        (String.concat ","
           (List.map
              (fun p ->
                Printf.sprintf {|"%s":{"count":%d,"total_ns":%d}|}
                  (phase_name p) (span_count p) (span_ns p))
              phases))
    in
    Printf.sprintf {|{"schema_version":1,%s,%s,%s}|} invariant schedule timings
  end
