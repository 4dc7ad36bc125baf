(* The benchmark's probe: the part of the benchmark that calls into the
   gemcheck libraries. perfbench/run.py drives it; every invocation prints
   one JSON object on stdout.

   probe oneshot --request LINE --id N [--trace] [--setup-only]
     One one-shot sample in this fresh process. Set-up parses the request
     and builds the workload, the engine options, the budget and the
     verdict key (which builds the program and the problem spec); the
     check then explores, concludes and renders the report.

   probe serve --socket PATH --lines FILE [--first I] --clients N --seconds S [--layers]
     Closed-loop clients against a running [gemcheck serve]. Each client
     takes the next line of FILE, from line I (0-based) on, sends it on a
     new connection, like [gemcheck client], and waits for the reply,
     until S seconds have passed or FILE runs out. With --layers it then
     times the request parser, the verdict key and the report renderer
     in-process on the lines sent so far.

   With --trace, Gem_obs.Telemetry is enabled after set-up and the probe
   records a span around each call into a layer. Spans are kept in memory
   and written with the result. *)

module R = Gem_syntax.Request
module Runner = Gem_daemon.Runner
module Client = Gem_daemon.Client
module Budget = Gem_check.Budget
module Explore = Gem_lang.Explore
module T = Gem_obs.Telemetry

let now = Unix.gettimeofday
let origin = now ()
let json_string s = "\"" ^ Gem_check.Server.json_escape s ^ "\""

let die fmt =
  Printf.ksprintf
    (fun m ->
      prerr_endline ("probe: " ^ m);
      exit 2)
    fmt

(* --- spans ---------------------------------------------------------- *)

type span = {
  sid : int;
  parent : int;  (** 0 for a root span. *)
  name : string;
  t0 : float;
  t1 : float;
  agg : bool;
}

let spans = ref []
let last_sid = ref 0

let new_sid () =
  incr last_sid;
  !last_sid

(* Telemetry keeps a running total per phase, not individual spans. The
   phase time that accrues inside a probe span, and not inside one of
   its child spans, becomes one aggregate child span per phase ([agg]),
   laid out back to back from the parent's start. *)
let phases =
  [|
    (T.Interp_step, "lang.interp_step");
    (T.Canon_key, "lang.canon_key");
    (T.Seen_table, "lang.seen_table");
    (T.Merge, "lang.merge");
    (T.Project, "check.project");
    (T.Run_enum, "logic.run_enum");
    (T.Formula_eval, "logic.formula_eval");
  |]

let claimed = Array.make (Array.length phases) 0
let phase_totals () = Array.map (fun (p, _) -> T.span_ns p) phases

let span ~trace ?(parent = 0) name f =
  if not trace then f 0
  else begin
    let sid = new_sid () in
    let tot0 = phase_totals () and cl0 = Array.copy claimed in
    let t0 = now () in
    let v = f sid in
    let t1 = now () in
    let tot1 = phase_totals () in
    let at = ref t0 in
    Array.iteri
      (fun k (_, pname) ->
        let own = tot1.(k) - tot0.(k) - (claimed.(k) - cl0.(k)) in
        if own > 0 then begin
          claimed.(k) <- claimed.(k) + own;
          let d = float_of_int own *. 1e-9 in
          spans :=
            { sid = new_sid (); parent = sid; name = pname; t0 = !at;
              t1 = !at +. d; agg = true }
            :: !spans;
          at := !at +. d
        end)
      phases;
    spans := { sid; parent; name; t0; t1; agg = false } :: !spans;
    v
  end

let spans_json () =
  String.concat ","
    (List.rev_map
       (fun s ->
         Printf.sprintf "[%d,%d,%s,%.9f,%.9f,%b]" s.sid s.parent
           (json_string s.name) (s.t0 -. origin) (s.t1 -. origin) s.agg)
       !spans)

(* --- one-shot sample ------------------------------------------------ *)

(* Peak resident set of this process in MB (VmHWM). The parent cannot
   take it from the exit status's rusage: when it spawns with vfork, the
   kernel counts the parent's own peak as the child's. *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec find () =
    match input_line ic with
    | l when String.starts_with ~prefix:"VmHWM:" l ->
        Scanf.sscanf l "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.)
    | _ -> find ()
    | exception End_of_file -> die "no VmHWM in /proc/self/status"
  in
  Fun.protect ~finally:(fun () -> close_in ic) find

let engine_json (c : R.check) (o : Runner.opts) =
  let reduction =
    Option.value o.Runner.reduction ~default:(Explore.reduction_default ())
  in
  let exact =
    Option.value c.R.engine.R.exact_keys
      ~default:(Explore.exact_keys_default ())
  in
  Printf.sprintf {|{"reduction":"%s","keys":"%s","jobs":%d}|}
    (Explore.reduction_name reduction)
    (if exact then "exact" else "fp")
    o.Runner.jobs

let oneshot ~request ~id ~trace ~setup_only =
  let t_setup = now () in
  let c, load, opts, budget, key =
    span ~trace "setup" (fun root ->
        let c =
          match
            span ~trace ~parent:root "syntax.request_parse" (fun _ ->
                R.parse request)
          with
          | Ok (R.Check c) -> c
          | Ok _ -> die "not a check request: %s" request
          | Error e -> die "cannot parse %S: %s" request e
        in
        let load =
          match Runner.of_request c with Ok l -> l | Error e -> die "%s" e
        in
        let opts = Runner.opts_of_engine load c.R.engine in
        let e = c.R.engine in
        let budget =
          Budget.make ?max_configs:e.R.max_configs ?max_runs:e.R.max_runs ()
        in
        let key =
          span ~trace ~parent:root "daemon.verdict_key" (fun _ ->
              Runner.verdict_key load ~restrict:c.R.restrict e)
        in
        (c, load, opts, budget, key))
  in
  let setup_s = now () -. t_setup in
  let head =
    Printf.sprintf {|"id":%d,"setup_s":%.9f,"engine":%s,"key":"%s"|} id
      setup_s (engine_json c opts) key
  in
  if setup_only then Printf.printf {|{%s,"spans":[%s]}|} head (spans_json ())
  else begin
    if trace then begin
      T.enable ();
      T.reset ()
    end;
    let t0 = now () in
    let report =
      span ~trace "check" (fun root ->
          let x =
            span ~trace ~parent:root "lang.explore" (fun _ ->
                Runner.explore load opts ~budget)
          in
          let r =
            span ~trace ~parent:root "check.conclude" (fun _ ->
                Runner.conclude load opts ~budget ~restrict:c.R.restrict x)
          in
          span ~trace ~parent:root "report.render" (fun _ ->
              Runner.render_json ~command:(Runner.command_name load) r))
    in
    let latency_s = now () -. t0 in
    Printf.printf
      {|{%s,"latency_s":%.9f,"peak_rss_mb":%.3f,"report":%s,"stats":%s,"spans":[%s]}|}
      head latency_s (peak_rss_mb ()) (json_string report)
      (if trace then json_string (T.stats_json ()) else "null")
      (spans_json ());
    print_newline ()
  end

(* --- serve-mix client ----------------------------------------------- *)

let read_lines file =
  let ic = open_in_bin file in
  let rec go acc =
    match input_line ic with
    | l -> go (l :: acc)
    | exception End_of_file ->
        close_in ic;
        Array.of_list (List.rev acc)
  in
  go []

let record i t0 t1 = function
  | Error m ->
      Printf.sprintf "[%d,%.9f,%.9f,null,null,null,%s]" i t0 t1 (json_string m)
  | Ok (r : Client.response) ->
      let body_field name =
        match r.Client.body with
        | [ b ] -> (
            match Client.field_string b name with
            | Some s -> json_string s
            | None -> "null")
        | _ -> "null"
      in
      Printf.sprintf "[%d,%.9f,%.9f,%s,%s,%s,null]" i t0 t1
        (json_string r.Client.header) (body_field "status")
        (body_field "kind")

(* Mean seconds per call of [f] over [xs]; one clock read per pass, as
   each call takes microseconds. *)
let mean_call f xs =
  match xs with
  | [] -> 0.
  | _ ->
      let t0 = now () in
      List.iter (fun x -> ignore (Sys.opaque_identity (f x))) xs;
      (now () -. t0) /. float_of_int (List.length xs)

let layer_times lines =
  let parsed = List.map R.parse lines in
  let checks =
    List.filter_map
      (function
        | Ok (R.Check c) -> (
            match Runner.of_request c with
            | Ok load -> Some (c, load)
            | Error _ -> None)
        | _ -> None)
      parsed
  in
  (* The stream opens with each hot request once, so its first eight
     distinct checks are the hot set: small instances, cheap to run here. *)
  let seen = Hashtbl.create 8 in
  let hot =
    List.filter
      (fun ((c : R.check), _) ->
        let line = R.to_line (R.Check c) in
        if Hashtbl.mem seen line || Hashtbl.length seen >= 8 then false
        else begin
          Hashtbl.add seen line ();
          true
        end)
      checks
  in
  let results =
    List.map
      (fun ((c : R.check), load) ->
        let e = c.R.engine in
        let budget =
          Budget.make ?max_configs:e.R.max_configs ?max_runs:e.R.max_runs ()
        in
        let r =
          Runner.run load (Runner.opts_of_engine load e) ~budget
            ~restrict:c.R.restrict
        in
        (Runner.command_name load, r))
      hot
  in
  let renders = List.concat (List.init 200 (fun _ -> results)) in
  Printf.sprintf
    {|{"request_parse_s":%.9f,"parsed":%d,"verdict_key_s":%.9f,"keyed":%d,"render_s":%.9f,"rendered":%d}|}
    (mean_call R.parse lines) (List.length lines)
    (mean_call
       (fun ((c : R.check), load) ->
         Runner.verdict_key load ~restrict:c.R.restrict c.R.engine)
       checks)
    (List.length checks)
    (mean_call (fun (command, r) -> Runner.render_json ~command r) renders)
    (List.length renders)

let serve ~socket ~lines_file ~first ~clients ~seconds ~layers =
  let lines = read_lines lines_file in
  let n = Array.length lines in
  let next = Atomic.make first in
  let records = Array.make n "" in
  let start = now () in
  let deadline = start +. seconds in
  let rec client () =
    if now () < deadline then begin
      let i = Atomic.fetch_and_add next 1 in
      if i < n then begin
        let t0 = now () in
        let r = Client.request ~socket lines.(i) in
        let t1 = now () in
        records.(i) <- record i (t0 -. start) (t1 -. start) r;
        client ()
      end
    end
  in
  List.iter Thread.join (List.init clients (fun _ -> Thread.create client ()));
  let elapsed = now () -. start in
  let stop = max first (min n (Atomic.get next)) in
  let layers =
    if layers then
      layer_times (Array.to_list (Array.sub lines 0 (min stop 4000)))
    else "null"
  in
  Printf.printf
    {|{"served":%d,"next":%d,"elapsed_s":%.9f,"exhausted":%b,"layers":%s,"records":[%s]}|}
    (stop - first) stop elapsed (stop = n) layers
    (String.concat "," (Array.to_list (Array.sub records first (stop - first))));
  print_newline ()

(* --- command line --------------------------------------------------- *)

let () =
  let request = ref "" and id = ref 0 and trace = ref false in
  let setup_only = ref false and socket = ref "" and lines = ref "" in
  let first = ref 0 in
  let clients = ref 1 and seconds = ref 1. and layers = ref false in
  let mode = ref "" in
  let spec =
    [
      ("--request", Arg.Set_string request, "LINE one-shot check request");
      ("--id", Arg.Set_int id, "N sample id carried by every span");
      ("--trace", Arg.Set trace, " record spans and telemetry");
      ("--setup-only", Arg.Set setup_only, " stop after set-up");
      ("--socket", Arg.Set_string socket, "PATH daemon socket");
      ("--lines", Arg.Set_string lines, "FILE request stream");
      ("--first", Arg.Set_int first, "I first line of FILE to send");
      ("--clients", Arg.Set_int clients, "N closed-loop clients");
      ("--seconds", Arg.Set_float seconds, "S measuring time");
      ("--layers", Arg.Set layers, " time the layers in-process afterwards");
    ]
  in
  let usage = "probe (oneshot|serve) [options]" in
  Arg.parse spec (fun m -> mode := m) usage;
  match !mode with
  | "oneshot" ->
      oneshot ~request:!request ~id:!id ~trace:!trace ~setup_only:!setup_only
  | "serve" ->
      serve ~socket:!socket ~lines_file:!lines ~first:!first ~clients:!clients
        ~seconds:!seconds ~layers:!layers
  | _ -> die "%s" usage
