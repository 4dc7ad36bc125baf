module R = Gem_syntax.Request
module Cache = Gem_check.Cache
module Server = Gem_check.Server
module Faults = Gem_check.Faults
module Budget = Gem_check.Budget
module Verdict = Gem_check.Verdict
module T = Gem_obs.Telemetry

type t = {
  verdicts : (Verdict.status * string) Cache.t;  (* status, rendered report *)
  explorations : Runner.exploration Cache.t;
}

let create ~cache_size () =
  {
    verdicts = Cache.create ~capacity:cache_size ();
    (* telemetry:false — the global cache counters describe the verdict
       cache; exploration sharing has its own counter below. *)
    explorations = Cache.create ~telemetry:false ~capacity:cache_size ();
  }

let error_line ?(code = 3) msg =
  Printf.sprintf {|{"serve":1,"error":"%s","body":0,"code":%d}|}
    (Server.json_escape msg) code

let cache_stats_json (s : Cache.stats) =
  Printf.sprintf
    {|{"entries":%d,"capacity":%d,"hits":%d,"misses":%d,"coalesced":%d,"evictions":%d}|}
    s.Cache.entries s.capacity s.hits s.misses s.coalesced s.evictions

(* With telemetry on ([serve --stats]), the members of the object
   [--stats] prints (the process's counters and phase timings so far)
   follow the two caches' objects. *)
let stats_body t =
  let caches =
    Printf.sprintf {|{"verdicts":%s,"explorations":%s|}
      (cache_stats_json (Cache.stats t.verdicts))
      (cache_stats_json (Cache.stats t.explorations))
  in
  if T.enabled () then
    let totals = T.stats_json () in
    caches ^ "," ^ String.sub totals 1 (String.length totals - 1)
  else caches ^ "}"

(* A run stopped at the heap watermark depends on what else the process
   held at the time, so neither cache keeps it or its exploration. *)
let by_load = function
  | Verdict.Inconclusive Budget.Memory_watermark -> true
  | Verdict.Inconclusive _ | Verdict.Verified | Verdict.Falsified -> false

(* Build the verdict for a cache miss: share the exploration if an
   equivalent one is cached (or in flight), then conclude on a second
   budget restored to the exploration's end state — the protocol
   documented in {!Runner}. A cached exploration is prepared inside the
   cache's compute, once for every request that shares it. *)
let compute_body t load ~program (c : R.check) =
  let e = c.R.engine in
  let opts = Runner.opts_of_engine load e in
  let mk_budget () =
    Budget.make ?max_configs:e.R.max_configs ?max_runs:e.R.max_runs ()
  in
  let exploration =
    if not (Runner.has_exploration load) then None
    else begin
      let xkey = Runner.explore_key ~program load e in
      let x, prov =
        Cache.find_or_compute t.explorations xkey
          ~keep:(fun x -> x.Runner.x_exhausted <> Some Budget.Memory_watermark)
          (fun () ->
            let budget = mk_budget () in
            match Runner.explore load opts ~budget with
            | Some x -> Runner.prepare load opts x
            | None -> assert false)
      in
      (match prov with
      | Cache.Hit | Cache.Coalesced -> T.hit T.Explorations_shared
      | Cache.Miss -> ());
      Some x
    end
  in
  let budget = mk_budget () in
  Option.iter
    (fun x ->
      Budget.restore budget ~configs:x.Runner.x_configs_used ~runs:0;
      Option.iter (Budget.note budget) x.Runner.x_exhausted)
    exploration;
  let r = Runner.conclude load opts ~budget ~restrict:c.R.restrict exploration in
  (r.Runner.status, Runner.render_json ~command:(Runner.command_name load) r)

let check_response t (c : R.check) =
  match Runner.of_request c with
  | Error e -> [ error_line e ]
  | Ok load when c.R.restrict <> None && not (Runner.supports_restrict load) ->
      [
        error_line
          (Printf.sprintf "%s does not take a restrict= formula"
             (Runner.command_name load));
      ]
  | Ok load -> (
      let started = Unix.gettimeofday () in
      let program = Runner.program_fp load in
      let key = Runner.verdict_key ~program load ~restrict:c.R.restrict c.R.engine in
      let respond provenance (status, body) =
        let header =
          Printf.sprintf
            {|{"serve":1,"command":"%s","cache":"%s","key":"%s","elapsed_ms":%.3f,"body":1,"code":%d}|}
            (Runner.command_name load) provenance key
            ((Unix.gettimeofday () -. started) *. 1000.)
            (Verdict.exit_code status)
        in
        [ header; body ]
      in
      match
        if c.R.engine.R.timeout <> None then
          (* Wall-clock-bounded verdicts are not reproducible; compute
             fresh on the single-budget path and keep them out of the
             caches. *)
          let e = c.R.engine in
          let budget =
            Budget.make ?timeout:e.R.timeout ?max_configs:e.R.max_configs
              ?max_runs:e.R.max_runs ()
          in
          let opts = Runner.opts_of_engine load e in
          let r = Runner.run load opts ~budget ~restrict:c.R.restrict in
          ( ( r.Runner.status,
              Runner.render_json ~command:(Runner.command_name load) r ),
            "uncached" )
        else
          let v, prov =
            Cache.find_or_compute t.verdicts key
              ~keep:(fun (status, _) -> not (by_load status))
              (fun () -> compute_body t load ~program c)
          in
          (v, Cache.provenance_name prov)
      with
      | v, prov -> respond prov v
      | exception Faults.Injected point ->
          Faults.survived ();
          [
            error_line
              (Printf.sprintf
                 "fault injected at %s; verdict unavailable, retry or check \
                  without GEM_FAULT"
                 (Faults.point_name point));
          ]
      | exception Gem_check.Check.Restriction_error { restriction; message } ->
          [ error_line (Gem_check.Check.restriction_error_message ~restriction ~message) ]
      | exception e ->
          [ error_line ("internal: " ^ Printexc.to_string e) ])

let handle t line =
  match R.parse line with
  | Error e -> [ error_line ("parse: " ^ e) ]
  | Ok R.Ping -> [ {|{"serve":1,"pong":true,"body":0,"code":0}|} ]
  | Ok R.Stats ->
      [ {|{"serve":1,"body":1,"code":0}|}; stats_body t ]
  | Ok (R.Check c) -> check_response t c
