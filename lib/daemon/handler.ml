module R = Gem_syntax.Request
module Cache = Gem_check.Cache
module Server = Gem_check.Server
module Faults = Gem_check.Faults
module Budget = Gem_check.Budget
module T = Gem_obs.Telemetry

type t = {
  verdicts : (int * string) Cache.t;  (* exit code, rendered report *)
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

let stats_body t =
  Printf.sprintf {|{"verdicts":%s,"explorations":%s}|}
    (cache_stats_json (Cache.stats t.verdicts))
    (cache_stats_json (Cache.stats t.explorations))

(* Build the verdict for a cache miss: share the exploration if an
   equivalent one is cached (or in flight), then conclude on a second
   budget restored to the exploration's end state — the protocol
   documented in {!Runner}. *)
let compute_body t load (c : R.check) =
  let e = c.R.engine in
  let opts = Runner.opts_of_engine load e in
  let mk_budget () =
    Budget.make ?max_configs:e.R.max_configs ?max_runs:e.R.max_runs ()
  in
  let exploration =
    if not (Runner.has_exploration load) then None
    else begin
      let xkey = Runner.explore_key load e in
      let x, prov =
        Cache.find_or_compute t.explorations xkey (fun () ->
            let budget = mk_budget () in
            match Runner.explore load opts ~budget with
            | Some x -> x
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
  (r.Runner.exit_code, Runner.render_json ~command:(Runner.command_name load) r)

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
      let key = Runner.verdict_key load ~restrict:c.R.restrict c.R.engine in
      let respond provenance (code, body) =
        let header =
          Printf.sprintf
            {|{"serve":1,"command":"%s","cache":"%s","key":"%s","elapsed_ms":%.3f,"body":1,"code":%d}|}
            (Runner.command_name load) provenance key
            ((Unix.gettimeofday () -. started) *. 1000.)
            code
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
          ( ( r.Runner.exit_code,
              Runner.render_json ~command:(Runner.command_name load) r ),
            "uncached" )
        else
          let v, prov =
            Cache.find_or_compute t.verdicts key (fun () ->
                compute_body t load c)
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
