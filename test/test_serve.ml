(* The checking daemon, end to end: the LRU + single-flight verdict
   cache, the wire-request grammar, the cache-key discipline, and the
   socket server.

   The load-bearing property is byte-identity — a daemon response must
   be byte-for-byte the [--json] report of the equivalent one-shot run,
   whether computed fresh, answered from the verdict cache, or
   assembled from a shared exploration two-phase budget. The key suite
   is its dual: any input that can change a verdict (workload parameter,
   restriction, engine knob) must change the cache key, while spellings
   that cannot (the default engine named explicitly, rw versions sharing
   an exploration) must collapse onto one line. *)

module Cache = Gem_check.Cache
module Server = Gem_check.Server
module Faults = Gem_check.Faults
module Budget = Gem_check.Budget
module Formula = Gem_logic.Formula
module Rw_prob = Gem_problems.Readers_writers
module Explore = Gem_lang.Explore
module R = Gem_syntax.Request
module Runner = Gem_daemon.Runner
module Handler = Gem_daemon.Handler
module Client = Gem_daemon.Client

let check = Alcotest.check

let find_sub hay needle =
  let nl = String.length needle and ol = String.length hay in
  let rec go i =
    if i + nl > ol then None
    else if String.sub hay i nl = needle then Some i
    else go (i + 1)
  in
  go 0

let contains hay needle = find_sub hay needle <> None

(* ------------------------------------------------------------------ *)
(* Cache                                                               *)
(* ------------------------------------------------------------------ *)

let get c k = fst (Cache.find_or_compute c k (fun () -> "v:" ^ k))

let test_cache_miss_then_hit () =
  let c = Cache.create ~telemetry:false ~capacity:4 () in
  let computes = ref 0 in
  let f () =
    incr computes;
    "value"
  in
  let v1, p1 = Cache.find_or_compute c "k" f in
  let v2, p2 = Cache.find_or_compute c "k" f in
  check Alcotest.string "first computes" "value" v1;
  check Alcotest.string "second reuses" "value" v2;
  check Alcotest.string "first is a miss" "miss" (Cache.provenance_name p1);
  check Alcotest.string "second is a hit" "hit" (Cache.provenance_name p2);
  check Alcotest.int "computed once" 1 !computes

let test_cache_lru_eviction () =
  let c = Cache.create ~telemetry:false ~capacity:2 () in
  ignore (get c "a");
  ignore (get c "b");
  (* Touch [a] so [b] is now least recently used. *)
  check (Alcotest.option Alcotest.string) "peek bumps" (Some "v:a")
    (Cache.find c "a");
  ignore (get c "c");
  check (Alcotest.option Alcotest.string) "a retained" (Some "v:a")
    (Cache.find c "a");
  check (Alcotest.option Alcotest.string) "b evicted" None (Cache.find c "b");
  check (Alcotest.option Alcotest.string) "c resident" (Some "v:c")
    (Cache.find c "c")

let test_cache_capacity_bound () =
  let c = Cache.create ~telemetry:false ~capacity:3 () in
  for i = 1 to 10 do
    ignore (get c (string_of_int i))
  done;
  let s = Cache.stats c in
  check Alcotest.int "entries bounded" 3 s.Cache.entries;
  check Alcotest.int "evictions counted" 7 s.Cache.evictions;
  check Alcotest.int "misses counted" 10 s.Cache.misses;
  match Cache.create ~capacity:0 () with
  | exception Invalid_argument _ -> ()
  | (_ : string Cache.t) -> Alcotest.fail "capacity 0 accepted"

let test_cache_remove_clear () =
  let c = Cache.create ~telemetry:false ~capacity:4 () in
  ignore (get c "a");
  ignore (get c "b");
  Cache.remove c "a";
  check (Alcotest.option Alcotest.string) "removed" None (Cache.find c "a");
  check (Alcotest.option Alcotest.string) "others kept" (Some "v:b")
    (Cache.find c "b");
  Cache.clear c;
  check (Alcotest.option Alcotest.string) "cleared" None (Cache.find c "b");
  check Alcotest.int "empty" 0 (Cache.stats c).Cache.entries

let test_cache_single_flight () =
  let c = Cache.create ~telemetry:false ~capacity:4 () in
  let computes = Atomic.make 0 in
  let fetch () =
    Cache.find_or_compute c "k" (fun () ->
        Atomic.incr computes;
        Thread.delay 0.3;
        "value")
  in
  (* Leader first, then waiters while the compute is provably still in
     flight — each must coalesce onto the leader's slot. *)
  let results = Array.make 4 ("", Cache.Miss) in
  let leader = Thread.create (fun () -> results.(0) <- fetch ()) () in
  Thread.delay 0.05;
  let waiters =
    List.init 3 (fun i ->
        Thread.create (fun () -> results.(i + 1) <- fetch ()) ())
  in
  Thread.join leader;
  List.iter Thread.join waiters;
  check Alcotest.int "computed once" 1 (Atomic.get computes);
  Array.iter (fun (v, _) -> check Alcotest.string "same value" "value" v) results;
  let count p =
    Array.fold_left (fun n (_, q) -> if q = p then n + 1 else n) 0 results
  in
  check Alcotest.int "one miss" 1 (count Cache.Miss);
  check Alcotest.int "three coalesced" 3 (count Cache.Coalesced);
  let s = Cache.stats c in
  check Alcotest.int "stats coalesced" 3 s.Cache.coalesced;
  check Alcotest.int "stats misses" 1 s.Cache.misses

let test_cache_failure_propagates_and_is_not_cached () =
  let c = Cache.create ~telemetry:false ~capacity:4 () in
  (* A waiter coalesced onto a failing compute sees the same exception. *)
  let leader_failed = ref false and waiter_failed = ref false in
  let leader =
    Thread.create
      (fun () ->
        try
          ignore
            (Cache.find_or_compute c "k" (fun () ->
                 Thread.delay 0.3;
                 failwith "boom"))
        with Failure m when m = "boom" -> leader_failed := true)
      ()
  in
  Thread.delay 0.05;
  (try ignore (Cache.find_or_compute c "k" (fun () -> "unused"))
   with Failure m when m = "boom" -> waiter_failed := true);
  Thread.join leader;
  check Alcotest.bool "leader saw the failure" true !leader_failed;
  check Alcotest.bool "waiter saw the failure" true !waiter_failed;
  (* The failure must not poison the cache: the slot is gone and a later
     request recomputes successfully. *)
  check (Alcotest.option Alcotest.string) "failure not cached" None
    (Cache.find c "k");
  let v, p = Cache.find_or_compute c "k" (fun () -> "recovered") in
  check Alcotest.string "retry recomputes" "recovered" v;
  check Alcotest.string "retry is a miss" "miss" (Cache.provenance_name p)

(* ------------------------------------------------------------------ *)
(* Request grammar                                                     *)
(* ------------------------------------------------------------------ *)

let formula s =
  match Gem_syntax.Parser.parse_formula s with
  | Ok f -> f
  | Error e -> Alcotest.failf "formula %S: %s" s e

let roundtrip r =
  let line = R.to_line r in
  match R.parse line with
  | Ok r' -> check Alcotest.bool (line ^ " round-trips") true (r = r')
  | Error e -> Alcotest.failf "%s: %s" line e

let test_request_roundtrip () =
  roundtrip R.Ping;
  roundtrip R.Stats;
  roundtrip
    (R.Check
       {
         cmd = "rw";
         params = [ ("readers", "2"); ("writers", "1") ];
         restrict = None;
         engine = R.default_engine;
       });
  roundtrip
    (R.Check
       {
         cmd = "buffer";
         params = [ ("capacity", "1"); ("lang", "csp") ];
         restrict = Some (formula "false");
         engine =
           {
             R.reduction = Some R.Reduction_source;
             exact_keys = Some true;
             jobs = 4;
             bitstate_bits = Some 20;
             timeout = Some 1.5;
             max_configs = Some 100;
             max_runs = Some 5;
           };
       });
  (* Values that force quoting: spaces, quotes, backslashes, equals,
     line feeds and carriage returns. *)
  List.iter
    (fun v ->
      roundtrip
        (R.Check
           {
             cmd = "rw";
             params = [ ("monitor", v) ];
             restrict = None;
             engine = R.default_engine;
           }))
    [ "a b"; "a\"b"; "a\\b"; "a=b"; ""; "1\n2"; "a\r\nb" ]

let test_request_canonical () =
  (* A line feed in a value is quoted and escaped: the request stays one
     line on the wire. *)
  check Alcotest.string "escaped line feed" {|check rw readers="1\n2" writers=1|}
    (R.to_line
       (R.Check
          {
            cmd = "rw";
            params = [ ("readers", "1\n2"); ("writers", "1") ];
            restrict = None;
            engine = R.default_engine;
          }));
  (* Workload keys come out sorted; defaults are omitted. *)
  match R.parse "check rw writers=1 readers=2 reduction=none jobs=1" with
  | Error e -> Alcotest.fail e
  | Ok r ->
      check Alcotest.string "canonical line"
        "check rw readers=2 writers=1 reduction=none" (R.to_line r)

let test_request_errors () =
  let bad line expect =
    match R.parse line with
    | Ok _ -> Alcotest.failf "%S accepted" line
    | Error e ->
        check Alcotest.bool
          (Printf.sprintf "%S -> %s (got: %s)" line expect e)
          true (contains e expect)
  in
  bad "" "empty request";
  bad "   " "empty request";
  bad "frobnicate" "unknown verb";
  bad "ping now" "no arguments";
  bad "stats x=1" "no arguments";
  bad "x=1" "must start with a verb";
  bad "check" "command name";
  bad "check readers=1" "command name";
  bad "check b@d" "invalid command name";
  bad "check rw extra" "unexpected bare word";
  bad "check rw readers=1 readers=2" "duplicate key";
  bad "check rw restrict=true restrict=false" "duplicate key";
  bad "check rw reduction=turbo" "reduction expects none|sleep|source";
  bad "check rw keys=hash" "keys expects fp|exact";
  bad "check rw jobs=0" "positive integer";
  bad "check rw jobs=-1" "positive integer";
  bad "check rw jobs=abc" "positive integer";
  bad "check rw bitstate=nope" "bits in 8..30";
  bad "check rw bitstate=100" "bits in 8..30";
  bad "check rw bitstate=7" "bits in 8..30";
  bad "check rw timeout=0" "timeout expects positive seconds";
  bad "check rw timeout=-1" "timeout expects positive seconds";
  bad "check rw timeout=inf" "timeout expects positive seconds";
  bad "check rw max-configs=0" "positive integer";
  bad "check rw restrict=((" "restrict:";
  bad "check rw monitor=\"unterminated" "unterminated quoted value";
  bad "check rw monitor=\"bad \\x\"" "unknown escape";
  bad "check rw monitor=\"dangling\\" "dangling backslash";
  bad "check rw mon\"itor=x" "misplaced quote";
  (* Counts outside what the program builders accept parse, but the
     workload is refused with a message naming the key: nothing is built,
     so none of these loops, allocates without bound or raises. *)
  let load line =
    match R.parse line with
    | Ok (R.Check c) -> Runner.of_request c
    | Ok _ | Error _ -> Alcotest.failf "%S is not a check request" line
  in
  List.iter
    (fun (line, expect) ->
      match load line with
      | Ok _ -> Alcotest.failf "%S accepted" line
      | Error e ->
          check Alcotest.bool
            (Printf.sprintf "%S -> %s (got: %s)" line expect e)
            true (contains e expect))
    [
      ("check life generations=-1", "generations expects an integer >= 0");
      ("check rw readers=-1", "readers expects an integer >= 0");
      ("check rwd lang=ada writers=-1", "writers expects an integer >= 0");
      ("check life width=-1", "width expects an integer >= 0");
      ( "check life width=2000 height=2000 generations=2",
        "width x height x (generations + 1) expects at most 10000 cell states, got 2000 x \
         2000 x (2 + 1)" );
      (* Each side counts as at least 1, so an empty board cannot loop
         for ever over its generations. *)
      ( "check life width=0 height=3 generations=4611686018427387903",
        "expects at most 10000 cell states" );
      ("check db sites=1", "sites expects an integer >= 2");
      ("check buffer consumers=0", "consumers expects an integer >= 1");
      ("check buffer producers=2 consumers=3", "consumers expects a divisor");
    ];
  (* Zero readers or writers stay valid. *)
  List.iter
    (fun line ->
      match load line with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "%S refused: %s" line e)
    [ "check rw readers=2 writers=0"; "check rwd readers=0 writers=0" ];
  (* Errors must be single-line so the daemon can embed them in a JSON
     header verbatim. *)
  List.iter
    (fun line ->
      match R.parse line with
      | Ok _ -> ()
      | Error e -> check Alcotest.bool "one-line error" false (String.contains e '\n'))
    [ ""; "frobnicate"; "check rw reduction=maybe"; "check rw restrict=((" ]

(* ------------------------------------------------------------------ *)
(* Cache keys                                                          *)
(* ------------------------------------------------------------------ *)

let rw ?(monitor = "paper") ?(version = Rw_prob.Readers_priority)
    ?(readers = 1) ?(writers = 1) () =
  Runner.Rw { monitor; version; readers; writers }

let deft = R.default_engine

(* The wire spelling of the environment-resolved reduction engine, plus
   one that differs from it — so the sensitivity and defaults-collapse
   assertions stay meaningful on CI legs that flip the default via
   GEM_REDUCTION. *)
let default_reduction_wire =
  match Explore.reduction_default () with
  | Explore.No_reduction -> R.Reduction_none
  | Explore.Sleep_sets -> R.Reduction_sleep
  | Explore.Source_sets -> R.Reduction_source

let non_default_reduction =
  match Explore.reduction_default () with
  | Explore.Source_sets -> R.Reduction_sleep
  | _ -> R.Reduction_source

let test_verdict_key_sensitivity () =
  (* Every verdict-relevant input perturbs the key; the perturbed keys
     are also pairwise distinct (no two knobs collide). *)
  let key ?restrict ?(engine = deft) load =
    Runner.verdict_key load ~restrict engine
  in
  let base = key (rw ()) in
  let variants =
    [
      ("readers", key (rw ~readers:2 ()));
      ("writers", key (rw ~writers:2 ()));
      ("version", key (rw ~version:Rw_prob.Free_for_all ()));
      ("monitor", key (rw ~monitor:"buggy" ()));
      ("restrict", key ~restrict:(formula "false") (rw ()));
      ("restrict formula", key ~restrict:(formula "true") (rw ()));
      ( "reduction",
        key ~engine:{ deft with R.reduction = Some non_default_reduction }
          (rw ()) );
      ( "keys",
        key
          ~engine:
            {
              deft with
              R.exact_keys = Some (not (Explore.exact_keys_default ()));
            }
          (rw ()) );
      ("jobs", key ~engine:{ deft with R.jobs = 2 } (rw ()));
      ("bitstate", key ~engine:{ deft with R.bitstate_bits = Some 16 } (rw ()));
      ( "bitstate bits",
        key ~engine:{ deft with R.bitstate_bits = Some 18 } (rw ()) );
      ("max-configs", key ~engine:{ deft with R.max_configs = Some 100 } (rw ()));
      ("max-runs", key ~engine:{ deft with R.max_runs = Some 5 } (rw ()));
      ( "command",
        key (Runner.Buffer
               {
                 lang = `Monitor;
                 capacity = 1;
                 producers = 1;
                 consumers = 1;
                 items = 2;
               }) );
    ]
  in
  List.iter
    (fun (what, k) ->
      check Alcotest.bool (what ^ " changes the key") false (String.equal base k))
    variants;
  let keys = base :: List.map snd variants in
  let distinct = List.sort_uniq compare keys in
  check Alcotest.int "all keys pairwise distinct" (List.length keys)
    (List.length distinct)

let test_verdict_key_resolves_defaults () =
  (* Spelling the environment default explicitly is the same request —
     it must land on the same cache line. *)
  let base = Runner.verdict_key (rw ()) ~restrict:None deft in
  check Alcotest.string "keys=default collapses" base
    (Runner.verdict_key (rw ()) ~restrict:None
       { deft with R.exact_keys = Some (Explore.exact_keys_default ()) });
  (* Spelling the resolved default reduction explicitly is the default
     engine spelled out: the same request, the same cache line. *)
  check Alcotest.string "reduction=default collapses" base
    (Runner.verdict_key (rw ()) ~restrict:None
       { deft with R.reduction = Some default_reduction_wire })

(* The checkpoint stamp names the resolved engine: each engine's frames
   hold its own scheduling state, so a source checkpoint must not resume
   as a sleep run, nor the other way round. *)
let test_checkpoint_stamp () =
  let stamp ?(exact_keys = false) ?bitstate_bits reduction =
    Runner.stamp (Runner.Db { sites = 3 }) ~reduction:(Some reduction)
      ~exact_keys:(Some exact_keys) ~bitstate_bits
  in
  check Alcotest.string "sleep sets"
    "gemcheck/1 db sites=3 reduction=sleep exact=false bitstate=off"
    (stamp Explore.Sleep_sets);
  check Alcotest.string "plain DFS, exact keys, bitstate"
    "gemcheck/1 db sites=3 reduction=none exact=true bitstate=20"
    (stamp ~exact_keys:true ~bitstate_bits:20 Explore.No_reduction);
  check Alcotest.string "source-DPOR"
    "gemcheck/1 db sites=3 reduction=source exact=false bitstate=off"
    (stamp Explore.Source_sets);
  check Alcotest.bool "source and sleep stamps differ" true
    (stamp Explore.Source_sets <> stamp Explore.Sleep_sets);
  check Alcotest.bool "rw's stamp names the monitor" true
    (Runner.stamp
       (Runner.Rw
          {
            monitor = "paper";
            version = Gem_problems.Readers_writers.Readers_priority;
            readers = 1;
            writers = 1;
          })
       ~reduction:(Some Explore.Sleep_sets) ~exact_keys:(Some false) ~bitstate_bits:None
    = "gemcheck/1 rw monitor=paper readers=1 writers=1 reduction=sleep exact=false \
       bitstate=off");
  check Alcotest.string "the daemon stamps through the same function"
    (Runner.stamp (rw ()) ~reduction:(Some Explore.No_reduction)
       ~exact_keys:(Some true) ~bitstate_bits:(Some 16))
    (Runner.opts_of_engine (rw ())
       {
         deft with
         R.reduction = Some R.Reduction_none;
         exact_keys = Some true;
         bitstate_bits = Some 16;
       })
      .Runner.resilience
      .Explore.stamp

let test_explore_key_sharing () =
  (* The exploration key must ignore exactly the inputs that do not
     affect the exploration: the client restriction and rw's version
     (which only picks the problem spec's scheduling restriction). *)
  let base = Runner.explore_key (rw ()) deft in
  check Alcotest.string "versions share an exploration" base
    (Runner.explore_key (rw ~version:Rw_prob.Free_for_all ()) deft);
  check Alcotest.bool "verdict keys still separate versions" false
    (String.equal
       (Runner.verdict_key (rw ()) ~restrict:None deft)
       (Runner.verdict_key (rw ~version:Rw_prob.Free_for_all ()) ~restrict:None
          deft));
  (* Engine and program inputs do perturb it. *)
  List.iter
    (fun (what, k) ->
      check Alcotest.bool (what ^ " changes the exploration key") false
        (String.equal base k))
    [
      ("readers", Runner.explore_key (rw ~readers:2 ()) deft);
      ("monitor", Runner.explore_key (rw ~monitor:"buggy" ()) deft);
      ("jobs", Runner.explore_key (rw ()) { deft with R.jobs = 2 });
      ( "reduction",
        Runner.explore_key (rw ())
          { deft with R.reduction = Some non_default_reduction } );
      ( "bitstate",
        Runner.explore_key (rw ()) { deft with R.bitstate_bits = Some 16 } );
      ( "max-configs",
        Runner.explore_key (rw ()) { deft with R.max_configs = Some 100 } );
    ]

(* The parameter keys put requests into the same classes as the
   rendered keys over the built program ({!Rendered_keys}): two requests
   share a verdict key, or an exploration key, exactly when they shared
   it before. The requests are drawn from every command, every engine key
   but [timeout] (a request with one bypasses the caches), every rw
   version and monitor, and a pool of client restrictions that holds
   different spellings of one formula and formulas that differ in
   structure but print alike. *)
let test_keys_partition_as_rendered () =
  let sem_fn _ _ _ = true in
  let x = Formula.Atom (Formula.Occurred "x") in
  let under_all f = Formula.Forall ("x", Formula.Any, f) in
  let restricts =
    None
    :: List.map
         (fun f -> Some f)
         ([
            under_all x;
            under_all (Formula.And [ x ]);
            under_all (Formula.Or [ x ]);
            under_all (Formula.Atom (Formula.Sem ("occurred", [ "x" ], sem_fn)));
            under_all
              (Formula.Atom (Formula.In_class ("x", Formula.Cls "control.StartRead")));
            under_all
              (Formula.Atom
                 (Formula.In_class ("x", Formula.Cls_at ("control", "StartRead"))));
          ]
         @ List.map formula
             [
               "false";
               "(false)";
               "~false";
               "~(false)";
               "~~false";
               "~(~(false))";
               "[](true)";
               "[]((true))";
               "(ALL x:*) occurred(x)";
               "((ALL x:*) occurred(x))";
               "[]((ALL x:*) occurred(x))";
               "~([](true))";
               "([](true) \\/ [](false))";
               "[]((ALL s:control.StartWrite) s.foo = 1)";
             ])
  in
  let loads =
    List.concat_map
      (fun monitor ->
        List.concat_map
          (fun version ->
            [ rw ~monitor ~version (); rw ~monitor ~version ~readers:2 () ])
          Rw_prob.all_versions)
      [ "paper"; "writers-priority"; "buggy"; "no-exclusion" ]
    @ List.concat_map
        (fun lang ->
          List.map
            (fun capacity ->
              Runner.Buffer { lang; capacity; producers = 1; consumers = 1; items = 2 })
            [ 1; 2 ])
        [ `Monitor; `Csp; `Ada ]
    @ List.concat_map
        (fun lang ->
          List.map
            (fun broken -> Runner.Rwd { lang; readers = 1; writers = 1; broken })
            [ false; true ])
        [ `Csp; `Ada ]
    @ [
        Runner.Db { sites = 2 };
        Runner.Db { sites = 3 };
        Runner.Life { width = 3; height = 3; generations = 1 };
        Runner.Life { width = 4; height = 3; generations = 1 };
      ]
  in
  let rng = Random.State.make [| 21 |] in
  let pick l = List.nth l (Random.State.int rng (List.length l)) in
  let engine () =
    {
      R.reduction =
        pick
          [ None; Some default_reduction_wire; Some R.Reduction_none; Some R.Reduction_sleep; Some R.Reduction_source ];
      exact_keys = pick [ None; Some true; Some false ];
      jobs = pick [ 1; 1; 2 ];
      bitstate_bits = pick [ None; None; Some 16; Some 18 ];
      timeout = None;
      max_configs = pick [ None; None; Some 100 ];
      max_runs = pick [ None; None; Some 5 ];
    }
  in
  let requests =
    List.init 3000 (fun _ ->
        let load = pick loads in
        let restrict = if Runner.supports_restrict load then pick restricts else None in
        (load, restrict, engine ()))
  in
  let same_classes what keys =
    let forward = Hashtbl.create 64 and backward = Hashtbl.create 64 in
    List.iter
      (fun (old_key, new_key) ->
        (match Hashtbl.find_opt forward old_key with
        | Some k -> check Alcotest.string (what ^ ": one old class, one new key") k new_key
        | None -> Hashtbl.add forward old_key new_key);
        match Hashtbl.find_opt backward new_key with
        | Some k -> check Alcotest.string (what ^ ": one new class, one old key") k old_key
        | None -> Hashtbl.add backward new_key old_key)
      keys;
    let classes = Hashtbl.length forward in
    check Alcotest.bool
      (Printf.sprintf "%s: %d requests share %d keys" what (List.length keys) classes)
      true
      (classes > 100 && classes < List.length keys)
  in
  same_classes "verdict keys"
    (List.map
       (fun (load, restrict, e) ->
         (Rendered_keys.verdict_key load ~restrict e, Runner.verdict_key load ~restrict e))
       requests);
  same_classes "exploration keys"
    (List.map
       (fun (load, _, e) -> (Rendered_keys.explore_key load e, Runner.explore_key load e))
       requests)

(* ------------------------------------------------------------------ *)
(* Byte-identity: daemon responses vs the one-shot pipeline            *)
(* ------------------------------------------------------------------ *)

let parse_check line =
  match R.parse line with
  | Ok (R.Check c) -> c
  | Ok _ -> Alcotest.failf "%S is not a check request" line
  | Error e -> Alcotest.failf "%S: %s" line e

(* The single-budget one-shot path — exactly what [gemcheck CMD --json]
   prints (modulo the trailing newline). *)
let one_shot line =
  let c = parse_check line in
  match Runner.of_request c with
  | Error e -> Alcotest.failf "of_request %S: %s" line e
  | Ok load ->
      let e = c.R.engine in
      let budget =
        Budget.make ?timeout:e.R.timeout ?max_configs:e.R.max_configs
          ?max_runs:e.R.max_runs ()
      in
      let r =
        Runner.run load (Runner.opts_of_engine load e) ~budget
          ~restrict:c.R.restrict
      in
      (r.Runner.exit_code, Runner.render_json ~command:(Runner.command_name load) r)

let handle_check h line =
  match Handler.handle h ("check " ^ line) with
  | [ header; body ] -> (header, body)
  | [ header ] -> Alcotest.failf "error reply for %S: %s" line header
  | ls -> Alcotest.failf "%S: %d response lines" line (List.length ls)

let provenance_of header =
  match Client.field_string header "cache" with
  | Some p -> p
  | None -> Alcotest.failf "no cache field in %s" header

let code_of header =
  match Client.field_int header "code" with
  | Some c -> c
  | None -> Alcotest.failf "no code field in %s" header

(* One grid cell: a cold daemon response, a warm (cached) one and the
   one-shot pipeline must agree byte-for-byte, across verified,
   falsified (monitor bug and client restriction) and inconclusive
   (undersized budget) verdicts. *)
let identity_cases =
  [
    "rw readers=1 writers=1";
    "rw monitor=no-exclusion readers=1 writers=1";
    "rw readers=1 writers=1 restrict=false";
    "rw readers=1 writers=1 max-configs=5";
    "rw readers=1 writers=1 version=free-for-all";
    (* The reduction spelling must differ from the resolved default
       engine, or its cold request here would land on the default
       case's cache line and be a hit already (the collapse itself is
       asserted in the keys suite); CI legs flip the default via
       GEM_REDUCTION. *)
    "rw readers=1 writers=1 reduction="
    ^ R.reduction_to_string non_default_reduction;
    ("rw readers=1 writers=1 keys="
    ^ if Explore.exact_keys_default () then "fp" else "exact");
    "buffer capacity=1 producers=1 consumers=1 items=2";
    "db sites=2";
    "life width=3 height=3 generations=1";
  ]

let test_byte_identity () =
  let h = Handler.create ~cache_size:32 () in
  List.iter
    (fun case ->
      let code, fresh = one_shot ("check " ^ case) in
      let cold_h, cold = handle_check h case in
      let warm_h, warm = handle_check h case in
      check Alcotest.string (case ^ ": cold is a miss") "miss" (provenance_of cold_h);
      check Alcotest.string (case ^ ": warm is a hit") "hit" (provenance_of warm_h);
      check Alcotest.string (case ^ ": cold == one-shot") fresh cold;
      check Alcotest.string (case ^ ": hit == one-shot") fresh warm;
      check Alcotest.int (case ^ ": cold code") code (code_of cold_h);
      check Alcotest.int (case ^ ": warm code") code (code_of warm_h))
    identity_cases

let test_shared_exploration_identity () =
  (* Same program, different restriction: the second request reuses the
     first's exploration (two-phase budget), and must still match the
     single-budget one-shot bytes. *)
  let h = Handler.create ~cache_size:8 () in
  let a = "rw readers=1 writers=1" in
  let b = "rw readers=1 writers=1 version=free-for-all" in
  let c = "rw readers=1 writers=1 restrict=false" in
  ignore (handle_check h a);
  let shared before = contains (Handler.stats_body h) before in
  ignore shared;
  List.iter
    (fun case ->
      let _, body = handle_check h case in
      check Alcotest.string (case ^ ": shared-exploration == one-shot")
        (snd (one_shot ("check " ^ case)))
        body)
    [ b; c ];
  (* All three verdicts, one exploration: the exploration cache saw one
     miss and two shared uses. *)
  let stats = Handler.stats_body h in
  match find_sub stats {|"explorations"|} with
  | None -> Alcotest.failf "no explorations in %s" stats
  | Some i ->
      let tail = String.sub stats i (String.length stats - i) in
      check (Alcotest.option Alcotest.int) "one exploration miss" (Some 1)
        (Client.field_int tail "misses");
      check (Alcotest.option Alcotest.int) "two explorations shared" (Some 2)
        (Client.field_int tail "hits")

(* Conclude on a prepared exploration (projected, legality-checked and
   thread-labelled once, as the daemon's exploration cache holds it)
   renders what conclude on the explored computations renders: the
   report, the failing computations with their witnesses, and the
   restriction error of the first failing computation. rw is prepared
   under one version and concluded under every version, as rw's
   versions share one exploration line. The client restrictions are
   immediate, decided on the history lattice, enumerated run by run,
   and raising. *)
let prepared_restricts =
  None
  :: List.map
       (fun s -> Some (formula s))
       [
         "(ALL x:*) occurred(x)";
         "~~false";
         "[]((ALL x:*) occurred(x))";
         "[](true)";
         "~([](true))";
         "([](true) \\/ [](false))";
         "[]((ALL x:*) x.nosuch = 1)";
         "(ALL x:*) x.nosuch = 1";
       ]

let concluded load opts ~restrict x =
  let budget = Budget.make () in
  Budget.restore budget ~configs:x.Runner.x_configs_used ~runs:0;
  Option.iter (Budget.note budget) x.Runner.x_exhausted;
  match Runner.conclude load opts ~budget ~restrict (Some x) with
  | r ->
      String.concat "\n"
        (Runner.render_json ~command:(Runner.command_name load) r
        :: List.map
             (fun (i, v) ->
               Format.asprintf "%d: %a" i (Gem_check.Verdict.pp None) v)
             r.Runner.failures)
  | exception Gem_check.Check.Restriction_error { restriction; message } ->
      Gem_check.Check.restriction_error_message ~restriction ~message

let test_prepared_conclude_identity () =
  let explored load =
    match Runner.explore load (Runner.opts_of_engine load deft) ~budget:(Budget.make ()) with
    | Some x -> x
    | None -> Alcotest.fail "no exploration"
  in
  let agree ~explored_as ~concluded_as =
    let x = explored explored_as in
    List.iter
      (fun jobs ->
        let opts = Runner.opts_of_engine concluded_as { deft with R.jobs } in
        let prepared = Runner.prepare explored_as opts x in
        List.iter
          (fun restrict ->
            let what =
              Printf.sprintf "%s jobs=%d restrict=%s"
                (R.to_line
                   (R.Check { cmd = Runner.command_name concluded_as; params = []; restrict; engine = deft }))
                jobs
                (match concluded_as with
                | Runner.Rw { monitor; version; _ } ->
                    monitor ^ "/" ^ Rw_prob.version_name version
                | Runner.Buffer _ | Runner.Rwd _ | Runner.Db _ | Runner.Life _ -> "")
            in
            check Alcotest.string what
              (concluded concluded_as opts ~restrict x)
              (concluded concluded_as opts ~restrict prepared))
          prepared_restricts)
      [ 1; 2 ]
  in
  List.iter
    (fun monitor ->
      List.iter
        (fun version -> agree ~explored_as:(rw ~monitor ()) ~concluded_as:(rw ~monitor ~version ()))
        Rw_prob.all_versions)
    [ "paper"; "writers-priority"; "buggy"; "no-exclusion" ];
  List.iter
    (fun lang ->
      let load = Runner.Buffer { lang; capacity = 1; producers = 1; consumers = 1; items = 2 } in
      agree ~explored_as:load ~concluded_as:load)
    [ `Monitor; `Csp; `Ada ];
  List.iter
    (fun (lang, broken) ->
      let load = Runner.Rwd { lang; readers = 1; writers = 1; broken } in
      agree ~explored_as:load ~concluded_as:load)
    [ (`Csp, false); (`Csp, true); (`Ada, false); (`Ada, true) ]

(* ------------------------------------------------------------------ *)
(* Handler behaviour                                                   *)
(* ------------------------------------------------------------------ *)

let test_handler_ping_stats () =
  let h = Handler.create ~cache_size:4 () in
  (match Handler.handle h "ping" with
  | [ header ] ->
      check Alcotest.bool "pong" true (contains header {|"pong":true|});
      check Alcotest.int "code 0" 0 (code_of header)
  | _ -> Alcotest.fail "ping reply shape");
  match Handler.handle h "stats" with
  | [ _header; body ] ->
      check Alcotest.bool "verdict stats" true (contains body {|"verdicts"|});
      check Alcotest.bool "exploration stats" true (contains body {|"explorations"|})
  | _ -> Alcotest.fail "stats reply shape"

let test_handler_errors () =
  let h = Handler.create ~cache_size:4 () in
  let error_reply line expect =
    match Handler.handle h line with
    | [ header ] -> (
        check Alcotest.int (line ^ " is code 3") 3 (code_of header);
        match Client.field_string header "error" with
        | Some e ->
            check Alcotest.bool
              (Printf.sprintf "%S -> %s (got: %s)" line expect e)
              true (contains e expect)
        | None -> Alcotest.failf "no error field: %s" header)
    | ls -> Alcotest.failf "%S: %d lines" line (List.length ls)
  in
  error_reply "frobnicate" "parse:";
  error_reply "check rw reduction=maybe" "parse:";
  error_reply "check nosuch" "unknown command";
  error_reply "check rw bogus=1" "unknown key";
  (* batch= and por= are not engine keys: a request that sends one is
     refused. *)
  error_reply "check rw batch=64" "unknown key batch";
  error_reply "check rw por=off" "unknown key por";
  (* Refused by the parser, not by the table's constructor mid-run. *)
  error_reply "check rw bitstate=100" "parse: bitstate expects off or bits in 8..30";
  error_reply "check db sites=2 restrict=true" "does not take a restrict";
  (* A board whose tables would outgrow memory is refused before it is
     built. *)
  error_reply "check life width=2000 height=2000 generations=2"
    "width x height x (generations + 1) expects at most 10000 cell states";
  (* Junk must never crash the handler. *)
  List.iter
    (fun line -> ignore (Handler.handle h line))
    [ ""; String.make 4096 'x'; "check"; "\x00\x01\x02"; "check rw \"" ]

(* A restriction that cannot be evaluated is the client's error: a code-3
   reply naming the restriction, with the same message for every jobs
   count, and not an internal error. *)
let test_handler_restriction_error () =
  let h = Handler.create ~cache_size:4 () in
  let restrict = {|restrict="[]((ALL s:control.StartWrite) s.foo = 1)"|} in
  let reply jobs =
    match
      Handler.handle h
        (Printf.sprintf "check rw readers=2 writers=1 jobs=%d %s" jobs restrict)
    with
    | [ header ] -> (
        check Alcotest.int "code 3" 3 (code_of header);
        match Client.field_string header "error" with
        | Some e -> e
        | None -> Alcotest.failf "no error field: %s" header)
    | ls -> Alcotest.failf "%d lines" (List.length ls)
  in
  let e1 = reply 1 in
  check Alcotest.bool ("names the restriction: " ^ e1) true
    (contains e1 "restriction client-restriction: " && contains e1 "no parameter foo");
  check Alcotest.bool "not an internal error" false (contains e1 "internal");
  List.iter
    (fun jobs -> check Alcotest.string (Printf.sprintf "jobs=%d message" jobs) e1 (reply jobs))
    [ 2; 4 ]

let test_handler_timeout_uncached () =
  (* Wall-clock-bounded requests bypass the cache: same request twice,
     both uncached, and the verdict cache never sees them. *)
  let h = Handler.create ~cache_size:4 () in
  let h1, b1 = handle_check h "db sites=2 timeout=60" in
  let h2, b2 = handle_check h "db sites=2 timeout=60" in
  check Alcotest.string "first uncached" "uncached" (provenance_of h1);
  check Alcotest.string "second uncached" "uncached" (provenance_of h2);
  check Alcotest.string "still deterministic here" b1 b2;
  let stats = Handler.stats_body h in
  match find_sub stats {|"verdicts"|} with
  | None -> Alcotest.fail "no verdict stats"
  | Some i ->
      let tail = String.sub stats i (String.length stats - i) in
      check (Alcotest.option Alcotest.int) "no verdict misses" (Some 0)
        (Client.field_int tail "misses")

(* With telemetry on, the stats reply carries the per-layer totals
   beside the cache objects. A workload and two restriction variants
   share one exploration, prepared once: the projection ran once per
   computation, not once per request. *)
let test_handler_stats_totals () =
  let workload = "rw readers=1 writers=1" in
  let computations =
    let c = parse_check ("check " ^ workload) in
    match Runner.of_request c with
    | Ok load ->
        (Runner.run load (Runner.opts_of_engine load c.R.engine) ~budget:(Budget.make ())
           ~restrict:None)
          .Runner.computations
    | Error e -> Alcotest.fail e
  in
  Gem_obs.Telemetry.enable ();
  Gem_obs.Telemetry.reset ();
  Fun.protect ~finally:Gem_obs.Telemetry.disable (fun () ->
      let h = Handler.create ~cache_size:8 () in
      List.iter
        (fun case -> ignore (handle_check h case))
        [ workload; workload ^ {| restrict="~false"|}; workload ^ {| restrict="~~false"|} ];
      let stats = Handler.stats_body h in
      let after key =
        match find_sub stats key with
        | Some i -> String.sub stats i (String.length stats - i)
        | None -> Alcotest.failf "no %s in %s" key stats
      in
      check Alcotest.bool "cache objects kept" true
        (contains stats {|{"verdicts":{|} && contains stats {|"explorations":{|});
      check (Alcotest.option Alcotest.int) "explorations shared" (Some 2)
        (Client.field_int (after {|"serve":|}) "explorations_shared");
      check (Alcotest.option Alcotest.int) "one projection per computation"
        (Some computations)
        (Client.field_int (after {|"project":|}) "count"));
  let stats = Handler.stats_body (Handler.create ~cache_size:1 ()) in
  check Alcotest.bool "no totals with telemetry off" false (contains stats "timings")

let test_handler_survives_faults () =
  (* Under a GEM_FAULT alloc storm every frontier push is dropped (the
     alloc injection point lives in the resilient engine, so the request
     runs in bitstate mode): the daemon must answer with a reasoned
     degraded verdict — inconclusive with the memory-watermark reason,
     not the bitstate mode's usual collision-risk — and a fresh handler
     after disarming is back to normal. *)
  let faulted = "rw readers=1 writers=1 bitstate=16" in
  (match Faults.arm "1:1:alloc" with
  | Error e -> Alcotest.failf "arm: %s" e
  | Ok () -> ());
  Fun.protect ~finally:Faults.disarm (fun () ->
      let h = Handler.create ~cache_size:4 () in
      let header, body = handle_check h faulted in
      check Alcotest.int "degraded, not dead" 2 (code_of header);
      check Alcotest.bool "reasoned reply" true
        (contains body {|"status":"inconclusive"|});
      check Alcotest.bool "degradation reason reported" true
        (contains body "memory-watermark"));
  let h = Handler.create ~cache_size:4 () in
  let header, body = handle_check h faulted in
  check Alcotest.int "bitstate stays inconclusive" 2 (code_of header);
  check Alcotest.bool "collision risk after disarm" true
    (contains body "bitstate-collision-risk");
  let header, _ = handle_check h "rw readers=1 writers=1" in
  check Alcotest.int "recovers after disarm" 0 (code_of header)

(* A run stopped at the heap watermark depends on load, so the daemon
   keeps it out of both caches. The alloc fault stands in for a crossing
   (it fires because bitstate= is a resilience option): a repeat is
   computed again, a miss and not a hit. Once the fault is gone, the
   request is computed once and then served from the cache. *)
let test_handler_memory_stop_uncached () =
  let line = "rw readers=1 writers=1 bitstate=16" in
  let h = Handler.create ~cache_size:4 () in
  let entries cache =
    let stats = Handler.stats_body h in
    match find_sub stats (Printf.sprintf {|"%s"|} cache) with
    | Some i -> Client.field_int (String.sub stats i (String.length stats - i)) "entries"
    | None -> Alcotest.failf "no %s stats in %s" cache stats
  in
  (match Faults.arm "1:1:alloc" with
  | Error e -> Alcotest.failf "arm: %s" e
  | Ok () -> ());
  Fun.protect ~finally:Faults.disarm (fun () ->
      List.iter
        (fun what ->
          let header, body = handle_check h line in
          check Alcotest.bool (what ^ ": memory-watermark") true
            (contains body {|"kind":"memory-watermark"|});
          check Alcotest.string (what ^ ": computed") "miss" (provenance_of header))
        [ "first"; "repeat" ];
      check (Alcotest.option Alcotest.int) "no verdict kept" (Some 0)
        (entries "verdicts");
      check (Alcotest.option Alcotest.int) "no exploration kept" (Some 0)
        (entries "explorations"));
  List.iter
    (fun provenance ->
      let header, body = handle_check h line in
      check Alcotest.string "after disarm" provenance (provenance_of header);
      check Alcotest.bool "bitstate verdict" true
        (contains body "bitstate-collision-risk"))
    [ "miss"; "hit" ]

(* The daemon charges a configuration cap once per configuration under
   source-DPOR too: buffer 2p2c needs 12,584 configurations there, so a
   13,000 cap verifies it, as the one-shot run does. *)
let test_handler_source_budget () =
  let line = "buffer producers=2 consumers=2 reduction=source max-configs=13000" in
  let code, fresh = one_shot ("check " ^ line) in
  let header, body = handle_check (Handler.create ~cache_size:4 ()) line in
  check Alcotest.int "code 0" 0 (code_of header);
  check Alcotest.int "one-shot code 0" 0 code;
  check Alcotest.string "body == one-shot" fresh body;
  check Alcotest.bool ("verified at 12,584: " ^ body) true
    (contains body {|"status":"verified"|} && contains body {|"configs_explored":12584|})

(* ------------------------------------------------------------------ *)
(* Socket server, end to end                                           *)
(* ------------------------------------------------------------------ *)

let socket_ctr = ref 0

let with_server_t ?handler f =
  incr socket_ctr;
  let socket =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "gem-serve-%d-%d.sock" (Unix.getpid ()) !socket_ctr)
  in
  let handler =
    match handler with
    | Some h -> h
    | None -> Handler.handle (Handler.create ~cache_size:8 ())
  in
  let srv = Server.create ~socket () in
  let thread = Thread.create (fun () -> Server.run srv ~handler) () in
  Fun.protect
    ~finally:(fun () ->
      Server.request_stop srv;
      Thread.join thread;
      if Sys.file_exists socket then Sys.remove socket)
    (fun () -> f srv socket)

let with_server f = with_server_t (fun _ socket -> f socket)

let request_ok socket line =
  match Client.request ~socket line with
  | Ok r -> r
  | Error e -> Alcotest.failf "%S: %s" line e

let test_server_roundtrip () =
  with_server (fun socket ->
      let pong = request_ok socket "ping" in
      check Alcotest.int "pong code" 0 pong.Client.code;
      check Alcotest.bool "pong header" true (contains pong.Client.header {|"pong"|});
      check Alcotest.int "pong body empty" 0 (List.length pong.Client.body);
      (* Cold then warm through the real transport. *)
      let cold = request_ok socket "check db sites=2" in
      let warm = request_ok socket "check db sites=2" in
      check Alcotest.string "miss over the wire" "miss" (provenance_of cold.Client.header);
      check Alcotest.string "hit over the wire" "hit" (provenance_of warm.Client.header);
      check Alcotest.bool "identical bodies" true (cold.Client.body = warm.Client.body);
      let stats = request_ok socket "stats" in
      check Alcotest.bool "stats over the wire" true
        (match stats.Client.body with
        | [ b ] -> contains b {|"verdicts"|}
        | _ -> false))

let test_server_concurrent_duplicates () =
  (* A stampede of identical requests: single-flight means exactly one
     computes; everyone gets the same bytes. *)
  with_server (fun socket ->
      let line = "check rwd readers=1 writers=1" in
      let results = Array.make 5 None in
      let threads =
        Array.to_list
          (Array.init 5 (fun i ->
               Thread.create
                 (fun () -> results.(i) <- Some (request_ok socket line))
                 ()))
      in
      List.iter Thread.join threads;
      let responses =
        Array.to_list results |> List.filter_map (fun r -> r)
      in
      check Alcotest.int "all answered" 5 (List.length responses);
      let provs =
        List.map (fun r -> provenance_of r.Client.header) responses
      in
      check Alcotest.int "exactly one computed" 1
        (List.length (List.filter (String.equal "miss") provs));
      List.iter
        (fun p -> check Alcotest.bool ("shared: " ^ p) true (p = "miss" || p = "hit" || p = "coalesced"))
        provs;
      let bodies = List.sort_uniq compare (List.map (fun r -> r.Client.body) responses) in
      check Alcotest.int "one distinct body" 1 (List.length bodies))

let raw_connect socket =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX socket);
  fd

let raw_send fd line =
  let msg = line ^ "\n" in
  ignore (Unix.write_substring fd msg 0 (String.length msg))

let test_server_survives_malformed_and_disconnect () =
  with_server (fun socket ->
      (* A malformed request answers with a JSON error and leaves the
         same connection usable. *)
      let fd = raw_connect socket in
      let ic = Unix.in_channel_of_descr fd in
      raw_send fd "utter garbage";
      let err = input_line ic in
      check Alcotest.int "error code" 3 (code_of err);
      check Alcotest.bool "parse error" true (contains err "parse:");
      raw_send fd "ping";
      check Alcotest.bool "connection survives" true (contains (input_line ic) {|"pong"|});
      Unix.close fd;
      (* Disconnecting mid-response kills only that connection. *)
      let fd2 = raw_connect socket in
      raw_send fd2 "check db sites=2";
      Unix.close fd2;
      Thread.delay 0.05;
      let pong = request_ok socket "ping" in
      check Alcotest.int "daemon alive after disconnect" 0 pong.Client.code)

(* A finished connection is forgotten: after a run of sequential
   clients, each closing its connection, none is left listed, so a
   flood of connections cannot grow the daemon. *)
let test_server_forgets_closed_connections () =
  with_server_t (fun srv socket ->
      for _ = 1 to 50 do
        ignore (request_ok socket "ping")
      done;
      (* The server closes its end once it reads the client's EOF. *)
      let deadline = Unix.gettimeofday () +. 5.0 in
      while Server.live_connections srv > 0 && Unix.gettimeofday () < deadline do
        Thread.delay 0.01
      done;
      check Alcotest.int "no connection left after 50 clients" 0
        (Server.live_connections srv))

(* A request line over the cap gets a typed error and loses its
   connection; the daemon forgets it and keeps answering others. *)
let test_server_line_cap () =
  with_server_t (fun srv socket ->
      let fd = raw_connect socket in
      let flood = String.make (2 * 1024 * 1024) 'x' in
      (try ignore (Unix.write_substring fd flood 0 (String.length flood))
       with Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) -> ());
      let ic = Unix.in_channel_of_descr fd in
      check Alcotest.string "typed error"
        {|{"serve":1,"error":"request line too long","code":3}|} (input_line ic);
      close_in_noerr ic;
      let deadline = Unix.gettimeofday () +. 5.0 in
      while Server.live_connections srv > 0 && Unix.gettimeofday () < deadline do
        Thread.delay 0.01
      done;
      check Alcotest.int "connection forgotten" 0 (Server.live_connections srv);
      let pong = request_ok socket "ping" in
      check Alcotest.int "next client answered" 0 pong.Client.code)

(* Idle connections up to the cap are held; the next one gets a typed
   busy reply and is closed without a thread, and once a held one
   closes the daemon answers again. *)
let test_server_connection_cap () =
  with_server_t (fun srv socket ->
      let wait_until cond =
        let deadline = Unix.gettimeofday () +. 10.0 in
        while (not (cond ())) && Unix.gettimeofday () < deadline do
          Thread.delay 0.01
        done
      in
      let held = List.init Server.max_connections (fun _ -> raw_connect socket) in
      wait_until (fun () -> Server.live_connections srv = Server.max_connections);
      check Alcotest.int "cap held" Server.max_connections (Server.live_connections srv);
      let fd = raw_connect socket in
      (* Served instead of refused, it would wait for a request. *)
      Unix.setsockopt_float fd Unix.SO_RCVTIMEO 5.0;
      let ic = Unix.in_channel_of_descr fd in
      check Alcotest.string "typed busy reply"
        {|{"serve":1,"error":"busy","code":3}|} (input_line ic);
      check Alcotest.bool "then closed" true
        (match input_line ic with _ -> false | exception End_of_file -> true);
      close_in_noerr ic;
      (* The client gets the reply whether its send beat the close or
         failed on it. *)
      for _ = 1 to 20 do
        let busy = request_ok socket "ping" in
        check (Alcotest.option Alcotest.string) "client sees busy" (Some "busy")
          busy.Client.error
      done;
      check Alcotest.int "no thread over the cap" Server.max_connections
        (Server.live_connections srv);
      Unix.close (List.hd held);
      wait_until (fun () -> Server.live_connections srv < Server.max_connections);
      let pong = request_ok socket "ping" in
      check Alcotest.int "answered after one closes" 0 pong.Client.code;
      List.iter Unix.close (List.tl held))

(* Idle connections up to the cap are each answered with a typed idle
   timeout and closed within the bound (plus slack for a loaded host),
   and the daemon then answers a ping. Each read below gives up on its
   own after the bound plus slack, so a server without the timeout
   fails this test rather than hanging it. *)
let test_server_idle_timeout () =
  with_server_t (fun srv socket ->
      let started = Unix.gettimeofday () in
      let slack = 5.0 in
      let held = List.init Server.max_connections (fun _ -> raw_connect socket) in
      List.iteri
        (fun i fd ->
          let left = started +. Server.idle_timeout_s +. slack -. Unix.gettimeofday () in
          Unix.setsockopt_float fd Unix.SO_RCVTIMEO (Float.max left 0.01);
          let ic = Unix.in_channel_of_descr fd in
          let line =
            match input_line ic with
            | l -> l
            | exception Sys_blocked_io ->
                Alcotest.failf "connection %d: no reply within %.1f s" i
                  (Server.idle_timeout_s +. slack)
          in
          check Alcotest.string "typed idle reply"
            {|{"serve":1,"error":"idle timeout","code":3}|} line;
          check Alcotest.bool "then closed" true
            (match input_line ic with
            | _ -> false
            | exception End_of_file -> true
            | exception Sys_blocked_io -> false);
          close_in_noerr ic)
        held;
      let took = Unix.gettimeofday () -. started in
      check Alcotest.bool
        (Printf.sprintf "not before the bound (%.2f s)" took)
        true
        (took >= Server.idle_timeout_s -. 0.5);
      let deadline = Unix.gettimeofday () +. 5.0 in
      while Server.live_connections srv > 0 && Unix.gettimeofday () < deadline do
        Thread.delay 0.01
      done;
      check Alcotest.int "all forgotten" 0 (Server.live_connections srv);
      let pong = request_ok socket "ping" in
      check Alcotest.int "then a ping is answered" 0 pong.Client.code)

(* A handler that answers every line with a pong and records the thread
   that served it; [served ()] lists those threads in request order. *)
let thread_recorder () =
  let lock = Mutex.create () and ids = ref [] in
  let handler _ =
    Mutex.protect lock (fun () -> ids := Thread.id (Thread.self ()) :: !ids);
    [ {|{"serve":1,"pong":true,"body":0,"code":0}|} ]
  in
  (handler, fun () -> Mutex.protect lock (fun () -> List.rev !ids))

(* The server closes its end once it reads the client's EOF; its worker
   is idle from then on. *)
let await_no_connection srv =
  let deadline = Unix.gettimeofday () +. 5.0 in
  while Server.live_connections srv > 0 && Unix.gettimeofday () < deadline do
    Thread.delay 0.001
  done

let n_distinct l = List.length (List.sort_uniq compare l)

(* 50 one-request connections, each after the previous one closed, are
   served by one thread; then 8 connections held open at once by 8. The
   burst's threads are returned. *)
let sequential_then_burst srv socket served =
  for _ = 1 to 50 do
    ignore (request_ok socket "ping");
    await_no_connection srv
  done;
  let sequential = served () in
  check Alcotest.int "50 answered" 50 (List.length sequential);
  check Alcotest.int "one thread for 50 sequential connections" 1 (n_distinct sequential);
  let held = List.init 8 (fun _ -> raw_connect socket) in
  List.iter (fun fd -> raw_send fd "ping") held;
  let ics = List.map Unix.in_channel_of_descr held in
  List.iter (fun ic -> ignore (input_line ic)) ics;
  let burst = List.filteri (fun i _ -> i >= 50) (served ()) in
  check Alcotest.int "8 threads for 8 open connections" 8 (n_distinct burst);
  List.iter close_in_noerr ics;
  await_no_connection srv;
  burst

let test_server_reuses_workers () =
  let handler, served = thread_recorder () in
  with_server_t ~handler (fun srv socket ->
      ignore (sequential_then_burst srv socket served))

(* Right after the burst an idle burst worker serves the next request;
   after [idle_timeout_s] + 1 s of quiet every burst worker has retired
   and a new thread serves it. *)
let test_server_retires_idle_workers () =
  let handler, served = thread_recorder () in
  with_server_t ~handler (fun srv socket ->
      let burst = sequential_then_burst srv socket served in
      let last () = List.hd (List.rev (served ())) in
      ignore (request_ok socket "ping");
      check Alcotest.bool "served by a burst worker" true (List.mem (last ()) burst);
      await_no_connection srv;
      Thread.delay (Server.idle_timeout_s +. 1.0);
      ignore (request_ok socket "ping");
      check Alcotest.bool "after the quiet, served by a new thread" false
        (List.mem (last ()) burst))

let test_server_clean_shutdown () =
  incr socket_ctr;
  let socket =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "gem-serve-%d-%d.sock" (Unix.getpid ()) !socket_ctr)
  in
  let h = Handler.create ~cache_size:4 () in
  let srv = Server.create ~socket () in
  check Alcotest.bool "socket bound" true (Sys.file_exists socket);
  let thread =
    Thread.create (fun () -> Server.run srv ~handler:(Handler.handle h)) ()
  in
  ignore (request_ok socket "ping");
  Server.request_stop srv;
  Thread.join thread;
  check Alcotest.bool "run returned after stop" true (Server.stopping srv);
  check Alcotest.bool "socket unlinked" false (Sys.file_exists socket);
  (* A second server may immediately rebind the same path. *)
  let srv2 = Server.create ~socket () in
  let thread2 =
    Thread.create (fun () -> Server.run srv2 ~handler:(Handler.handle h)) ()
  in
  ignore (request_ok socket "ping");
  Server.request_stop srv2;
  Thread.join thread2;
  check Alcotest.bool "rebind cleans up too" false (Sys.file_exists socket)

(* ------------------------------------------------------------------ *)
(* Client header scanning                                              *)
(* ------------------------------------------------------------------ *)

let test_client_fields () =
  let header =
    {|{"serve":1,"command":"rw","cache":"hit","key":"ab12","elapsed_ms":0.170,"body":1,"code":2}|}
  in
  check (Alcotest.option Alcotest.int) "body" (Some 1)
    (Client.field_int header "body");
  check (Alcotest.option Alcotest.int) "code" (Some 2)
    (Client.field_int header "code");
  check (Alcotest.option Alcotest.string) "cache" (Some "hit")
    (Client.field_string header "cache");
  check (Alcotest.option Alcotest.string) "key" (Some "ab12")
    (Client.field_string header "key");
  check (Alcotest.option Alcotest.int) "missing int" None
    (Client.field_int header "nope");
  check (Alcotest.option Alcotest.string) "missing string" None
    (Client.field_string header "nope");
  check (Alcotest.option Alcotest.string) "int is not a string" None
    (Client.field_string header "body");
  check
    (Alcotest.option Alcotest.string)
    "escapes undone" (Some "a\"b\\c\nd")
    (Client.field_string {|{"error":"a\"b\\c\nd"}|} "error");
  check (Alcotest.option Alcotest.int) "negative" (Some (-3))
    (Client.field_int {|{"code":-3}|} "code");
  (* A field at the header's first and at its last position. *)
  let edges = {|"first":7,"mid":"m","last":"z"|} in
  check (Alcotest.option Alcotest.int) "first position" (Some 7)
    (Client.field_int edges "first");
  check (Alcotest.option Alcotest.string) "last position" (Some "z")
    (Client.field_string edges "last");
  check (Alcotest.option Alcotest.int) "last position, int" (Some 9)
    (Client.field_int {|{"body":0,"code":9|} "code");
  check (Alcotest.option Alcotest.int) "name at the end, no colon" None
    (Client.field_int {|{"body":0,"code"|} "code");
  check (Alcotest.option Alcotest.int) "a longer name does not match" (Some 2)
    (Client.field_int {|{"xcode":1,"code":2}|} "code");
  check (Alcotest.option Alcotest.int) "first match wins" (Some 1)
    (Client.field_int {|{"code":1,"code":2}|} "code")

(* A raw line feed would reach the daemon as two requests. *)
let test_client_refuses_line_feed () =
  match Client.request ~socket:"/nonexistent/gem.sock" "check rw readers=1\n2" with
  | Ok _ -> Alcotest.fail "request with a raw line feed sent"
  | Error e -> check Alcotest.bool ("refused before connecting: " ^ e) true (contains e "line feed")

let () =
  Alcotest.run "serve"
    [
      ( "cache",
        [
          Alcotest.test_case "miss then hit" `Quick test_cache_miss_then_hit;
          Alcotest.test_case "lru eviction order" `Quick test_cache_lru_eviction;
          Alcotest.test_case "capacity bound" `Quick test_cache_capacity_bound;
          Alcotest.test_case "remove and clear" `Quick test_cache_remove_clear;
          Alcotest.test_case "single-flight coalescing" `Quick
            test_cache_single_flight;
          Alcotest.test_case "failure propagates uncached" `Quick
            test_cache_failure_propagates_and_is_not_cached;
        ] );
      ( "request",
        [
          Alcotest.test_case "round-trip" `Quick test_request_roundtrip;
          Alcotest.test_case "canonical rendering" `Quick test_request_canonical;
          Alcotest.test_case "parse errors" `Quick test_request_errors;
        ] );
      ( "keys",
        [
          Alcotest.test_case "verdict key sensitivity" `Quick
            test_verdict_key_sensitivity;
          Alcotest.test_case "defaults collapse" `Quick
            test_verdict_key_resolves_defaults;
          Alcotest.test_case "exploration sharing" `Quick
            test_explore_key_sharing;
          Alcotest.test_case "checkpoint stamp" `Quick test_checkpoint_stamp;
          Alcotest.test_case "classes as rendered keys" `Quick
            test_keys_partition_as_rendered;
        ] );
      ( "identity",
        [
          Alcotest.test_case "cached == one-shot bytes" `Quick
            test_byte_identity;
          Alcotest.test_case "shared exploration bytes" `Quick
            test_shared_exploration_identity;
          Alcotest.test_case "prepared conclude bytes" `Quick
            test_prepared_conclude_identity;
        ] );
      ( "handler",
        [
          Alcotest.test_case "ping and stats" `Quick test_handler_ping_stats;
          Alcotest.test_case "error replies" `Quick test_handler_errors;
          Alcotest.test_case "restriction error" `Quick test_handler_restriction_error;
          Alcotest.test_case "timeout bypasses cache" `Quick
            test_handler_timeout_uncached;
          Alcotest.test_case "stats carry layer totals" `Quick
            test_handler_stats_totals;
          Alcotest.test_case "memory stop uncached" `Quick
            test_handler_memory_stop_uncached;
          Alcotest.test_case "survives fault injection" `Quick
            test_handler_survives_faults;
          Alcotest.test_case "source budget charged once" `Quick
            test_handler_source_budget;
        ] );
      ( "server",
        [
          Alcotest.test_case "socket round-trip" `Quick test_server_roundtrip;
          Alcotest.test_case "concurrent duplicates" `Quick
            test_server_concurrent_duplicates;
          Alcotest.test_case "malformed and disconnects" `Quick
            test_server_survives_malformed_and_disconnect;
          Alcotest.test_case "closed connections forgotten" `Quick
            test_server_forgets_closed_connections;
          Alcotest.test_case "clean shutdown" `Quick test_server_clean_shutdown;
          Alcotest.test_case "request line cap" `Quick test_server_line_cap;
          Alcotest.test_case "connection cap" `Quick test_server_connection_cap;
          Alcotest.test_case "idle timeout" `Quick test_server_idle_timeout;
          Alcotest.test_case "sequential connections share a worker" `Quick
            test_server_reuses_workers;
          Alcotest.test_case "idle workers retire" `Quick
            test_server_retires_idle_workers;
        ] );
      ( "client",
        [
          Alcotest.test_case "header fields" `Quick test_client_fields;
          Alcotest.test_case "raw line feed refused" `Quick test_client_refuses_line_feed;
        ] );
    ]
