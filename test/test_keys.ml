(* Soundness harness for the incremental 128-bit search keys. The
   fingerprint key replaces the exact marshal-string canonical key on the
   exploration hot path, so its correctness contract is that it induces
   exactly the same partition of configurations:

   - exact-key-equal => fingerprint-equal (absolutely required: a finer
     fingerprint partition would change memo hit counts and break the
     byte-identical-across-modes guarantee);
   - fingerprint-equal => exact-key-equal (a violation is a collision — a
     lossy merge that silently prunes a distinct state; vanishingly
     unlikely, and asserted absent on every state this harness reaches).

   The partition is checked pairwise over configurations harvested from
   bounded walks (deterministic workloads and random CSP programs), the
   audited explorations assert [Fingerprint_collisions = 0], a
   deliberately degenerate constant key proves the audit oracle actually
   fires, and a parity matrix checks byte-identical computation
   fingerprints and verdicts across key mode x checking jobs x POR. *)

module Explore = Gem_lang.Explore
module Monitor = Gem_lang.Monitor
module Csp = Gem_lang.Csp
module Ada = Gem_lang.Ada
module Fp = Gem_order.Fingerprint
module T = Gem_obs.Telemetry
module RW = Gem_problems.Readers_writers
module Buffer_p = Gem_problems.Buffer
module Rwd = Gem_problems.Rw_distributed
module Gen_csp = Gem_fuzz.Gen

let check = Alcotest.check
let fps comps = List.sort compare (List.map Explore.fingerprint comps)

(* ------------------------------------------------------------------ *)
(* Partition agreement: exact key and fingerprint classify alike       *)
(* ------------------------------------------------------------------ *)

(* Bounded DFS harvesting configurations (duplicates included — revisits
   must agree under both keys too). *)
let collect (lang : _ Explore.lang) ~max_configs ~max_depth =
  let out = ref [] and n = ref 0 in
  let rec go depth c =
    if !n < max_configs && depth <= max_depth then begin
      incr n;
      out := c :: !out;
      List.iter (go (depth + 1)) (Explore.moves lang c)
    end
  in
  go 0 lang.init;
  !out

let check_partition ~name (lang : _ Explore.lang) ~max_configs ~max_depth =
  let keyed =
    List.map
      (fun c -> (Explore.exact_key lang c, Explore.fp_key lang c))
      (collect lang ~max_configs ~max_depth)
  in
  List.iteri
    (fun i (ki, fi) ->
      List.iteri
        (fun j (kj, fj) ->
          if j > i then begin
            let ke = String.equal ki kj and fe = Fp.equal fi fj in
            if ke && not fe then
              Alcotest.failf
                "%s: equal exact keys but distinct fingerprints (states %d, %d)"
                name i j;
            if fe && not ke then
              Alcotest.failf
                "%s: fingerprint collision between distinct states (%d, %d): %s"
                name i j (Fp.to_hex fi)
          end)
        keyed)
    keyed

let test_monitor_partition () =
  let prog = RW.program ~monitor:RW.paper_monitor ~readers:1 ~writers:1 in
  check_partition ~name:"rw-monitor-1r1w" (Monitor.lang prog) ~max_configs:200
    ~max_depth:25

let test_ada_partition () =
  let prog = Buffer_p.ada_solution ~capacity:1 ~producers:1 ~consumers:1 ~items_each:2 in
  check_partition ~name:"buffer-ada-1p1c2i" (Ada.lang prog) ~max_configs:200
    ~max_depth:25;
  let prog = Rwd.ada_program ~readers:1 ~writers:1 in
  check_partition ~name:"rwd-ada-1r1w" (Ada.lang prog) ~max_configs:150 ~max_depth:20

let prop_csp_random_partition =
  QCheck.Test.make ~name:"random CSP: fp partition = exact partition" ~count:40
    Gen_csp.prog_arb (fun prog ->
      check_partition ~name:"csp-random" (Csp.lang prog) ~max_configs:120
        ~max_depth:20;
      true)

(* ------------------------------------------------------------------ *)
(* Parity matrix: key mode x jobs x POR, byte-identical outcomes       *)
(* ------------------------------------------------------------------ *)

(* Each leg explores in one key mode and reduction engine (none or
   sleep), then checks the computations against the language spec on
   [jobs] checking domains: the computation/deadlock fingerprints and
   the rendered verdicts must match the exact-key, sleep-set, jobs-1 leg
   byte for byte. *)
let test_parity_matrix () =
  let matrix name run =
    let outcome ~exact_keys ~reduction ~jobs =
      let spec, comps, deads = run ~exact_keys ~reduction in
      let verdicts =
        List.map
          (fun v -> Format.asprintf "%a" (Gem_check.Verdict.pp None) v)
          (Gem_check.Check.check_all ~jobs spec comps)
      in
      (fps comps, fps deads, verdicts)
    in
    let bc, bd, bv = outcome ~exact_keys:true ~reduction:Explore.Sleep_sets ~jobs:1 in
    List.iter
      (fun reduction ->
        List.iter
          (fun jobs ->
            List.iter
              (fun exact_keys ->
                let c, d, v = outcome ~exact_keys ~reduction ~jobs in
                let leg what =
                  Printf.sprintf "%s %s (exact=%b jobs=%d reduction=%s)" name what
                    exact_keys jobs (Explore.reduction_name reduction)
                in
                check Alcotest.(list string) (leg "computations") bc c;
                check Alcotest.(list string) (leg "deadlocks") bd d;
                check Alcotest.(list string) (leg "verdicts") bv v)
              [ true; false ])
          [ 1; 2; 8 ])
      [ Explore.Sleep_sets; Explore.No_reduction ]
  in
  let rw = RW.program ~monitor:RW.paper_monitor ~readers:1 ~writers:1 in
  matrix "rw-monitor-1r1w" (fun ~exact_keys ~reduction ->
      let o = Explore.explore ~reduction ~exact_keys (Monitor.lang rw) in
      (Monitor.language_spec rw, o.Explore.computations, o.Explore.deadlocks));
  let csp = Buffer_p.csp_solution ~capacity:1 ~producers:1 ~consumers:1 ~items_each:2 in
  matrix "buffer-csp-1p1c2i" (fun ~exact_keys ~reduction ->
      let o = Explore.explore ~reduction ~exact_keys (Csp.lang csp) in
      (Csp.language_spec csp, o.Explore.computations, o.Explore.deadlocks));
  let ada = Buffer_p.ada_solution ~capacity:1 ~producers:1 ~consumers:1 ~items_each:2 in
  matrix "buffer-ada-1p1c2i" (fun ~exact_keys ~reduction ->
      let o = Explore.explore ~reduction ~exact_keys (Ada.lang ada) in
      (Ada.language_spec ada, o.Explore.computations, o.Explore.deadlocks))

(* Fingerprint and exact keys induce the same partition, so the reduced
   search must also visit exactly the same number of configurations. *)
let test_explored_counts_agree () =
  let rw = RW.program ~monitor:RW.paper_monitor ~readers:2 ~writers:1 in
  let me e =
    let o = Explore.explore ~reduction:Explore.Sleep_sets ~exact_keys:e (Monitor.lang rw) in
    (o.Explore.explored, o.Explore.reduced)
  in
  check Alcotest.(pair int int) "rw-2r1w: counters" (me true) (me false);
  let csp = Buffer_p.csp_solution ~capacity:1 ~producers:1 ~consumers:1 ~items_each:2 in
  let ce e =
    let o = Explore.explore ~reduction:Explore.Sleep_sets ~exact_keys:e (Csp.lang csp) in
    (o.Explore.explored, o.Explore.reduced)
  in
  check Alcotest.(pair int int) "buffer-csp: counters" (ce true) (ce false)

(* ------------------------------------------------------------------ *)
(* Audit oracle: zero collisions on real workloads, and the detector   *)
(* actually detects                                                    *)
(* ------------------------------------------------------------------ *)

let with_telemetry f =
  let was = T.enabled () in
  T.enable ();
  T.reset ();
  Fun.protect
    ~finally:(fun () ->
      T.reset ();
      if not was then T.disable ())
    f

let test_audited_runs_collision_free () =
  with_telemetry (fun () ->
      let rw = RW.program ~monitor:RW.paper_monitor ~readers:2 ~writers:1 in
      let reduction = Explore.Sleep_sets in
      ignore (Explore.explore ~reduction ~exact_keys:false ~audit_keys:true (Monitor.lang rw));
      let ada =
        Buffer_p.ada_solution ~capacity:1 ~producers:1 ~consumers:1 ~items_each:2
      in
      ignore (Explore.explore ~reduction ~exact_keys:false ~audit_keys:true (Ada.lang ada));
      let csp =
        Buffer_p.csp_solution ~capacity:1 ~producers:1 ~consumers:1 ~items_each:2
      in
      ignore (Explore.explore ~reduction ~exact_keys:false ~audit_keys:true (Csp.lang csp));
      check Alcotest.int "audited workloads: fingerprint_collisions"
        0
        (T.read T.Fingerprint_collisions))

(* A constant fingerprint merges every state into one class; the audit
   oracle must flag the lossy merges. This pins down that a silent
   hash-quality regression cannot pass the collision gate vacuously. *)
let test_degenerate_key_detected () =
  with_telemetry (fun () ->
      let moves n = if n >= 6 then [] else [ n + 1; n + 2 ] in
      let r =
        Explore.run
          ~key:(fun _ _ -> (Explore.Fp (Fp.of_int 0), ()))
          ~audit:string_of_int ~moves
          ~terminated:(fun n -> n >= 6)
          0
      in
      check Alcotest.bool "degenerate key prunes" true (r.Explore.reduced > 0);
      check Alcotest.bool "audit flags the lossy merges" true
        (T.read T.Fingerprint_collisions > 0))

(* ------------------------------------------------------------------ *)
(* skey plumbing                                                       *)
(* ------------------------------------------------------------------ *)

(* The two key spaces must never unify inside one seen table. *)
let test_skey_spaces_disjoint () =
  let fp = Fp.of_string "x" in
  let ex = Explore.Exact "x" in
  check Alcotest.bool "Fp vs Exact never equal" false
    (Explore.skey_equal (Explore.Fp fp) ex);
  check Alcotest.bool "Fp = Fp" true
    (Explore.skey_equal (Explore.Fp fp) (Explore.Fp (Fp.of_string "x")));
  check Alcotest.bool "Exact = Exact" true
    (Explore.skey_equal ex (Explore.Exact "x"))

let () =
  let to_alc = QCheck_alcotest.to_alcotest in
  Alcotest.run "gem_keys"
    [
      ( "partition",
        [
          Alcotest.test_case "monitor walk" `Quick test_monitor_partition;
          Alcotest.test_case "ada walks" `Quick test_ada_partition;
          to_alc prop_csp_random_partition;
        ] );
      ( "parity",
        [
          Alcotest.test_case "matrix: mode x jobs x por" `Quick test_parity_matrix;
          Alcotest.test_case "explored counts agree" `Quick
            test_explored_counts_agree;
        ] );
      ( "audit",
        [
          Alcotest.test_case "real workloads collision-free" `Quick
            test_audited_runs_collision_free;
          Alcotest.test_case "degenerate key detected" `Quick
            test_degenerate_key_detected;
        ] );
      ( "skey", [ Alcotest.test_case "key spaces disjoint" `Quick test_skey_spaces_disjoint ] );
    ]
