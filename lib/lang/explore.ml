module Budget = Gem_check.Budget
module Bitstate = Gem_check.Bitstate
module Checkpoint = Gem_check.Checkpoint
module Faults = Gem_check.Faults
module T = Gem_obs.Telemetry
module Fp = Gem_order.Fingerprint
module Smap = Map.Make (String)

type move = { label : string; touches : string list }

(* A move belongs to one sequential locus (a process, a task, a matched
   pair of offers), so the interpreters name it before computing its
   effect: the walks read labels to decide what to fire and build only
   the successors they fire. *)
type 'c successor = string * (unit -> move * 'c)

(* [touches] lists are sorted and duplicate-free ({!successors} builds
   them with [List.sort_uniq]), so disjointness is one merge walk — the
   sleep-set filter calls this for every (sleeping, fired) move pair, and
   the old nested [List.mem] scan was quadratic in footprint size. *)
let independent m1 m2 =
  T.hit T.Footprint_checks;
  let rec disjoint xs ys =
    match (xs, ys) with
    | [], _ | _, [] -> true
    | x :: xs', y :: ys' ->
        let c = String.compare x y in
        if c = 0 then false else if c < 0 then disjoint xs' ys else disjoint xs ys'
  in
  disjoint m1.touches m2.touches

(* ------------------------------------------------------------------ *)
(* Search keys                                                         *)
(* ------------------------------------------------------------------ *)

(* The seen tables are keyed either by a 126-bit state fingerprint
   (default: O(1) to extend per step, collision-bounded) or by the exact
   marshal-string canonical key (the [--exact-keys] fallback, and the
   audit oracle). The constructors are kept distinct so a single run can
   never confuse the two key spaces. *)
type skey = Fp of Fp.t | Exact of string

let skey_equal a b =
  match (a, b) with
  | Fp x, Fp y -> Fp.equal x y
  | Exact x, Exact y -> String.equal x y
  | Fp _, Exact _ | Exact _, Fp _ -> false

let skey_compare a b =
  match (a, b) with
  | Fp x, Fp y -> Fp.compare x y
  | Exact x, Exact y -> String.compare x y
  | Fp _, Exact _ -> -1
  | Exact _, Fp _ -> 1

let skey_hash = function Fp x -> Fp.hash x | Exact s -> Hashtbl.hash s

module Ktbl = Hashtbl.Make (struct
  type t = skey

  let equal = skey_equal
  let hash = skey_hash
end)

let exact_keys_default () =
  match Sys.getenv_opt "GEM_EXACT_KEYS" with
  | Some ("1" | "true" | "yes") -> true
  | Some _ | None -> false

let audit_keys_default () =
  match Sys.getenv_opt "GEM_AUDIT_KEYS" with
  | Some ("1" | "true" | "yes") -> true
  | Some _ | None -> false

(* What [explore] returns. It is declared before [result], whose field
   names it shares, so an unannotated [r.explored] still reads a walk's
   result. *)
type outcome = {
  computations : Gem_model.Computation.t list;
  deadlocks : Gem_model.Computation.t list;
  explored : int;
  truncated : int;
  reduced : int;
  exhausted : Budget.reason option;
}

type 'c result = {
  completed : 'c list;
  deadlocked : 'c list;
  truncated : int;
  explored : int;
  reduced : int;
  exhausted : Budget.reason option;
}

(* ------------------------------------------------------------------ *)
(* Resilience configuration                                            *)
(* ------------------------------------------------------------------ *)

type resilience = {
  bitstate : Bitstate.t option;
  checkpoint : Checkpoint.ctl option;
  resume : string option;
  stamp : string;
}

let no_resilience = { bitstate = None; checkpoint = None; resume = None; stamp = "" }

exception Resume_error of string

(* Bitstate key of a (state, sleep set) pair. The sleep set must be part
   of the key: bitstate tables cannot store the per-key sleep-set lists
   the subset rule needs, so they fall back to pruning only exact
   (state, sleep) repeats — a strict refinement of the subset rule
   (fewer prunes, never an unsound one). The sleep contribution is a
   commutative sum of per-label hashes, so the key is independent of
   Smap iteration internals; with an empty sleep set the key is the bare
   state fingerprint, which makes plain-mode bitstate exactly a
   fixed-RAM version of the plain walk's memo. *)
let bitstate_key k sleep =
  let base = match k with Fp f -> f | Exact s -> Fp.of_string s in
  if Smap.is_empty sleep then base
  else
    Fp.combine base
      (Smap.fold (fun l _ acc -> Fp.cadd acc (Fp.of_string l)) sleep Fp.zero)

(* ------------------------------------------------------------------ *)
(* Reduction engine selection                                          *)
(* ------------------------------------------------------------------ *)

type reduction = No_reduction | Sleep_sets | Source_sets

let reduction_name = function
  | No_reduction -> "none"
  | Sleep_sets -> "sleep"
  | Source_sets -> "source"

let reduction_of_string = function
  | "none" -> Some No_reduction
  | "sleep" -> Some Sleep_sets
  | "source" -> Some Source_sets
  | _ -> None

(* GEM_REDUCTION names the default engine. The CLI and the daemon
   validate it strictly — an invalid value there is a usage error, not a
   silent default. *)
let reduction_default () =
  Option.value ~default:Sleep_sets
    (Option.bind (Sys.getenv_opt "GEM_REDUCTION") reduction_of_string)

(* Mutable walk state shared by both walks. Leaves are kept
   decorated with the search key computed when the configuration was
   admitted, so the canonical sort never recomputes a key. *)
type 'c walk = {
  mutable w_completed : (skey option * 'c) list;
  mutable w_deadlocked : (skey option * 'c) list;
  mutable w_truncated : int;
  mutable w_explored : int;
  mutable w_reduced : int;
  mutable w_exhausted : Budget.reason option;
}

let new_walk () =
  {
    w_completed = [];
    w_deadlocked = [];
    w_truncated = 0;
    w_explored = 0;
    w_reduced = 0;
    w_exhausted = None;
  }

(* Sticky stop: once any dimension is exhausted the walk unwinds without
   visiting further configurations, keeping the leaves found so far. *)
let stop w ~max_configs ~budget () =
  w.w_exhausted <> None
  ||
  if w.w_explored >= max_configs then begin
    w.w_exhausted <- Some Budget.Config_budget;
    true
  end
  else
    match budget with
    | None -> false
    | Some b ->
        if Budget.charge_config b then false
        else begin
          w.w_exhausted <- Budget.exhausted b;
          true
        end

(* Audit support: when an exact-key oracle is given, the seen tables store
   the oracle key recorded at first insert next to each entry; a hit whose
   oracle key differs is a fingerprint collision — a lossy merge that
   would silently prune a distinct state — and is counted. *)
let audit_mismatch prior exact =
  match (prior, exact) with
  | Some p, Some e when not (String.equal p e) -> T.hit T.Fingerprint_collisions
  | _ -> ()

(* Canonical leaf order: sort by the (already computed) search key so the
   result never depends on traversal order — every engine, re-run and
   resumed run assembles the same list. Without a key function the
   discovery order is kept (the walks are deterministic, and
   {!dedup_computations} canonicalizes downstream anyway). *)
let canonical_leaves ~keyed leaves =
  if not keyed then List.map snd leaves
  else begin
    let t = T.span_begin T.Merge in
    let cmp (a, _) (b, _) =
      match (a, b) with
      | Some a, Some b -> skey_compare a b
      | Some _, None -> -1
      | None, Some _ -> 1
      | None, None -> 0
    in
    let sorted = List.map snd (List.sort cmp leaves) in
    T.span_end T.Merge t;
    sorted
  end

let finish ~keyed w =
  {
    completed = canonical_leaves ~keyed (List.rev w.w_completed);
    deadlocked = canonical_leaves ~keyed (List.rev w.w_deadlocked);
    truncated = w.w_truncated;
    explored = w.w_explored;
    reduced = w.w_reduced;
    exhausted = w.w_exhausted;
  }

(* ------------------------------------------------------------------ *)
(* Sleep sets and the exact seen table                                  *)
(* ------------------------------------------------------------------ *)

(* A sleeping move is kept with the footprint it had when put to sleep;
   by independence it stays enabled (same label, same footprint) until a
   dependent move fires and wakes it. *)

let subset z1 z2 = Smap.for_all (fun l _ -> Smap.mem l z2) z1

(* Has this state already been explored under a sleep set at least as
   permissive (i.e. a subset of [sleep])? If so, every continuation awake
   now was awake then, and the subtree is covered. Otherwise record
   [sleep] (dropping any recorded supersets it refines). The exact-key
   audit oracle, when present, rides along: recorded at first insert,
   compared on every arrival. *)
let covered seen k exact sleep =
  let t = T.span_begin T.Seen_table in
  let prior, olds =
    match Ktbl.find_opt seen k with
    | Some (prior, olds) -> (prior, olds)
    | None -> (None, [])
  in
  audit_mismatch prior exact;
  let hit =
    if List.exists (fun z -> subset z sleep) olds then begin
      T.hit T.Memo_hits;
      true
    end
    else begin
      let olds = List.filter (fun z -> not (subset sleep z)) olds in
      let prior = if olds = [] && prior = None then exact else prior in
      Ktbl.replace seen k (prior, sleep :: olds);
      T.hit T.Memo_misses;
      false
    end
  in
  T.span_end T.Seen_table t;
  hit

(* ------------------------------------------------------------------ *)
(* Source-DPOR DFS (race-driven wakeups, no wakeup trees)              *)
(* ------------------------------------------------------------------ *)

(* Source-DPOR (Abdulla, Aronis, Jonsson, Sagonas 2014, wakeup-tree-free
   variant) inverts the sleep-set discipline: instead of expanding every
   awake successor and pruning arrivals after the fact, a frame starts
   with a single scheduled move and grows its backtrack set only when a
   *race* demands it. A race is a pair of dependent events on the DFS
   stack with no intermediate happens-before chain; reversing it may
   expose a new Mazurkiewicz trace, so an initial of the reversing
   sequence is scheduled at the earlier state. Awake successors that no
   race ever schedules are the engine's saving over sleep sets
   ([Source_prunes]).

   Happens-before is derived from the same pre-sorted move footprints
   the sleep engine uses: two moves with intersecting footprints are
   dependent, and every move of a process touches that process's
   element, so program order is contained in the relation.

   Statefulness. The engine reuses the sleep-set [covered] subset rule,
   which creates the classic stateful-DPOR hazard: pruning at a covered
   state discards the backtrack points the pruned subtree would have
   contributed to the *current* stack. Two mechanisms restore them:
   - every completed state records a summary of the distinct moves
     executed anywhere below it; a covered hit replays each summary
     move as a virtual next step through the ordinary race detector;
   - a hit on a state still open on the stack (a cycle) cannot know its
     summary, so every frame on the cycle segment is conservatively
     saturated (all awake successors scheduled — exactly the sleep-set
     expansion) and its summary poisoned to [Sat], which makes later
     consumers of the poisoned summaries saturate in turn. Cyclic
     regions thus degrade to sleep-set behavior; acyclic regions keep
     the full reduction. *)

module Iset = Set.Make (Int)

(* One executed step on the stack: the move and its transitive
   happens-before clock (indices of earlier entries ordered before it). *)
type sentry = { en_move : move; en_hb : Iset.t }

type summary = Sat | Moves of move list

let sum_add m = function
  | Sat -> Sat
  | Moves ms ->
      if
        List.exists
          (fun m' -> String.equal m'.label m.label && m'.touches = m.touches)
          ms
      then Moves ms
      else Moves (m :: ms)

let sum_merge a b =
  match (a, b) with
  | Sat, _ | _, Sat -> Sat
  | Moves xs, Moves b -> List.fold_left (fun acc m -> sum_add m acc) (Moves b) xs

(* A frame is one open state on the DFS stack: frame [d] is the state
   entry [d] was fired from. Backtrack/executed/skipped are keyed by
   move label, matching the sleep map; each label names one successor,
   which is built only when the frame executes it. *)
type 'c sframe = {
  fr_succs : 'c successor list;
  fr_awake : 'c successor list;
  fr_backtrack : (string, unit) Hashtbl.t;
  fr_executed : (string, unit) Hashtbl.t;
  fr_skipped : (string, unit) Hashtbl.t;
  mutable fr_sleep : move Smap.t;
  mutable fr_sum : summary;
}

let run_source ~max_steps ~max_configs ~budget ~key ~audit ~footprint
    ~terminated init =
  let w = new_walk () in
  let seen : (string option * move Smap.t list) Ktbl.t = Ktbl.create 1024 in
  let sums : summary Ktbl.t = Ktbl.create 1024 in
  (* Depths of frames currently open under each key, deepest first —
     a hit on one of these is a cycle, not a completed-subtree prune. *)
  let open_depths : int list Ktbl.t = Ktbl.create 64 in
  let exact_of c = match audit with None -> None | Some a -> Some (a c) in
  let stop = stop w ~max_configs ~budget in
  let entries : sentry option array ref = ref (Array.make 64 None) in
  let frames = ref (Array.make 64 None) in
  let grow r d =
    let a = !r in
    let n = Array.length a in
    if d >= n then begin
      let a' = Array.make (max (2 * n) (d + 1)) None in
      Array.blit a 0 a' 0 n;
      r := a'
    end
  in
  let entry j =
    match (!entries).(j) with Some e -> e | None -> assert false
  in
  let frame j = match (!frames).(j) with Some f -> f | None -> assert false in
  let hb_of depth m =
    let hb = ref Iset.empty in
    for j = 0 to depth - 1 do
      let e = entry j in
      if not (independent e.en_move m) then
        hb := Iset.add j (Iset.union !hb e.en_hb)
    done;
    !hb
  in
  let backtrack_add fr l =
    if not (Hashtbl.mem fr.fr_backtrack l) then begin
      Hashtbl.replace fr.fr_backtrack l ();
      T.hit T.Backtrack_points
    end
  in
  let saturate_frame fr = List.iter (fun (l, _) -> backtrack_add fr l) fr.fr_awake in
  (* Saturate every frame on [dlo..dhi] and poison their summaries:
     the subtree that should have refined their backtrack sets was
     pruned with unknown contents. *)
  let saturate_range dlo dhi =
    for p = dlo to dhi do
      let fr = frame p in
      saturate_frame fr;
      fr.fr_sum <- Sat
    done
  in
  (* Race detection for an event at stack position [pos] (executed
     entries occupy [0 .. pos-1]) with move [m] and clock [hb]. For
     every earlier event [j] directly dependent on [m] with no
     intermediate happens-before chain, compute the reversing sequence
     v = notdep(j) . m and schedule one of its initials at frame [j];
     when no initial is enabled there, fall back to the classic DPOR
     full fill. An initial asleep at frame [j] means the reversal is
     already covered by an earlier sibling branch — no point needed. *)
  let race_detect pos m hb =
    for j = pos - 1 downto 0 do
      let ej = entry j in
      if not (independent ej.en_move m) then begin
        let immediate = ref true in
        for k = j + 1 to pos - 1 do
          if
            !immediate
            && Iset.mem k hb
            && Iset.mem j (entry k).en_hb
          then immediate := false
        done;
        if !immediate then begin
          T.hit T.Races_detected;
          let frj = frame j in
          let vs = ref [] in
          for k = pos - 1 downto j + 1 do
            if not (Iset.mem j (entry k).en_hb) then vs := k :: !vs
          done;
          let vs = !vs in
          let minimal_in_v p php =
            List.for_all (fun q -> q = p || not (Iset.mem q php)) vs
          in
          let inits =
            List.filter_map
              (fun p ->
                if minimal_in_v p (entry p).en_hb then
                  Some (entry p).en_move.label
                else None)
              vs
          in
          let inits =
            inits @ (if minimal_in_v pos hb then [ m.label ] else [])
          in
          let enabled_inits =
            List.sort_uniq String.compare
              (List.filter
                 (fun l -> List.exists (fun (l', _) -> String.equal l' l) frj.fr_succs)
                 inits)
          in
          if
            not
              (List.exists
                 (fun l -> Hashtbl.mem frj.fr_backtrack l)
                 enabled_inits)
          then begin
            match
              List.filter
                (fun l -> not (Smap.mem l frj.fr_sleep))
                enabled_inits
            with
            | l :: _ -> backtrack_add frj l
            | [] -> if enabled_inits = [] then saturate_frame frj
          end
        end
      end
    done
  in
  let next_pick fr =
    List.find_opt
      (fun (l, _) ->
        Hashtbl.mem fr.fr_backtrack l
        && (not (Hashtbl.mem fr.fr_executed l))
        && not (Hashtbl.mem fr.fr_skipped l))
      fr.fr_awake
  in
  (* [dfs] returns the subtree summary for the parent to absorb. *)
  let rec dfs depth kc config sleep =
    if stop () then Moves []
    else begin
      w.w_explored <- w.w_explored + 1;
      T.hit T.Configs_explored;
      if depth > max_steps then begin
        w.w_truncated <- w.w_truncated + 1;
        Moves []
      end
      else begin
        let t = T.span_begin T.Interp_step in
        let succs = footprint config in
        T.span_end T.Interp_step t;
        match succs with
        | [] ->
            if terminated config then
              w.w_completed <- (kc, config) :: w.w_completed
            else w.w_deadlocked <- (kc, config) :: w.w_deadlocked;
            Moves []
        | succs -> (
            let awake, asleep =
              List.partition (fun (l, _) -> not (Smap.mem l sleep)) succs
            in
            w.w_reduced <- w.w_reduced + List.length asleep;
            T.add T.Sleep_prunes (List.length asleep);
            T.add T.Configs_reduced (List.length asleep);
            match awake with
            | [] -> Moves []
            | (l0, _) :: _ ->
                grow frames depth;
                let fr =
                  {
                    fr_succs = succs;
                    fr_awake = awake;
                    fr_backtrack = Hashtbl.create 8;
                    fr_executed = Hashtbl.create 8;
                    fr_skipped = Hashtbl.create 8;
                    fr_sleep = sleep;
                    fr_sum = Moves [];
                  }
                in
                (!frames).(depth) <- Some fr;
                (match kc with
                | Some k ->
                    let ds =
                      match Ktbl.find_opt open_depths k with
                      | Some l -> l
                      | None -> []
                    in
                    Ktbl.replace open_depths k (depth :: ds)
                | None -> ());
                backtrack_add fr l0;
                let rec loop () =
                  if not (stop ()) then
                    match next_pick fr with
                    | None -> ()
                    | Some (l, fire) ->
                        if Smap.mem l fr.fr_sleep then begin
                          Hashtbl.replace fr.fr_skipped l ();
                          loop ()
                        end
                        else begin
                          Hashtbl.replace fr.fr_executed l ();
                          if not (stop ()) then begin
                            (* The step belongs to this configuration's
                               expansion, counted when its labels were
                               listed. *)
                            let t = T.span_begin T.Interp_step in
                            let m, c' = fire () in
                            T.span_extend T.Interp_step t;
                            grow entries depth;
                            let t = T.span_begin T.Race_analysis in
                            let hb = hb_of depth m in
                            (!entries).(depth) <- Some { en_move = m; en_hb = hb };
                            race_detect depth m hb;
                            T.span_end T.Race_analysis t;
                            let child_sleep =
                              Smap.filter (fun _ z -> independent z m) fr.fr_sleep
                            in
                            visit depth fr m c' child_sleep;
                            (!entries).(depth) <- None;
                            fr.fr_sleep <- Smap.add l m fr.fr_sleep
                          end;
                          loop ()
                        end
                in
                loop ();
                (* Completion accounting: every awake successor is
                   executed, skipped asleep (covered by the sibling that
                   put it to sleep), or never scheduled by any race —
                   the source prune. Unexecuted leftovers of a stopped
                   frame are budget cuts, not prunes. *)
                let n_skip =
                  List.length
                    (List.filter (fun (l, _) -> Hashtbl.mem fr.fr_skipped l) fr.fr_awake)
                in
                if n_skip > 0 then begin
                  w.w_reduced <- w.w_reduced + n_skip;
                  T.add T.Sleep_prunes n_skip;
                  T.add T.Configs_reduced n_skip
                end;
                if w.w_exhausted = None then begin
                  let n_src =
                    List.length
                      (List.filter
                         (fun (l, _) ->
                           (not (Hashtbl.mem fr.fr_executed l))
                           && not (Hashtbl.mem fr.fr_skipped l))
                         fr.fr_awake)
                  in
                  if n_src > 0 then begin
                    w.w_reduced <- w.w_reduced + n_src;
                    T.add T.Source_prunes n_src;
                    T.add T.Configs_reduced n_src
                  end
                end;
                (match kc with
                | Some k ->
                    (match Ktbl.find_opt open_depths k with
                    | Some (d :: ds) ->
                        assert (d = depth);
                        if ds = [] then Ktbl.remove open_depths k
                        else Ktbl.replace open_depths k ds
                    | _ -> ());
                    let merged =
                      match Ktbl.find_opt sums k with
                      | Some s -> sum_merge s fr.fr_sum
                      | None -> fr.fr_sum
                    in
                    Ktbl.replace sums k merged
                | None -> ());
                (!frames).(depth) <- None;
                fr.fr_sum)
      end
    end
  (* The edge entry for [m] is already on the stack at [depth] when
     [visit] runs, so virtual summary events sit at [depth + 1]. *)
  and visit depth fr m c' child_sleep =
    match key with
    | None ->
        let s = dfs (depth + 1) None c' child_sleep in
        fr.fr_sum <- sum_add m (sum_merge fr.fr_sum s)
    | Some k ->
        let d = k c' in
        if covered seen d (exact_of c') child_sleep then begin
          w.w_reduced <- w.w_reduced + 1;
          T.hit T.Configs_reduced;
          match Ktbl.find_opt open_depths d with
          | Some (_ :: _ as ds) ->
              (* Cycle: the pruned continuation is the open frame's
                 still-unknown subtree. Frames on the cycle segment
                 lose its race contributions — saturate them. *)
              let dx = List.fold_left min depth ds in
              saturate_range dx depth;
              fr.fr_sum <- Sat
          | Some [] | None -> (
              match Ktbl.find_opt sums d with
              | Some (Moves ms) ->
                  let t = T.span_begin T.Race_analysis in
                  List.iter
                    (fun sm ->
                      race_detect (depth + 1) sm (hb_of (depth + 1) sm))
                    ms;
                  T.span_end T.Race_analysis t;
                  fr.fr_sum <-
                    sum_add m (sum_merge fr.fr_sum (Moves ms))
              | Some Sat | None ->
                  (* Unknown subtree contents: conservatively saturate
                     the whole open stack. *)
                  saturate_range 0 depth;
                  fr.fr_sum <- Sat)
        end
        else begin
          let s = dfs (depth + 1) (Some d) c' child_sleep in
          fr.fr_sum <- sum_add m (sum_merge fr.fr_sum s)
        end
  in
  let k0 =
    match key with
    | None -> None
    | Some k ->
        let d = k init in
        ignore (covered seen d (exact_of init) Smap.empty);
        Some d
  in
  ignore (dfs 0 k0 init Smap.empty);
  finish ~keyed:(key <> None) w

(* ------------------------------------------------------------------ *)
(* Task-stack walk: plain and sleep-set DFS over every seen store and   *)
(* frontier                                                             *)
(* ------------------------------------------------------------------ *)

(* One pending visit. [t_key] is [None] until the seen store admits the
   task at pop time; the root and tasks restored from a checkpoint may
   already carry theirs. *)
type 'c task = {
  t_depth : int;
  t_config : 'c;
  t_key : skey option;
  t_sleep : move Smap.t;
}

type 'c expansion =
  | Plain of ('c -> 'c list)
  | Sleep of ('c -> 'c successor list)

(* Bitstate lookup: [`Full] (table at its load cap) is treated as a hit —
   the arrival is pruned, coverage is lost, and the dedicated counter
   records it; counting it as a memo hit too preserves the conservation
   invariant [Configs_reduced = Sleep_prunes + Memo_hits +
   Source_prunes]. The optional audit table rides along exactly like the
   exact-key oracle of the exact table: exact key recorded at first
   insert, compared on every hit. *)
let bitstate_covered b audit_tbl k exact sleep =
  let t = T.span_begin T.Seen_table in
  let f = bitstate_key k sleep in
  let hit =
    match Bitstate.add b f with
    | `New ->
        Option.iter (fun tbl -> Ktbl.replace tbl (Fp f) exact) audit_tbl;
        T.hit T.Memo_misses;
        false
    | `Seen ->
        Option.iter
          (fun tbl -> audit_mismatch (Option.join (Ktbl.find_opt tbl (Fp f))) exact)
          audit_tbl;
        T.hit T.Memo_hits;
        true
    | `Full ->
        T.hit T.Bitstate_saturated_prunes;
        T.hit T.Memo_hits;
        true
  in
  T.span_end T.Seen_table t;
  hit

(* Complete resumable state. Everything in it is pure data (interpreter
   configurations are closure-free records, [skey]/[move]/[Smap] are
   plain structures, [Ktbl] marshals as an ordinary hashtable), so one
   [Marshal] round trip through {!Checkpoint} reconstructs the walk
   exactly. *)
type 'c snapshot = {
  sn_completed : (skey option * 'c) list;
  sn_deadlocked : (skey option * 'c) list;
  sn_truncated : int;
  sn_explored : int;
  sn_reduced : int;
  sn_frontier : 'c task list;  (* pop order (newest first) *)
  sn_seen : (string option * move Smap.t list) Ktbl.t option;
  sn_bits : Bitstate.snapshot option;
  sn_budget : int * int;  (* configs_used, runs_used *)
  sn_counters : (string * int) list;
}

(* The frontier is a plain stack (head = next to pop), which a checkpoint
   snapshots as it is, and the seen store is either the exact
   subset-rule table (with empty sleep sets the rule is plain
   add-if-absent memoization) or a bounded {!Bitstate}. The seen store
   is probed when a task is popped, and children are pushed last-first
   so the first child pops first: the walk then visits, charges and
   counts exactly as a recursive DFS would. After a stop the loop still
   drains the frontier through the seen store — the recursive walk
   probed the pending siblings of every open frame while unwinding, and
   the counters must agree with it. *)
let run_tasks ~max_steps ~max_configs ~budget ~key ~audit ~expansion
    ~terminated ~res init =
  let w = new_walk () in
  let exact_of c = match audit with None -> None | Some a -> Some (a c) in
  let seen =
    ref
      (match res.bitstate with
      | Some b -> `Bits b
      | None -> `Table (Ktbl.create 1024))
  in
  let bit_audit =
    if res.bitstate <> None && audit <> None then Some (Ktbl.create 1024) else None
  in
  let probe k c sleep =
    match !seen with
    | `Bits b -> bitstate_covered b bit_audit k (exact_of c) sleep
    | `Table tbl -> covered tbl k (exact_of c) sleep
  in
  let frontier = ref [] in
  (* An injected allocation fault is a simulated crossing of the heap
     watermark at frontier growth: the task is dropped and the walk stops
     with the memory reason — coverage lost, verdict degraded, process
     alive. Only runs that asked for a resilience option are eligible. *)
  let faultable =
    res.bitstate <> None || res.checkpoint <> None || res.resume <> None
  in
  let push task =
    if faultable && Faults.fire Faults.Alloc then begin
      Faults.survived ();
      if w.w_exhausted = None then w.w_exhausted <- Some Budget.Memory_watermark
    end
    else frontier := task :: !frontier
  in
  let child depth config sleep =
    { t_depth = depth; t_config = config; t_key = None; t_sleep = sleep }
  in
  let leaf kc task =
    let l = (kc, task.t_config) in
    if terminated task.t_config then w.w_completed <- l :: w.w_completed
    else w.w_deadlocked <- l :: w.w_deadlocked
  in
  let expand kc task =
    let depth = task.t_depth + 1 in
    match expansion with
    | Plain moves -> (
        let t = T.span_begin T.Interp_step in
        let cs = moves task.t_config in
        T.span_end T.Interp_step t;
        match cs with
        | [] -> leaf kc task
        | cs -> List.iter (fun c -> push (child depth c Smap.empty)) (List.rev cs))
    | Sleep footprint -> (
        let t = T.span_begin T.Interp_step in
        match footprint task.t_config with
        | [] ->
            T.span_end T.Interp_step t;
            leaf kc task
        | succs ->
            (* Sleeping successors are covered by an earlier sibling
               branch that fired the same move before this
               configuration's distinguishing step, so they are never
               built; the awake ones are, in list order. *)
            let n = List.length succs in
            let awake =
              List.filter_map
                (fun (l, fire) -> if Smap.mem l task.t_sleep then None else Some (fire ()))
                succs
            in
            T.span_end T.Interp_step t;
            let asleep = n - List.length awake in
            w.w_reduced <- w.w_reduced + asleep;
            T.add T.Sleep_prunes asleep;
            T.add T.Configs_reduced asleep;
            (* A child keeps sleeping only the moves that commute with
               the one it fires; the fold yields the children last
               first, the push order. *)
            let _, children =
              List.fold_left
                (fun (sleep, acc) (m, c') ->
                  ( Smap.add m.label m sleep,
                    child depth c' (Smap.filter (fun _ z -> independent z m) sleep)
                    :: acc ))
                (task.t_sleep, []) awake
            in
            List.iter push children)
  in
  let since_ckpt = ref 0 in
  let snapshot () =
    {
      sn_completed = w.w_completed;
      sn_deadlocked = w.w_deadlocked;
      sn_truncated = w.w_truncated;
      sn_explored = w.w_explored;
      sn_reduced = w.w_reduced;
      sn_frontier = !frontier;
      sn_seen = (match !seen with `Table tbl -> Some tbl | `Bits _ -> None);
      sn_bits = (match !seen with `Bits b -> Some (Bitstate.snapshot b) | `Table _ -> None);
      sn_budget =
        (match budget with
        | Some b -> (Budget.configs_used b, Budget.runs_used b)
        | None -> (0, 0));
      sn_counters = T.snapshot_counters ();
    }
  in
  let maybe_checkpoint () =
    match res.checkpoint with
    | None -> ()
    | Some ctl ->
        incr since_ckpt;
        if !since_ckpt >= Checkpoint.every ctl then begin
          since_ckpt := 0;
          (* A failed snapshot (injected fault or real I/O error) costs
             resumability from this point, nothing else: the run itself
             is unaffected, so the error is deliberately dropped. *)
          match Checkpoint.write ctl ~stamp:res.stamp (snapshot ()) with
          | Ok () | Error _ -> ()
        end
  in
  (match res.resume with
  | Some path -> (
      match Checkpoint.read ~stamp:res.stamp path with
      | Error msg -> raise (Resume_error msg)
      | Ok (s : 'c snapshot) ->
          w.w_completed <- s.sn_completed;
          w.w_deadlocked <- s.sn_deadlocked;
          w.w_truncated <- s.sn_truncated;
          w.w_explored <- s.sn_explored;
          w.w_reduced <- s.sn_reduced;
          Option.iter (fun tbl -> seen := `Table tbl) s.sn_seen;
          Option.iter (fun b -> seen := `Bits (Bitstate.restore b)) s.sn_bits;
          frontier := s.sn_frontier;
          Option.iter
            (fun b ->
              Budget.restore b ~configs:(fst s.sn_budget) ~runs:(snd s.sn_budget))
            budget;
          T.restore_counters s.sn_counters)
  | None ->
      (* The root is keyed and recorded up front: a cycle back to it must
         not re-explore it. *)
      let k0 =
        Option.map
          (fun k ->
            let d = k init in
            ignore (probe d init Smap.empty);
            d)
          key
      in
      push { t_depth = 0; t_config = init; t_key = k0; t_sleep = Smap.empty });
  let stop = stop w ~max_configs ~budget in
  let visit kc task =
    if not (stop ()) then begin
      w.w_explored <- w.w_explored + 1;
      T.hit T.Configs_explored;
      if task.t_depth > max_steps then w.w_truncated <- w.w_truncated + 1
      else expand kc task;
      maybe_checkpoint ()
    end
  in
  let rec loop () =
    match !frontier with
    | [] -> ()
    | task :: rest ->
        frontier := rest;
        (match (key, task.t_key) with
        | Some k, None ->
            let d = k task.t_config in
            if probe d task.t_config task.t_sleep then begin
              w.w_reduced <- w.w_reduced + 1;
              T.hit T.Configs_reduced
            end
            else visit (Some d) task
        | _ -> visit task.t_key task);
        loop ()
  in
  loop ();
  (* Degradation ladder: a recorded stop reason keeps priority over the
     blanket bitstate downgrade — never Verified through a lossy seen
     set. *)
  (match !seen with
  | `Bits _ when w.w_exhausted = None ->
      w.w_exhausted <- Some Budget.Bitstate_collision_risk
  | `Bits _ | `Table _ -> ());
  finish ~keyed:(key <> None) w

let run ?(max_steps = 10_000) ?(max_configs = 1_000_000) ?budget ?key ?audit
    ?footprint ?reduction ?(resilience = no_resilience) ~moves ~terminated init =
  (* A budget's configuration cap replaces [max_configs] and its default:
     the budget is charged per configuration, so the walk then needs no
     cap of its own. *)
  let max_configs =
    if Option.bind budget Budget.max_configs = None then max_configs else max_int
  in
  (* A bitstate table needs keys to store; without one it is ignored. *)
  let res =
    { resilience with bitstate = (if key = None then None else resilience.bitstate) }
  in
  let run_tasks expansion =
    run_tasks ~max_steps ~max_configs ~budget ~key ~audit ~expansion ~terminated
      ~res init
  in
  (* Reduction is meaningful only when the caller supplies footprints;
     without them, or under an explicit [No_reduction], the walk is
     plain. Source-DPOR needs the in-order DFS stack and a faithful seen
     table, which neither a checkpointed frontier nor a lossy bitstate
     table provides, so it degrades to sleep sets under either
     (documented in DESIGN.md). *)
  match (footprint, reduction) with
  | None, _ | Some _, Some No_reduction -> run_tasks (Plain moves)
  | Some footprint, Some Source_sets
    when res.bitstate = None && res.checkpoint = None && res.resume = None ->
      run_source ~max_steps ~max_configs ~budget ~key ~audit ~footprint
        ~terminated init
  | Some footprint, (None | Some (Sleep_sets | Source_sets)) ->
      run_tasks (Sleep footprint)


(* ------------------------------------------------------------------ *)
(* Canonical computation fingerprints                                   *)
(* ------------------------------------------------------------------ *)

(* Byte-identical to rendering each event with [Event.pp] (threads
   stripped) and each id with [Event.pp_id], but writing straight into
   the buffer: the [Format.asprintf] per event/per id dominated the
   dedup and exact-key hot paths. *)

(* What [string_of_int] writes, without the intermediate string. Digits
   are taken on the non-positive side, where [min_int] has a magnitude. *)
let add_int buf n =
  let rec digits m =
    if m <= -10 then digits (m / 10);
    Buffer.add_char buf (Char.unsafe_chr (Char.code '0' - (m mod 10)))
  in
  if n < 0 then begin
    Buffer.add_char buf '-';
    digits n
  end
  else digits (-n)

let add_value buf v =
  let module V = Gem_model.Value in
  let rec go = function
    | V.Unit -> Buffer.add_string buf "()"
    | V.Bool b -> Buffer.add_string buf (if b then "true" else "false")
    | V.Int n -> add_int buf n
    | V.Str s ->
        (* What [%S] writes, without a format interpretation per string. *)
        Buffer.add_char buf '"';
        Buffer.add_string buf (String.escaped s);
        Buffer.add_char buf '"'
    | V.Pair (a, b) ->
        Buffer.add_char buf '(';
        go a;
        Buffer.add_string buf ", ";
        go b;
        Buffer.add_char buf ')'
    | V.List xs ->
        Buffer.add_char buf '[';
        List.iteri
          (fun i x ->
            if i > 0 then Buffer.add_string buf "; ";
            go x)
          xs;
        Buffer.add_char buf ']'
  in
  go v

let add_id buf (id : Gem_model.Event.id) =
  Buffer.add_string buf id.element;
  Buffer.add_char buf '^';
  add_int buf id.index

let add_event buf (e : Gem_model.Event.t) =
  add_id buf e.id;
  Buffer.add_char buf ':';
  Buffer.add_string buf e.klass;
  if e.params <> [] then begin
    Buffer.add_char buf '(';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_string buf ", ";
        Buffer.add_string buf k;
        Buffer.add_char buf '=';
        add_value buf v)
      e.params;
    Buffer.add_char buf ')'
  end

(* Events in [Event.id_compare] order without sorting them: elements in
   [String.compare] order, each element's events in index order. *)
let fingerprint_into buf comp =
  let module C = Gem_model.Computation in
  let module E = Gem_model.Event in
  let succ id =
    Buffer.add_char buf '>';
    add_id buf id
  in
  let add h =
    add_event buf (C.event comp h);
    Buffer.add_char buf ';';
    (match C.enable_succs comp h with
    | [] -> ()
    | [ s ] -> succ (C.event comp s).E.id
    | ss ->
        List.iter succ
          (List.sort E.id_compare (List.map (fun s -> (C.event comp s).E.id) ss)));
    Buffer.add_char buf '|'
  in
  List.iter (fun el -> List.iter add (C.events_at comp el)) (C.event_elements comp)

let fingerprint comp =
  let buf = Buffer.create 256 in
  fingerprint_into buf comp;
  Buffer.contents buf

let dedup_computations seal leaves =
  let span = T.span_begin T.Merge in
  let seen = Hashtbl.create 64 in
  let buf = Buffer.create 4096 in
  let distinct =
    List.filter_map
      (fun leaf ->
        let comp = seal leaf in
        Buffer.clear buf;
        fingerprint_into buf comp;
        let key = Buffer.contents buf in
        if Hashtbl.mem seen key then None
        else begin
          Hashtbl.add seen key ();
          Some (key, comp)
        end)
      leaves
  in
  (* Canonical order: interpreters hand these straight to verdict
     rendering, so the fingerprint sort is what makes reports independent
     of traversal order — sequential, re-run, or parallel. *)
  let sorted =
    List.map snd
      (List.sort (fun (a, _) (b, _) -> String.compare a b) distinct)
  in
  T.span_end T.Merge span;
  sorted

(* ------------------------------------------------------------------ *)
(* The exploration driver                                              *)
(* ------------------------------------------------------------------ *)

type 'c lang = {
  init : 'c;
  steps : 'c -> (string * (unit -> 'c)) list;
  footprint : 'c -> 'c -> string list;
  terminated : 'c -> bool;
  fp_key : 'c -> Fp.t;
  exact_key : 'c -> string;
  seal : 'c -> Gem_model.Computation.t;
}

(* Each move's footprint is sorted here and nowhere else, which is what
   {!independent}'s merge walk relies on. *)
let successors lang c =
  List.map
    (fun (label, step) ->
      ( label,
        fun () ->
          let c' = step () in
          ({ label; touches = List.sort_uniq String.compare (lang.footprint c c') }, c')
      ))
    (lang.steps c)

let moves lang c = List.map (fun (_, step) -> step ()) (lang.steps c)

let explore ?reduction ?exact_keys ?audit_keys ?max_steps ?max_configs ?budget
    ?(resilience = no_resilience) lang =
  let reduction = match reduction with Some r -> r | None -> reduction_default () in
  let exact = match exact_keys with Some b -> b | None -> exact_keys_default () in
  let auditing = match audit_keys with Some b -> b | None -> audit_keys_default () in
  let key c = if exact then Exact (lang.exact_key c) else Fp (lang.fp_key c) in
  let audit = if auditing && not exact then Some lang.exact_key else None in
  let moves = moves lang and terminated = lang.terminated in
  let result =
    if reduction <> No_reduction then
      run ?max_steps ?max_configs ?budget ~key ?audit ~footprint:(successors lang)
        ~reduction ~resilience ~moves ~terminated lang.init
    else
      (* Without reduction the plain walk is keyless — except in bitstate
         mode, where the bounded seen set needs a state key to memoize on
         (state keys identify computation-prefix classes, so the pruning
         stays sound; dedup collapses the interleavings either way). *)
      let key = if resilience.bitstate = None then None else Some key in
      let audit = if key = None then None else audit in
      run ?max_steps ?max_configs ?budget ?key ?audit ~resilience ~moves ~terminated
        lang.init
  in
  {
    computations = dedup_computations lang.seal result.completed;
    deadlocks = dedup_computations lang.seal result.deadlocked;
    explored = result.explored;
    truncated = result.truncated;
    reduced = result.reduced;
    exhausted = result.exhausted;
  }

(* One draw per step over the enabled moves, in [steps] order; only the
   drawn move is taken. *)
let run_one ?(seed = 42) lang =
  let rng = Random.State.make [| seed |] in
  let rec loop c =
    match lang.steps c with
    | [] -> c
    | steps ->
        let _, step = List.nth steps (Random.State.int rng (List.length steps)) in
        loop (step ())
  in
  lang.seal (loop lang.init)
