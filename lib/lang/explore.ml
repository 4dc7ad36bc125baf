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

(* Mutable walk state. Leaves are kept decorated with the search key
   computed when the configuration was admitted, so the canonical sort
   never recomputes a key. *)
type 'c walk = {
  mutable w_completed : (skey option * 'c) list;
  mutable w_deadlocked : (skey option * 'c) list;
  mutable w_truncated : int;
  mutable w_explored : int;
  mutable w_reduced : int;
  mutable w_exhausted : Budget.reason option;
}

(* The one stop rule: the budget is charged once per configuration, when
   it is visited ([charge]); before firing a move the walk only checks
   whether it has stopped or reached its own cap ([stopped]). The stop is
   sticky, and the leaves found so far are kept. *)
let stopped w ~max_configs =
  match w.w_exhausted with
  | Some _ -> true
  | None ->
      w.w_explored >= max_configs
      && begin
           w.w_exhausted <- Some Budget.Config_budget;
           true
         end

let charge w ~max_configs ~budget =
  (not (stopped w ~max_configs))
  &&
  match budget with
  | None -> true
  | Some b ->
      Budget.charge_config b
      || begin
           w.w_exhausted <- Budget.exhausted b;
           false
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
   discovery order is kept (the walk is deterministic, and
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
(* Seen stores                                                          *)
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

(* ------------------------------------------------------------------ *)
(* Source-DPOR state (race-driven wakeups, no wakeup trees)            *)
(* ------------------------------------------------------------------ *)

(* Source-DPOR (Abdulla, Aronis, Jonsson, Sagonas 2014, wakeup-tree-free
   variant) inverts the sleep-set discipline: instead of firing every
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
     the full reduction.
   A bitstate store keeps no summaries (they would grow with the states
   it forgets), so there every covered arrival saturates the open stack. *)

module Iset = Set.Make (Int)

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

(* A source frame's scheduling state, keyed by move label like the sleep
   map: each label names one successor. Pure data, so a checkpoint
   marshals it as it is. *)
type source = {
  s_backtrack : (string, unit) Hashtbl.t;
  s_executed : (string, unit) Hashtbl.t;
  s_skipped : (string, unit) Hashtbl.t;
  mutable s_sum : summary;
}

(* ------------------------------------------------------------------ *)
(* The walk: one stack of frames under three scheduling rules           *)
(* ------------------------------------------------------------------ *)

(* A frame is one visited configuration on the current path, [f_depth]
   steps from the root. Its successors are listed once and a thunk is
   forced only when the frame fires it, so the walk holds no built
   siblings. [f_sleep] is the sleep set it arrived with ([f_arrival])
   plus the siblings fired since; [f_todo] is what the none and sleep
   rules have still to fire, in list order. [f_fired] is the move it
   fired last and, under source, [f_clock] that move's happens-before
   clock (the depths of earlier steps ordered before it). *)
type 'c frame = {
  f_depth : int;
  f_config : 'c;
  f_key : skey option;
  f_succs : 'c successor list;
  f_awake : 'c successor list;
  mutable f_todo : 'c successor list;
  f_arrival : move Smap.t;
  mutable f_sleep : move Smap.t;
  f_src : source option;
  mutable f_fired : move;
  mutable f_clock : Iset.t;
}

(* Complete resumable state. Everything in it is pure data (interpreter
   configurations are closure-free records, [skey]/[move]/[Smap] are
   plain structures, [Ktbl] marshals as an ordinary hashtable, and a
   frame is kept with its listing emptied and the length of its
   [f_todo]), so one [Marshal] round trip through {!Checkpoint}
   reconstructs the walk exactly: a resumed frame lists its successors
   again. *)
type 'c snapshot = {
  sn_completed : (skey option * 'c) list;
  sn_deadlocked : (skey option * 'c) list;
  sn_truncated : int;
  sn_explored : int;
  sn_reduced : int;
  sn_frames : ('c frame * int) list;  (* root first *)
  sn_seen : (string option * move Smap.t list) Ktbl.t option;
  sn_bits : Bitstate.snapshot option;
  sn_sums : summary Ktbl.t;
  sn_budget : int * int;  (* configs_used, runs_used *)
  sn_counters : (string * int) list;
}

(* A move nothing reads: the plain walk keeps no sleep sets, so its
   successors need no footprint. *)
let unread = { label = ""; touches = [] }

(* The walk. The top frame fires its next move by its engine's rule
   ([No_reduction]: every successor; [Sleep_sets]: every awake one, in
   list order; [Source_sets]: the awake ones races put in its backtrack
   set). The child is keyed, probed and, when admitted, visited: charged,
   counted, cut at [max_steps], and recorded as a leaf or pushed. A
   frame with nothing left to fire pops, and its parent settles the move
   that led to it.

   Frames sit in stack slots. Under source a frame's slot is its depth:
   races are found between the steps of the whole path. Under none and
   sleep, a frame that fires its last move has nothing left to settle
   (its sleep set is read only by the children it fires), so a pushed
   child takes its slot: a path of single successors holds one frame. *)
let walk ~rule ~list ~max_steps ~max_configs ~budget ~key ~audit ~terminated ~res init =
  let w =
    {
      w_completed = [];
      w_deadlocked = [];
      w_truncated = 0;
      w_explored = 0;
      w_reduced = 0;
      w_exhausted = None;
    }
  in
  let source = rule = Source_sets and sleeping = rule <> No_reduction in
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
  let sums : summary Ktbl.t ref = ref (Ktbl.create 1024) in
  (* Depths of frames currently open under each key, deepest first —
     a hit on one of these is a cycle, not a completed-subtree prune. *)
  let open_depths : int list Ktbl.t = Ktbl.create 64 in
  let frames : 'c frame option array ref = ref (Array.make 64 None) in
  let top = ref (-1) in
  let frame j = match (!frames).(j) with Some f -> f | None -> assert false in
  let fired_at j = (frame j).f_fired and clock j = (frame j).f_clock in
  let src fr = match fr.f_src with Some s -> s | None -> assert false in
  (* [n] successors pruned, by sleep sets or source-DPOR. *)
  let prune counter n =
    w.w_reduced <- w.w_reduced + n;
    T.add counter n;
    T.add T.Configs_reduced n
  in
  let open_key kc depth =
    Option.iter
      (fun k ->
        let ds = Option.value ~default:[] (Ktbl.find_opt open_depths k) in
        Ktbl.replace open_depths k (depth :: ds))
      kc
  in
  let hb_of depth m =
    let hb = ref Iset.empty in
    for j = 0 to depth - 1 do
      if not (independent (fired_at j) m) then hb := Iset.add j (Iset.union !hb (clock j))
    done;
    !hb
  in
  let backtrack_add s l =
    if not (Hashtbl.mem s.s_backtrack l) then begin
      Hashtbl.replace s.s_backtrack l ();
      T.hit T.Backtrack_points
    end
  in
  let saturate_frame fr =
    let s = src fr in
    List.iter (fun (l, _) -> backtrack_add s l) fr.f_awake
  in
  (* Saturate every frame on [dlo..dhi] and poison their summaries:
     the subtree that should have refined their backtrack sets was
     pruned with unknown contents. *)
  let saturate_range dlo dhi =
    for p = dlo to dhi do
      let fr = frame p in
      saturate_frame fr;
      (src fr).s_sum <- Sat
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
      if not (independent (fired_at j) m) then begin
        let immediate = ref true in
        for k = j + 1 to pos - 1 do
          if !immediate && Iset.mem k hb && Iset.mem j (clock k) then
            immediate := false
        done;
        if !immediate then begin
          T.hit T.Races_detected;
          let frj = frame j in
          let sj = src frj in
          let vs = ref [] in
          for k = pos - 1 downto j + 1 do
            if not (Iset.mem j (clock k)) then vs := k :: !vs
          done;
          let vs = !vs in
          let minimal_in_v p php =
            List.for_all (fun q -> q = p || not (Iset.mem q php)) vs
          in
          let inits =
            List.filter_map
              (fun p ->
                if minimal_in_v p (clock p) then Some (fired_at p).label
                else None)
              vs
          in
          let inits = inits @ if minimal_in_v pos hb then [ m.label ] else [] in
          let enabled_inits =
            List.sort_uniq String.compare
              (List.filter
                 (fun l -> List.exists (fun (l', _) -> String.equal l' l) frj.f_succs)
                 inits)
          in
          if not (List.exists (fun l -> Hashtbl.mem sj.s_backtrack l) enabled_inits)
          then begin
            match List.filter (fun l -> not (Smap.mem l frj.f_sleep)) enabled_inits with
            | l :: _ -> backtrack_add sj l
            | [] -> if enabled_inits = [] then saturate_frame frj
          end
        end
      end
    done
  in
  (* A covered arrival at [d] by move [m] from frame [depth]. The edge
     entry for [m] is on the stack at [depth], so virtual summary events
     sit at [depth + 1]. *)
  let source_covered fr depth m d =
    let s = src fr in
    match Ktbl.find_opt open_depths d with
    | Some (_ :: _ as ds) ->
        (* Cycle: the pruned continuation is the open frame's
           still-unknown subtree. Frames on the cycle segment lose its
           race contributions — saturate them. *)
        saturate_range (List.fold_left min depth ds) depth;
        s.s_sum <- Sat
    | Some [] | None -> (
        match Ktbl.find_opt !sums d with
        | Some (Moves ms) ->
            let t = T.span_begin T.Race_analysis in
            List.iter (fun sm -> race_detect (depth + 1) sm (hb_of (depth + 1) sm)) ms;
            T.span_end T.Race_analysis t;
            s.s_sum <- sum_add m (sum_merge s.s_sum (Moves ms))
        | Some Sat | None ->
            (* Unknown subtree contents: conservatively saturate the
               whole open stack. *)
            saturate_range 0 depth;
            s.s_sum <- Sat)
  in
  (* Completion accounting of a popped source frame: every awake
     successor is executed, skipped asleep (covered by the sibling that
     put it to sleep), or never scheduled by any race — the source
     prune. Unexecuted leftovers of a stopped frame are budget cuts, not
     prunes. *)
  let complete fr s =
    let count p = List.length (List.filter (fun (l, _) -> p l) fr.f_awake) in
    prune T.Sleep_prunes (count (Hashtbl.mem s.s_skipped));
    if w.w_exhausted = None then
      prune T.Source_prunes
        (count (fun l ->
             (not (Hashtbl.mem s.s_executed l)) && not (Hashtbl.mem s.s_skipped l)));
    Option.iter
      (fun k ->
        (match Ktbl.find_opt open_depths k with
        | Some (_ :: ds) ->
            if ds = [] then Ktbl.remove open_depths k else Ktbl.replace open_depths k ds
        | Some [] | None -> ());
        match !seen with
        | `Table _ ->
            let merged =
              match Ktbl.find_opt !sums k with
              | Some sum -> sum_merge sum s.s_sum
              | None -> s.s_sum
            in
            Ktbl.replace !sums k merged
        | `Bits _ -> ())
      fr.f_key
  in
  (* An injected allocation fault is a simulated crossing of the heap
     watermark as the stack grows: the frame is dropped and the walk
     stops with the memory reason — coverage lost, verdict degraded,
     process alive. Only runs that asked for a resilience option are
     eligible. *)
  let faultable = res.bitstate <> None || res.checkpoint <> None || res.resume <> None in
  let install slot fr =
    let a = !frames in
    let n = Array.length a in
    if slot >= n then begin
      frames := Array.make (max (2 * n) (slot + 1)) None;
      Array.blit a 0 !frames 0 n
    end;
    (!frames).(slot) <- Some fr;
    top := slot;
    if source then open_key fr.f_key slot
  in
  let awake_of succs arrival =
    List.filter (fun (l, _) -> not (Smap.mem l arrival)) succs
  in
  (* Push the frame of a configuration with successors into [slot];
     [false] when there is nothing to fire (every successor asleep) or
     the push faulted. *)
  let push slot depth kc config succs arrival =
    let awake =
      if Smap.is_empty arrival then succs
      else begin
        let awake = awake_of succs arrival in
        prune T.Sleep_prunes (List.length succs - List.length awake);
        awake
      end
    in
    match awake with
    | [] -> false
    | _ :: _ when faultable && Faults.fire Faults.Alloc ->
        Faults.survived ();
        if w.w_exhausted = None then w.w_exhausted <- Some Budget.Memory_watermark;
        false
    | (l0, _) :: _ ->
        let src =
          if not source then None
          else
            Some
              {
                s_backtrack = Hashtbl.create 8;
                s_executed = Hashtbl.create 8;
                s_skipped = Hashtbl.create 8;
                s_sum = Moves [];
              }
        in
        install slot
          {
            f_depth = depth;
            f_config = config;
            f_key = kc;
            f_succs = succs;
            f_awake = awake;
            f_todo = (if source then [] else awake);
            f_arrival = arrival;
            f_sleep = arrival;
            f_src = src;
            f_fired = unread;
            f_clock = Iset.empty;
          };
        Option.iter (fun s -> backtrack_add s l0) src;
        true
  in
  (* A parent settles the move [m] it fired once the child is done: the
     move goes to sleep for the later siblings and, under source, the
     child's summary [sum] joins the parent's. *)
  let settle fr m sum =
    Option.iter (fun s -> s.s_sum <- sum_add m (sum_merge s.s_sum sum)) fr.f_src;
    if sleeping then fr.f_sleep <- Smap.add m.label m fr.f_sleep
  in
  let pop slot =
    let fr = frame slot in
    (!frames).(slot) <- None;
    top := slot - 1;
    let sum =
      match fr.f_src with
      | Some s ->
          complete fr s;
          s.s_sum
      | None -> Moves []
    in
    if slot > 0 then settle (frame (slot - 1)) (fired_at (slot - 1)) sum
  in
  let snapshot () =
    {
      sn_completed = w.w_completed;
      sn_deadlocked = w.w_deadlocked;
      sn_truncated = w.w_truncated;
      sn_explored = w.w_explored;
      sn_reduced = w.w_reduced;
      sn_frames =
        List.init (!top + 1) (fun d ->
            let fr = frame d in
            ({ fr with f_succs = []; f_awake = []; f_todo = [] }, List.length fr.f_todo));
      sn_seen = (match !seen with `Table tbl -> Some tbl | `Bits _ -> None);
      sn_bits =
        (match !seen with `Bits b -> Some (Bitstate.snapshot b) | `Table _ -> None);
      sn_sums = !sums;
      sn_budget =
        (match budget with
        | Some b -> (Budget.configs_used b, Budget.runs_used b)
        | None -> (0, 0));
      sn_counters = T.snapshot_counters ();
    }
  in
  (* Visits since the last snapshot. The walk checks at each step,
     before it fires, so a snapshot never sees a half-settled frame. A
     stopped walk writes none: its frames may have settled a move whose
     subtree was never explored (a push dropped by the watermark), and a
     snapshot carries no stop reason, so a resume would skip it. *)
  let since_ckpt = ref 0 in
  let maybe_checkpoint () =
    match res.checkpoint with
    | Some ctl when !since_ckpt >= Checkpoint.every ctl && w.w_exhausted = None -> (
        since_ckpt := 0;
        (* A failed snapshot (injected fault or real I/O error) costs
           resumability from this point, nothing else: the run itself
           is unaffected, so the error is deliberately dropped. *)
        match Checkpoint.write ctl ~stamp:res.stamp (snapshot ()) with
        | Ok () | Error _ -> ())
    | Some _ | None -> ()
  in
  let restore (s : 'c snapshot) =
    w.w_completed <- s.sn_completed;
    w.w_deadlocked <- s.sn_deadlocked;
    w.w_truncated <- s.sn_truncated;
    w.w_explored <- s.sn_explored;
    w.w_reduced <- s.sn_reduced;
    Option.iter (fun tbl -> seen := `Table tbl) s.sn_seen;
    Option.iter (fun b -> seen := `Bits (Bitstate.restore b)) s.sn_bits;
    sums := s.sn_sums;
    List.iteri
      (fun slot (fr, left) ->
        (* Listing again is the same step of the same configuration's
           expansion: it extends the span its first listing counted. *)
        let t = T.span_begin T.Interp_step in
        let succs = list fr.f_config in
        T.span_extend T.Interp_step t;
        let awake = awake_of succs fr.f_arrival in
        let n_fired = List.length awake - left in
        install slot
          {
            fr with
            f_succs = succs;
            f_awake = awake;
            f_todo = List.filteri (fun i _ -> i >= n_fired) awake;
          })
      s.sn_frames;
    Option.iter
      (fun b -> Budget.restore b ~configs:(fst s.sn_budget) ~runs:(snd s.sn_budget))
      budget;
    T.restore_counters s.sn_counters
  in
  let leaf kc config =
    let l = (kc, config) in
    if terminated config then w.w_completed <- l :: w.w_completed
    else w.w_deadlocked <- l :: w.w_deadlocked
  in
  (* Visit an admitted configuration at [depth]; [true] iff it pushed a
     frame into [slot]. Otherwise the child is done, and its parent
     settles at once. *)
  let visit slot depth kc config sleep =
    charge w ~max_configs ~budget
    && begin
         w.w_explored <- w.w_explored + 1;
         T.hit T.Configs_explored;
         incr since_ckpt;
         if depth > max_steps then begin
           w.w_truncated <- w.w_truncated + 1;
           false
         end
         else begin
           let t = T.span_begin T.Interp_step in
           let succs = list config in
           T.span_end T.Interp_step t;
           match succs with
           | [] ->
               leaf kc config;
               false
           | succs -> push slot depth kc config succs sleep
         end
       end
  in
  (* Fire the move of successor [(_, step)] from the frame in [slot]. *)
  let fire slot fr (_, step) =
    (* The step belongs to this configuration's expansion, counted when
       its labels were listed. *)
    let t = T.span_begin T.Interp_step in
    let m, c' = step () in
    T.span_extend T.Interp_step t;
    fr.f_fired <- m;
    if source then begin
      let t = T.span_begin T.Race_analysis in
      let hb = hb_of slot m in
      fr.f_clock <- hb;
      race_detect slot m hb;
      T.span_end T.Race_analysis t
    end;
    let sleep =
      if sleeping then Smap.filter (fun _ z -> independent z m) fr.f_sleep else Smap.empty
    in
    let child = if (not source) && fr.f_todo = [] then slot else slot + 1 in
    let depth = fr.f_depth + 1 in
    match key with
    | None -> if not (visit child depth None c' sleep) then settle fr m (Moves [])
    | Some k ->
        let d = k c' in
        if probe d c' sleep then begin
          w.w_reduced <- w.w_reduced + 1;
          T.hit T.Configs_reduced;
          if source then source_covered fr slot m d;
          if sleeping then fr.f_sleep <- Smap.add m.label m fr.f_sleep
        end
        else if not (visit child depth (Some d) c' sleep) then settle fr m (Moves [])
  in
  (* The next move a source frame fires: the first awake successor in
     its backtrack set not yet executed. A pick asleep by now is skipped:
     the sibling that put it to sleep covers it. *)
  let rec pick fr s =
    match
      List.find_opt
        (fun (l, _) ->
          Hashtbl.mem s.s_backtrack l
          && (not (Hashtbl.mem s.s_executed l))
          && not (Hashtbl.mem s.s_skipped l))
        fr.f_awake
    with
    | None -> None
    | Some (l, _) as next ->
        if Smap.mem l fr.f_sleep then begin
          Hashtbl.replace s.s_skipped l ();
          pick fr s
        end
        else begin
          Hashtbl.replace s.s_executed l ();
          next
        end
  in
  (match res.resume with
  | Some path -> (
      match Checkpoint.read ~stamp:res.stamp path with
      | Error msg -> raise (Resume_error msg)
      | Ok s -> restore s)
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
      ignore (visit 0 0 k0 init Smap.empty));
  (* The none and sleep rules fire a frame's awake successors in list
     order, the source rule its picks; a frame with nothing left to fire,
     or any frame once the walk has stopped, pops. *)
  while !top >= 0 do
    maybe_checkpoint ();
    let slot = !top in
    let fr = frame slot in
    if stopped w ~max_configs then pop slot
    else
      match fr.f_src with
      | Some s -> (
          match pick fr s with Some succ -> fire slot fr succ | None -> pop slot)
      | None -> (
          match fr.f_todo with
          | succ :: rest ->
              fr.f_todo <- rest;
              fire slot fr succ
          | [] -> pop slot)
  done;
  maybe_checkpoint ();
  (* Degradation ladder: a recorded stop reason keeps priority over the
     blanket bitstate downgrade — never Verified through a lossy seen
     set. *)
  (match !seen with
  | `Bits _ when w.w_exhausted = None ->
      w.w_exhausted <- Some Budget.Bitstate_collision_risk
  | `Bits _ | `Table _ -> ());
  finish ~keyed:(key <> None) w

let run ?(max_steps = 10_000) ?(max_configs = 1_000_000) ?budget ?key ?audit ?footprint
    ?reduction ?(resilience = no_resilience) ~moves ~terminated init =
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
  (* Without footprints the walk fires [moves]' children, with no sleep
     sets; the plain rule over a footprint reads none of its moves. *)
  let rule, list =
    match footprint with
    | None ->
        (No_reduction, fun c -> List.map (fun c' -> ("", fun () -> (unread, c'))) (moves c))
    | Some footprint -> (Option.value reduction ~default:Sleep_sets, footprint)
  in
  walk ~rule ~list ~max_steps ~max_configs ~budget ~key ~audit ~terminated ~res init

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

(* [lang.steps] as successors with no footprint, for the plain rule. *)
let plain_successors lang c =
  List.map (fun (label, step) -> (label, fun () -> (unread, step ()))) (lang.steps c)

let explore ?reduction ?exact_keys ?audit_keys ?max_steps ?max_configs ?budget
    ?(resilience = no_resilience) lang =
  let reduction = match reduction with Some r -> r | None -> reduction_default () in
  let exact = match exact_keys with Some b -> b | None -> exact_keys_default () in
  let auditing = match audit_keys with Some b -> b | None -> audit_keys_default () in
  let key c = if exact then Exact (lang.exact_key c) else Fp (lang.fp_key c) in
  let audit = if auditing && not exact then Some lang.exact_key else None in
  (* Without reduction the walk is keyless — except in bitstate mode,
     where the bounded seen set needs a state key to memoize on (state
     keys identify computation-prefix classes, so the pruning stays
     sound; dedup collapses the interleavings either way). *)
  let key =
    if reduction <> No_reduction || resilience.bitstate <> None then Some key else None
  in
  let audit = if key = None then None else audit in
  let footprint =
    if reduction = No_reduction then plain_successors lang else successors lang
  in
  let result =
    run ?max_steps ?max_configs ?budget ?key ?audit ~footprint ~reduction ~resilience
      ~moves:(moves lang) ~terminated:lang.terminated lang.init
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
