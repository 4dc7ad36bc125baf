(* The plain-memory sleep-set and source-DPOR walks as they were when
   every configuration's successors were built before the walk looked at
   their labels: [footprint] is the eager list of a language's
   successors ({!Gem_lang.Explore.successors}, every thunk forced), and
   the asleep successors are dropped after they are built. test_props
   holds the awake-only walks of {!Gem_lang.Explore} to this copy: same
   leaves, same counts, same telemetry. The resilience layers (bitstate,
   checkpoint) are left out: they only change where the seen store
   lives and what is snapshotted. *)

module Explore = Gem_lang.Explore
module Budget = Gem_check.Budget
module T = Gem_obs.Telemetry
module Smap = Map.Make (String)

type move = Explore.move = { label : string; touches : string list }
type skey = Explore.skey

let independent = Explore.independent
let skey_compare = Explore.skey_compare

module Ktbl = Hashtbl.Make (struct
  type t = Explore.skey

  let equal = Explore.skey_equal
  let hash = Explore.skey_hash
end)

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

(* The one stop rule: the budget is charged once per configuration, when
   it is visited ([charge]); before the next move is taken the walk only
   checks, without charging, whether it has stopped or reached its own
   cap ([stopped]). Once stopped it takes and probes nothing more. *)
let stopped w ~max_configs () =
  w.w_exhausted <> None
  || w.w_explored >= max_configs
     && begin
          w.w_exhausted <- Some Budget.Config_budget;
          true
        end

let charge w ~max_configs ~budget () =
  (not (stopped w ~max_configs ()))
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
    Explore.completed = canonical_leaves ~keyed (List.rev w.w_completed);
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
   move label, matching the sleep map; a label shared by several
   successors (a process at a choice point) schedules all of them. *)
type 'c sframe = {
  fr_succs : (move * 'c) list;
  fr_awake : (move * 'c) list;
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
  let stopped = stopped w ~max_configs and charge = charge w ~max_configs ~budget in
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
  let saturate_frame fr =
    List.iter (fun (m, _) -> backtrack_add fr m.label) fr.fr_awake
  in
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
                 (fun l ->
                   List.exists
                     (fun (mm, _) -> String.equal mm.label l)
                     frj.fr_succs)
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
      (fun (m, _) ->
        Hashtbl.mem fr.fr_backtrack m.label
        && (not (Hashtbl.mem fr.fr_executed m.label))
        && not (Hashtbl.mem fr.fr_skipped m.label))
      fr.fr_awake
  in
  (* [dfs] returns the subtree summary for the parent to absorb. *)
  let rec dfs depth kc config sleep =
    if not (charge ()) then Moves []
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
              List.partition (fun (m, _) -> not (Smap.mem m.label sleep)) succs
            in
            w.w_reduced <- w.w_reduced + List.length asleep;
            T.add T.Sleep_prunes (List.length asleep);
            T.add T.Configs_reduced (List.length asleep);
            match awake with
            | [] -> Moves []
            | (m0, _) :: _ ->
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
                backtrack_add fr m0.label;
                let rec loop () =
                  if not (stopped ()) then
                    match next_pick fr with
                    | None -> ()
                    | Some (m, _) ->
                        let l = m.label in
                        if Smap.mem l fr.fr_sleep then begin
                          Hashtbl.replace fr.fr_skipped l ();
                          loop ()
                        end
                        else begin
                          Hashtbl.replace fr.fr_executed l ();
                          (* All successors sharing the scheduled label
                             fire, mirroring the sleep engine's fold. *)
                          List.iter
                            (fun (m, c') ->
                              if
                                String.equal m.label l && not (stopped ())
                              then begin
                                grow entries depth;
                                (!entries).(depth) <-
                                  Some
                                    { en_move = m; en_hb = hb_of depth m };
                                race_detect depth m (entry depth).en_hb;
                                let child_sleep =
                                  Smap.filter
                                    (fun _ z -> independent z m)
                                    fr.fr_sleep
                                in
                                visit depth fr m c' child_sleep;
                                (!entries).(depth) <- None;
                                fr.fr_sleep <- Smap.add l m fr.fr_sleep
                              end)
                            fr.fr_awake;
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
                    (List.filter
                       (fun (m, _) -> Hashtbl.mem fr.fr_skipped m.label)
                       fr.fr_awake)
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
                         (fun (m, _) ->
                           (not (Hashtbl.mem fr.fr_executed m.label))
                           && not (Hashtbl.mem fr.fr_skipped m.label))
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
                  List.iter
                    (fun sm ->
                      race_detect (depth + 1) sm (hb_of (depth + 1) sm))
                    ms;
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


(* The sleep-set half of the task-stack walk, with the exact seen table
   and an in-memory frontier. A child's sleep set is computed when its
   task is popped, and no task is popped once the walk has stopped: the
   frame walk computes a child's sleep set only when it fires the
   child, and fires nothing after a stop. *)
type 'c task = {
  t_depth : int;
  t_config : 'c;
  t_key : Explore.skey option;
  t_sleep : move Smap.t Lazy.t;
}

let run_sleep ~max_steps ~max_configs ~budget ~key ~audit ~footprint ~terminated
    init =
  let w = new_walk () in
  let exact_of c = match audit with None -> None | Some a -> Some (a c) in
  let tbl = Ktbl.create 1024 in
  let probe k c sleep = covered tbl k (exact_of c) sleep in
  let frontier = ref [] in
  let push task = frontier := task :: !frontier in
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
    let t = T.span_begin T.Interp_step in
    let succs = footprint task.t_config in
    T.span_end T.Interp_step t;
    match succs with
    | [] -> leaf kc task
    | succs ->
        let sleep = Lazy.force task.t_sleep in
        let awake, asleep =
          List.partition (fun (m, _) -> not (Smap.mem m.label sleep)) succs
        in
        w.w_reduced <- w.w_reduced + List.length asleep;
        T.add T.Sleep_prunes (List.length asleep);
        T.add T.Configs_reduced (List.length asleep);
        let _, children =
          List.fold_left
            (fun (sleep, acc) (m, c') ->
              ( Smap.add m.label m sleep,
                child depth c' (lazy (Smap.filter (fun _ z -> independent z m) sleep))
                :: acc ))
            (sleep, []) awake
        in
        List.iter push children
  in
  let k0 =
    Option.map
      (fun k ->
        let d = k init in
        ignore (probe d init Smap.empty);
        d)
      key
  in
  push { t_depth = 0; t_config = init; t_key = k0; t_sleep = Lazy.from_val Smap.empty };
  let stopped = stopped w ~max_configs and charge = charge w ~max_configs ~budget in
  let visit kc task =
    if charge () then begin
      w.w_explored <- w.w_explored + 1;
      T.hit T.Configs_explored;
      if task.t_depth > max_steps then w.w_truncated <- w.w_truncated + 1
      else expand kc task
    end
  in
  let rec loop () =
    match !frontier with
    | task :: rest when not (stopped ()) ->
        frontier := rest;
        (match (key, task.t_key) with
        | Some k, None ->
            let d = k task.t_config in
            if probe d task.t_config (Lazy.force task.t_sleep) then begin
              w.w_reduced <- w.w_reduced + 1;
              T.hit T.Configs_reduced
            end
            else visit (Some d) task
        | _ -> visit task.t_key task);
        loop ()
    | _ -> ()
  in
  loop ();
  finish ~keyed:(key <> None) w

let run ?(max_steps = 10_000) ?(max_configs = 1_000_000) ?budget ?key ?audit
    ~footprint ~reduction ~terminated init =
  match reduction with
  | Explore.Source_sets ->
      run_source ~max_steps ~max_configs ~budget ~key ~audit ~footprint
        ~terminated init
  | Explore.Sleep_sets | Explore.No_reduction ->
      run_sleep ~max_steps ~max_configs ~budget ~key ~audit ~footprint
        ~terminated init
