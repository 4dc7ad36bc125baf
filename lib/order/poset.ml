type t = {
  n : int;
  below : Bitset.t array;  (* below.(v) = strict predecessors of v *)
  order : int array;  (* the walk's pop order: a linear extension *)
}

(* One Kahn walk, smallest ready node first. A node pops only after every
   predecessor has, so its down-set is complete by then, and the walk
   unions that set and the node itself into each successor's. Nodes on a
   cycle (a self-loop included) never become ready. *)
let of_succs succs =
  let n = Array.length succs in
  let deg = Array.make n 0 in
  Array.iter (List.iter (fun w -> deg.(w) <- deg.(w) + 1)) succs;
  let ready = Bitset.create n in
  Array.iteri (fun v d -> if d = 0 then Bitset.add ready v) deg;
  let below = Array.init n (fun _ -> Bitset.create n) in
  let order = Array.make n 0 in
  let rec walk popped =
    match Bitset.choose ready with
    | None -> if popped = n then Some { n; below; order } else None
    | Some v ->
        Bitset.remove ready v;
        order.(popped) <- v;
        List.iter
          (fun w ->
            Bitset.union_into below.(w) below.(v);
            Bitset.add below.(w) v;
            deg.(w) <- deg.(w) - 1;
            if deg.(w) = 0 then Bitset.add ready w)
          succs.(v);
        walk (popped + 1)
  in
  walk 0

let of_digraph g = of_succs (Array.init (Digraph.size g) (Digraph.succs g))

let of_digraph_exn g =
  match of_digraph g with
  | Some p -> p
  | None -> invalid_arg "Poset.of_digraph_exn: cyclic graph"

let size p = p.n
let linear_extension p = Array.to_list p.order

let check p v = if v < 0 || v >= p.n then invalid_arg "Poset: node out of range"

let lt p a b =
  check p a;
  check p b;
  Bitset.mem p.below.(b) a

let leq p a b = a = b || lt p a b

let comparable p a b = lt p a b || lt p b a

let concurrent p a b = a <> b && not (comparable p a b)

let down_set p v =
  check p v;
  Bitset.copy p.below.(v)

let up_set p v =
  check p v;
  let s = Bitset.create p.n in
  for u = 0 to p.n - 1 do
    if Bitset.mem p.below.(u) v then Bitset.add s u
  done;
  s

let down_closure p s =
  let out = Bitset.copy s in
  Bitset.iter (fun v -> Bitset.union_into out p.below.(v)) s;
  out

let is_down_closed p s = Bitset.for_all (fun v -> Bitset.subset p.below.(v) s) s

let minimal_of p s =
  let out = Bitset.create p.n in
  Bitset.iter (fun v -> if Bitset.disjoint p.below.(v) s then Bitset.add out v) s;
  out

let maximal_of p s =
  let out = Bitset.create p.n in
  Bitset.iter
    (fun v ->
      let dominated = Bitset.exists (fun u -> Bitset.mem p.below.(u) v) s in
      if not dominated then Bitset.add out v)
    s;
  out

let is_antichain p s =
  Bitset.for_all (fun v -> Bitset.disjoint p.below.(v) s) s

let is_chain p s =
  Bitset.for_all (fun a -> Bitset.for_all (fun b -> a = b || comparable p a b) s) s

let to_digraph p =
  let g = Digraph.create p.n in
  for v = 0 to p.n - 1 do
    Bitset.iter (fun u -> Digraph.add_edge g u v) p.below.(v)
  done;
  g

let covers p = Digraph.edges (Digraph.transitive_reduction (to_digraph p))

let height p =
  (* Longest chain via DP along the recorded linear extension. *)
  if p.n = 0 then 0
  else begin
    let len = Array.make p.n 1 in
    Array.iter
      (fun v ->
        Bitset.iter
          (fun u -> if len.(u) + 1 > len.(v) then len.(v) <- len.(u) + 1)
          p.below.(v))
      p.order;
    Array.fold_left max 0 len
  end

let width_lower_bound p =
  if p.n = 0 then 0
  else begin
    (* Layer nodes by height-rank; the largest layer is an antichain. *)
    let rank = Array.make p.n 0 in
    Array.iter
      (fun v ->
        Bitset.iter
          (fun u -> if rank.(u) + 1 > rank.(v) then rank.(v) <- rank.(u) + 1)
          p.below.(v))
      p.order;
    let counts = Hashtbl.create 8 in
    Array.iter
      (fun r ->
        Hashtbl.replace counts r
          (1 + Option.value ~default:0 (Hashtbl.find_opt counts r)))
      rank;
    Hashtbl.fold (fun _ c best -> max c best) counts 0
  end

exception Limit_reached

let linear_extensions ?limit p =
  let results = ref [] in
  let count = ref 0 in
  let taken = Bitset.create p.n in
  let rec extend acc k =
    if k = p.n then begin
      results := List.rev acc :: !results;
      incr count;
      match limit with
      | Some l when !count >= l -> raise Limit_reached
      | _ -> ()
    end
    else
      for v = 0 to p.n - 1 do
        if (not (Bitset.mem taken v)) && Bitset.subset p.below.(v) taken then begin
          Bitset.add taken v;
          extend (v :: acc) (k + 1);
          Bitset.remove taken v
        end
      done
  in
  (try extend [] 0 with Limit_reached -> ());
  List.rev !results

let count_linear_extensions ?(cap = max_int) p =
  (* DP over down-closed subsets, memoized by bitset. *)
  let module H = Hashtbl.Make (struct
    type t = Bitset.t

    let equal = Bitset.equal
    let hash = Bitset.hash
  end) in
  let memo = H.create 256 in
  let full = Bitset.create p.n in
  for v = 0 to p.n - 1 do
    Bitset.add full v
  done;
  let rec ways taken =
    if Bitset.cardinal taken = p.n then 1
    else
      match H.find_opt memo taken with
      | Some w -> w
      | None ->
          let total = ref 0 in
          for v = 0 to p.n - 1 do
            if
              !total < cap
              && (not (Bitset.mem taken v))
              && Bitset.subset p.below.(v) taken
            then begin
              let taken' = Bitset.copy taken in
              Bitset.add taken' v;
              total := min cap (!total + ways taken')
            end
          done;
          H.add memo taken !total;
          !total
  in
  ways (Bitset.create p.n)

(* Dilworth via bipartite matching: split each node v into left v and
   right v'; edge (u, v') iff u < v. A maximum matching M yields a minimum
   chain cover of size n - |M|, which equals the maximum antichain size. *)
let maximum_matching p =
  let n = p.n in
  let match_l = Array.make n (-1) in
  (* left -> right *)
  let match_r = Array.make n (-1) in
  (* right -> left *)
  let rec augment visited u =
    let found = ref false in
    let v = ref 0 in
    while (not !found) && !v < n do
      if Bitset.mem p.below.(!v) u && not (Bitset.mem visited !v) then begin
        Bitset.add visited !v;
        if match_r.(!v) = -1 || augment visited match_r.(!v) then begin
          match_l.(u) <- !v;
          match_r.(!v) <- u;
          found := true
        end
      end;
      incr v
    done;
    !found
  in
  let size = ref 0 in
  for u = 0 to n - 1 do
    if augment (Bitset.create n) u then incr size
  done;
  (!size, match_l, match_r)

let width p =
  if p.n = 0 then 0
  else
    let m, _, _ = maximum_matching p in
    p.n - m

(* Koenig-style recovery of a maximum antichain from the matching: build
   the minimum chain cover, then take, from each chain, an element not
   comparable to the chosen elements of other chains. Simpler and correct:
   compute a minimum vertex cover of the bipartite graph via alternating
   reachability from unmatched left vertices; the maximum antichain is the
   set of nodes that are neither "covered on the left" nor "covered on the
   right": v is in the antichain iff left v is NOT in the cover and right v
   is NOT in the cover. *)
let max_antichain p =
  let n = p.n in
  if n = 0 then []
  else begin
    let _, match_l, match_r = maximum_matching p in
    (* Alternating BFS from unmatched left vertices. *)
    let seen_l = Bitset.create n and seen_r = Bitset.create n in
    let queue = Queue.create () in
    for u = 0 to n - 1 do
      if match_l.(u) = -1 then begin
        Bitset.add seen_l u;
        Queue.add u queue
      end
    done;
    while not (Queue.is_empty queue) do
      let u = Queue.pop queue in
      for v = 0 to n - 1 do
        (* edge u -> v' iff u < v *)
        if Bitset.mem p.below.(v) u && (not (Bitset.mem seen_r v)) && match_l.(u) <> v
        then begin
          Bitset.add seen_r v;
          let u' = match_r.(v) in
          if u' <> -1 && not (Bitset.mem seen_l u') then begin
            Bitset.add seen_l u';
            Queue.add u' queue
          end
        end
      done
    done;
    (* Koenig cover: left vertices NOT seen, right vertices seen. The
       maximum independent set is the complement; a node is in the
       antichain iff left v independent (seen_l v) and right v independent
       (not seen_r v). *)
    let acc = ref [] in
    for v = n - 1 downto 0 do
      if Bitset.mem seen_l v && not (Bitset.mem seen_r v) then acc := v :: !acc
    done;
    !acc
  end

let equal a b = a.n = b.n && Array.for_all2 Bitset.equal a.below b.below

let pp ppf p =
  Format.fprintf ppf "@[<v>poset(%d)" p.n;
  List.iter (fun (u, v) -> Format.fprintf ppf "@,%d < %d" u v) (covers p);
  Format.fprintf ppf "@]"
