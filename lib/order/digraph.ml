type t = { n : int; adj : Bitset.t array }

let create n =
  if n < 0 then invalid_arg "Digraph.create";
  { n; adj = Array.init n (fun _ -> Bitset.create n) }

let size g = g.n

let check g v = if v < 0 || v >= g.n then invalid_arg "Digraph: node out of range"

let add_edge g u v =
  check g u;
  check g v;
  Bitset.add g.adj.(u) v

let mem_edge g u v =
  check g u;
  check g v;
  Bitset.mem g.adj.(u) v

let succs g u =
  check g u;
  Bitset.elements g.adj.(u)

let preds g v =
  check g v;
  let acc = ref [] in
  for u = g.n - 1 downto 0 do
    if Bitset.mem g.adj.(u) v then acc := u :: !acc
  done;
  !acc

let edges g =
  let acc = ref [] in
  for u = g.n - 1 downto 0 do
    List.iter (fun v -> acc := (u, v) :: !acc) (List.rev (succs g u))
  done;
  (* Built backwards twice: restore lexicographic order. *)
  List.sort compare !acc

let nb_edges g =
  let total = ref 0 in
  Array.iter (fun row -> total := !total + Bitset.cardinal row) g.adj;
  !total

let of_edges n es =
  let g = create n in
  List.iter (fun (u, v) -> add_edge g u v) es;
  g

let copy g = { n = g.n; adj = Array.map Bitset.copy g.adj }

let union a b =
  if a.n <> b.n then invalid_arg "Digraph.union: size mismatch";
  { n = a.n; adj = Array.init a.n (fun u -> Bitset.union a.adj.(u) b.adj.(u)) }

let transpose g =
  let t = create g.n in
  for u = 0 to g.n - 1 do
    Bitset.iter (fun v -> add_edge t v u) g.adj.(u)
  done;
  t

let in_degrees g =
  let deg = Array.make g.n 0 in
  Array.iter (fun row -> Bitset.iter (fun v -> deg.(v) <- deg.(v) + 1) row) g.adj;
  deg

(* Kahn's algorithm; the ready set is a bitset, whose [choose] is the
   smallest ready node. *)
let topological_sort g =
  let deg = in_degrees g in
  let ready = Bitset.create g.n in
  Array.iteri (fun v d -> if d = 0 then Bitset.add ready v) deg;
  let rec loop acc seen =
    match Bitset.choose ready with
    | None -> if seen = g.n then Some (List.rev acc) else None
    | Some v ->
        Bitset.remove ready v;
        Bitset.iter
          (fun w ->
            deg.(w) <- deg.(w) - 1;
            if deg.(w) = 0 then Bitset.add ready w)
          g.adj.(v);
        loop (v :: acc) (seen + 1)
  in
  loop [] 0

let has_cycle g = topological_sort g = None

let reachable g v =
  check g v;
  let seen = Bitset.create g.n in
  let stack = ref (Bitset.elements g.adj.(v)) in
  let rec loop () =
    match !stack with
    | [] -> ()
    | u :: rest ->
        stack := rest;
        if not (Bitset.mem seen u) then begin
          Bitset.add seen u;
          Bitset.iter (fun w -> if not (Bitset.mem seen w) then stack := w :: !stack) g.adj.(u)
        end;
        loop ()
  in
  loop ();
  seen

let transitive_closure ?(reflexive = false) g =
  (* Process nodes so that, on DAGs, each row is finished before it is
     consumed; on cyclic graphs fall back to per-node DFS. *)
  match topological_sort g with
  | Some order ->
      let closure = create g.n in
      List.iter
        (fun u ->
          Bitset.iter
            (fun v ->
              Bitset.add closure.adj.(u) v;
              Bitset.union_into closure.adj.(u) closure.adj.(v))
            g.adj.(u))
        (List.rev order);
      if reflexive then
        for v = 0 to g.n - 1 do
          Bitset.add closure.adj.(v) v
        done;
      closure
  | None ->
      let closure = { n = g.n; adj = Array.init g.n (fun v -> reachable g v) } in
      if reflexive then
        for v = 0 to g.n - 1 do
          Bitset.add closure.adj.(v) v
        done;
      closure

let transitive_reduction g =
  if has_cycle g then invalid_arg "Digraph.transitive_reduction: cyclic graph";
  let closure = transitive_closure g in
  let red = create g.n in
  for u = 0 to g.n - 1 do
    Bitset.iter
      (fun v ->
        (* Keep u->v unless some other successor w of u reaches v. *)
        let redundant =
          Bitset.exists (fun w -> w <> v && Bitset.mem closure.adj.(w) v) g.adj.(u)
        in
        if not redundant then add_edge red u v)
      g.adj.(u)
  done;
  red

let sources g =
  let deg = in_degrees g in
  let acc = ref [] in
  for v = g.n - 1 downto 0 do
    if deg.(v) = 0 then acc := v :: !acc
  done;
  !acc

let sinks g =
  let acc = ref [] in
  for v = g.n - 1 downto 0 do
    if Bitset.is_empty g.adj.(v) then acc := v :: !acc
  done;
  !acc

let induced g s =
  let h = create g.n in
  Bitset.iter
    (fun u -> Bitset.iter (fun v -> if Bitset.mem s v then add_edge h u v) g.adj.(u))
    s;
  h

let equal a b = a.n = b.n && Array.for_all2 Bitset.equal a.adj b.adj

let pp ppf g =
  Format.fprintf ppf "@[<v>digraph(%d nodes)" g.n;
  List.iter (fun (u, v) -> Format.fprintf ppf "@,%d -> %d" u v) (edges g);
  Format.fprintf ppf "@]"
