module Bitset = Gem_order.Bitset
module Poset = Gem_order.Poset
module Computation = Gem_model.Computation

type t = { comp : Computation.t; set : Bitset.t }

let computation h = h.comp
let members h = Bitset.copy h.set

let empty comp = { comp; set = Bitset.create (Computation.n_events comp) }

let full comp =
  let set = Bitset.create (Computation.n_events comp) in
  for i = 0 to Computation.n_events comp - 1 do
    Bitset.add set i
  done;
  { comp; set }

let of_set comp set =
  let poset = Computation.temporal_exn comp in
  if Poset.is_down_closed poset set then Some { comp; set = Bitset.copy set } else None

let down_closure comp set =
  let poset = Computation.temporal_exn comp in
  { comp; set = Poset.down_closure poset set }

let mem h e = Bitset.mem h.set e
let cardinal h = Bitset.cardinal h.set
let is_full h = cardinal h = Computation.n_events h.comp
let prefix a b = Bitset.subset a.set b.set
let equal a b = Bitset.equal a.set b.set

let potential h e =
  (not (mem h e))
  && Bitset.subset (Poset.down_set (Computation.temporal_exn h.comp) e) h.set

let add_step h step =
  let poset = Computation.temporal_exn h.comp in
  let fresh = List.for_all (fun e -> not (mem h e)) step in
  let antichain =
    List.for_all
      (fun a -> List.for_all (fun b -> a = b || Poset.concurrent poset a b) step)
      step
  in
  let ready = List.for_all (potential h) step in
  if step <> [] && fresh && antichain && ready then begin
    let set = Bitset.copy h.set in
    List.iter (Bitset.add set) step;
    Some { h with set }
  end
  else None

let frontier h =
  let n = Computation.n_events h.comp in
  let acc = ref [] in
  for e = n - 1 downto 0 do
    if potential h e then acc := e :: !acc
  done;
  !acc

let is_new h e =
  mem h e
  && not
       (Bitset.exists
          (fun e' -> Poset.lt (Computation.temporal_exn h.comp) e e')
          h.set)

let at h e1 is_e2 =
  mem h e1
  && not
       (List.exists
          (fun e2 -> mem h e2 && is_e2 e2)
          (Computation.enable_succs h.comp e1))

type lattice = { histories : t array; succs : (int * int) list array }

(* How many histories the builder adds between two [stop] polls. *)
let poll_every = 64

exception Stop

(* Breadth-first from the empty history, one event per edge, with
   set-keyed dedup: adding independent events in either order reaches the
   same down-set, so generation by insertion alone would duplicate. BFS
   layers are cardinalities, so every edge goes to a higher index. *)
let lattice ?(cap = max_int) ?(stop = fun () -> false) comp =
  let module H = Hashtbl.Make (struct
    type t = Bitset.t

    let equal = Bitset.equal
    let hash = Bitset.hash
  end) in
  let poset = Computation.temporal_exn comp in
  let below = Array.init (Computation.n_events comp) (Poset.down_set poset) in
  let index = H.create 64 in
  let found = ref [] and count = ref 0 in
  let queue = Queue.create () in
  let visit set =
    match H.find_opt index set with
    | Some i -> i
    | None ->
        if !count >= cap || (!count mod poll_every = 0 && stop ()) then raise Stop;
        let i = !count in
        incr count;
        H.add index set i;
        found := { comp; set } :: !found;
        Queue.add set queue;
        i
  in
  let build () =
    ignore (visit (empty comp).set);
    let succs = ref [] in
    while not (Queue.is_empty queue) do
      let set = Queue.pop queue in
      let out = ref [] in
      Array.iteri
        (fun e down ->
          if (not (Bitset.mem set e)) && Bitset.subset down set then begin
            let set' = Bitset.copy set in
            Bitset.add set' e;
            out := (e, visit set') :: !out
          end)
        below;
      succs := List.rev !out :: !succs
    done;
    {
      histories = Array.of_list (List.rev !found);
      succs = Array.of_list (List.rev !succs);
    }
  in
  match build () with l -> Some l | exception Stop -> None

let all comp = Array.to_list (Option.get (lattice comp)).histories

let count ?(cap = max_int) comp =
  match lattice ~cap comp with Some l -> Array.length l.histories | None -> cap

let pp ppf h =
  Format.fprintf ppf "@[<hov 2>history{%a}@]"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.fprintf ppf ",@ ")
       (fun ppf e -> Gem_model.Event.pp ppf (Computation.event h.comp e)))
    (Bitset.elements h.set)
