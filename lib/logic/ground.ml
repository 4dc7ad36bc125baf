type t =
  | Const of bool
  | Fail of exn
  | Occurred of int
  | At of int * int list
  | New of int
  | Potential of int
  | Sem of Formula.sem_fn * int list
  | Not of t
  | And of t list
  | Or of t list
  | Implies of t * t
  | Iff of t * t
  | Exactly_one of t list
  | At_most_one of t list
  | Always of t
  | Eventually of t

let rec may_raise = function
  | Const _ | Occurred _ | At _ | New _ | Potential _ -> false
  | Fail _ | Sem _ -> true
  | Not g | Always g | Eventually g -> may_raise g
  | And gs | Or gs | Exactly_one gs | At_most_one gs -> List.exists may_raise gs
  | Implies (a, b) | Iff (a, b) -> may_raise a || may_raise b

let neg = function
  | Const b -> Const (not b)
  | Fail _ as g -> g
  | g -> Not g

(* A junction decided by the constant [decisive] (false for /\, true for
   \/). The other constant drops out. Evaluation stops at the first
   decisive constant or failure, so the parts after it are never built;
   a decisive constant decides the whole junction when nothing before
   it can raise. *)
let junction decisive make parts =
  let rec go acc seq =
    match seq () with
    | Seq.Nil -> close (List.rev acc) None
    | Seq.Cons (Const b, rest) when b <> decisive -> go acc rest
    | Seq.Cons (((Const _ | Fail _) as last), _) -> close (List.rev acc) (Some last)
    | Seq.Cons (g, rest) -> go (g :: acc) rest
  and close gs last =
    match (gs, last) with
    | [], None -> Const (not decisive)
    | [], Some g | [ g ], None -> g
    | gs, Some (Const _ as c) when not (List.exists may_raise gs) -> c
    | gs, None -> make gs
    | gs, Some g -> make (gs @ [ g ])
  in
  go [] parts

let conj = junction false (fun gs -> And gs)
let disj = junction true (fun gs -> Or gs)

let implies a b =
  match a with
  | Const false -> Const true
  | Const true -> b ()
  | Fail _ -> a
  | a -> (
      match b () with
      | Const true when not (may_raise a) -> Const true
      | Const false -> neg a
      | b -> Implies (a, b))

(* Both sides are always evaluated, so a constant side only selects the
   other one or its negation. *)
let iff a b =
  match (a, b) with
  | Const x, Const y -> Const (x = y)
  | Const true, g | g, Const true -> g
  | Const false, g | g, Const false -> neg g
  | a, b -> Iff (a, b)

(* Parts that are constant false never count. When the leading parts
   are constant true up to the end or up to the second witness, the
   count is known. *)
let counting make decide parts =
  let parts = List.filter (function Const false -> false | _ -> true) parts in
  let rec known n = function
    | _ when n = 2 -> Some n
    | [] -> Some n
    | Const true :: rest -> known (n + 1) rest
    | _ -> None
  in
  match known 0 parts with Some n -> Const (decide n) | None -> make parts

let exactly_one = counting (fun gs -> Exactly_one gs) (fun n -> n = 1)
let at_most_one = counting (fun gs -> At_most_one gs) (fun n -> n <= 1)

(* A run has at least one history and is evaluated at its positions, so
   a constant or a failure is the same at every later one. *)
let always = function (Const _ | Fail _) as g -> g | g -> Always g
let eventually = function (Const _ | Fail _) as g -> g | g -> Eventually g

let rec is_immediate = function
  | Const _ | Fail _ | Occurred _ | At _ | New _ | Potential _ | Sem _ -> true
  | Not g -> is_immediate g
  | And gs | Or gs | Exactly_one gs | At_most_one gs -> List.for_all is_immediate gs
  | Implies (a, b) | Iff (a, b) -> is_immediate a && is_immediate b
  | Always _ | Eventually _ -> false

(* 0, 1 or 2 (meaning at least two) true parts; stops at the second. *)
let count_until_two holds gs =
  let rec loop n = function
    | [] -> n
    | g :: rest -> if holds g then if n = 1 then 2 else loop 1 rest else loop n rest
  in
  loop 0 gs

let rec holds h = function
  | Const b -> b
  | Fail e -> raise e
  | Occurred e -> History.mem h e
  | At (e, succs) -> History.mem h e && not (List.exists (History.mem h) succs)
  | New e -> History.is_new h e
  | Potential e -> History.potential h e
  | Sem (fn, es) -> fn (History.computation h) (History.members h) es
  | Not g -> not (holds h g)
  | And gs -> List.for_all (holds h) gs
  | Or gs -> List.exists (holds h) gs
  | Implies (a, b) -> (not (holds h a)) || holds h b
  | Iff (a, b) ->
      (* Written as [Eval] writes it, so the sides are evaluated in its order. *)
      holds h a = holds h b
  | Exactly_one gs -> count_until_two (holds h) gs = 1
  | At_most_one gs -> count_until_two (holds h) gs <= 1
  | Always _ | Eventually _ -> invalid_arg "Ground.holds: temporal operator"

let holds_on_run run g =
  let len = Vhs.length run in
  let rec at i = function
    | Not g -> not (at i g)
    | And gs -> List.for_all (at i) gs
    | Or gs -> List.exists (at i) gs
    | Implies (a, b) -> (not (at i a)) || at i b
    | Iff (a, b) -> at i a = at i b (* as in [holds] *)
    | Exactly_one gs -> count_until_two (at i) gs = 1
    | At_most_one gs -> count_until_two (at i) gs <= 1
    | Always g ->
        let rec all j = j >= len || (at j g && all (j + 1)) in
        all i
    | Eventually g ->
        let rec some j = j < len && (at j g || some (j + 1)) in
        some i
    | (Const _ | Fail _ | Occurred _ | At _ | New _ | Potential _ | Sem _) as atom ->
        holds (Vhs.nth_history run i) atom
  in
  at 0 g
