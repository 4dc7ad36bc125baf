type cmp = Eq | Ne | Lt | Le | Gt | Ge

type texp =
  | Const of Gem_model.Value.t
  | Param of string * string
  | Index of string
  | Plus of texp * int

type domain =
  | Any
  | Cls of string
  | At_elem of string
  | Cls_at of string * string
  | Union of domain list

type sem_fn = Gem_model.Computation.t -> Gem_order.Bitset.t -> int list -> bool

type atom =
  | Occurred of string
  | Enables of string * string
  | Elem_lt of string * string
  | Temp_lt of string * string
  | Same_event of string * string
  | Same_element of string * string
  | In_class of string * domain
  | Cmp of cmp * texp * texp
  | At_class of string * domain
  | New of string
  | Potential of string
  | Same_thread of string * string * string
  | Distinct_thread of string * string * string
  | In_thread of string * string
  | Sem of string * string list * sem_fn

type t =
  | True
  | False
  | Atom of atom
  | Not of t
  | And of t list
  | Or of t list
  | Implies of t * t
  | Iff of t * t
  | Forall of string * domain * t
  | Exists of string * domain * t
  | Exists_unique of string * domain * t
  | At_most_one of string * domain * t
  | Henceforth of t
  | Eventually of t

let rec is_immediate = function
  | True | False | Atom _ -> true
  | Not f -> is_immediate f
  | And fs | Or fs -> List.for_all is_immediate fs
  | Implies (a, b) | Iff (a, b) -> is_immediate a && is_immediate b
  | Forall (_, _, f) | Exists (_, _, f) | Exists_unique (_, _, f) | At_most_one (_, _, f)
    ->
      is_immediate f
  | Henceforth _ | Eventually _ -> false

module Sset = Set.Make (String)

let free_vars f =
  let rec go bound = function
    | True | False -> Sset.empty
    | Atom a -> atom_vars bound a
    | Not f -> go bound f
    | And fs | Or fs ->
        List.fold_left (fun acc f -> Sset.union acc (go bound f)) Sset.empty fs
    | Implies (a, b) | Iff (a, b) -> Sset.union (go bound a) (go bound b)
    | Forall (x, _, f) | Exists (x, _, f) | Exists_unique (x, _, f) | At_most_one (x, _, f)
      ->
        go (Sset.add x bound) f
    | Henceforth f | Eventually f -> go bound f
  and atom_vars bound a =
    let add x acc = if Sset.mem x bound then acc else Sset.add x acc in
    let rec texp_vars t acc =
      match t with
      | Const _ -> acc
      | Param (x, _) | Index x -> add x acc
      | Plus (t, _) -> texp_vars t acc
    in
    match a with
    | Occurred x | New x | Potential x -> add x Sset.empty
    | Enables (x, y)
    | Elem_lt (x, y)
    | Temp_lt (x, y)
    | Same_event (x, y)
    | Same_element (x, y) ->
        add x (add y Sset.empty)
    | In_class (x, _) | At_class (x, _) | In_thread (_, x) -> add x Sset.empty
    | Cmp (_, t1, t2) -> texp_vars t1 (texp_vars t2 Sset.empty)
    | Same_thread (_, x, y) | Distinct_thread (_, x, y) -> add x (add y Sset.empty)
    | Sem (_, xs, _) -> List.fold_left (fun acc x -> add x acc) Sset.empty xs
  in
  Sset.elements (go Sset.empty f)

(* One printer for the concrete syntax, over an output: [text] prints a
   piece of text, [space] a break hint (Format's "@ "), [open_box] and
   [close_box] a box ("@[" and "@]"). [pp] drives it into a formatter
   and [fingerprint] into a hash, so the key of a formula is always the
   text it prints. The walk keeps its own stack of pieces still to print
   and dispatches in tail calls, so a formula of any depth (a million
   nested negations fit in a request line) prints without recursing. A
   run of unary operators owes a run of closing parentheses, kept as
   one count. *)
type output = {
  text : string -> unit;
  space : unit -> unit;
  open_box : unit -> unit;
  close_box : unit -> unit;
}

type piece =
  | Text of string
  | Space
  | Close_box
  | Closing of int  (** That many [")"]. *)
  | Formula of t
  | Formulas of string * t list
      (** A break hint and the separator, then the items joined that way. *)
  | Domain of domain
  | Domains of domain list  (** ["|"], then the items joined by it. *)
  | Term of texp

let cmp_text = function
  | Eq -> " = "
  | Ne -> " != "
  | Lt -> " < "
  | Le -> " <= "
  | Gt -> " > "
  | Ge -> " >= "

let joined sep fs rest =
  match fs with
  | [] -> rest
  | [ f ] -> Formula f :: rest
  | f :: fs -> Formula f :: Formulas (sep, fs) :: rest

let joined_domains ds rest =
  match ds with
  | [] -> rest
  | [ d ] -> Domain d :: rest
  | d :: ds -> Domain d :: Domains ds :: rest

let print out f =
  let text = out.text in
  let rec walk = function
    | [] -> ()
    | Text s :: rest ->
        text s;
        walk rest
    | Space :: rest ->
        out.space ();
        walk rest
    | Close_box :: rest ->
        out.close_box ();
        walk rest
    | Closing n :: rest ->
        for _ = 1 to n do
          text ")"
        done;
        walk rest
    | Formula f :: rest -> formula f rest
    | Formulas (sep, fs) :: rest ->
        out.space ();
        text sep;
        walk (joined sep fs rest)
    | Domain d :: rest -> domain d rest
    | Domains ds :: rest ->
        text "|";
        walk (joined_domains ds rest)
    | Term t :: rest -> term t rest
  and formula f rest =
    match f with
    | True ->
        text "true";
        walk rest
    | False ->
        text "false";
        walk rest
    | Atom a -> atom a rest
    | Not f -> unary "~(" f rest
    | Henceforth f -> unary "[](" f rest
    | Eventually f -> unary "<>(" f rest
    | And fs ->
        text "(";
        walk (joined "/\\ " fs (Text ")" :: rest))
    | Or fs ->
        text "(";
        walk (joined "\\/ " fs (Text ")" :: rest))
    | Implies (a, c) ->
        text "(";
        formula a (Text " ->" :: Space :: Formula c :: Text ")" :: rest)
    | Iff (a, c) ->
        text "(";
        formula a (Text " <->" :: Space :: Formula c :: Text ")" :: rest)
    | Forall (x, d, f) -> binder "(ALL " x d f rest
    | Exists (x, d, f) -> binder "(EX " x d f rest
    | Exists_unique (x, d, f) -> binder "(EX! " x d f rest
    | At_most_one (x, d, f) -> binder "(EX<=1 " x d f rest
  and unary opening f rest =
    text opening;
    formula f
      (match rest with
      | Closing n :: rest -> Closing (n + 1) :: rest
      | rest -> Closing 1 :: rest)
  and binder quantifier x d f rest =
    out.open_box ();
    text quantifier;
    text x;
    text ":";
    domain d (Text ")" :: Space :: Formula f :: Close_box :: rest)
  and domain d rest =
    match d with
    | Any ->
        text "*";
        walk rest
    | Cls c ->
        text c;
        walk rest
    | At_elem e ->
        text e;
        text ".*";
        walk rest
    | Cls_at (e, c) ->
        text e;
        text ".";
        text c;
        walk rest
    | Union ds ->
        text "{";
        walk (joined_domains ds (Text "}" :: rest))
  and term t rest =
    match t with
    | Const v ->
        text (Gem_model.Value.to_string v);
        walk rest
    | Param (x, p) ->
        text x;
        text ".";
        text p;
        walk rest
    | Index x -> call "index" x rest
    | Plus (t, n) -> term t (Text " + " :: Text (string_of_int n) :: rest)
  and call name x rest =
    text name;
    text "(";
    text x;
    text ")";
    walk rest
  and infix x op y rest =
    text x;
    text op;
    text y;
    walk rest
  and atom a rest =
    match a with
    | Occurred x -> call "occurred" x rest
    | Enables (x, y) -> infix x " |> " y rest
    | Elem_lt (x, y) -> infix x " =>el " y rest
    | Temp_lt (x, y) -> infix x " => " y rest
    | Same_event (x, y) -> infix x " = " y rest
    | Same_element (x, y) ->
        text "elem(";
        text x;
        text ") = elem(";
        text y;
        text ")";
        walk rest
    | In_class (x, d) ->
        text x;
        text " : ";
        domain d rest
    | Cmp (c, t1, t2) -> term t1 (Text (cmp_text c) :: Term t2 :: rest)
    | At_class (x, d) ->
        text x;
        text " at ";
        domain d rest
    | New x -> call "new" x rest
    | Potential x -> call "potential" x rest
    | Same_thread (pi, x, y) ->
        text x;
        text " ~";
        infix pi "~ " y rest
    | Distinct_thread (pi, x, y) ->
        text x;
        text " !~";
        infix pi "~ " y rest
    | In_thread (pi, x) -> infix x " in " pi rest
    | Sem (name, xs, _) ->
        text name;
        text "(";
        List.iteri
          (fun i x ->
            if i > 0 then text ",";
            text x)
          xs;
        text ")";
        walk rest
  in
  formula f []

let pp ppf f =
  print
    {
      text = Format.pp_print_string ppf;
      space = Format.pp_print_space ppf;
      open_box = (fun () -> Format.pp_open_box ppf 0);
      close_box = Format.pp_close_box ppf;
    }
    f

(* [pp]'s text on one line: every break hint is one space. *)
let flat text f =
  print { text; space = (fun () -> text " "); open_box = ignore; close_box = ignore } f

let to_string f =
  let b = Buffer.create 64 in
  flat (Buffer.add_string b) f;
  Buffer.contents b

let fingerprint f =
  let b = Gem_order.Fingerprint.builder () in
  flat (Gem_order.Fingerprint.add_string b) f;
  Gem_order.Fingerprint.finish b

(* Constructors *)

let ( &&& ) a b = And [ a; b ]
let ( ||| ) a b = Or [ a; b ]
let ( ==> ) a b = Implies (a, b)
let ( <=> ) a b = Iff (a, b)
let neg f = Not f
let conj fs = And fs
let disj fs = Or fs
let forall binders body = List.fold_right (fun (x, d) f -> Forall (x, d, f)) binders body
let exists binders body = List.fold_right (fun (x, d) f -> Exists (x, d, f)) binders body
let exists1 x d body = Exists_unique (x, d, body)
let at_most_one x d body = At_most_one (x, d, body)
let occurred x = Atom (Occurred x)
let enables x y = Atom (Enables (x, y))
let elem_lt x y = Atom (Elem_lt (x, y))
let temp_lt x y = Atom (Temp_lt (x, y))
let same x y = Atom (Same_event (x, y))
let same_element x y = Atom (Same_element (x, y))
let distinct x y = Not (Atom (Same_event (x, y)))
let in_class x d = Atom (In_class (x, d))
let at_cls x d = Atom (At_class (x, d))
let fresh x = Atom (New x)
let potential x = Atom (Potential x)
let same_thread pi x y = Atom (Same_thread (pi, x, y))
let distinct_thread pi x y = Atom (Distinct_thread (pi, x, y))
let in_thread pi x = Atom (In_thread (pi, x))
let param x p = Param (x, p)
let const_int n = Const (Gem_model.Value.Int n)
let const_str s = Const (Gem_model.Value.Str s)
let ( =. ) a b = Atom (Cmp (Eq, a, b))
let ( <. ) a b = Atom (Cmp (Lt, a, b))
let ( <=. ) a b = Atom (Cmp (Le, a, b))
let henceforth f = Henceforth f
let eventually f = Eventually f
let sem name xs fn = Atom (Sem (name, xs, fn))
