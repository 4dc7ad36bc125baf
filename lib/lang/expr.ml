module Value = Gem_model.Value

type t =
  | Int of int
  | Bool of bool
  | Str of string
  | Var of string
  | Neg of t
  | Not of t
  | Add of t * t
  | Sub of t * t
  | Mul of t * t
  | Div of t * t
  | Mod of t * t
  | Eq of t * t
  | Ne of t * t
  | Lt of t * t
  | Le of t * t
  | Gt of t * t
  | Ge of t * t
  | And of t * t
  | Or of t * t
  | Queue_non_empty of string
  | Queue_length of string
  | Nil
  | Append of t * t
  | Head of t
  | Tail of t
  | Len of t

type store = (string * Value.t) list

exception Eval_error of string

let lookup store x =
  match List.assoc_opt x store with
  | Some v -> v
  | None -> raise (Eval_error ("unbound variable " ^ x))

let update store x v = (x, v) :: List.remove_assoc x store

(* [update] prepends, so insertion order varies across interleavings:
   the state keys list a store sorted (names are unique within one). *)
let sorted_store (s : store) =
  let rec sorted = function
    | (a, _) :: ((b, _) :: _ as rest) -> String.compare a b < 0 && sorted rest
    | [ _ ] | [] -> true
  in
  if sorted s then s else List.sort (fun (a, _) (b, _) -> String.compare a b) s

let rec eval ?queue_test ?queue_len store e =
  let eval' e = eval ?queue_test ?queue_len store e in
  let int e = match eval' e with
    | Value.Int n -> n
    | v -> raise (Eval_error ("expected integer, got " ^ Value.to_string v))
  in
  let bool e = match eval' e with
    | Value.Bool b -> b
    | v -> raise (Eval_error ("expected boolean, got " ^ Value.to_string v))
  in
  match e with
  | Int n -> Value.Int n
  | Bool b -> Value.Bool b
  | Str s -> Value.Str s
  | Var x -> lookup store x
  | Neg e -> Value.Int (-int e)
  | Not e -> Value.Bool (not (bool e))
  | Add (a, b) -> Value.Int (int a + int b)
  | Sub (a, b) -> Value.Int (int a - int b)
  | Mul (a, b) -> Value.Int (int a * int b)
  | Div (a, b) ->
      let d = int b in
      if d = 0 then raise (Eval_error "division by zero");
      Value.Int (int a / d)
  | Mod (a, b) ->
      let d = int b in
      if d = 0 then raise (Eval_error "modulo by zero");
      Value.Int (int a mod d)
  | Eq (a, b) -> Value.Bool (Value.equal (eval' a) (eval' b))
  | Ne (a, b) -> Value.Bool (not (Value.equal (eval' a) (eval' b)))
  | Lt (a, b) -> Value.Bool (int a < int b)
  | Le (a, b) -> Value.Bool (int a <= int b)
  | Gt (a, b) -> Value.Bool (int a > int b)
  | Ge (a, b) -> Value.Bool (int a >= int b)
  | And (a, b) -> Value.Bool (bool a && bool b)
  | Or (a, b) -> Value.Bool (bool a || bool b)
  | Queue_non_empty c -> (
      match queue_test with
      | Some f -> Value.Bool (f c)
      | None -> raise (Eval_error "queue() outside a monitor"))
  | Queue_length c -> (
      match queue_len with
      | Some f -> Value.Int (f c)
      | None -> raise (Eval_error "queue_length() outside a monitor or task"))
  | Nil -> Value.List []
  | Append (l, x) -> (
      match eval' l with
      | Value.List xs -> Value.List (xs @ [ eval' x ])
      | v -> raise (Eval_error ("append to non-list " ^ Value.to_string v)))
  | Head l -> (
      match eval' l with
      | Value.List (x :: _) -> x
      | Value.List [] -> raise (Eval_error "head of empty list")
      | v -> raise (Eval_error ("head of non-list " ^ Value.to_string v)))
  | Tail l -> (
      match eval' l with
      | Value.List (_ :: xs) -> Value.List xs
      | Value.List [] -> raise (Eval_error "tail of empty list")
      | v -> raise (Eval_error ("tail of non-list " ^ Value.to_string v)))
  | Len l -> (
      match eval' l with
      | Value.List xs -> Value.Int (List.length xs)
      | v -> raise (Eval_error ("length of non-list " ^ Value.to_string v)))

let eval_bool ?queue_test ?queue_len store e =
  match eval ?queue_test ?queue_len store e with
  | Value.Bool b -> b
  | v -> raise (Eval_error ("expected boolean, got " ^ Value.to_string v))

let eval_int ?queue_test ?queue_len store e =
  match eval ?queue_test ?queue_len store e with
  | Value.Int n -> n
  | v -> raise (Eval_error ("expected integer, got " ^ Value.to_string v))

let reads e =
  let rec go acc = function
    | Int _ | Bool _ | Str _ | Queue_non_empty _ | Queue_length _ | Nil -> acc
    | Var x -> if List.mem x acc then acc else x :: acc
    | Neg e | Not e | Head e | Tail e | Len e -> go acc e
    | Add (a, b) | Sub (a, b) | Mul (a, b) | Div (a, b) | Mod (a, b)
    | Eq (a, b) | Ne (a, b) | Lt (a, b) | Le (a, b) | Gt (a, b) | Ge (a, b)
    | And (a, b) | Or (a, b) | Append (a, b) ->
        go (go acc a) b
  in
  List.rev (go [] e)

let rec pp ppf = function
  | Int n -> Format.fprintf ppf "%d" n
  | Bool b -> Format.fprintf ppf "%b" b
  | Str s -> Format.fprintf ppf "%S" s
  | Var x -> Format.fprintf ppf "%s" x
  | Neg e -> Format.fprintf ppf "-(%a)" pp e
  | Not e -> Format.fprintf ppf "not(%a)" pp e
  | Add (a, b) -> Format.fprintf ppf "(%a + %a)" pp a pp b
  | Sub (a, b) -> Format.fprintf ppf "(%a - %a)" pp a pp b
  | Mul (a, b) -> Format.fprintf ppf "(%a * %a)" pp a pp b
  | Div (a, b) -> Format.fprintf ppf "(%a / %a)" pp a pp b
  | Mod (a, b) -> Format.fprintf ppf "(%a mod %a)" pp a pp b
  | Eq (a, b) -> Format.fprintf ppf "(%a = %a)" pp a pp b
  | Ne (a, b) -> Format.fprintf ppf "(%a <> %a)" pp a pp b
  | Lt (a, b) -> Format.fprintf ppf "(%a < %a)" pp a pp b
  | Le (a, b) -> Format.fprintf ppf "(%a <= %a)" pp a pp b
  | Gt (a, b) -> Format.fprintf ppf "(%a > %a)" pp a pp b
  | Ge (a, b) -> Format.fprintf ppf "(%a >= %a)" pp a pp b
  | And (a, b) -> Format.fprintf ppf "(%a and %a)" pp a pp b
  | Or (a, b) -> Format.fprintf ppf "(%a or %a)" pp a pp b
  | Queue_non_empty c -> Format.fprintf ppf "queue(%s)" c
  | Queue_length c -> Format.fprintf ppf "queue_length(%s)" c
  | Nil -> Format.fprintf ppf "[]"
  | Append (l, x) -> Format.fprintf ppf "append(%a, %a)" pp l pp x
  | Head l -> Format.fprintf ppf "head(%a)" pp l
  | Tail l -> Format.fprintf ppf "tail(%a)" pp l
  | Len l -> Format.fprintf ppf "len(%a)" pp l
