(** Expressions and stores shared by the three embedded languages
    (Monitor, CSP, ADA). Programs are OCaml values — the paper's examples
    are transcribed into these ASTs; no parser is needed or provided. *)

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
      (** The paper's [queue(cond)] monitor primitive; evaluates via the
          [queue_test] callback, invalid elsewhere. *)
  | Queue_length of string
      (** Number of waiters on a queue: a monitor condition's queue, or an
          ADA entry's caller queue (the ADA ['Count] attribute); evaluates
          via the [queue_len] callback. *)
  | Nil  (** The empty list value. *)
  | Append of t * t  (** [Append (list, x)] appends [x] at the tail. *)
  | Head of t
  | Tail of t
  | Len of t

type store = (string * Gem_model.Value.t) list
(** Later bindings shadow earlier ones. *)

exception Eval_error of string

val lookup : store -> string -> Gem_model.Value.t
(** Raises {!Eval_error} on unbound variables. *)

val update : store -> string -> Gem_model.Value.t -> store

val sorted_store : store -> store
(** The bindings sorted by name — what the state keys list, since
    {!update} prepends and insertion order varies across interleavings. *)

val eval :
  ?queue_test:(string -> bool) ->
  ?queue_len:(string -> int) ->
  store ->
  t ->
  Gem_model.Value.t
(** Raises {!Eval_error} on type errors, unbound variables, or a queue
    primitive without its callback. *)

val eval_bool :
  ?queue_test:(string -> bool) -> ?queue_len:(string -> int) -> store -> t -> bool

val eval_int :
  ?queue_test:(string -> bool) -> ?queue_len:(string -> int) -> store -> t -> int

val reads : t -> string list
(** Variable names read by the expression, each listed once, in first-use
    order — drives Getval event emission. *)

val pp : Format.formatter -> t -> unit
