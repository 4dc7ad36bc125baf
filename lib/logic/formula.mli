(** The GEM restriction language (paper §8).

    Restrictions are first-order formulae over the events of a computation,
    built from GEM predicates ([occurred], [@], [|>], [=>el], [=>]), data
    comparisons, the history-relative control predicates ([at], [new],
    [potential]), thread predicates, and the temporal operators [[]]
    (henceforth) and [<>] (eventually).

    {b Semantics.} Quantifiers range rigidly over the events of the whole
    computation, filtered by a {!domain}; atoms are evaluated relative to a
    history (a prefix), with relations restricted to events in that history
    — so [Enables (x, y)] is false until both ends have occurred, which is
    what makes [e1 at E2] ("e1 has not {e yet} enabled an E2") expressible.
    Temporal operators are evaluated over a valid history sequence, per §7.
    Immediate (temporal-operator-free) restrictions on the computation
    itself are evaluated on the full history. *)

type cmp = Eq | Ne | Lt | Le | Gt | Ge

(** Terms denoting data, usable in comparisons. *)
type texp =
  | Const of Gem_model.Value.t
  | Param of string * string  (** [Param (x, p)] is [x.p]. *)
  | Index of string  (** Occurrence index of the event bound to the variable. *)
  | Plus of texp * int  (** Integer offset, e.g. [Plus (Index "r", n)]. *)

(** Quantifier domains — eventclass descriptions. *)
type domain =
  | Any  (** All events of the computation. *)
  | Cls of string  (** All events of a class, wherever they occur. *)
  | At_elem of string  (** All events at an element. *)
  | Cls_at of string * string  (** [Cls_at (element, class)]. *)
  | Union of domain list

type sem_fn = Gem_model.Computation.t -> Gem_order.Bitset.t -> int list -> bool
(** Escape hatch for semantic predicates: receives the computation, the
    current history's member set, and the handles bound to the listed
    variables. *)

type atom =
  | Occurred of string  (** [occurred(x)]: x is in the current history. *)
  | Enables of string * string  (** [x |> y], both in history. *)
  | Elem_lt of string * string  (** [x =>el y], both in history. *)
  | Temp_lt of string * string  (** [x => y], both in history. *)
  | Same_event of string * string  (** [x = y]. *)
  | Same_element of string * string  (** x and y occur at the same element. *)
  | In_class of string * domain  (** The event bound to [x] matches the domain. *)
  | Cmp of cmp * texp * texp  (** Data comparison (history-independent). *)
  | At_class of string * domain
      (** [x at D]: x occurred and has not (yet) enabled any D-event (§8.2.4). *)
  | New of string  (** [new(x)]: x occurred, nothing observably follows it. *)
  | Potential of string
      (** [potential(x)]: x not occurred, all its temporal predecessors have. *)
  | Same_thread of string * string * string
      (** [Same_thread (pi, x, y)]: x and y carry the same instance of
          thread type pi. *)
  | Distinct_thread of string * string * string
      (** Both labelled with pi, different instances. *)
  | In_thread of string * string  (** [In_thread (pi, x)]: x carries a pi label. *)
  | Sem of string * string list * sem_fn
      (** Named semantic predicate over bound variables. *)

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
  | Henceforth of t  (** [[]p] over history sequences. *)
  | Eventually of t  (** [<>p]. *)

val is_immediate : t -> bool
(** No temporal operator anywhere. *)

val free_vars : t -> string list

val pp : Format.formatter -> t -> unit
(** Prints in the concrete syntax accepted by [Gem_syntax.Parser]
    (implication [->], iff [<->]; the temporal order atom is [=>], the
    element order [=>el], the enable relation [|>]); the round trip
    [parse (to_string f) = f] holds for [Sem]-free formulae. The walk
    keeps its own stack, so a formula of any depth prints without
    recursing. *)

val to_string : t -> string
(** The text {!pp} prints, on one line: every break hint is one space,
    however long the formula. *)

val fingerprint : t -> Gem_order.Fingerprint.t
(** A hash of exactly the text {!to_string} returns: a semantic
    predicate counts by its name and arguments, as printed. So two
    formulas get equal fingerprints exactly when their {!to_string}
    renderings are equal (up to hash collisions). It runs {!pp}'s walk
    into the hash instead of a buffer: linear, no depth or size limit,
    and nothing rendered. *)

(** {1 Concise constructors}

    A small DSL so specifications read close to the paper's notation. *)

val ( &&& ) : t -> t -> t

val ( ||| ) : t -> t -> t

val ( ==> ) : t -> t -> t

val ( <=> ) : t -> t -> t

val neg : t -> t

val conj : t list -> t

val disj : t list -> t

val forall : (string * domain) list -> t -> t
(** [forall ["x", Cls "A"; "y", Cls "B"] body]. *)

val exists : (string * domain) list -> t -> t

val exists1 : string -> domain -> t -> t

val at_most_one : string -> domain -> t -> t

val occurred : string -> t

val enables : string -> string -> t

val elem_lt : string -> string -> t

val temp_lt : string -> string -> t

val same : string -> string -> t

val same_element : string -> string -> t

val distinct : string -> string -> t

val in_class : string -> domain -> t

val at_cls : string -> domain -> t

val fresh : string -> t
(** [new(x)] — named [fresh] because [new] is unavailable. *)

val potential : string -> t

val same_thread : string -> string -> string -> t

val distinct_thread : string -> string -> string -> t

val in_thread : string -> string -> t

val param : string -> string -> texp

val const_int : int -> texp

val const_str : string -> texp

val ( =. ) : texp -> texp -> t

val ( <. ) : texp -> texp -> t

val ( <=. ) : texp -> texp -> t

val henceforth : t -> t

val eventually : t -> t

val sem : string -> string list -> sem_fn -> t
