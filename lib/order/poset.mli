(** Strict partial orders on the universe [0 .. size-1], represented by
    their full reachability matrix.

    GEM's temporal order [e1 => e2] is a strict partial order obtained as the
    transitive closure of the enable relation and the element order; this
    module hosts that closure and answers the order-theoretic queries the
    logic layer needs (precedence, potential concurrency, down-sets for
    histories, antichains for valid-history-sequence steps). *)

type t

val of_succs : int list array -> t option
(** [of_succs succs] is the transitive closure of the graph on
    [0 .. Array.length succs - 1] with an edge [v -> w] for each [w] in
    [succs.(v)] (repeats allowed), or [None] if that closure would be
    reflexive anywhere (the graph has a cycle, a self-loop included),
    since a strict order must be irreflexive. One Kahn walk, smallest
    ready node first, yields the closure, the cycle check and
    {!linear_extension}. *)

val of_digraph : Digraph.t -> t option
(** {!of_succs} over the graph's rows. *)

val of_digraph_exn : Digraph.t -> t
(** Raises [Invalid_argument] on cyclic input. *)

val size : t -> int

val linear_extension : t -> int list
(** The walk's pop order: among ready nodes, smallest index first. Equal
    to [Digraph.topological_sort] of the generating graph. *)

val lt : t -> int -> int -> bool
(** [lt p a b] iff [a] strictly precedes [b]. *)

val leq : t -> int -> int -> bool

val concurrent : t -> int -> int -> bool
(** Neither [lt p a b] nor [lt p b a] nor [a = b] — the paper's "potentially
    concurrent" / "no observable order". *)

val comparable : t -> int -> int -> bool

val covers : t -> (int * int) list
(** The covering pairs (transitive reduction of the order). *)

val down_set : t -> int -> Bitset.t
(** Strict predecessors of a node. *)

val up_set : t -> int -> Bitset.t

val down_closure : t -> Bitset.t -> Bitset.t
(** [down_closure p s] is [s] together with every predecessor of a member —
    the smallest history containing [s]. *)

val is_down_closed : t -> Bitset.t -> bool

val minimal_of : t -> Bitset.t -> Bitset.t
(** Members of [s] with no strict predecessor inside [s]. *)

val maximal_of : t -> Bitset.t -> Bitset.t

val is_antichain : t -> Bitset.t -> bool
(** True iff members of [s] are pairwise concurrent. *)

val is_chain : t -> Bitset.t -> bool

val height : t -> int
(** Length (in nodes) of a longest chain; 0 for the empty poset. *)

val width_lower_bound : t -> int
(** Size of the largest antichain found greedily layer-by-layer; exact on
    graded posets and a lower bound in general (documented, cheap). *)

val width : t -> int
(** Exact width (size of a maximum antichain), by Dilworth's theorem via
    Mirsky/Fulkerson: a minimum chain cover of the order equals the
    maximum antichain, computed as [n - maximum matching] in the bipartite
    comparability graph (Hopcroft-Karp-style augmenting paths). O(n^3)
    worst case; fine at checker scales. *)

val max_antichain : t -> int list
(** A maximum antichain (a witness for {!width}), recovered from the
    matching by the Koenig vertex-cover construction. Elements in
    increasing order. *)

val linear_extensions : ?limit:int -> t -> int list list
(** All total orders extending the order, each as a node list. Stops after
    [limit] extensions when given (default: unbounded). Singleton [[[]]] for
    the empty poset. *)

val count_linear_extensions : ?cap:int -> t -> int
(** Number of linear extensions, computed by dynamic programming over
    down-closed subsets; stops and returns [cap] when the count reaches
    [cap] (default [max_int]). *)

val to_digraph : t -> Digraph.t
(** The full strict-order relation as a graph (all pairs, not just covers). *)

val equal : t -> t -> bool

val pp : Format.formatter -> t -> unit
