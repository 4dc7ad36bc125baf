(** 126-bit state fingerprints for exploration memo tables.

    Two 63-bit native-int lanes with a splitmix64-style finalizer: wide
    enough that distinct interpreter states collide with negligible
    probability, cheap enough (one two-field block per fingerprint made,
    no marshalling) to extend incrementally on every interpreter step.
    Fingerprints replace the exact marshal-string canonical keys in the
    exploration seen tables; the exact keys remain available as a
    fallback and as the collision audit oracle (see
    [Gem_lang.Explore]). *)

type t = { hi : int; lo : int }

val zero : t

val of_int : int -> t
(** Well-mixed fingerprint of an integer (both lanes salted
    differently). *)

val of_string : string -> t
(** Content hash of a string (FNV-1a per lane, then finalized). *)

type builder
(** An {!of_string} hash in progress: feeding pieces [s1], ..., [sn] and
    finishing gives [of_string (s1 ^ ... ^ sn)], without building the
    concatenation. *)

val builder : unit -> builder
val add_string : builder -> string -> unit

val finish : builder -> t
(** The fingerprint of everything added so far. *)

val of_struct : 'a -> t
(** Structural hash of an immutable OCaml value via two independently
    seeded polymorphic hashes. The value must not contain functions and
    must not rely on physical identity; traversal is bounded (4096
    meaningful / 65536 total nodes per lane), so astronomically large
    values hash by prefix — a documented collision source that the
    exploration audit counter detects. *)

val combine : t -> t -> t
(** Ordered (non-commutative) combination — sequence hashing. *)

val cadd : t -> t -> t
(** Commutative combination (per-lane wrapping sum) — multiset hashing of
    already-mixed contributions. [cadd] of raw unmixed values is weak;
    always build contributions with {!of_int}/{!of_string}/{!of_struct}/
    {!combine} first. *)

val equal : t -> t -> bool
val compare : t -> t -> int

val hash : t -> int
(** Already-mixed low lane, non-negative — suitable for [Hashtbl]. *)

val to_int : t -> int
(** Raw low lane; the bitstate table takes shard indices from its low
    bits. *)

val to_hex : t -> string
(** 32 hex digits (both lanes, high lane first). *)

module Table : Hashtbl.S with type key = t
