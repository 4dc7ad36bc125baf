(* 126-bit fingerprints: two 63-bit native-int lanes, each finalized by a
   splitmix64-style avalanche. The lanes are native ints, so the mixing
   itself never allocates; the record holding them is a boxed two-field
   block, so every fingerprint made ([of_int], [combine], ...) is one
   small minor-heap allocation. The multiplier constants are the
   splitmix64 ones truncated to fit an OCaml int literal, which costs
   nothing but the top bit's avalanche. *)

type t = { hi : int; lo : int }

let zero = { hi = 0; lo = 0 }

(* Finalizer: xor-shift / multiply rounds. Input bits spread across the
   whole lane, so lane sums (see [cadd]) of distinct multisets collide
   with probability ~2^-63 per lane. *)
let mix x =
  let x = x lxor (x lsr 30) in
  let x = x * 0x1ce4e5b9bf58476d in
  let x = x lxor (x lsr 27) in
  let x = x * 0x133111eb94d049bb in
  x lxor (x lsr 31)

(* Distinct lane salts keep hi and lo decorrelated even though they are
   built from the same inputs. *)
let hi_salt = 0x2545f4914f6cdd1d
let lo_salt = 0x1f123bb5159a55e5

let of_int n = { hi = mix (n lxor hi_salt); lo = mix (n lxor lo_salt) }

(* FNV-1a per lane (different offset bases), then the avalanche. The
   64-bit FNV prime fits an int literal unchanged. A builder holds the two
   running lanes, so a text can be hashed piece by piece as it is
   produced, without ever being materialized. *)
type builder = { mutable fa : int; mutable fb : int }

let builder () = { fa = 0x0bf29ce484222325; fb = 0x3579d9f44812f305 }

let add_string b s =
  let a = ref b.fa and c = ref b.fb in
  for i = 0 to String.length s - 1 do
    let x = Char.code (String.unsafe_get s i) in
    a := (!a lxor x) * 0x100000001b3;
    c := (!c lxor x) * 0x100000001b3
  done;
  b.fa <- !a;
  b.fb <- !c

let finish b = { hi = mix b.fa; lo = mix b.fb }

let of_string s =
  let b = builder () in
  add_string b s;
  finish b

(* Structural hash of an arbitrary (acyclic, handle-free) OCaml value:
   two independently seeded polymorphic hashes, spread over both lanes.
   The traversal limits are far above any interpreter continuation or
   store in this codebase, but they are still limits: a value whose
   meaningful-node count exceeds them hashes by prefix only, which is one
   of the collision sources the audit counter exists to catch. *)
let of_struct x =
  let h1 = Hashtbl.seeded_hash_param 4096 65536 17 x
  and h2 = Hashtbl.seeded_hash_param 4096 65536 0x2545f491 x in
  { hi = mix (h1 lor (h2 lsl 30) lxor hi_salt); lo = mix (h2 lor (h1 lsl 30) lxor lo_salt) }

(* Ordered combination: multiply-accumulate then avalanche, so
   [combine a b <> combine b a] and chains of combines behave like a
   polynomial hash over the sequence. *)
let combine x y =
  {
    hi = mix ((x.hi * 0x1ce4e5b9bf58476d) + y.hi + 0x9e3779b97f4a7c1);
    lo = mix ((x.lo * 0x133111eb94d049bb) + y.lo + 0x61c8864680b583e);
  }

(* Commutative accumulation: per-lane wrapping sums of already-mixed
   contributions — the standard multiset hash. Used for the running trace
   fingerprint (event/edge multisets) and for association stores whose
   insertion order varies across interleavings. *)
let cadd x y = { hi = x.hi + y.hi; lo = x.lo + y.lo }

let equal a b = a.hi = b.hi && a.lo = b.lo

let compare a b =
  match Int.compare a.hi b.hi with 0 -> Int.compare a.lo b.lo | c -> c

let hash t = t.lo land max_int
let to_int t = t.lo
(* %x renders an OCaml int as unsigned in its native 63-bit width, so no
   masking (which would drop the sign bit) is needed. *)
let to_hex t = Printf.sprintf "%016x%016x" t.hi t.lo

module Table = Hashtbl.Make (struct
  type nonrec t = t

  let equal = equal
  let hash = hash
end)
