type t = { mutable bits : Bytes.t; cap : int }

let bytes_needed n = (n + 7) / 8

let create n =
  if n < 0 then invalid_arg "Bitset.create";
  { bits = Bytes.make (bytes_needed n) '\000'; cap = n }

let capacity t = t.cap

let check t i =
  if i < 0 || i >= t.cap then invalid_arg "Bitset: index out of range"

let mem t i =
  check t i;
  Char.code (Bytes.unsafe_get t.bits (i lsr 3)) land (1 lsl (i land 7)) <> 0

let add t i =
  check t i;
  let j = i lsr 3 in
  let b = Char.code (Bytes.unsafe_get t.bits j) in
  Bytes.unsafe_set t.bits j (Char.unsafe_chr (b lor (1 lsl (i land 7))))

let remove t i =
  check t i;
  let j = i lsr 3 in
  let b = Char.code (Bytes.unsafe_get t.bits j) in
  Bytes.unsafe_set t.bits j (Char.unsafe_chr (b land lnot (1 lsl (i land 7)) land 0xff))

let copy t = { bits = Bytes.copy t.bits; cap = t.cap }

let clear t = Bytes.fill t.bits 0 (Bytes.length t.bits) '\000'

(* Popcount of a byte, via a 256-entry table. *)
let popcount_table =
  let tbl = Bytes.create 256 in
  for b = 0 to 255 do
    let rec count x = if x = 0 then 0 else (x land 1) + count (x lsr 1) in
    Bytes.set tbl b (Char.chr (count b))
  done;
  tbl

let cardinal t =
  let n = ref 0 in
  for j = 0 to Bytes.length t.bits - 1 do
    n := !n + Char.code (Bytes.get popcount_table (Char.code (Bytes.get t.bits j)))
  done;
  !n

let is_empty t =
  let rec loop j =
    j >= Bytes.length t.bits || (Bytes.get t.bits j = '\000' && loop (j + 1))
  in
  loop 0

let same_cap a b =
  if a.cap <> b.cap then invalid_arg "Bitset: capacity mismatch"

let equal a b = same_cap a b; Bytes.equal a.bits b.bits

let zip_bytes f a b =
  same_cap a b;
  let len = Bytes.length a.bits in
  let out = Bytes.create len in
  for j = 0 to len - 1 do
    Bytes.unsafe_set out j
      (Char.unsafe_chr
         (f (Char.code (Bytes.unsafe_get a.bits j))
            (Char.code (Bytes.unsafe_get b.bits j))
          land 0xff))
  done;
  { bits = out; cap = a.cap }

let union a b = zip_bytes ( lor ) a b
let inter a b = zip_bytes ( land ) a b
let diff a b = zip_bytes (fun x y -> x land lnot y) a b

let union_into dst src =
  same_cap dst src;
  for j = 0 to Bytes.length dst.bits - 1 do
    Bytes.unsafe_set dst.bits j
      (Char.unsafe_chr
         (Char.code (Bytes.unsafe_get dst.bits j)
          lor Char.code (Bytes.unsafe_get src.bits j)))
  done

let subset a b =
  same_cap a b;
  let rec loop j =
    j >= Bytes.length a.bits
    || (Char.code (Bytes.get a.bits j) land lnot (Char.code (Bytes.get b.bits j)) = 0
        && loop (j + 1))
  in
  loop 0

let disjoint a b =
  same_cap a b;
  let rec loop j =
    j >= Bytes.length a.bits
    || (Char.code (Bytes.get a.bits j) land Char.code (Bytes.get b.bits j) = 0
        && loop (j + 1))
  in
  loop 0

(* Skips zero bytes whole and tests bits only inside a nonzero one: a
   sparse row costs a byte scan, not [cap] bit tests. Bits at or past
   [cap] are never set, so the last byte needs no mask. *)
let iter f t =
  let bits = t.bits in
  for j = 0 to Bytes.length bits - 1 do
    let b = Char.code (Bytes.unsafe_get bits j) in
    if b <> 0 then
      for k = 0 to 7 do
        if b land (1 lsl k) <> 0 then f ((j lsl 3) lor k)
      done
  done

let fold f t init =
  let acc = ref init in
  iter (fun i -> acc := f i !acc) t;
  !acc

let elements t = List.rev (fold (fun i acc -> i :: acc) t [])

let of_list n xs =
  let t = create n in
  List.iter (add t) xs;
  t

exception Found

let for_all p t =
  try
    iter (fun i -> if not (p i) then raise Found) t;
    true
  with Found -> false

let exists p t = not (for_all (fun i -> not (p i)) t)

let choose t =
  let bits = t.bits in
  let rec byte j =
    if j >= Bytes.length bits then None
    else
      let b = Char.code (Bytes.unsafe_get bits j) in
      if b = 0 then byte (j + 1)
      else
        let rec bit k = if b land (1 lsl k) <> 0 then k else bit (k + 1) in
        Some ((j lsl 3) lor bit 0)
  in
  byte 0

let hash t = Hashtbl.hash (t.cap, Bytes.to_string t.bits)

let compare a b =
  match Int.compare a.cap b.cap with
  | 0 -> Bytes.compare a.bits b.bits
  | c -> c

let pp ppf t =
  Format.fprintf ppf "{%a}"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.fprintf ppf ",")
       Format.pp_print_int)
    (elements t)
