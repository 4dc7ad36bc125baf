(* SPIN-style bounded-RAM seen set: open addressing over the two
   126-bit fingerprint lanes, no keys, no values, no resizing. Memory is
   fixed at creation (2 native ints = 16 bytes per slot), which is the
   whole point — exploration degrades (saturation prunes + the
   Bitstate_collision_risk verdict downgrade) instead of the process
   dying when the state space outgrows RAM.

   The shard index comes from the fingerprint's low lane, the probe
   sequence from the high lane, so the two never correlate. Per-shard
   mutexes are plenty — the critical section is a handful of array
   reads. *)

module Fp = Gem_order.Fingerprint

type shard = {
  lock : Mutex.t;
  hi : int array;
  lo : int array;
  mutable used : int;
}

type t = {
  bits : int;
  mask : int;  (* slots-per-shard - 1 *)
  cap : int;  (* per-shard load cap (7/8 of slots) *)
  shards : shard array;
  shard_mask : int;
  saturated : bool Atomic.t;
}

(* Both lanes zero marks an empty slot. A real all-zero fingerprint is
   remapped to (1,1); conflating it with a (1,1) fingerprint is one
   extra collision pair out of 2^126 — noise next to the table's own
   collision rate. *)
let norm fp =
  if fp.Fp.hi = 0 && fp.Fp.lo = 0 then { Fp.hi = 1; lo = 1 } else fp

let min_bits = 8
let max_bits = 30

let create ?(shards = 64) ~bits () =
  if bits < min_bits || bits > max_bits then
    invalid_arg
      (Printf.sprintf "Bitstate.create: bits in %d..%d" min_bits max_bits);
  let shards =
    let rec pow2 n = if n >= shards then n else pow2 (n * 2) in
    min (pow2 1) (1 lsl (bits - 3))
  in
  let per = (1 lsl bits) / shards in
  {
    bits;
    mask = per - 1;
    cap = per * 7 / 8;
    shards =
      Array.init shards (fun _ ->
          {
            lock = Mutex.create ();
            hi = Array.make per 0;
            lo = Array.make per 0;
            used = 0;
          });
    shard_mask = shards - 1;
    saturated = Atomic.make false;
  }

let bits t = t.bits
let capacity t = Array.length t.shards * (t.mask + 1)
let occupancy t = Array.fold_left (fun n s -> n + s.used) 0 t.shards
let saturated t = Atomic.get t.saturated

(* Probe/insert with the shard lock already held. *)
let add_locked t s fp =
  let i0 = (fp.Fp.hi land max_int) land t.mask in
  let rec probe i n =
    if s.hi.(i) = 0 && s.lo.(i) = 0 then
      if s.used >= t.cap then begin
        Atomic.set t.saturated true;
        `Full
      end
      else begin
        s.hi.(i) <- fp.Fp.hi;
        s.lo.(i) <- fp.Fp.lo;
        s.used <- s.used + 1;
        `New
      end
    else if s.hi.(i) = fp.Fp.hi && s.lo.(i) = fp.Fp.lo then `Seen
    else if n > t.mask then begin
      (* Every slot probed and occupied: the load cap normally fires
         first; this is the pathological fully-dense shard. *)
      Atomic.set t.saturated true;
      `Full
    end
    else probe ((i + 1) land t.mask) (n + 1)
  in
  probe i0 0

let add t fp =
  let fp = norm fp in
  let s = t.shards.(Fp.to_int fp land t.shard_mask) in
  Mutex.protect s.lock (fun () -> add_locked t s fp)

(* Checkpoint form: plain arrays only (Mutex.t does not marshal). *)
type snapshot = {
  snap_bits : int;
  snap_hi : int array array;
  snap_lo : int array array;
  snap_used : int array;
  snap_saturated : bool;
}

let snapshot t =
  {
    snap_bits = t.bits;
    snap_hi = Array.map (fun s -> Array.copy s.hi) t.shards;
    snap_lo = Array.map (fun s -> Array.copy s.lo) t.shards;
    snap_used = Array.map (fun s -> s.used) t.shards;
    snap_saturated = Atomic.get t.saturated;
  }

let restore snap =
  let t = create ~shards:(Array.length snap.snap_hi) ~bits:snap.snap_bits () in
  if Array.length t.shards <> Array.length snap.snap_hi then
    invalid_arg "Bitstate.restore: shard count mismatch";
  Array.iteri
    (fun i s ->
      Array.blit snap.snap_hi.(i) 0 s.hi 0 (Array.length s.hi);
      Array.blit snap.snap_lo.(i) 0 s.lo 0 (Array.length s.lo);
      s.used <- snap.snap_used.(i))
    t.shards;
  Atomic.set t.saturated snap.snap_saturated;
  t
