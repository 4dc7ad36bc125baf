(* One mutex + one condition variable for the whole cache. Verdict
   computations run for milliseconds to minutes, so per-entry locking
   would buy nothing: the critical sections here are a hashtable probe
   and an LRU bump, and the compute function always runs unlocked.
   Waiters of *any* in-flight key share the condition and re-check their
   own slot on wakeup — a broadcast per completion is cheap at daemon
   request rates. *)

module T = Gem_obs.Telemetry

(* [stamp] is the LRU clock value at last touch. Eviction scans for the
   minimum — O(n), but n is the (small, bounded) capacity and eviction
   happens at most once per insert. *)
type 'v ready = { value : 'v; mutable stamp : int }
type 'v outcome = Value of 'v | Raised of exn * Printexc.raw_backtrace
type 'v flight = { mutable outcome : 'v outcome option; mutable waiters : int }
type 'v slot = Ready of 'v ready | In_flight of 'v flight

type 'v t = {
  lock : Mutex.t;
  done_cond : Condition.t;
  table : (string, 'v slot) Hashtbl.t;
  cap : int;
  counted : bool;
  mutable clock : int;
  mutable n_ready : int;
  mutable hits : int;
  mutable misses : int;
  mutable coalesced : int;
  mutable evictions : int;
}

let create ?(telemetry = true) ~capacity () =
  if capacity < 1 then invalid_arg "Cache.create: capacity must be >= 1";
  {
    lock = Mutex.create ();
    done_cond = Condition.create ();
    table = Hashtbl.create (2 * capacity);
    cap = capacity;
    counted = telemetry;
    clock = 0;
    n_ready = 0;
    hits = 0;
    misses = 0;
    coalesced = 0;
    evictions = 0;
  }

type provenance = Hit | Miss | Coalesced

let provenance_name = function
  | Hit -> "hit"
  | Miss -> "miss"
  | Coalesced -> "coalesced"

let touch t r =
  t.clock <- t.clock + 1;
  r.stamp <- t.clock

(* Evict the least recently used Ready entry. Called with the lock held,
   only when [n_ready > cap] — an In_flight slot never counts against
   the capacity and is never evicted. *)
let evict_lru t =
  let victim = ref None in
  Hashtbl.iter
    (fun k -> function
      | Ready r -> (
          match !victim with
          | Some (_, s) when s <= r.stamp -> ()
          | _ -> victim := Some (k, r.stamp))
      | In_flight _ -> ())
    t.table;
  match !victim with
  | Some (k, _) ->
      Hashtbl.remove t.table k;
      t.n_ready <- t.n_ready - 1;
      t.evictions <- t.evictions + 1
  | None -> ()

let find_or_compute ?(keep = fun _ -> true) t key f =
  Mutex.lock t.lock;
  match Hashtbl.find_opt t.table key with
  | Some (Ready r) ->
      touch t r;
      t.hits <- t.hits + 1;
      Mutex.unlock t.lock;
      if t.counted then T.hit T.Cache_hits;
      (r.value, Hit)
  | Some (In_flight fl) ->
      fl.waiters <- fl.waiters + 1;
      t.coalesced <- t.coalesced + 1;
      while fl.outcome = None do
        Condition.wait t.done_cond t.lock
      done;
      fl.waiters <- fl.waiters - 1;
      let outcome = Option.get fl.outcome in
      (* The computing request swaps the slot for Ready (or removes it on
         failure); the last waiter of a failed flight need not clean up —
         the slot is already gone. *)
      Mutex.unlock t.lock;
      if t.counted then T.hit T.Requests_coalesced;
      (match outcome with
      | Value v -> (v, Coalesced)
      | Raised (e, bt) -> Printexc.raise_with_backtrace e bt)
  | None ->
      let fl = { outcome = None; waiters = 0 } in
      Hashtbl.replace t.table key (In_flight fl);
      Mutex.unlock t.lock;
      let result =
        match f () with
        | v -> Value v
        | exception e -> Raised (e, Printexc.get_raw_backtrace ())
      in
      Mutex.lock t.lock;
      fl.outcome <- Some result;
      (match result with
      | Value v when keep v ->
          t.clock <- t.clock + 1;
          Hashtbl.replace t.table key (Ready { value = v; stamp = t.clock });
          t.n_ready <- t.n_ready + 1;
          if t.n_ready > t.cap then evict_lru t
      | Value _ | Raised _ -> Hashtbl.remove t.table key);
      t.misses <- t.misses + 1;
      Condition.broadcast t.done_cond;
      Mutex.unlock t.lock;
      if t.counted then T.hit T.Cache_misses;
      (match result with
      | Value v -> (v, Miss)
      | Raised (e, bt) -> Printexc.raise_with_backtrace e bt)

let find t key =
  Mutex.lock t.lock;
  let r =
    match Hashtbl.find_opt t.table key with
    | Some (Ready r) ->
        touch t r;
        Some r.value
    | Some (In_flight _) | None -> None
  in
  Mutex.unlock t.lock;
  r

let remove t key =
  Mutex.lock t.lock;
  (match Hashtbl.find_opt t.table key with
  | Some (Ready _) ->
      Hashtbl.remove t.table key;
      t.n_ready <- t.n_ready - 1
  | Some (In_flight _) | None -> ());
  Mutex.unlock t.lock

let clear t =
  Mutex.lock t.lock;
  let keys =
    Hashtbl.fold
      (fun k s acc -> match s with Ready _ -> k :: acc | In_flight _ -> acc)
      t.table []
  in
  List.iter (Hashtbl.remove t.table) keys;
  t.n_ready <- 0;
  Mutex.unlock t.lock

type stats = {
  entries : int;
  capacity : int;
  hits : int;
  misses : int;
  coalesced : int;
  evictions : int;
}

let stats t =
  Mutex.lock t.lock;
  let s =
    {
      entries = t.n_ready;
      capacity = t.cap;
      hits = t.hits;
      misses = t.misses;
      coalesced = t.coalesced;
      evictions = t.evictions;
    }
  in
  Mutex.unlock t.lock;
  s
