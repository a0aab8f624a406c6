module Clock = Lfs_disk.Clock
module Bus = Lfs_obs.Bus
module Event = Lfs_obs.Event
module Metrics = Lfs_obs.Metrics

type key = { owner : int; blkno : int }

(* The table is keyed by the key packed into one int, its owner above
   32 bits of block number, so a lookup by owner and block number builds
   no record.  Only keys that pack without loss are inserted (see
   {!check_packable}), and a lookup compares the entry's own key, so a
   key outside that range that packs onto a cached one misses.  Nothing
   iterates the table, so its bucket order never shows. *)
let pack owner blkno = (owner lsl 32) lor blkno

let check_packable key =
  if
    key.blkno < 0 || key.blkno > 0xFFFF_FFFF
    || key.owner < -(1 lsl 30)
    || key.owner >= 1 lsl 30
  then invalid_arg "Block_cache.insert: key out of range"

module Table = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal

  let hash p =
    let h = ((p asr 32) * 0x2545F491) + (p land 0xFFFF_FFFF) in
    h lxor (h lsr 17)
end)

(* Every entry is threaded on a circular doubly linked list through
   [up]/[down] around the sentinel [t.recent], in recency order: [up]
   is the next more recently used entry, [down] the next less recently
   used, so the sentinel's [up] is the least recently used entry and
   its [down] the most recently used.  A lookup moves its entry to the
   top; eviction walks up from the bottom.

   Dirty entries are also threaded, oldest first, on a circular doubly
   linked list through [older]/[newer] around the sentinel [t.dirty].
   An entry joins at the newest end when it becomes dirty and leaves
   when it stops being dirty or leaves the cache.  The simulated clock
   never runs backwards, so the list is ordered by [dirty_since_us] and
   the oldest dirty entry is the sentinel's [newer] neighbour.  A clean
   entry links to itself.

   Both lists live in the entries, so promoting, inserting, evicting
   and folding allocate nothing. *)
type entry = {
  key : key;
  mutable data : bytes;
  mutable is_dirty : bool;
  mutable dirty_since_us : int;
  mutable older : entry;
  mutable newer : entry;
  mutable up : entry;
  mutable down : entry;
}

(* How many block buffers the spare stack may hold beyond the cache's
   capacity.  The cache itself can overflow its capacity with dirty
   blocks; spares plus entries never exceed [capacity + spare_slack]. *)
let spare_slack = 64

type t = {
  clock : Clock.t;
  bus : Bus.t option;
  table : entry Table.t;
  recent : entry;  (** sentinel of the recency list *)
  dirty : entry;  (** sentinel of the dirty list *)
  capacity : int;
  mutable ndirty : int;
  mutable spares : bytes array;
      (** buffers of dropped clean entries, [nspares] of them at the
          bottom; grown on demand *)
  mutable nspares : int;
  c_hits : Metrics.counter;
  c_misses : Metrics.counter;
  c_evictions : Metrics.counter;
  c_writebacks : Metrics.counter;
}

let make_entry key data ~is_dirty ~since_us =
  let rec e =
    {
      key;
      data;
      is_dirty;
      dirty_since_us = since_us;
      older = e;
      newer = e;
      up = e;
      down = e;
    }
  in
  e

let sentinel () =
  make_entry { owner = 0; blkno = 0 } Bytes.empty ~is_dirty:false ~since_us:0

(* Join the dirty list at its newest end. *)
let link_newest t e =
  let newest = t.dirty.older in
  e.older <- newest;
  e.newer <- t.dirty;
  newest.newer <- e;
  t.dirty.older <- e

let unlink_dirty e =
  e.older.newer <- e.newer;
  e.newer.older <- e.older;
  e.older <- e;
  e.newer <- e

(* Join the recency list at the most recently used end. *)
let link_top t e =
  let top = t.recent.down in
  e.down <- top;
  e.up <- t.recent;
  top.up <- e;
  t.recent.down <- e

let unlink_recent e =
  e.up.down <- e.down;
  e.down.up <- e.up

let promote t e =
  if t.recent.down != e then begin
    unlink_recent e;
    link_top t e
  end

let create ?(capacity_blocks = 4096) ?metrics ?bus clock =
  if capacity_blocks <= 0 then invalid_arg "Block_cache.create: capacity";
  let metrics =
    match metrics with Some m -> m | None -> Metrics.create ()
  in
  let t =
    {
      clock;
      bus;
      table = Table.create 64;
      recent = sentinel ();
      dirty = sentinel ();
      capacity = capacity_blocks;
      ndirty = 0;
      spares = [||];
      nspares = 0;
      c_hits = Metrics.counter metrics "cache.hits";
      c_misses = Metrics.counter metrics "cache.misses";
      c_evictions = Metrics.counter metrics "cache.evictions";
      c_writebacks = Metrics.counter metrics "cache.writebacks";
    }
  in
  Metrics.gauge metrics "cache.blocks" (fun () ->
      float_of_int (Table.length t.table));
  Metrics.gauge metrics "cache.dirty_blocks" (fun () -> float_of_int t.ndirty);
  t

(* Allocate the event only when someone is listening.  Each [mk] below
   is a closed function, so a call site allocates no closure either. *)
let emit t mk key =
  match t.bus with
  | Some bus when Bus.enabled bus -> Bus.emit bus (mk key)
  | Some _ | None -> ()

let hit k = Event.Cache_hit { owner = k.owner; blkno = k.blkno }
let evicted k = Event.Cache_evict { owner = k.owner; blkno = k.blkno }
let written_back k = Event.Cache_writeback { owner = k.owner; blkno = k.blkno }

let capacity_blocks t = t.capacity
let length t = Table.length t.table
let dirty_count t = t.ndirty

(* The entry for [owner]/[blkno]. *)
let lookup t owner blkno =
  let e = Table.find t.table (pack owner blkno) in
  if e.key.owner = owner && e.key.blkno = blkno then e else raise Not_found

let find_block t ~owner ~blkno =
  match lookup t owner blkno with
  | e ->
      promote t e;
      Metrics.incr t.c_hits;
      emit t hit e.key;
      Some e.data
  | exception Not_found ->
      Metrics.incr t.c_misses;
      (match t.bus with
      | Some bus when Bus.enabled bus ->
          Bus.emit bus (Event.Cache_miss { owner; blkno })
      | Some _ | None -> ());
      None

let find t key = find_block t ~owner:key.owner ~blkno:key.blkno

let mem t key =
  match lookup t key.owner key.blkno with
  | _ -> true
  | exception Not_found -> false

let dirty t key =
  match lookup t key.owner key.blkno with
  | e -> e.is_dirty
  | exception Not_found -> false

let drop t e =
  Table.remove t.table (pack e.key.owner e.key.blkno);
  unlink_recent e;
  if e.is_dirty then begin
    unlink_dirty e;
    t.ndirty <- t.ndirty - 1
  end

let spare_limit t = t.capacity + spare_slack

(* Keep the buffer of a dropped clean entry for {!take}, unless spares
   and entries together already fill the limit.  The stack starts empty
   and doubles as it fills. *)
let recycle t data =
  let limit = spare_limit t in
  if t.nspares + Table.length t.table < limit then begin
    let n = t.nspares in
    if n = Array.length t.spares then begin
      let grown = Array.make (min limit (max 8 (2 * n))) Bytes.empty in
      Array.blit t.spares 0 grown 0 n;
      t.spares <- grown
    end;
    t.spares.(n) <- data;
    t.nspares <- n + 1
  end

let pop_spare t =
  let n = t.nspares - 1 in
  let data = t.spares.(n) in
  t.spares.(n) <- Bytes.empty;
  t.nspares <- n;
  data

let take t len =
  let n = t.nspares in
  if n > 0 && Bytes.length t.spares.(n - 1) = len then pop_spare t
  else Bytes.create len

(* Reclaim clean entries from the bottom of the recency list while over
   capacity.  Dirty entries are skipped: they are the write buffer and
   only write-back may release them.  [keep] protects the entry {!insert}
   just added — without it, a cache whose other entries are all dirty
   would evict the newcomer itself.  Sweeping from the cold end stops as
   soon as the excess is reclaimed, so the common insert pays O(1). *)
let rec sweep_excess t keep e excess =
  if excess > 0 && e != t.recent then begin
    let up = e.up in
    if e.is_dirty || e == keep then sweep_excess t keep up excess
    else begin
      drop t e;
      recycle t e.data;
      Metrics.incr t.c_evictions;
      emit t evicted e.key;
      sweep_excess t keep up (excess - 1)
    end
  end

let evict_clean_keeping keep t =
  sweep_excess t keep t.recent.up (Table.length t.table - t.capacity)

let evict_clean t = evict_clean_keeping t.recent t

(* A replaced entry keeps its record: it leaves the dirty list if it was
   on it, takes the new bytes and state, and moves to the top. *)
let insert t key ~dirty data =
  check_packable key;
  let now = Clock.now_us t.clock in
  let e =
    match lookup t key.owner key.blkno with
    | e ->
        if e.is_dirty then begin
          unlink_dirty e;
          t.ndirty <- t.ndirty - 1
        end;
        e.data <- data;
        e.is_dirty <- dirty;
        e.dirty_since_us <- now;
        promote t e;
        e
    | exception Not_found ->
        let e = make_entry key data ~is_dirty:dirty ~since_us:now in
        Table.add t.table (pack key.owner key.blkno) e;
        link_top t e;
        (* Dirty blocks can grow the cache past its capacity: a new
           entry then displaces a spare. *)
        if t.nspares > 0 && t.nspares + Table.length t.table > spare_limit t
        then ignore (pop_spare t : bytes);
        e
  in
  if dirty then begin
    link_newest t e;
    t.ndirty <- t.ndirty + 1
  end;
  evict_clean_keeping e t

let mark_dirty t key =
  let e = lookup t key.owner key.blkno in
  if not e.is_dirty then begin
    e.is_dirty <- true;
    e.dirty_since_us <- Clock.now_us t.clock;
    link_newest t e;
    t.ndirty <- t.ndirty + 1
  end

let mark_clean_block t ~owner ~blkno =
  match lookup t owner blkno with
  | exception Not_found -> ()
  | e ->
      if e.is_dirty then begin
        e.is_dirty <- false;
        unlink_dirty e;
        t.ndirty <- t.ndirty - 1;
        Metrics.incr t.c_writebacks;
        emit t written_back e.key
      end

let mark_clean t key = mark_clean_block t ~owner:key.owner ~blkno:key.blkno

let remove t key =
  match lookup t key.owner key.blkno with
  | exception Not_found -> ()
  | e -> drop t e

let rec fold_up f recent e acc =
  if e == recent then acc
  else fold_up f recent e.up (if e.is_dirty then f e.key e.data acc else acc)

let fold_dirty f t init = fold_up f t.recent t.recent.up init

let dirty_keys t = List.rev (fold_dirty (fun k _ acc -> k :: acc) t [])

let oldest_dirty_age_us t =
  let oldest = t.dirty.newer in
  if oldest == t.dirty then -1
  else Clock.now_us t.clock - oldest.dirty_since_us

let over_capacity t = t.ndirty > t.capacity

let rec drop_clean_from t e =
  if e != t.recent then begin
    let up = e.up in
    if not e.is_dirty then begin
      drop t e;
      recycle t e.data
    end;
    drop_clean_from t up
  end

let drop_clean t = drop_clean_from t t.recent.up

let clear t =
  Table.reset t.table;
  t.recent.up <- t.recent;
  t.recent.down <- t.recent;
  unlink_dirty t.dirty;
  t.ndirty <- 0;
  t.spares <- [||];
  t.nspares <- 0

let spare_count t = t.nspares

let stats_hits t = Metrics.value t.c_hits
let stats_misses t = Metrics.value t.c_misses

let reset_stats t =
  Metrics.reset_counter t.c_hits;
  Metrics.reset_counter t.c_misses;
  Metrics.reset_counter t.c_evictions;
  Metrics.reset_counter t.c_writebacks
