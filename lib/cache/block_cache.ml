module Lru = Lfs_util.Lru
module Clock = Lfs_disk.Clock
module Bus = Lfs_obs.Bus
module Event = Lfs_obs.Event
module Metrics = Lfs_obs.Metrics

type key = { owner : int; blkno : int }

(* Dirty entries are also threaded, oldest first, on a circular doubly
   linked list through [older]/[newer] around the sentinel [t.dirty].
   An entry joins at the newest end when it becomes dirty and leaves
   when it stops being dirty or leaves the cache.  The simulated clock
   never runs backwards, so the list is ordered by [dirty_since_us] and
   the oldest dirty entry is the sentinel's [newer] neighbour.  A clean
   entry links to itself. *)
type entry = {
  data : bytes;
  mutable is_dirty : bool;
  mutable dirty_since_us : int;
  mutable older : entry;
  mutable newer : entry;
}

type t = {
  clock : Clock.t;
  bus : Bus.t option;
  entries : (key, entry) Lru.t;
  dirty : entry;  (** sentinel of the dirty list *)
  capacity : int;
  mutable ndirty : int;
  c_hits : Metrics.counter;
  c_misses : Metrics.counter;
  c_evictions : Metrics.counter;
  c_writebacks : Metrics.counter;
}

let make_entry data ~is_dirty ~since_us =
  let rec e =
    { data; is_dirty; dirty_since_us = since_us; older = e; newer = e }
  in
  e

(* Join the dirty list at its newest end. *)
let link_newest t e =
  let newest = t.dirty.older in
  e.older <- newest;
  e.newer <- t.dirty;
  newest.newer <- e;
  t.dirty.older <- e

let unlink e =
  e.older.newer <- e.newer;
  e.newer.older <- e.older;
  e.older <- e;
  e.newer <- e

let create ?(capacity_blocks = 4096) ?metrics ?bus clock =
  if capacity_blocks <= 0 then invalid_arg "Block_cache.create: capacity";
  let metrics =
    match metrics with Some m -> m | None -> Metrics.create ()
  in
  let t =
    {
      clock;
      bus;
      entries = Lru.create ();
      dirty = make_entry Bytes.empty ~is_dirty:false ~since_us:0;
      capacity = capacity_blocks;
      ndirty = 0;
      c_hits = Metrics.counter metrics "cache.hits";
      c_misses = Metrics.counter metrics "cache.misses";
      c_evictions = Metrics.counter metrics "cache.evictions";
      c_writebacks = Metrics.counter metrics "cache.writebacks";
    }
  in
  Metrics.gauge metrics "cache.blocks" (fun () ->
      float_of_int (Lru.length t.entries));
  Metrics.gauge metrics "cache.dirty_blocks" (fun () -> float_of_int t.ndirty);
  t

(* Allocate the event only when someone is listening. *)
let emit t mk =
  match t.bus with
  | Some bus when Bus.enabled bus -> Bus.emit bus (mk ())
  | Some _ | None -> ()

let capacity_blocks t = t.capacity
let length t = Lru.length t.entries
let dirty_count t = t.ndirty

let find t key =
  match Lru.find t.entries key with
  | Some e ->
      Metrics.incr t.c_hits;
      emit t (fun () ->
          Event.Cache_hit { owner = key.owner; blkno = key.blkno });
      Some e.data
  | None ->
      Metrics.incr t.c_misses;
      emit t (fun () ->
          Event.Cache_miss { owner = key.owner; blkno = key.blkno });
      None

let mem t key = Lru.mem t.entries key

let dirty t key =
  match Lru.peek t.entries key with Some e -> e.is_dirty | None -> false

(* Reclaim clean entries from the LRU side while over capacity.  Dirty
   entries are skipped: they are the write buffer and only write-back may
   release them.  [keep] protects the entry {!insert} just added — without
   it, a cache whose other entries are all dirty would evict the newcomer
   itself.  Sweeping from the cold end stops as soon as the excess is
   reclaimed, so the common insert pays O(1) instead of materializing the
   whole LRU list. *)
let evict_clean_keeping keep t =
  if Lru.length t.entries > t.capacity then begin
    let excess = ref (Lru.length t.entries - t.capacity) in
    Lru.sweep_lru
      (fun k e ->
        if !excess <= 0 then Lru.Stop
        else if e.is_dirty || keep = Some k then Lru.Keep
        else begin
          decr excess;
          Metrics.incr t.c_evictions;
          emit t (fun () ->
              Event.Cache_evict { owner = k.owner; blkno = k.blkno });
          Lru.Remove
        end)
      t.entries
  end

let evict_clean t = evict_clean_keeping None t

let insert t key ~dirty data =
  (match Lru.peek t.entries key with
  | Some old when old.is_dirty ->
      unlink old;
      t.ndirty <- t.ndirty - 1
  | Some _ | None -> ());
  let e =
    make_entry data ~is_dirty:dirty ~since_us:(Clock.now_us t.clock)
  in
  if dirty then begin
    link_newest t e;
    t.ndirty <- t.ndirty + 1
  end;
  ignore (Lru.add t.entries key e);
  evict_clean_keeping (Some key) t

let mark_dirty t key =
  match Lru.peek t.entries key with
  | None -> raise Not_found
  | Some e ->
      if not e.is_dirty then begin
        e.is_dirty <- true;
        e.dirty_since_us <- Clock.now_us t.clock;
        link_newest t e;
        t.ndirty <- t.ndirty + 1
      end

let mark_clean t key =
  match Lru.peek t.entries key with
  | None -> ()
  | Some e ->
      if e.is_dirty then begin
        e.is_dirty <- false;
        unlink e;
        t.ndirty <- t.ndirty - 1;
        Metrics.incr t.c_writebacks;
        emit t (fun () ->
            Event.Cache_writeback { owner = key.owner; blkno = key.blkno })
      end

let remove t key =
  match Lru.remove t.entries key with
  | None -> ()
  | Some e ->
      if e.is_dirty then begin
        unlink e;
        t.ndirty <- t.ndirty - 1
      end

let fold_dirty f t init =
  Lru.fold_lru
    (fun k e acc -> if e.is_dirty then f k e.data acc else acc)
    t.entries init

let dirty_keys t = List.rev (fold_dirty (fun k _ acc -> k :: acc) t [])

let oldest_dirty_age_us t =
  let oldest = t.dirty.newer in
  if oldest == t.dirty then -1
  else Clock.now_us t.clock - oldest.dirty_since_us

let over_capacity t = t.ndirty > t.capacity

let drop_clean t =
  Lru.sweep_lru
    (fun _ e -> if e.is_dirty then Lru.Keep else Lru.Remove)
    t.entries

let clear t =
  Lru.clear t.entries;
  unlink t.dirty;
  t.ndirty <- 0

let stats_hits t = Metrics.value t.c_hits
let stats_misses t = Metrics.value t.c_misses
let stats_evictions t = Metrics.value t.c_evictions
let stats_writebacks t = Metrics.value t.c_writebacks

let reset_stats t =
  Metrics.reset_counter t.c_hits;
  Metrics.reset_counter t.c_misses;
  Metrics.reset_counter t.c_evictions;
  Metrics.reset_counter t.c_writebacks
