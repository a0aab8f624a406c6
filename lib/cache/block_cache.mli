(** The file cache.

    Both file systems keep their blocks here.  For LFS the cache is the
    heart of the design: it is the write buffer that absorbs bursts of
    small writes and turns them into segment-sized transfers (§4.1), and
    its dirty-block population drives the three segment-write triggers of
    §4.3.5 (cache full, age threshold, sync).

    Blocks are keyed by [(owner, blkno)] where [owner] is a file's inode
    number or a file-system-reserved pseudo-file (LFS uses negative owners
    for the inode map and segment usage array).  Entries hold the block
    bytes directly; callers mutate them in place and then call
    {!mark_dirty}.

    Dirty entries are never evicted — the file system must write them back
    (and {!mark_clean} them) first.  [insert] therefore only reclaims clean
    entries; when the cache overflows with dirty data, {!over_capacity}
    turns true and the file system is expected to flush. *)

type t

type key = { owner : int; blkno : int }

val create :
  ?capacity_blocks:int ->
  ?metrics:Lfs_obs.Metrics.t ->
  ?bus:Lfs_obs.Bus.t ->
  Lfs_disk.Clock.t ->
  t
(** [create ~capacity_blocks clock] — default capacity: 4096 blocks
    (16 MB of 4 KB blocks, matching the ~15 MB cache in the paper's
    tests).

    [metrics] registers the [cache.*] counters and gauges there (a
    private registry otherwise); [bus] publishes
    [Cache_{hit,miss,evict,writeback}] trace events (silent
    otherwise). *)

val capacity_blocks : t -> int
val length : t -> int
val dirty_count : t -> int

val find : t -> key -> bytes option
(** Lookup, promoting the entry to most recently used.  The returned bytes
    are the cache's own buffer: mutate then {!mark_dirty}, and do not hold
    the reference across an eviction point. *)

val mem : t -> key -> bool
val dirty : t -> key -> bool

val insert : t -> key -> dirty:bool -> bytes -> unit
(** Insert or replace a block, then reclaim clean LRU entries while over
    capacity.  The just-inserted block is never chosen as a victim, even
    when every other entry is dirty. *)

val mark_dirty : t -> key -> unit
(** @raise Not_found if the key is absent. *)

val mark_clean : t -> key -> unit
(** Called by write-back once the block is on disk (or queued to a
    segment).  No-op if absent. *)

val remove : t -> key -> unit
(** Drop an entry regardless of dirtiness (file deletion/truncation). *)

val fold_dirty : (key -> bytes -> 'a -> 'a) -> t -> 'a -> 'a
(** Fold over dirty entries in least-recently-used-first order, so
    write-back naturally drains the oldest data. *)

val dirty_keys : t -> key list
(** Dirty keys, least recently used first. *)

val oldest_dirty_age_us : t -> int
(** Age of the longest-dirty entry, for the 30-second write-back
    trigger; [-1] when nothing is dirty.  O(1) and allocation-free: the
    dirty entries are kept in the order they became dirty, so this reads
    only the oldest one.  A dirty re-{!insert} restarts an entry's age;
    {!mark_dirty} on an already dirty entry keeps it. *)

val over_capacity : t -> bool
(** True when dirty blocks alone keep the cache above capacity. *)

val evict_clean : t -> unit
(** Reclaim clean LRU entries while over capacity (also runs inside
    {!insert}). *)

val drop_clean : t -> unit
(** Drop every clean entry — the paper's "file cache was flushed" between
    benchmark phases, without touching unwritten data. *)

val clear : t -> unit

val stats_hits : t -> int
val stats_misses : t -> int
(** [find] hit/miss counters (a miss is a [find] returning [None]). *)

val reset_stats : t -> unit
(** Zero hit/miss/eviction/write-back counters, mirroring
    [Disk.reset_stats]. *)
