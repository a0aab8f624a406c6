(** The file cache.

    Both file systems keep their blocks here.  For LFS the cache is the
    heart of the design: it is the write buffer that absorbs bursts of
    small writes and turns them into segment-sized transfers (§4.1), and
    its dirty-block population drives the three segment-write triggers of
    §4.3.5 (cache full, age threshold, sync).

    Blocks are keyed by [(owner, blkno)] where [owner] is a file's inode
    number or a file-system-reserved pseudo-file (LFS uses negative owners
    for the inode map and segment usage array); an owner lies in
    [-2^30 .. 2^30 - 1] and a block number in [0 .. 2^32 - 1].  Entries
    hold the block bytes directly; callers mutate them in place and then
    call {!mark_dirty}.

    The cache owns the buffers of its clean blocks.  When eviction or
    {!drop_clean} drops a clean entry, its buffer goes on a spare stack,
    and {!take} hands it out again for the next block read in or written
    whole, so a full cache reads and writes without allocating a block
    each.  A buffer returned by {!find} or given to {!insert} may
    therefore hold another block's bytes once its entry is evicted or
    dropped: read it before the next call that can evict or drop (an
    {!insert}, {!evict_clean} or {!drop_clean}), and never insert it
    again.  Spares never take spares plus entries past the capacity
    plus a small fixed slack; entries beyond that (dirty overflow)
    displace spares.

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
    the reference across an eviction point — once evicted, the buffer
    may be handed out again by {!take} and overwritten. *)

val find_block : t -> owner:int -> blkno:int -> bytes option
(** {!find} without building a {!key}. *)

val mem : t -> key -> bool
val dirty : t -> key -> bool

val insert : t -> key -> dirty:bool -> bytes -> unit
(** Insert or replace a block, then reclaim clean LRU entries while over
    capacity.  The just-inserted block is never chosen as a victim, even
    when every other entry is dirty.  The cache keeps [data] itself; once
    the entry is evicted or dropped clean, the buffer may be reused for
    another block.
    @raise Invalid_argument if the key's owner or block number is out of
    range. *)

val take : t -> int -> bytes
(** [take t len] is a spare buffer of [len] bytes left by an evicted or
    dropped clean entry, or a fresh one ([Bytes.create]) when no spare
    of that length is on top of the stack.  Its contents are arbitrary:
    the caller fills it whole, typically before {!insert}ing it. *)

val mark_dirty : t -> key -> unit
(** @raise Not_found if the key is absent. *)

val mark_clean : t -> key -> unit
(** Called by write-back once the block is on disk (or queued to a
    segment).  No-op if absent. *)

val mark_clean_block : t -> owner:int -> blkno:int -> unit
(** {!mark_clean} without building a {!key}. *)

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
(** Drop every entry and every spare buffer. *)

val spare_count : t -> int
(** Spare buffers waiting for {!take}. *)

val stats_hits : t -> int
val stats_misses : t -> int
(** [find] hit/miss counters (a miss is a [find] returning [None]). *)

val reset_stats : t -> unit
(** Zero hit/miss/eviction/write-back counters, mirroring
    [Disk.reset_stats]. *)
