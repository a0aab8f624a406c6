(** Block reads through the file cache.

    A read first consults the cache, then the active in-memory segment
    (blocks recently appended to the log may not have reached the disk
    yet), and finally the disk.  Disk reads are synchronous — the reader
    waits — and the block is inserted into the cache clean. *)

val key_data : inum:int -> blkno:int -> Lfs_cache.Block_cache.key
(** Cache key for a logical file block. *)

val key_raw : int -> Lfs_cache.Block_cache.key
(** Cache key for a by-address block (inode block, indirect block). *)

val in_active_segment : State.t -> int -> bool
(** Whether a block address falls inside the segment currently being
    assembled in memory. *)

val read_raw : State.t -> int -> bytes
(** Read the block at a disk address.  @raise Invalid_argument on the
    null address. *)

val fetch_file_block : State.t -> inum:int -> blkno:int -> addr:int -> bytes
(** Read a file's logical block stored at [addr] after a cache miss,
    caching it clean under the file key; there is no second lookup, so
    the miss counts once. *)

val sector_of_block : State.t -> int -> int
