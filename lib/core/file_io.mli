(** LFS file data over the cache and block maps: the system's read-path
    backing and the pieces of truncation that are LFS's own.  The write
    and truncate loops are {!Lfs_vfs.Fs_ops}'s.

    Writes only touch the cache (dirty blocks); they reach the log when
    the write path flushes.  Reads prefer the cache, then the in-memory
    active segment, then the disk. *)

val backing : (State.t, State.itable_entry) Lfs_cache.File_read.backing

val free_block : State.t -> State.itable_entry -> int -> unit
(** Unmap one logical block and release its live bytes in the segment
    usage table. *)

val emptied : State.t -> int -> State.itable_entry -> unit
(** After a truncate to size 0: release the pointer blocks and bump the
    file's inode-map version, instantly invalidating its old log blocks
    for the cleaner (§4.2.1). *)
