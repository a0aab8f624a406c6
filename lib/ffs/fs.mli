(** The FFS-style baseline file system (SunOS's BSD fast file system as
    characterized in §3 of the paper).

    Same interface as {!Lfs_core.Fs} (both satisfy
    {!Lfs_vfs.Fs_intf.S}), but with update-in-place semantics:

    - inodes live at fixed addresses; creating or deleting a file writes
      the inode-table block and the directory block {e synchronously}
      (Figure 1's four synchronous writes for two files);
    - data blocks are allocated near their file at write time and written
      back in place (delayed, asynchronous) — small files land wherever
      their cylinder group has room, so write-back is random I/O;
    - no log, no cleaner, no checkpoints.  Crash recovery would be fsck's
      full-disk scan; it is not modelled. *)

type t

val name : string
val io : t -> Lfs_disk.Io.t

val format : Lfs_disk.Io.t -> Config.t -> (unit, string) result
val mount : ?config:Config.t -> Lfs_disk.Io.t -> (t, string) result
val unmount : t -> unit

val create : t -> string -> (unit, Lfs_vfs.Errors.t) result
val mkdir : t -> string -> (unit, Lfs_vfs.Errors.t) result
val delete : t -> string -> (unit, Lfs_vfs.Errors.t) result
val rename : t -> string -> string -> (unit, Lfs_vfs.Errors.t) result
val link : t -> string -> string -> (unit, Lfs_vfs.Errors.t) result
val readdir : t -> string -> (string list, Lfs_vfs.Errors.t) result
val stat : t -> string -> (Lfs_vfs.Fs_intf.stat, Lfs_vfs.Errors.t) result
val exists : t -> string -> bool
val write : t -> string -> off:int -> bytes -> (unit, Lfs_vfs.Errors.t) result
val read : t -> string -> off:int -> len:int -> (bytes, Lfs_vfs.Errors.t) result
val truncate : t -> string -> size:int -> (unit, Lfs_vfs.Errors.t) result
val sync : t -> unit
val fsync : t -> string -> (unit, Lfs_vfs.Errors.t) result
val flush_caches : t -> unit

(** {1 Introspection} *)

val config : t -> Config.t
val layout : t -> Layout.t
val free_blocks : t -> int

(** {1 Structural verification} *)

val fsck : t -> Lfs_vfs.Audit.issue list
(** Full structural verification of the live state: walk every
    allocated inode's block pointers checking ownership, cross-check
    the cylinder-group bitmaps against the reachable-block truth, and
    walk the namespace from the root validating entries, link counts,
    one name per directory and reachability ({!Lfs_vfs.Audit}).  Empty
    means sound. *)

val integrity : t -> string list
(** {!fsck} rendered with {!Lfs_vfs.Audit.pp_issue} — the {!Lfs_vfs.Fs_intf.S}
    sanitizer hook. *)

val repair : t -> string list
(** fsck-style crash repair, to run right after {!mount}ing a disk that
    was not cleanly unmounted: decode every inode-table slot, rebuild
    both cylinder-group bitmaps from the survivors, walk the namespace
    salvaging torn directory blocks and pruning dangling entries, fix
    link counts, release orphans, clear bogus block pointers, then sync.
    Returns one line per repair made; after it, {!fsck} is clean.

    This is the full-disk scan the paper contrasts with LFS's bounded
    roll-forward — its cost grows with the disk, not with the log tail.
    @raise Failure if the root inode itself did not survive. *)

(** {1 Checker/test support} *)

val root_inum : int

val alloc : t -> Alloc.t
(** The live allocator, exposed so corruption-injection tests can
    fabricate bitmap inconsistencies.  Not for normal use. *)

type entry
(** A loaded inode and its dirty flag. *)

val entry_of : t -> int -> entry
(** [inum]'s entry, loading its inode if needed.  Test support. *)

val block_map : (t, entry, int) Lfs_vfs.Bmap.store
(** The block-map store: pointer blocks are addressed, read and written
    in place through the cache.  Test support. *)

val inode_of : t -> int -> Lfs_vfs.Inode.t
(** The in-memory inode for [inum] (loading it if needed); raises
    [Lfs_vfs.Errors.Error Enoent] if unallocated.  Test support. *)

val dir_views : t -> Lfs_vfs.Dir.t
(** The mount's decoded directory blocks.  Test support. *)
