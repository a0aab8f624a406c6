(** The file-system front end shared by LFS and FFS: the
    {!Fs_intf.S} operations, written once over a backing.

    LFS keeps the UNIX inode and directory structures and differs from
    FFS only in where and when blocks reach the disk (§4.1), so
    everything above that — the syscall envelope, the path walk, the
    namespace checks, the partial-block write loop and the truncate
    loop — lives here.  Each system supplies one constant {!backing}
    record of its own functions, as it does for {!Dir.backing} and
    {!Lfs_cache.File_read.backing}; the record holds only what differs.

    Every operation runs inside one envelope: its {!Lfs_obs.Profile}
    span, one {!Lfs_disk.Io.charge_syscall}, and [Errors.Error]
    returned as [Error _].  The front end issues no disk request and no
    clock charge of its own beyond that charge, the directory scans'
    lookup charges and the write's copy charge: each system's order of
    disk requests and clock charges is the one its backing's functions
    make, in the order documented on each operation.  Calls through the
    record allocate nothing. *)

type ('fs, 'file) backing = {
  file : ('fs, 'file) Lfs_cache.File_read.backing;
      (** The read path; also the front end's source for the state's
          [io], cache, block size, block map and fetch. *)
  dir : ('fs, 'file) Dir.backing;
      (** Directories; [dir.inode] is any file's inode, the same record
          on both systems, whose kind, link count, size and mtime the
          front end reads and sets directly ([persist] or [touch] records
          the change). *)
  root : int;  (** the root directory's inum *)
  find : 'fs -> int -> 'file;
      (** A file by inum, loading its inode if needed.
          @raise Errors.Error [Enoent] if unallocated, [Ecorrupt] if its
          slot does not decode. *)
  atime : 'fs -> int -> 'file -> int;
      (** LFS keeps access times in the inode map (paper, footnote 2),
          FFS in the inode. *)
  set_atime : 'fs -> int -> 'file -> int -> unit;
  max_size : 'fs -> int;  (** bytes a file may hold *)
  alloc_inode : 'fs -> dir:'file -> Fs_intf.file_kind -> int;
      (** Allocate, register and persist a fresh inode of this kind for
          a new entry of [dir]; returns its inum.
          @raise Errors.Error [Enospc] when no inum is free. *)
  free_inode : 'fs -> int -> 'file -> unit;
      (** Free a file whose last name is gone: its blocks, its inode and
          its inum. *)
  persist : 'fs -> 'file -> unit;
      (** Record an inode change at once: LFS marks the inode dirty; FFS
          writes its table block synchronously, which keeps Figure 1's
          inode-then-directory order. *)
  touch : 'fs -> 'file -> unit;
      (** Record an inode change for delayed write-back. *)
  claim : ('fs -> 'file -> int -> int) option;
      (** [Some f]: [f fs file blkno] runs for every block a write
          touches, before the cache is consulted, and returns the
          address a cold partial write reads the block's old bytes from
          ([file.null_addr] for zeros).  FFS allocates the block here,
          since an update-in-place block needs its address before
          write-back.  [None] (LFS): blocks get addresses when the log
          is written, and a cold partial write maps its block through
          [file.bmap] after the cache miss. *)
  free_block : 'fs -> 'file -> int -> unit;
      (** Unmap one logical block past a truncation point and release
          its space (LFS: usage accounting; FFS: the pointer and the
          block bitmap).  The front end then drops it from the cache. *)
  emptied : 'fs -> int -> 'file -> unit;
      (** After a truncate to size 0.  LFS releases the pointer blocks
          and bumps the file's version, so the cleaner can dismiss its
          old blocks from the summary alone (§4.2.1). *)
  housekeep : 'fs -> can_fail:bool -> unit;
      (** The system's triggers on the way out of an operation.  With
          [can_fail:false] (read, delete, truncate) running out of space
          must not fail the operation. *)
}

(** {1 Operations}

    Each runs in the envelope described above; errors are the
    {!Errors.t} named. *)

val create : ('fs, 'file) backing -> 'fs -> string -> (unit, Errors.t) result
(** Resolve the parent, check the name is free ([Eexist]), then
    [alloc_inode] and add the entry. *)

val mkdir : ('fs, 'file) backing -> 'fs -> string -> (unit, Errors.t) result

val delete : ('fs, 'file) backing -> 'fs -> string -> (unit, Errors.t) result
(** Remove the entry ([Enoent], [Enotempty]), then drop a link (the
    inode's nlink and mtime, then [persist]) or [free_inode]. *)

val rename :
  ('fs, 'file) backing -> 'fs -> string -> string -> (unit, Errors.t) result
(** [Einval] for a move beneath itself (checked before any lookup),
    [Enoent] for a missing source, [Eexist] for a taken destination;
    then remove the old entry and add the new one. *)

val link :
  ('fs, 'file) backing -> 'fs -> string -> string -> (unit, Errors.t) result
(** [Eisdir] for a directory source, [Eexist] for a taken destination;
    then raise the link count, [persist], and add the entry. *)

val readdir :
  ('fs, 'file) backing -> 'fs -> string -> (string list, Errors.t) result

val stat : ('fs, 'file) backing -> 'fs -> string -> (Fs_intf.stat, Errors.t) result

val exists : ('fs, 'file) backing -> 'fs -> string -> bool
(** Path resolution alone: no span, no syscall charge. *)

val write :
  ('fs, 'file) backing -> 'fs -> string -> off:int -> bytes -> (unit, Errors.t) result
(** Bounds ([Einval]) before the path, [Eisdir], [Efbig]; then one chunk
    per block: a whole block is inserted dirty, a partial one blitted
    into the cached block, or read-modify-written from its old bytes
    when not cached.  Then size, mtime, [touch], one copy charge. *)

val read :
  ('fs, 'file) backing -> 'fs -> string -> off:int -> len:int -> (bytes, Errors.t) result
(** Bounds ([Einval]) before the path, [Eisdir]; then
    {!Lfs_cache.File_read.read} and [set_atime]. *)

val truncate :
  ('fs, 'file) backing -> 'fs -> string -> size:int -> (unit, Errors.t) result
(** Bounds ([Einval], [Efbig]) before the path, [Eisdir]; on a shrink,
    [free_block] and a cache drop for every block past the new end, the
    tail of a now-partial last block zeroed, and [emptied] at size 0.
    Then size, mtime, [touch]. *)

(** {1 Pieces for the per-system operations} *)

val syscall :
  ('fs, 'file) backing -> 'fs -> Lfs_obs.Profile.op -> (unit -> 'a) -> 'a
(** The span and the syscall charge around [f], without the result
    wrap ([sync]). *)

val fsync :
  ('fs, 'file) backing -> 'fs -> string -> (int -> unit) -> (unit, Errors.t) result
(** The envelope and the path walk around a system's fsync body, given
    the file's inum. *)

val iter_parents : ('fs, 'file) backing -> 'fs -> string -> (int -> unit) -> unit
(** [iter_parents b fs path f] calls [f] on each directory from the root
    down to [path]'s parent, looking the next one up after [f] returns;
    it stops early at a missing name, and does nothing for ["/"]. *)
