(** The inode map (§4.2.1).

    Maps every inode number to the current disk location of its inode
    (inode-block address plus slot), its allocation status, a version
    number bumped whenever the file is deleted or truncated to zero
    (§4.3), and the file's access time (paper, footnote 2).

    The map is partitioned into fixed-size blocks; modified blocks are
    written to the log during a checkpoint and their addresses recorded in
    the checkpoint region.  In memory the whole map is an array — the
    paper notes the blocks of active files stay resident anyway. *)

type t

val create : Layout.t -> t
(** All entries free, versions zero. *)

val max_files : t -> int
val count_allocated : t -> int

val alloc : t -> now_us:int -> int option
(** Allocate a free inode number ([None] when the map is full).  The
    entry's version survives from its previous life, so stale log blocks
    of a deleted predecessor never match. *)

val alloc_specific : t -> int -> now_us:int -> unit
(** Claim a specific inum (used for the root inode at format time and by
    roll-forward).  @raise Invalid_argument if out of range. *)

val free : t -> int -> unit
(** Release an inum, bumping its version. *)

val bump_version : t -> int -> unit
(** Truncate-to-zero also invalidates old log blocks (§4.2.1). *)

val is_allocated : t -> int -> bool
val version : t -> int -> int

val location : t -> int -> (int * int) option
(** [(inode-block address, slot)] of the inode's latest copy, or [None]
    if it has never been written to disk. *)

val addr_of : t -> int -> int
(** The inode-block address of {!location}, or [Layout.null_addr] when
    it is [None]; allocates nothing. *)

val located_at : t -> int -> addr:int -> slot:int -> bool
(** [location t inum = Some (addr, slot)], without allocating. *)

val set_location : t -> int -> addr:int -> slot:int -> unit

val atime_us : t -> int -> int
val set_atime_us : t -> int -> int -> unit

(** {1 Persistence} *)

val n_blocks : t -> int

val mark_block_dirty : t -> int -> unit
(** Force imap block [idx] to be rewritten at the next checkpoint (used by
    the cleaner when it evacuates a segment holding that block). *)

val next_hint : t -> int
val set_next_hint : t -> int -> unit
(** Allocation scan position, persisted in checkpoints. *)

val dirty_blocks : t -> int list
(** Indices of imap blocks modified since the last {!clear_dirty}. *)

val clear_dirty : t -> unit
val encode_block : t -> idx:int -> bytes
val load_block : t -> idx:int -> bytes -> unit
(** Replace entries of block [idx] from an on-disk image. *)
