(** Inodes.

    LFS keeps the classic UNIX inode format — attributes plus 12 direct
    block pointers and single/double indirect pointers (§4.2) — so reads
    work exactly as in FFS once the inode is found.  The only departure
    from BSD is that the access time lives in the inode map (paper,
    footnote 2), so reading a file never rewrites its inode.

    Inodes are packed into inode blocks ({!Layout.inodes_per_block} per
    block) that are written to the log like any other block; a zeroed slot
    (inum 0) is empty. *)

type kind = Lfs_vfs.Fs_intf.file_kind

type t = {
  inum : int;
  mutable kind : kind;
  mutable size : int;  (** bytes *)
  mutable nlink : int;
  mutable mtime_us : int;
  direct : int array;  (** [ndirect] block addresses; {!Layout.null_addr} = hole *)
  mutable indirect : int;  (** address of the single-indirect pointer block *)
  mutable dindirect : int;  (** address of the double-indirect top block *)
}

val ndirect : int

val create : inum:int -> kind:kind -> now_us:int -> t
(** A fresh empty inode with [nlink = 1].
    @raise Invalid_argument if [inum <= 0]. *)

val nblocks : block_size:int -> t -> int
(** Number of data blocks implied by [size]. *)

val max_size : Layout.t -> int
(** Largest representable file (direct + single + double indirect). *)

val encode_into : t -> bytes -> off:int -> unit
(** Write the fixed {!Layout.inode_bytes}-byte representation at [off]. *)

val decode_at : bytes -> off:int -> t option
(** [None] for an empty slot. *)

val inum_at : bytes -> off:int -> int
(** The inum of the slot at [off] (0 for an empty slot), read without
    decoding the rest of the slot. *)

val copy : t -> t
