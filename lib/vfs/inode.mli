(** Inodes, one format for both file systems.

    LFS keeps the classic UNIX inode — attributes, 12 direct pointers,
    single and double indirect pointers (§4.2) — so reads work exactly
    as in FFS once the inode is found ({!Bmap} walks the pointers).  The
    systems differ only in where the access time lives: FFS keeps it in
    the 128-byte slot, so reading a file eventually rewrites its inode
    block; LFS keeps it in the inode map (paper, footnote 2), so its
    slots leave it out and its records ignore it.  A zeroed slot
    (inum 0) is empty. *)

type kind = Fs_intf.file_kind

type t = {
  inum : int;
  mutable kind : kind;
  mutable size : int;  (** bytes *)
  mutable nlink : int;
  mutable mtime_us : int;
  mutable atime_us : int;  (** 0 when decoded from a slot without it *)
  direct : int array;  (** [ndirect] block addresses, {!null_addr} = hole *)
  mutable indirect : int;
  mutable dindirect : int;
}

val ndirect : int
val null_addr : int
val slot_bytes : int

val create : inum:int -> kind:kind -> now_us:int -> t
(** An empty inode with [nlink = 1].
    @raise Invalid_argument if [inum <= 0]. *)

val nblocks : block_size:int -> t -> int
(** Data blocks implied by [size]. *)

val encode_into : atime:bool -> t -> bytes -> off:int -> unit
(** Write the slot at [off]; [~atime:true] keeps the access time. *)

val decode_at : atime:bool -> bytes -> off:int -> t option
(** [None] for an empty slot.
    @raise Lfs_util.Codec.Error on a bad kind tag or a short block. *)

val inum_at : bytes -> off:int -> int
(** A slot's inum, without decoding the rest. *)

val clear_slot : bytes -> off:int -> unit
