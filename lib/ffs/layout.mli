(** On-disk layout of the FFS baseline.

    {v
    block 0   : superblock
    group 0   : [block bitmap][inode bitmap][inode table][data ...]
    group 1   : ...
    v}

    Inodes live at *fixed* disk locations — the defining difference from
    LFS.  Creating a file therefore writes the inode's table block (and
    the directory block) in place, synchronously and far from the data. *)

type t = {
  block_size : int;
  block_sectors : int;
  total_blocks : int;
  ngroups : int;
  group_blocks : int;  (** blocks per group *)
  inodes_per_group : int;
  bb_blocks : int;  (** block-bitmap blocks per group *)
  ib_blocks : int;  (** inode-bitmap blocks per group *)
  it_blocks : int;  (** inode-table blocks per group *)
  max_files : int;
}

val inode_bytes : int
val inodes_per_block : t -> int
val null_addr : int

val compute : Config.t -> Lfs_disk.Geometry.t -> (t, string) result

val sector_of_block : t -> int -> int
val group_first_block : t -> int -> int
val group_data_first : t -> int -> int
(** First data block of a group. *)

val group_of_block : t -> int -> int
val block_bitmap_block : t -> group:int -> idx:int -> int
val inode_bitmap_block : t -> group:int -> idx:int -> int

val inode_location : t -> int -> int * int
(** [inode_location t inum] is the (table-block address, slot) where the
    inode lives — fixed for all time.
    @raise Invalid_argument if out of range. *)

val group_of_inum : t -> int -> int

val encode_superblock : t -> bytes
val decode_superblock : bytes -> Lfs_disk.Geometry.t -> (t, string) result
val pp : Format.formatter -> t -> unit
