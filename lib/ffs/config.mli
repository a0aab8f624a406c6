(** Configuration for the FFS-style baseline (SunOS 4.0.3's file system in
    the paper's tests: the BSD fast file system with 8 KB blocks). *)

type t = {
  block_size : int;  (** default 8 KB, as SunOS used in §5 *)
  ngroups : int;  (** cylinder groups *)
  inode_bytes_per_inode : int;
      (** bytes of data capacity per allocated inode (BSD newfs's -i);
          determines inodes per group *)
  cache_blocks : int;  (** file-cache capacity in blocks *)
  read_clustering : bool;
      (** coalesce physically contiguous blocks of a read request into
          one multi-block disk transfer *)
  readahead_blocks : int;
      (** sequential read-ahead window ceiling in blocks; 0 disables
          prefetching *)
  writeback_age_us : int;  (** delayed-write threshold (30 s) *)
}

val default : t
val small : t
(** Scaled down for unit tests (1 KB blocks, 4 groups). *)

val validate : t -> (unit, string) result
