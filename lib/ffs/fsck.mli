(** File system check for the FFS baseline — the crash-recovery story the
    paper contrasts LFS against ("the UNIX file system must scan the
    entire disk after a crash to repair damage").

    [run] operates on the raw device, exactly like fsck after a crash:
    read the superblock, scan every inode-table block, walk every block
    pointer (including indirect blocks and every directory block),
    rebuild the block bitmaps from scratch, walk the directory tree for
    connectivity, and compare with the on-disk block bitmaps.  Every step goes through
    the simulated disk, so [elapsed_us] is the honest simulated cost of
    an FFS recovery — compared against LFS's checkpoint read in the
    recovery benchmark. *)

type report = {
  inodes_scanned : int;
  blocks_referenced : int;
  directories_walked : int;
  orphan_inodes : int;  (** allocated inodes unreachable from the root *)
  bad_inodes : int;
      (** inode-table slots that do not decode (a bad kind tag, say):
          reported here rather than raised, and walked no further *)
  bitmap_errors : int;  (** on-disk bitmap bits that disagree with reality *)
  elapsed_us : int;  (** simulated time the scan cost *)
}

val run : Lfs_disk.Io.t -> (report, string) result
(** @return [Error _] if the superblock is unreadable. *)

