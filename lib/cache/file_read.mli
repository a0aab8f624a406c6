(** The file read path shared by both file systems: the cache-first read
    loop, clustered miss runs and sequential read-ahead.

    A read serves each block from the cache when it can.  On a miss it
    maps the block and, with read clustering on, probes forward for a
    run of logical blocks at physically consecutive addresses that are
    neither cached (a dirty cached block must never be clobbered with
    stale disk data) nor unreadable from disk yet; the run is fetched in
    one multi-block disk request, every block cached clean, and the
    blocks of the run that the read covers are taken from it without a
    second cache lookup.  After the loop the file's {!Readahead} stream
    is told which blocks were read, and any window it plans is fetched
    the same way: holes, cached blocks and unreadable blocks skipped, the
    rest in contiguous runs.  Every block of a read is reported to
    {!Readahead.served} exactly once, as a hit or a miss.  Simulated
    costs are the disk requests themselves plus one
    {!Lfs_disk.Io.charge_copy} of the bytes returned. *)

(** What a file system supplies: its state's cache, read-ahead planner
    and disk, its block map, and its two trace spans.  A file system
    defines one constant record of its own functions. *)
type ('fs, 'file) backing = {
  io : 'fs -> Lfs_disk.Io.t;
  cache : 'fs -> Block_cache.t;
  readahead : 'fs -> Readahead.t;
  block_size : 'fs -> int;
  clustering : 'fs -> bool;  (** read clustering on *)
  size : 'file -> int;  (** file size in bytes *)
  null_addr : int;  (** what {!bmap} gives for a hole *)
  bmap : 'fs -> 'file -> int -> int;  (** logical block -> disk block *)
  on_disk : 'fs -> int -> bool;
      (** Whether the block at this address can be read from the disk
          yet (LFS: not in the segment still being assembled). *)
  fetch : 'fs -> inum:int -> blkno:int -> addr:int -> bytes;
      (** One block after a cache miss, cached clean, with no second
          cache lookup. *)
  sector_of_block : 'fs -> int -> int;
  fill_span : Lfs_obs.Bus.t -> (unit -> bytes array) -> bytes array;
      (** Wraps the disk work of one read miss in the system's span. *)
  prefetch_span : Lfs_obs.Bus.t -> (unit -> unit) -> unit;
      (** Wraps one read-ahead run in the system's span. *)
}

val read :
  ('fs, 'file) backing -> 'fs -> 'file -> inum:int -> off:int -> len:int -> bytes
(** Up to [len] bytes of file [inum] at [off], short at end of file;
    holes read as zeros.  The caller has checked the bounds. *)
