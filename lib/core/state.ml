(** Shared mutable state of a mounted LFS instance.

    This module only declares the record types threaded through the
    operational modules ({!Block_io}, {!Inode_store}, {!Segwriter},
    {!Write_path}, {!File_io}, {!Namespace}, {!Cleaner}, {!Recovery});
    behaviour lives there.  The public face of the library is {!Fs}. *)

module Bitset = Lfs_util.Bitset
module Metrics = Lfs_obs.Metrics
module Bus = Lfs_obs.Bus

(** Cache-owner conventions.  Real files use their (positive) inum;
    by-address blocks (inode blocks, indirect blocks read from disk) use
    {!owner_raw} with the disk address as the block number. *)
let owner_raw = -3

(** In-memory view of one file: the inode plus lazily-loaded pointer
    maps.  The maps mirror the on-disk indirect blocks; dirty flags say
    which of them must be rewritten to the log at the next flush. *)
type itable_entry = {
  ino : Lfs_vfs.Inode.t;
  mutable ino_dirty : bool;
  mutable ind_map : int array;
      (** single-indirect pointers; [[||]] until loaded or created *)
  mutable ind_dirty : bool;
  mutable dind_top : int array;  (** double-indirect child addresses *)
  mutable dind_top_dirty : bool;
  mutable dind_children : int array array;
      (** parsed double-indirect children (each [[||]] until loaded; the
          array itself empty until the file grows past the single-indirect
          range) *)
  mutable dind_child_dirty : Bitset.t;
}

(** The segment being assembled in memory (§4.1).  [seg = -1] means no
    segment is currently active. *)
type segbuf = {
  mutable seg : int;
  mutable buf : bytes;
      (** [segment_size] bytes: the summary region, whose entries are
          written as blocks are appended and sealed at flush, then the
          payload *)
  mutable nblocks : int;  (** payload blocks filled *)
}

type lfs_stats = {
  mutable segments_written : int;
  mutable partial_segments : int;
  mutable blocks_logged : int;  (** payload blocks appended to the log *)
  mutable segments_cleaned : int;
  mutable cleaner_bytes_read : int;
  mutable cleaner_bytes_moved : int;
  mutable cleaner_passes : int;
  mutable checkpoints : int;
  mutable rollforward_segments : int;
}

(* The registry counters behind {!lfs_stats}.  Operational modules bump
   these; the record above is only a compatibility view. *)
type lfs_counters = {
  c_segments_written : Metrics.counter;
  c_partial_segments : Metrics.counter;
  c_blocks_logged : Metrics.counter;
  c_segments_cleaned : Metrics.counter;
  c_cleaner_bytes_read : Metrics.counter;
  c_cleaner_bytes_moved : Metrics.counter;
  c_cleaner_passes : Metrics.counter;
  c_checkpoints : Metrics.counter;
  c_rollforward_segments : Metrics.counter;
}

(** Write privilege: [`User] writes may not consume the reserve segments
    (so the cleaner always has room to work); [`System] writes (cleaner,
    checkpoint) may. *)
type privilege = [ `User | `System ]

type t = {
  io : Lfs_disk.Io.t;
  config : Config.t;
  layout : Layout.t;
  cache : Lfs_cache.Block_cache.t;
  readahead : Lfs_cache.Readahead.t;
  imap : Imap.t;
  usage : Seg_usage.t;
  itable : itable_entry option array;
      (** indexed by inum, [max_files] slots, [None] where not loaded *)
  mutable itable_loaded : int;  (** filled slots of [itable] *)
  dirty_inums : Bitset.t;  (** inums with a dirty flag raised, and stale bits *)
  dirs : Lfs_vfs.Dir.t;
  seg : segbuf;
  mutable next_seq : int;  (** sequence number for the next segment write *)
  mutable tail_segment : int;  (** last segment written; -1 if none *)
  mutable imap_block_addr : int array;
  mutable usage_block_addr : int array;
  mutable last_checkpoint_us : int;
  mutable last_cp_seq : int;
      (** highest segment sequence number covered by an on-disk
          checkpoint region; roll-forward starts after it *)
  mutable cp_flip : bool;  (** next checkpoint goes to region B *)
  mutable cleaning : bool;  (** re-entrancy guard for the cleaner *)
  mutable victim_summary : bytes;
  mutable victim_payload : bytes;
  mutable flushing : bool;  (** re-entrancy guard for the write path *)
  mutable policy : Config.policy;  (** runtime-adjustable cleaning policy *)
  mutable auto_clean : bool;  (** runtime-adjustable *)
  metrics : Metrics.t;  (** the I/O stack's shared registry *)
  bus : Bus.t;  (** the I/O stack's trace bus *)
  counters : lfs_counters;
}

let root_inum = 1

let create io config layout =
  let metrics = Lfs_disk.Io.metrics io in
  (* A mount starts its operation counters from zero even when the
     underlying io is reused (remount), matching the old per-mount
     [lfs_stats] record.  Registration is get-or-create, so the registry
     keeps one set of [lfs.*] instruments across remounts. *)
  Metrics.reset_prefix metrics "lfs.";
  let counters =
    {
      c_segments_written = Metrics.counter metrics "lfs.segments_written";
      c_partial_segments = Metrics.counter metrics "lfs.partial_segments";
      c_blocks_logged = Metrics.counter metrics "lfs.blocks_logged";
      c_segments_cleaned = Metrics.counter metrics "lfs.segments_cleaned";
      c_cleaner_bytes_read = Metrics.counter metrics "lfs.cleaner_bytes_read";
      c_cleaner_bytes_moved = Metrics.counter metrics "lfs.cleaner_bytes_moved";
      c_cleaner_passes = Metrics.counter metrics "lfs.cleaner_passes";
      c_checkpoints = Metrics.counter metrics "lfs.checkpoints";
      c_rollforward_segments =
        Metrics.counter metrics "lfs.rollforward_segments";
    }
  in
  let usage = Seg_usage.create layout in
  Metrics.gauge metrics "lfs.clean_segments" (fun () ->
      float_of_int (Seg_usage.nclean usage));
  Metrics.gauge metrics "lfs.live_bytes" (fun () ->
      float_of_int (Seg_usage.total_live_bytes usage));
  {
    io;
    config;
    layout;
    cache =
      Lfs_cache.Block_cache.create ~capacity_blocks:config.Config.cache_blocks
        ~metrics ~bus:(Lfs_disk.Io.bus io)
        (Lfs_disk.Io.clock io);
    readahead =
      Lfs_cache.Readahead.create ~max_window:config.Config.readahead_blocks
        metrics;
    imap = Imap.create layout;
    usage;
    itable = Array.make layout.Layout.max_files None;
    itable_loaded = 0;
    dirty_inums = Bitset.create layout.Layout.max_files;
    dirs = Lfs_vfs.Dir.create ~io ~block_size:layout.Layout.block_size;
    seg =
      {
        seg = -1;
        buf = Bytes.create (layout.Layout.seg_blocks * layout.Layout.block_size);
        nblocks = 0;
      };
    next_seq = 1;
    tail_segment = -1;
    imap_block_addr = Array.make layout.Layout.n_imap_blocks Layout.null_addr;
    usage_block_addr = Array.make layout.Layout.n_usage_blocks Layout.null_addr;
    last_checkpoint_us = 0;
    last_cp_seq = 0;
    cp_flip = false;
    cleaning = false;
    victim_summary = Bytes.empty;
    victim_payload = Bytes.empty;
    flushing = false;
    policy = config.Config.policy;
    auto_clean = config.Config.auto_clean;
    metrics;
    bus = Lfs_disk.Io.bus io;
    counters;
  }

(** Build the compatibility [lfs_stats] view from the registry counters. *)
let stats_view t =
  let v c = Metrics.value c in
  {
    segments_written = v t.counters.c_segments_written;
    partial_segments = v t.counters.c_partial_segments;
    blocks_logged = v t.counters.c_blocks_logged;
    segments_cleaned = v t.counters.c_segments_cleaned;
    cleaner_bytes_read = v t.counters.c_cleaner_bytes_read;
    cleaner_bytes_moved = v t.counters.c_cleaner_bytes_moved;
    cleaner_passes = v t.counters.c_cleaner_passes;
    checkpoints = v t.counters.c_checkpoints;
    rollforward_segments = v t.counters.c_rollforward_segments;
  }

let fresh_itable_entry ino =
  {
    ino;
    ino_dirty = false;
    ind_map = [||];
    ind_dirty = false;
    dind_top = [||];
    dind_top_dirty = false;
    dind_children = [||];
    dind_child_dirty = Bitset.create 0;
  }
