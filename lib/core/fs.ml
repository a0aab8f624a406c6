module Inode = Lfs_vfs.Inode
module Cache = Lfs_cache.Block_cache
module Errors = Lfs_vfs.Errors
module Fs_intf = Lfs_vfs.Fs_intf
module Fs_ops = Lfs_vfs.Fs_ops
module Io = Lfs_disk.Io

type t = State.t

let name = "LFS"
let io (st : t) = st.io
let config (st : t) = st.config
let layout (st : t) = st.layout
let stats (st : t) = State.stats_view st

(* Flush user data, alternating with cleaning passes whenever the log
   runs out of clean segments.  Raises [Enospc] only when the cleaner can
   no longer free anything (the disk is genuinely full of live data). *)
let rec flush_user (st : t) =
  try Write_path.flush_data st ~privilege:`User
  with Errors.Error Errors.Enospc ->
    (* Retry only if cleaning netted segments above the reserve —
       otherwise flushing would fail identically and loop forever. *)
    if
      Cleaner.clean_to_target st > 0
      && Seg_usage.nclean st.usage > st.config.Config.reserve_segments
    then flush_user st
    else Errors.raise_ Errors.Enospc

(* Checkpoints outside the cleaner run at user privilege so they can
   never starve the cleaner of reserve segments; they too alternate with
   cleaning passes when space is tight. *)
let rec checkpoint_user (st : t) =
  try Write_path.checkpoint ~privilege:`User st
  with Errors.Error Errors.Enospc ->
    if
      Cleaner.clean_to_target st > 0
      && Seg_usage.nclean st.usage > st.config.Config.reserve_segments
    then checkpoint_user st
    else Errors.raise_ Errors.Enospc

(* The triggers of §4.3.5 plus periodic checkpointing, checked on the way
   out of every operation.  With [can_fail:false] (read-only operations
   and deletes) an out-of-space flush leaves the data buffered in the
   cache instead of failing the operation. *)
let housekeep (st : t) ~can_fail =
  let attempt f = if can_fail then f () else try f () with Errors.Error Errors.Enospc -> () in
  if
    st.auto_clean && (not st.cleaning)
    && Seg_usage.nclean st.usage < st.config.Config.clean_threshold_segments
  then attempt (fun () -> ignore (Cleaner.clean_to_target st));
  if Cache.over_capacity st.cache && not st.flushing then
    attempt (fun () -> flush_user st);
  let age = Cache.oldest_dirty_age_us st.cache in
  if age >= 0 && age >= st.config.Config.writeback_age_us && not st.flushing
  then
    attempt (fun () ->
        flush_user st;
        Segwriter.flush_active st);
  if
    Io.now_us st.io - st.last_checkpoint_us
    >= st.config.Config.checkpoint_interval_us
    && not st.cleaning
  then attempt (fun () -> checkpoint_user st)

let ops : (t, State.itable_entry) Fs_ops.backing =
  {
    file = File_io.backing;
    dir = Namespace.backing;
    root = State.root_inum;
    find = Inode_store.find;
    atime = (fun st inum _ -> Imap.atime_us st.imap inum);
    set_atime = (fun st inum _ us -> Imap.set_atime_us st.imap inum us);
    max_size =
      (fun st ->
        Lfs_vfs.Bmap.max_size ~block_size:st.layout.Layout.block_size);
    alloc_inode =
      (fun st ~dir:_ kind ->
        let now = Io.now_us st.io in
        let inum =
          match Imap.alloc st.imap ~now_us:now with
          | Some i -> i
          | None -> Errors.raise_ Errors.Enospc
        in
        ignore (Inode_store.add_new st (Inode.create ~inum ~kind ~now_us:now));
        inum);
    free_inode = (fun st inum _ -> Inode_store.delete st inum);
    persist = Inode_store.mark_dirty;
    touch = Inode_store.mark_dirty;
    claim = None;
    free_block = File_io.free_block;
    emptied = File_io.emptied;
    housekeep;
  }

let create st path = Fs_ops.create ops st path
let mkdir st path = Fs_ops.mkdir ops st path
let delete st path = Fs_ops.delete ops st path
let rename st src dst = Fs_ops.rename ops st src dst
let link st src dst = Fs_ops.link ops st src dst
let write st path ~off data = Fs_ops.write ops st path ~off data
let read st path ~off ~len = Fs_ops.read ops st path ~off ~len
let truncate st path ~size = Fs_ops.truncate ops st path ~size
let stat st path = Fs_ops.stat ops st path
let readdir st path = Fs_ops.readdir ops st path
let exists st path = Fs_ops.exists ops st path

let sync (st : t) =
  Fs_ops.syscall ops st `Sync @@ fun () ->
  let rec attempt () =
    try Write_path.sync st ~privilege:`User
    with Errors.Error Errors.Enospc ->
      (* Try to make room; if the disk is genuinely full the dirty data
         stays buffered — there is nowhere to put it. *)
      if
        Cleaner.clean_to_target st > 0
        && Seg_usage.nclean st.usage > st.config.Config.reserve_segments
      then attempt ()
  in
  attempt ()

let fsync (st : t) path =
  Fs_ops.fsync ops st path @@ fun inum ->
  let rec attempt () =
    try
      Write_path.flush_file st ~privilege:`User inum;
      (* The whole chain of directory entries leading to the name must
         be durable, or the file would be unreachable after a crash. *)
      Fs_ops.iter_parents ops st path (Write_path.flush_file st ~privilege:`User);
      Segwriter.flush_active st;
      Io.drain st.io
    with Errors.Error Errors.Enospc ->
      if
        Cleaner.clean_to_target st > 0
        && Seg_usage.nclean st.usage > st.config.Config.reserve_segments
      then attempt ()
      else Errors.raise_ Errors.Enospc
  in
  attempt ()

let flush_caches (st : t) =
  sync st;
  Cache.drop_clean st.cache;
  Lfs_cache.Readahead.reset st.readahead;
  Lfs_vfs.Dir.clear st.dirs;
  if Cache.dirty_count st.cache = 0 then Inode_store.clear_clean st

let checkpoint_now (st : t) = checkpoint_user st
let clean_now ?target (st : t) = Cleaner.clean_to_target ?target st
let set_policy (st : t) policy = st.policy <- policy
let set_auto_clean (st : t) on = st.auto_clean <- on
let write_cost (st : t) = Cleaner.write_cost st
let clean_segment_count (st : t) = Seg_usage.nclean st.usage

let segment_report (st : t) =
  List.init (Seg_usage.nsegments st.usage) (fun seg ->
      (seg, Seg_usage.state st.usage seg, Seg_usage.utilization st.usage seg))

let live_bytes (st : t) = Seg_usage.total_live_bytes st.usage

type space = {
  capacity_bytes : int;
  live_bytes : int;
  clean_bytes : int;
  cleanable_bytes : int;
}

let space (st : t) =
  let seg_payload =
    st.layout.Layout.payload_blocks * st.layout.Layout.block_size
  in
  let capacity_bytes = st.layout.Layout.nsegments * seg_payload in
  let live = Seg_usage.total_live_bytes st.usage in
  let clean_bytes = Seg_usage.nclean st.usage * seg_payload in
  {
    capacity_bytes;
    live_bytes = live;
    clean_bytes;
    cleanable_bytes = max 0 (capacity_bytes - live - clean_bytes);
  }

(* Usage-drift tolerance: the usage array accounts for its own blocks,
   so recording it moves up to two blocks' worth of live bytes per
   segment relative to the recomputed ground truth. *)
let drift_tolerance (st : t) = 2 * st.layout.Layout.block_size

let integrity (st : t) =
  let structural =
    List.map (Format.asprintf "%a" Lfs_vfs.Audit.pp_issue) (Check.fsck st)
  in
  let tolerance = drift_tolerance st in
  let drift =
    List.filter_map
      (fun (seg, recorded, truth) ->
        if abs (recorded - truth) > tolerance then
          Some
            (Printf.sprintf
               "segment %d usage drift: recorded %d live bytes, recomputed %d"
               seg recorded truth)
        else None)
      (Check.usage_drift st)
  in
  structural @ drift

let unmount (st : t) =
  (try checkpoint_user st
   with Errors.Error Errors.Enospc ->
     (* Leave the data for roll-forward; there is no room to checkpoint. *)
     Write_path.sync st ~privilege:`System);
  Io.drain st.io

(* Lifecycle *)

let format io config =
  let geometry = Io.geometry io in
  match Layout.compute config geometry with
  | Error _ as e -> e
  | Ok layout ->
      Io.sync_write io ~sector:0 (Layout.encode_superblock layout);
      let st = State.create io config layout in
      let now = Io.now_us io in
      Imap.alloc_specific st.imap State.root_inum ~now_us:now;
      let root =
        Inode.create ~inum:State.root_inum ~kind:Fs_intf.Directory ~now_us:now
      in
      ignore (Inode_store.add_new st root);
      (* Two checkpoints so both regions hold a valid image from day
         one — a torn region write can then always fall back. *)
      Write_path.checkpoint st;
      Write_path.checkpoint st;
      Io.drain io;
      Ok ()

let mount ?(config = Config.default) io =
  let geometry = Io.geometry io in
  (* The on-disk block size is not known before the superblock is read,
     so read generously (the CRC in the superblock covers exactly one
     block; decoding tolerates trailing data). *)
  let sector_size = geometry.Lfs_disk.Geometry.sector_size in
  let count = min geometry.Lfs_disk.Geometry.sectors (65536 / sector_size) in
  let sb =
    try Io.sync_read io ~sector:0 ~count
    with Io.Read_failed _ ->
      (* A bad sector elsewhere in the generous window must not take the
         mount down.  Reassemble it sector by sector, zero-filling what
         the device cannot deliver: the CRC covers only the superblock
         block itself, so an unreadable sector there surfaces as a
         decode error below, and garbage anywhere else is ignored. *)
      let buf = Bytes.make (count * sector_size) '\000' in
      for s = 0 to count - 1 do
        match Io.sync_read io ~sector:s ~count:1 with
        | data -> Bytes.blit data 0 buf (s * sector_size) sector_size
        | exception Io.Read_failed _ -> ()
      done;
      buf
  in
  match Layout.decode_superblock sb geometry with
  | Error _ as e -> e
  | Ok layout ->
      let config =
        {
          config with
          Config.block_size = layout.Layout.block_size;
          segment_size = layout.Layout.seg_blocks * layout.Layout.block_size;
          max_files = layout.Layout.max_files;
        }
      in
      Recovery.recover io config layout
