module Cache = Lfs_cache.Block_cache
module Errors = Lfs_vfs.Errors
module Fs_intf = Lfs_vfs.Fs_intf
module Io = Lfs_disk.Io
module Path = Lfs_vfs.Path
module Profile = Lfs_obs.Profile

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
let housekeep ?(can_fail = true) (st : t) =
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

let split_parent path =
  match Path.parent_and_name path with
  | Ok v -> v
  | Error e -> Errors.raise_ e

let resolve_path (st : t) path =
  match Path.split path with
  | Ok components -> Namespace.resolve st components
  | Error e -> Errors.raise_ e

let make_node (st : t) path kind op =
  Errors.wrap (fun () ->
      Profile.with_op st.bus op @@ fun () ->
      Io.charge_syscall st.io;
      let parent, fname = split_parent path in
      let dir = Namespace.resolve_dir st parent in
      (match Namespace.lookup st ~dir fname with
      | Some _ -> Errors.raise_ (Errors.Eexist path)
      | None -> ());
      let now = Io.now_us st.io in
      let inum =
        match Imap.alloc st.imap ~now_us:now with
        | Some i -> i
        | None -> Errors.raise_ Errors.Enospc
      in
      let ino = Inode.create ~inum ~kind ~now_us:now in
      ignore (Inode_store.add_new st ino);
      Namespace.add st ~dir fname inum;
      housekeep st)

let create st path = make_node st path Fs_intf.Regular `Create
let mkdir st path = make_node st path Fs_intf.Directory `Mkdir

let delete (st : t) path =
  Errors.wrap (fun () ->
      Profile.with_op st.bus `Delete @@ fun () ->
      Io.charge_syscall st.io;
      let parent, fname = split_parent path in
      let dir = Namespace.resolve_dir st parent in
      let inum =
        match Namespace.lookup st ~dir fname with
        | Some i -> i
        | None -> Errors.raise_ (Errors.Enoent path)
      in
      let e = Inode_store.find st inum in
      if
        e.ino.Inode.kind = Fs_intf.Directory
        && not (Namespace.is_empty st ~dir:inum)
      then Errors.raise_ (Errors.Enotempty path);
      Namespace.remove st ~dir fname;
      (* Hard links: the inode and its data live until the last name is
         gone. *)
      if e.ino.Inode.nlink > 1 then begin
        e.ino.Inode.nlink <- e.ino.Inode.nlink - 1;
        e.ino.Inode.mtime_us <- Io.now_us st.io;
        Inode_store.mark_dirty st e
      end
      else Inode_store.delete st inum;
      (* A delete must succeed even on a full disk — it is how space is
         freed. *)
      housekeep ~can_fail:false st)

let rename (st : t) src dst =
  Errors.wrap (fun () ->
      Profile.with_op st.bus `Rename @@ fun () ->
      Io.charge_syscall st.io;
      let src_parent, src_name = split_parent src in
      let dst_parent, dst_name = split_parent dst in
      if not (Path.valid_name dst_name) then
        Errors.raise_ (Errors.Einval dst);
      (* Moving a directory under itself would orphan the subtree. *)
      let src_components = src_parent @ [ src_name ] in
      let rec is_prefix a b =
        match (a, b) with
        | [], _ -> true
        | x :: a', y :: b' -> x = y && is_prefix a' b'
        | _ :: _, [] -> false
      in
      if is_prefix src_components (dst_parent @ [ dst_name ]) then
        Errors.raise_ (Errors.Einval "cannot move a directory beneath itself");
      let src_dir = Namespace.resolve_dir st src_parent in
      let inum =
        match Namespace.lookup st ~dir:src_dir src_name with
        | Some i -> i
        | None -> Errors.raise_ (Errors.Enoent src)
      in
      let dst_dir = Namespace.resolve_dir st dst_parent in
      (match Namespace.lookup st ~dir:dst_dir dst_name with
      | Some _ -> Errors.raise_ (Errors.Eexist dst)
      | None -> ());
      Namespace.remove st ~dir:src_dir src_name;
      Namespace.add st ~dir:dst_dir dst_name inum;
      housekeep st)

let link (st : t) src dst =
  Errors.wrap (fun () ->
      Profile.with_op st.bus `Link @@ fun () ->
      Io.charge_syscall st.io;
      let src_inum = resolve_path st src in
      let e = Inode_store.find st src_inum in
      if e.ino.Inode.kind = Fs_intf.Directory then
        Errors.raise_ (Errors.Eisdir src);
      let dst_parent, dst_name = split_parent dst in
      let dst_dir = Namespace.resolve_dir st dst_parent in
      (match Namespace.lookup st ~dir:dst_dir dst_name with
      | Some _ -> Errors.raise_ (Errors.Eexist dst)
      | None -> ());
      Namespace.add st ~dir:dst_dir dst_name src_inum;
      e.ino.Inode.nlink <- e.ino.Inode.nlink + 1;
      e.ino.Inode.mtime_us <- Io.now_us st.io;
      Inode_store.mark_dirty st e;
      housekeep st)

let regular_inum (st : t) path =
  let inum = resolve_path st path in
  let e = Inode_store.find st inum in
  if e.ino.Inode.kind = Fs_intf.Directory then
    Errors.raise_ (Errors.Eisdir path);
  inum

let write (st : t) path ~off data =
  Errors.wrap (fun () ->
      Profile.with_op st.bus `Write @@ fun () ->
      Io.charge_syscall st.io;
      let inum = regular_inum st path in
      File_io.write st ~inum ~off data;
      housekeep st)

let read (st : t) path ~off ~len =
  Errors.wrap (fun () ->
      Profile.with_op st.bus `Read @@ fun () ->
      Io.charge_syscall st.io;
      let inum = regular_inum st path in
      let data = File_io.read st ~inum ~off ~len in
      housekeep ~can_fail:false st;
      data)

let truncate (st : t) path ~size =
  Errors.wrap (fun () ->
      Profile.with_op st.bus `Truncate @@ fun () ->
      Io.charge_syscall st.io;
      let inum = regular_inum st path in
      File_io.truncate st ~inum ~size;
      housekeep ~can_fail:false st)

let stat (st : t) path =
  Errors.wrap (fun () ->
      Profile.with_op st.bus `Stat @@ fun () ->
      Io.charge_syscall st.io;
      let inum = resolve_path st path in
      let e = Inode_store.find st inum in
      {
        Fs_intf.inum;
        kind = e.ino.Inode.kind;
        size = e.ino.Inode.size;
        nlink = e.ino.Inode.nlink;
        mtime_us = e.ino.Inode.mtime_us;
        atime_us = Imap.atime_us st.imap inum;
      })

let readdir (st : t) path =
  Errors.wrap (fun () ->
      Profile.with_op st.bus `Readdir @@ fun () ->
      Io.charge_syscall st.io;
      let inum = resolve_path st path in
      Namespace.entries st ~dir:inum
      |> List.map fst
      |> List.sort String.compare)

let exists (st : t) path =
  match Errors.wrap (fun () -> resolve_path st path) with
  | Ok _ -> true
  | Error _ -> false

let sync (st : t) =
  Profile.with_op st.bus `Sync @@ fun () ->
  Io.charge_syscall st.io;
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
  Errors.wrap (fun () ->
      Profile.with_op st.bus `Fsync @@ fun () ->
      Io.charge_syscall st.io;
      let inum = resolve_path st path in
      let rec attempt () =
        try
          Write_path.flush_file st ~privilege:`User inum;
          (* The whole chain of directory entries leading to the name
             must be durable, or the file would be unreachable after a
             crash. *)
          (match Path.parent_and_name path with
          | Ok (parent, _) ->
              let rec flush_chain dir = function
                | [] -> Write_path.flush_file st ~privilege:`User dir
                | name :: rest ->
                    Write_path.flush_file st ~privilege:`User dir;
                    (match Namespace.lookup st ~dir name with
                    | Some child -> flush_chain child rest
                    | None -> ())
              in
              flush_chain State.root_inum parent
          | Error _ -> ());
          Segwriter.flush_active st;
          Io.drain st.io
        with Errors.Error Errors.Enospc ->
          if
            Cleaner.clean_to_target st > 0
            && Seg_usage.nclean st.usage > st.config.Config.reserve_segments
          then attempt ()
          else Errors.raise_ Errors.Enospc
      in
      attempt ())

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
    List.map (Format.asprintf "%a" Check.pp_issue) (Check.fsck st)
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
