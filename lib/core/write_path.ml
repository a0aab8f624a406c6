module Inode = Lfs_vfs.Inode
module Bitset = Lfs_util.Bitset
module Cache = Lfs_cache.Block_cache
module Io = Lfs_disk.Io

(* Append pointer block [m] to the log as [entry], releasing the copy at
   [old]; the new address. *)
let append_pointers (st : State.t) ~privilege entry m old =
  let bs = st.layout.Layout.block_size in
  let addr =
    Segwriter.append st ~privilege ~entry ~live_bytes:bs
      (Lfs_vfs.Bmap.encode ~block_size:bs m)
  in
  Seg_usage.release st.usage old ~bytes:bs;
  Cache.remove st.cache (Block_io.key_raw old);
  addr

(* Write one file's dirty pointer blocks: double-indirect children
   (which imply a top map) feed the top block, which feeds the inode. *)
let flush_pointer_blocks (st : State.t) ~privilege (e : State.itable_entry) =
  let inum = e.ino.Inode.inum in
  if Bitset.cardinal e.dind_child_dirty > 0 then begin
    Bitset.iter_set
      (fun child ->
        e.dind_top.(child) <-
          append_pointers st ~privilege
            (Summary.Indirect { inum; idx = 1 + child })
            e.dind_children.(child) e.dind_top.(child);
        e.dind_top_dirty <- true;
        Inode_store.note_dirty st e)
      e.dind_child_dirty;
    Bitset.clear_all e.dind_child_dirty
  end;
  if e.dind_top_dirty then begin
    e.ino.Inode.dindirect <-
      append_pointers st ~privilege (Summary.Dindirect { inum }) e.dind_top
        e.ino.Inode.dindirect;
    Inode_store.mark_dirty st e;
    e.dind_top_dirty <- false
  end;
  if e.ind_dirty then begin
    e.ino.Inode.indirect <-
      append_pointers st ~privilege (Summary.Indirect { inum; idx = 0 })
        e.ind_map e.ino.Inode.indirect;
    Inode_store.mark_dirty st e;
    e.ind_dirty <- false
  end

let flush_file_data (st : State.t) ~privilege inum blknos =
  let bs = st.layout.Layout.block_size in
  match Inode_store.find_loaded st inum with
  | None ->
      (* A dirty data block always has its file in the inode table (it got
         there when the block was written, and deletion removes the cache
         entries), so this cannot happen. *)
      assert false
  | Some e ->
      let version = Imap.version st.imap inum in
      List.iter
        (fun blkno ->
          let key = Block_io.key_data ~inum ~blkno in
          match Cache.find st.cache key with
          | None -> assert false
          | Some data ->
              let addr =
                Segwriter.append st ~privilege
                  ~entry:(Summary.Data { inum; blkno; version })
                  ~live_bytes:bs data
              in
              let old = Lfs_vfs.Bmap.write Inode_store.map st e blkno addr in
              Seg_usage.release st.usage old ~bytes:bs;
              Cache.mark_clean st.cache key)
        (List.sort compare blknos);
      flush_pointer_blocks st ~privilege e

(* Pack the dirty inodes [dirty] (the array [Inode_store.dirty_inodes]
   gave, their pointer blocks since flushed) into shared inode blocks and
   point the inode map at them: entries [first, first + per_block) go to
   one block, slot [i - first] holding entry [i]. *)
let flush_inodes (st : State.t) ~privilege dirty =
  let layout = st.layout in
  let bs = layout.Layout.block_size in
  let per_block = Layout.inodes_per_block layout in
  let n = Array.length dirty in
  (* A run of inode blocks that outgrows the active segment goes on in
     the next one; the full segment is marked as continuing, so that
     roll-forward applies the run, and with it every op since the last
     flush, all or none. *)
  let rec pack first =
    if first < n then begin
      if Segwriter.room st = 0 then Segwriter.flush_active ~continues:true st;
      let last = min n (first + per_block) in
      let block = Bytes.make bs '\000' in
      for i = first to last - 1 do
        Inode.encode_into ~atime:false dirty.(i).State.ino block
          ~off:((i - first) * Layout.inode_bytes)
      done;
      let addr =
        Segwriter.append st ~privilege ~entry:Summary.Inode_block
          ~live_bytes:((last - first) * Layout.inode_bytes)
          block
      in
      (* Cache the fresh inode block so immediate re-reads are hits;
         [append] copied it, so the cache may keep this one. *)
      Cache.insert st.cache (Block_io.key_raw addr) ~dirty:false block;
      for i = first to last - 1 do
        let e = dirty.(i) in
        let inum = e.State.ino.Inode.inum in
        Seg_usage.release st.usage (Imap.addr_of st.imap inum) ~bytes:Layout.inode_bytes;
        Imap.set_location st.imap inum ~addr ~slot:(i - first);
        e.State.ino_dirty <- false
      done;
      pack last
    end
  in
  pack 0

(* Pointer blocks and inodes only — the part of the backlog that is
   small and bounded (no file data).  Used by the cleaner to persist its
   evacuations, and by [flush_data] after the data: files whose metadata
   is dirty without dirty data (deletes that touched the directory inode,
   cleaner-marked pointer blocks...).  One walk of the dirty set serves
   both steps: flushing a listed file's pointer blocks leaves it
   [ino_dirty] and dirties no other file, so a second walk would return
   the same entries. *)
let flush_metadata (st : State.t) ~privilege =
  let dirty = Inode_store.dirty_inodes st in
  Array.iter
    (fun (e : State.itable_entry) -> flush_pointer_blocks st ~privilege e)
    dirty;
  flush_inodes st ~privilege dirty

let flush_data (st : State.t) ~privilege =
  if not st.flushing then begin
    st.flushing <- true;
    Fun.protect
      ~finally:(fun () -> st.flushing <- false)
      (fun () ->
        (if Lfs_obs.Bus.enabled st.bus then
           Lfs_obs.Bus.with_span st.bus "lfs_log_flush"
         else fun f -> f ())
        @@ fun () ->
        (* Group dirty cache blocks by owner, oldest file first. *)
        let order = ref [] in
        let by_owner = Hashtbl.create 64 in
        List.iter
          (fun { Cache.owner; blkno } ->
            match Hashtbl.find_opt by_owner owner with
            | None ->
                Hashtbl.replace by_owner owner [ blkno ];
                order := owner :: !order
            | Some blknos -> Hashtbl.replace by_owner owner (blkno :: blknos))
          (Cache.dirty_keys st.cache);
        List.iter
          (fun owner ->
            flush_file_data st ~privilege owner (Hashtbl.find by_owner owner))
          (List.rev !order);
        flush_metadata st ~privilege)
  end

(* fsync: push exactly one file — its dirty data blocks, pointer blocks
   and inode — to the log, leaving the rest of the write buffer alone
   (§4.3.5's sync trigger; the caller forces the partial segment out and
   drains). *)
let flush_file (st : State.t) ~privilege inum =
  let blknos =
    Cache.fold_dirty
      (fun key _ acc ->
        if key.Cache.owner = inum then key.Cache.blkno :: acc else acc)
      st.cache []
  in
  (match (blknos, Inode_store.find_loaded st inum) with
  | [], None -> ()
  | [], Some e -> flush_pointer_blocks st ~privilege e
  | _ :: _, _ -> flush_file_data st ~privilege inum blknos);
  match Inode_store.find_loaded st inum with
  | Some e when e.State.ino_dirty ->
      let bs = st.layout.Layout.block_size in
      let block = Bytes.make bs '\000' in
      Inode.encode_into ~atime:false e.ino block ~off:0;
      let addr =
        Segwriter.append st ~privilege ~entry:Summary.Inode_block
          ~live_bytes:Layout.inode_bytes block
      in
      Cache.insert st.cache (Block_io.key_raw addr) ~dirty:false block;
      Seg_usage.release st.usage (Imap.addr_of st.imap inum) ~bytes:Layout.inode_bytes;
      Imap.set_location st.imap inum ~addr ~slot:0;
      e.State.ino_dirty <- false
  | Some _ | None -> ()

let sync (st : State.t) ~privilege =
  flush_data st ~privilege;
  Segwriter.flush_active st;
  Io.drain st.io

let flush_meta_blocks (st : State.t) ~privilege =
  let bs = st.layout.Layout.block_size in
  List.iter
    (fun idx ->
      let block = Imap.encode_block st.imap ~idx in
      let addr =
        Segwriter.append st ~privilege
          ~entry:(Summary.Imap_block { idx })
          ~live_bytes:bs block
      in
      Seg_usage.release st.usage st.imap_block_addr.(idx) ~bytes:bs;
      st.imap_block_addr.(idx) <- addr)
    (Imap.dirty_blocks st.imap);
  Imap.clear_dirty st.imap;
  (* Usage blocks are written from a snapshot of the dirty set: writing
     them dirties the array again (self-reference), which the paper
     explicitly tolerates — live counts are only a cleaning hint. *)
  let dirty_usage = Seg_usage.dirty_blocks st.usage in
  List.iter
    (fun idx ->
      let block = Seg_usage.encode_block st.usage ~idx in
      let addr =
        Segwriter.append st ~privilege
          ~entry:(Summary.Usage_block { idx })
          ~live_bytes:bs block
      in
      Seg_usage.release st.usage st.usage_block_addr.(idx) ~bytes:bs;
      st.usage_block_addr.(idx) <- addr)
    dirty_usage;
  Seg_usage.clear_dirty st.usage

let checkpoint ?(privilege = `System) (st : State.t) =
  (if Lfs_obs.Bus.enabled st.bus then Lfs_obs.Bus.with_span st.bus "checkpoint"
   else fun f -> f ())
  @@ fun () ->
  flush_data st ~privilege;
  flush_meta_blocks st ~privilege:`System;
  Segwriter.flush_active st;
  Io.drain st.io;
  let cp =
    {
      Checkpoint.timestamp_us = Io.now_us st.io;
      seq = st.next_seq - 1;
      tail_segment = st.tail_segment;
      next_inum_hint = Imap.next_hint st.imap;
      imap_addrs = Array.copy st.imap_block_addr;
      usage_addrs = Array.copy st.usage_block_addr;
    }
  in
  let region = Checkpoint.encode st.layout cp in
  let region_block =
    if st.cp_flip then snd st.layout.Layout.cp_region
    else fst st.layout.Layout.cp_region
  in
  Io.sync_write st.io
    ~sector:(Layout.sector_of_block st.layout region_block)
    region;
  let region_idx = if st.cp_flip then 1 else 0 in
  st.cp_flip <- not st.cp_flip;
  st.last_checkpoint_us <- Io.now_us st.io;
  st.last_cp_seq <- cp.Checkpoint.seq;
  Lfs_obs.Metrics.incr st.counters.State.c_checkpoints;
  if Lfs_obs.Bus.enabled st.bus then
    Lfs_obs.Bus.emit st.bus
      (Lfs_obs.Event.Checkpoint { seq = cp.Checkpoint.seq; region = region_idx })
