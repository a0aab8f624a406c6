module Cache = Lfs_cache.Block_cache

let backing : (State.t, State.itable_entry) Lfs_cache.File_read.backing =
  {
    io = (fun (st : State.t) -> st.io);
    cache = (fun (st : State.t) -> st.cache);
    readahead = (fun (st : State.t) -> st.readahead);
    block_size = (fun (st : State.t) -> st.layout.Layout.block_size);
    clustering = (fun (st : State.t) -> st.config.Config.read_clustering);
    size = (fun (e : State.itable_entry) -> e.ino.Inode.size);
    null_addr = Layout.null_addr;
    bmap = Inode_store.bmap_read;
    (* Active-segment blocks are not on disk yet. *)
    on_disk = (fun st addr -> not (Block_io.in_active_segment st addr));
    fetch = Block_io.fetch_file_block;
    sector_of_block = Block_io.sector_of_block;
    fill_span = (fun bus f -> Lfs_obs.Bus.with_span bus "lfs_read_fill" f);
    prefetch_span = (fun bus f -> Lfs_obs.Bus.with_span bus "lfs_prefetch" f);
  }

let release (st : State.t) addr ~bytes =
  if addr <> Layout.null_addr then
    Seg_usage.sub_live st.usage (Layout.segment_of_block st.layout addr) ~bytes

let free_block (st : State.t) (e : State.itable_entry) blkno =
  release st
    (Inode_store.bmap_write st e blkno Layout.null_addr)
    ~bytes:st.layout.Layout.block_size

(* §4.2.1: truncation to zero bumps the version, so the cleaner can
   dismiss this file's old blocks from the summary alone. *)
let emptied (st : State.t) inum (e : State.itable_entry) =
  let bs = st.layout.Layout.block_size in
  Imap.bump_version st.imap inum;
  release st e.ino.Inode.indirect ~bytes:bs;
  Cache.remove st.cache (Block_io.key_raw e.ino.Inode.indirect);
  e.ino.Inode.indirect <- Layout.null_addr;
  e.ind_map <- None;
  e.ind_dirty <- false;
  (match e.dind_top with
  | Some top ->
      Array.iter
        (fun child ->
          release st child ~bytes:bs;
          Cache.remove st.cache (Block_io.key_raw child))
        top
  | None ->
      if e.ino.Inode.dindirect <> Layout.null_addr then begin
        (* Top map never loaded: fetch it to release the children. *)
        let block = Block_io.read_raw st e.ino.Inode.dindirect in
        for i = 0 to Layout.ptrs_per_block st.layout - 1 do
          let child =
            Int32.to_int (Bytes.get_int32_le block (i * 4)) land 0xFFFFFFFF
          in
          release st child ~bytes:bs;
          Cache.remove st.cache (Block_io.key_raw child)
        done
      end);
  release st e.ino.Inode.dindirect ~bytes:bs;
  Cache.remove st.cache (Block_io.key_raw e.ino.Inode.dindirect);
  e.ino.Inode.dindirect <- Layout.null_addr;
  e.dind_top <- None;
  e.dind_top_dirty <- false;
  e.dind_children <- [||];
  e.dind_child_dirty <- Lfs_util.Bitset.create 0
