module Inode = Lfs_vfs.Inode

let backing : (State.t, State.itable_entry) Lfs_cache.File_read.backing =
  {
    io = (fun (st : State.t) -> st.io);
    cache = (fun (st : State.t) -> st.cache);
    readahead = (fun (st : State.t) -> st.readahead);
    block_size = (fun (st : State.t) -> st.layout.Layout.block_size);
    clustering = (fun (st : State.t) -> st.config.Config.read_clustering);
    size = (fun (e : State.itable_entry) -> e.ino.Inode.size);
    null_addr = Layout.null_addr;
    bmap = (fun st e blkno -> Lfs_vfs.Bmap.read Inode_store.map st e blkno);
    (* Active-segment blocks are not on disk yet. *)
    on_disk = (fun st addr -> not (Block_io.in_active_segment st addr));
    fetch = Block_io.fetch_file_block;
    sector_of_block = Block_io.sector_of_block;
    fill_span = (fun bus f -> Lfs_obs.Bus.with_span bus "lfs_read_fill" f);
    prefetch_span = (fun bus f -> Lfs_obs.Bus.with_span bus "lfs_prefetch" f);
  }

let free_block (st : State.t) (e : State.itable_entry) blkno =
  Seg_usage.release st.usage
    (Lfs_vfs.Bmap.write Inode_store.map st e blkno Layout.null_addr)
    ~bytes:st.layout.Layout.block_size

(* §4.2.1: truncation to zero bumps the version, so the cleaner can
   dismiss this file's old blocks from the summary alone. *)
let emptied (st : State.t) inum (e : State.itable_entry) =
  Imap.bump_version st.imap inum;
  Lfs_vfs.Bmap.pointers Inode_store.map st e Inode_store.free_pointer;
  e.ino.Inode.indirect <- Layout.null_addr;
  e.ind_map <- [||];
  e.ind_dirty <- false;
  e.ino.Inode.dindirect <- Layout.null_addr;
  e.dind_top <- [||];
  e.dind_top_dirty <- false;
  e.dind_children <- [||];
  e.dind_child_dirty <- Lfs_util.Bitset.create 0
