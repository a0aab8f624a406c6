module Cache = Lfs_cache.Block_cache
module Errors = Lfs_vfs.Errors
module Io = Lfs_disk.Io

let check_range ~off ~len =
  if off < 0 || len < 0 then
    Errors.raise_ (Errors.Einval "negative offset or length")

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

let read (st : State.t) ~inum ~off ~len =
  check_range ~off ~len;
  let e = Inode_store.find st inum in
  let result = Lfs_cache.File_read.read backing st e ~inum ~off ~len in
  Imap.set_atime_us st.imap inum (Io.now_us st.io);
  result

let write (st : State.t) ~inum ~off data =
  check_range ~off ~len:(Bytes.length data);
  let e = Inode_store.find st inum in
  let bs = st.layout.Layout.block_size in
  let len = Bytes.length data in
  if off + len > Inode.max_size st.layout then Errors.raise_ Errors.Efbig;
  let pos = ref 0 in
  while !pos < len do
    let abs = off + !pos in
    let blkno = abs / bs in
    let in_block = abs mod bs in
    let chunk = min (len - !pos) (bs - in_block) in
    let key = Block_io.key_data ~inum ~blkno in
    if chunk = bs then begin
      (* Whole-block overwrite: no read needed. *)
      let block = Bytes.sub data !pos bs in
      Cache.insert st.cache key ~dirty:true block
    end
    else begin
      match Cache.find st.cache key with
      | Some block ->
          Bytes.blit data !pos block in_block chunk;
          Cache.mark_dirty st.cache key
      | None ->
          (* Read-modify-write; re-insert dirty rather than mutating the
             cache's buffer, since a full cache may evict a clean block
             the moment it is inserted. *)
          let addr = Inode_store.bmap_read st e blkno in
          let block =
            if addr <> Layout.null_addr then
              Bytes.copy (Block_io.read_file_block st ~inum ~blkno ~addr)
            else Bytes.make bs '\000'
          in
          Bytes.blit data !pos block in_block chunk;
          Cache.insert st.cache key ~dirty:true block
    end;
    pos := !pos + chunk
  done;
  if off + len > e.ino.Inode.size then e.ino.Inode.size <- off + len;
  e.ino.Inode.mtime_us <- Io.now_us st.io;
  Inode_store.mark_dirty st e;
  Io.charge_copy st.io ~bytes:len

let release (st : State.t) addr ~bytes =
  if addr <> Layout.null_addr then
    Seg_usage.sub_live st.usage (Layout.segment_of_block st.layout addr) ~bytes

let truncate (st : State.t) ~inum ~size =
  if size < 0 then Errors.raise_ (Errors.Einval "negative size");
  if size > Inode.max_size st.layout then Errors.raise_ Errors.Efbig;
  let e = Inode_store.find st inum in
  let bs = st.layout.Layout.block_size in
  let old_size = e.ino.Inode.size in
  if size < old_size then begin
    let keep_blocks = (size + bs - 1) / bs in
    let old_blocks = (old_size + bs - 1) / bs in
    for blkno = keep_blocks to old_blocks - 1 do
      let old = Inode_store.bmap_write st e blkno Layout.null_addr in
      release st old ~bytes:bs;
      Cache.remove st.cache (Block_io.key_data ~inum ~blkno)
    done;
    (* Zero the tail of a now-partial final block so reads past [size]
       after a later extension see zeros. *)
    if size mod bs <> 0 && keep_blocks > 0 then begin
      let blkno = keep_blocks - 1 in
      let key = Block_io.key_data ~inum ~blkno in
      match Cache.find st.cache key with
      | Some b ->
          Bytes.fill b (size mod bs) (bs - (size mod bs)) '\000';
          Cache.mark_dirty st.cache key
      | None ->
          let addr = Inode_store.bmap_read st e blkno in
          if addr <> Layout.null_addr then begin
            let b = Bytes.copy (Block_io.read_file_block st ~inum ~blkno ~addr) in
            Bytes.fill b (size mod bs) (bs - (size mod bs)) '\000';
            Cache.insert st.cache key ~dirty:true b
          end
    end;
    if size = 0 then begin
      (* §4.2.1: truncation to zero bumps the version, so the cleaner can
         dismiss this file's old blocks from the summary alone. *)
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
    end
  end;
  e.ino.Inode.size <- size;
  e.ino.Inode.mtime_us <- Io.now_us st.io;
  Inode_store.mark_dirty st e
