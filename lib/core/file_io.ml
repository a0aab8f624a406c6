module Cache = Lfs_cache.Block_cache
module Errors = Lfs_vfs.Errors
module Io = Lfs_disk.Io
module Readahead = Lfs_cache.Readahead

let check_range ~off ~len =
  if off < 0 || len < 0 then
    Errors.raise_ (Errors.Einval "negative offset or length")

(* How many blocks starting at [blkno]/[addr] can be fetched in one disk
   request: logical blocks up to [max_blkno] whose addresses are
   physically consecutive, skipping nothing — a cached block must not be
   clobbered with stale disk data, and active-segment blocks are not on
   disk yet. *)
let probe_run (st : State.t) e ~inum ~blkno ~addr ~max_blkno =
  let n = ref 1 in
  let continue = ref true in
  while !continue && blkno + !n <= max_blkno do
    let next = blkno + !n in
    let next_addr = Inode_store.bmap_read st e next in
    if
      next_addr = addr + !n
      && (not (Cache.mem st.cache (Block_io.key_data ~inum ~blkno:next)))
      && not (Block_io.in_active_segment st next_addr)
    then incr n
    else continue := false
  done;
  !n

(* Issue the planned read-ahead window [start, start + count): clamp to
   the file, skip holes, cached blocks and active-segment blocks, and
   fetch what remains as contiguous multi-block runs, inserted clean. *)
let prefetch (st : State.t) e ~inum ~start ~count =
  let size = e.State.ino.Inode.size in
  let bs = st.layout.Layout.block_size in
  let max_blkno = if size = 0 then -1 else (size - 1) / bs in
  let last = min (start + count - 1) max_blkno in
  let issue ~first_blkno ~addr ~n =
    let go () =
      ignore (Block_io.read_run st ~inum ~first_blkno ~addr ~n);
      for i = 0 to n - 1 do
        Readahead.mark_issued st.readahead ~owner:inum ~blkno:(first_blkno + i)
      done;
      if Lfs_obs.Bus.enabled st.bus then
        Lfs_obs.Bus.emit st.bus
          (Lfs_obs.Event.Readahead
             { owner = inum; start = first_blkno; blocks = n })
    in
    if Lfs_obs.Bus.enabled st.bus then
      Lfs_obs.Bus.with_span st.bus "lfs_prefetch" go
    else go ()
  in
  let run_first = ref (-1) in
  let run_addr = ref Layout.null_addr in
  let run_n = ref 0 in
  let flush_run () =
    if !run_n > 0 then issue ~first_blkno:!run_first ~addr:!run_addr ~n:!run_n;
    run_n := 0
  in
  for blkno = start to last do
    let key = Block_io.key_data ~inum ~blkno in
    let addr =
      if Cache.mem st.cache key then Layout.null_addr
      else Inode_store.bmap_read st e blkno
    in
    if
      addr <> Layout.null_addr && not (Block_io.in_active_segment st addr)
    then begin
      if !run_n > 0 && addr = !run_addr + !run_n then incr run_n
      else begin
        flush_run ();
        run_first := blkno;
        run_addr := addr;
        run_n := 1
      end
    end
    else flush_run ()
  done;
  flush_run ()

let read (st : State.t) ~inum ~off ~len =
  check_range ~off ~len;
  let e = Inode_store.find st inum in
  let size = e.ino.Inode.size in
  let len = max 0 (min len (size - off)) in
  let bs = st.layout.Layout.block_size in
  let result = Bytes.make len '\000' in
  let clustering = st.config.Config.read_clustering in
  let max_blkno = if len = 0 then -1 else (off + len - 1) / bs in
  (* Blocks fetched by the most recent clustered run are taken from it
     rather than looked up again. *)
  let run_first = ref 0 in
  let run_blocks = ref [||] in
  let pos = ref 0 in
  while !pos < len do
    let abs = off + !pos in
    let blkno = abs / bs in
    let in_block = abs mod bs in
    let chunk = min (len - !pos) (bs - in_block) in
    if blkno >= !run_first && blkno < !run_first + Array.length !run_blocks
    then
      Bytes.blit !run_blocks.(blkno - !run_first) in_block result !pos chunk
    else begin
      match Cache.find st.cache (Block_io.key_data ~inum ~blkno) with
      | Some block ->
          Readahead.served st.readahead ~owner:inum ~blkno ~hit:true;
          Bytes.blit block in_block result !pos chunk
      | None -> (
          Readahead.served st.readahead ~owner:inum ~blkno ~hit:false;
          let addr = Inode_store.bmap_read st e blkno in
          if addr <> Layout.null_addr then begin
            let fill () =
              if clustering && not (Block_io.in_active_segment st addr)
              then begin
                let n = probe_run st e ~inum ~blkno ~addr ~max_blkno in
                run_first := blkno;
                run_blocks :=
                  Block_io.read_run st ~inum ~first_blkno:blkno ~addr ~n;
                Bytes.blit !run_blocks.(0) in_block result !pos chunk
              end
              else begin
                let block = Block_io.fetch_file_block st ~inum ~blkno ~addr in
                Bytes.blit block in_block result !pos chunk
              end
            in
            if Lfs_obs.Bus.enabled st.bus then
              Lfs_obs.Bus.with_span st.bus "lfs_read_fill" fill
            else fill ()
          end
          (* A hole on disk reads as zeros (a dirty overlay for the hole
             would have been found in the cache above). *))
    end;
    pos := !pos + chunk
  done;
  if len > 0 then begin
    let first = off / bs in
    match Readahead.observe st.readahead ~owner:inum ~first ~last:max_blkno with
    | None -> ()
    | Some (start, count) -> prefetch st e ~inum ~start ~count
  end;
  Io.charge_copy st.io ~bytes:len;
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
