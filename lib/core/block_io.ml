module Cache = Lfs_cache.Block_cache
module Io = Lfs_disk.Io

let key_data ~inum ~blkno = { Cache.owner = inum; blkno }
let key_raw addr = { Cache.owner = State.owner_raw; blkno = addr }

let sector_of_block (st : State.t) addr = Layout.sector_of_block st.layout addr

let in_active_segment (st : State.t) addr =
  let seg = st.seg in
  seg.seg >= 0
  &&
  let payload_first =
    Layout.segment_first_block st.layout seg.seg
    + st.layout.Layout.summary_blocks
  in
  addr >= payload_first && addr < payload_first + seg.nblocks

(* Fetch one block from the active segment or the disk into a buffer
   the cache hands out, and cache it clean.  The caller has already
   missed in the cache. *)
let fetch_at (st : State.t) key addr =
  let bs = st.layout.Layout.block_size in
  let data = Cache.take st.cache bs in
  (if in_active_segment st addr then
     let first = Layout.segment_first_block st.layout st.seg.seg in
     Bytes.blit st.seg.buf ((addr - first) * bs) data 0 bs
   else Io.sync_read_into st.io ~sector:(sector_of_block st addr) [| data |]);
  Cache.insert st.cache key ~dirty:false data;
  data

let read_at (st : State.t) key addr =
  if addr = Layout.null_addr then
    invalid_arg "Block_io.read: null block address";
  match Cache.find st.cache key with
  | Some data -> data
  | None -> fetch_at st key addr

let read_raw st addr = read_at st (key_raw addr) addr

let fetch_file_block st ~inum ~blkno ~addr =
  fetch_at st (key_data ~inum ~blkno) addr
