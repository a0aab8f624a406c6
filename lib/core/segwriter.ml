module Errors = Lfs_vfs.Errors
module Io = Lfs_disk.Io
module Metrics = Lfs_obs.Metrics
module Bus = Lfs_obs.Bus
module Event = Lfs_obs.Event

let active_blocks (st : State.t) = if st.seg.seg < 0 then 0 else st.seg.nblocks

let room (st : State.t) =
  if st.seg.seg < 0 then 0 else st.layout.Layout.payload_blocks - st.seg.nblocks

let flush_active ?continues (st : State.t) =
  let seg = st.seg in
  if seg.seg >= 0 && seg.nblocks > 0 then begin
    let layout = st.layout in
    let bs = layout.Layout.block_size in
    let payload_len = seg.nblocks * bs in
    let summary_bytes = layout.Layout.summary_blocks * bs in
    let header =
      {
        Summary.seq = st.next_seq;
        timestamp_us = Io.now_us st.io;
        nblocks = seg.nblocks;
        payload_crc =
          Summary.payload_crc seg.buf ~off:summary_bytes ~len:payload_len;
      }
    in
    (* [append] put each entry in place; the header and CRC close the
       region. *)
    Summary.seal seg.buf ~size_bytes:summary_bytes ?continues header;
    let first_block = Layout.segment_first_block layout seg.seg in
    let len = summary_bytes + payload_len in
    (* Io never keeps the caller's buffer past the call without copying
       it, so the segment goes out straight from [seg.buf], full or
       partial. *)
    Io.async_write st.io ~len
      ~sector:(Layout.sector_of_block layout first_block)
      seg.buf;
    Seg_usage.set_state st.usage seg.seg Seg_usage.Dirty;
    st.tail_segment <- seg.seg;
    st.next_seq <- st.next_seq + 1;
    let partial = seg.nblocks < layout.Layout.payload_blocks in
    Metrics.incr st.counters.State.c_segments_written;
    if partial then Metrics.incr st.counters.State.c_partial_segments;
    if Bus.enabled st.bus then
      Bus.emit st.bus
        (Event.Segment_write
           { seg = seg.seg; seq = header.Summary.seq; blocks = seg.nblocks;
             partial });
    seg.seg <- -1;
    seg.nblocks <- 0
  end
  else if seg.seg >= 0 then begin
    (* Empty active segment: just release it. *)
    Seg_usage.set_state st.usage seg.seg Seg_usage.Clean;
    seg.seg <- -1
  end

let claim (st : State.t) ~privilege =
  let usage = st.usage in
  let available = Seg_usage.nclean usage in
  let enough =
    match privilege with
    | `System -> available >= 1
    | `User -> available > st.config.Config.reserve_segments
  in
  if not enough then Errors.raise_ Errors.Enospc;
  match Seg_usage.find_clean ~start:(st.tail_segment + 1) usage with
  | None -> Errors.raise_ Errors.Enospc
  | Some seg_index ->
      Seg_usage.reset_segment usage seg_index;
      Seg_usage.set_state usage seg_index Seg_usage.Active;
      st.seg.seg <- seg_index;
      st.seg.nblocks <- 0

(* Make room for one more block, flushing a full active segment and
   claiming a clean one as needed; the new block's index. *)
let next_slot (st : State.t) ~privilege =
  if st.seg.seg < 0 then claim st ~privilege
  else if st.seg.nblocks >= st.layout.Layout.payload_blocks then begin
    flush_active st;
    claim st ~privilege
  end;
  st.seg.nblocks

(* Fill slot [idx], whose summary entry is in place, with the block at
   [off] in [data]. *)
let place (st : State.t) ~live_bytes data ~off idx =
  let layout = st.layout in
  let bs = layout.Layout.block_size in
  let seg = st.seg in
  Bytes.blit data off seg.buf ((layout.Layout.summary_blocks + idx) * bs) bs;
  seg.nblocks <- idx + 1;
  let addr = Layout.segment_payload_block layout ~seg:seg.seg ~idx in
  Seg_usage.add_live st.usage seg.seg ~bytes:live_bytes
    ~now_us:(Io.now_us st.io);
  Metrics.incr st.counters.State.c_blocks_logged;
  addr

let append (st : State.t) ~privilege ~entry ~live_bytes data =
  if Bytes.length data <> st.layout.Layout.block_size then
    invalid_arg "Segwriter.append: data must be exactly one block";
  let idx = next_slot st ~privilege in
  Summary.put_entry st.seg.buf idx entry;
  place st ~live_bytes data ~off:0 idx

let append_moved (st : State.t) ~summary ~entry ~live_bytes ~off data =
  if off < 0 || off + st.layout.Layout.block_size > Bytes.length data then
    invalid_arg "Segwriter.append_moved: block outside the buffer";
  let idx = next_slot st ~privilege:`System in
  Summary.copy_entry summary entry st.seg.buf idx;
  place st ~live_bytes data ~off idx
