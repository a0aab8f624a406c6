module Codec = Lfs_util.Codec
module Crc32 = Lfs_util.Crc32
module Geometry = Lfs_disk.Geometry

type t = {
  block_size : int;
  block_sectors : int;
  total_blocks : int;
  seg_blocks : int;
  summary_blocks : int;
  payload_blocks : int;
  nsegments : int;
  first_segment_block : int;
  cp_blocks : int;
  cp_region : int * int;
  max_files : int;
  n_imap_blocks : int;
  n_usage_blocks : int;
  align_sectors : int;
}

let imap_entry_bytes = 24
let usage_entry_bytes = 16
let inode_bytes = Lfs_vfs.Inode.slot_bytes
let cp_header_bytes = 64

let imap_entries_per_block t = t.block_size / imap_entry_bytes
let usage_entries_per_block t = t.block_size / usage_entry_bytes
let inodes_per_block t = t.block_size / inode_bytes

let null_addr = Lfs_vfs.Inode.null_addr

let compute (config : Config.t) geometry =
  match Config.validate config with
  | Error _ as e -> e
  | Ok () ->
      let sector_size = geometry.Geometry.sector_size in
      if config.block_size mod sector_size <> 0 then
        Error
          (Printf.sprintf "block size %d not a multiple of sector size %d"
             config.block_size sector_size)
      else begin
        let block_size = config.block_size in
        let block_sectors = block_size / sector_size in
        let total_blocks = Geometry.size_bytes geometry / block_size in
        let seg_blocks = config.segment_size / block_size in
        let summary_blocks = Summary.blocks_needed ~block_size ~seg_blocks in
        let payload_blocks = seg_blocks - summary_blocks in
        let n_imap_blocks =
          (config.max_files + (block_size / imap_entry_bytes) - 1)
          / (block_size / imap_entry_bytes)
        in
        (* The usage-array size depends on nsegments which depends on the
           checkpoint-region size; bound nsegments from above first, then
           settle. *)
        let upper_nsegments = total_blocks / seg_blocks in
        let usage_blocks_for nsegs =
          (nsegs + (block_size / usage_entry_bytes) - 1)
          / (block_size / usage_entry_bytes)
        in
        let cp_blocks_for nsegs =
          let bytes =
            cp_header_bytes + (4 * n_imap_blocks) + (4 * usage_blocks_for nsegs)
          in
          (bytes + block_size - 1) / block_size
        in
        let cp_blocks = cp_blocks_for upper_nsegments in
        let base_first = 1 + (2 * cp_blocks) in
        (* Segment alignment: push the segment area up so every segment
           starts on a multiple of [segment_align_sectors] — on a
           Log_stripe volume with the stripe as the alignment, a
           whole-segment write then splits into exactly one contiguous
           run per member.  The alignment must be whole blocks, or no
           block boundary ever lands on it. *)
        let align = config.segment_align_sectors in
        if align > 0 && align mod block_sectors <> 0 then
          Error
            (Printf.sprintf
               "segment_align_sectors %d not a multiple of the %d-sector \
                block"
               align block_sectors)
        else begin
        let first_segment_block =
          if align = 0 then base_first
          else
            let ab = align / block_sectors in
            (base_first + ab - 1) / ab * ab
        in
        let nsegments = (total_blocks - first_segment_block) / seg_blocks in
        if nsegments < 2 then
          Error "disk too small: fewer than two segments would fit"
        else
          Ok
            {
              block_size;
              block_sectors;
              total_blocks;
              seg_blocks;
              summary_blocks;
              payload_blocks;
              nsegments;
              first_segment_block;
              cp_blocks;
              cp_region = (1, 1 + cp_blocks);
              max_files = config.max_files;
              n_imap_blocks;
              n_usage_blocks = usage_blocks_for nsegments;
              align_sectors = align;
            }
        end
      end

let sector_of_block t addr = addr * t.block_sectors

let segment_of_block t addr =
  if addr < t.first_segment_block then
    invalid_arg "Layout.segment_of_block: block before segment area";
  let seg = (addr - t.first_segment_block) / t.seg_blocks in
  if seg >= t.nsegments then
    invalid_arg "Layout.segment_of_block: block past segment area";
  seg

let segment_first_block t seg = t.first_segment_block + (seg * t.seg_blocks)

let segment_payload_block t ~seg ~idx =
  if idx < 0 || idx >= t.payload_blocks then
    invalid_arg "Layout.segment_payload_block: bad payload index";
  segment_first_block t seg + t.summary_blocks + idx

let payload_index_of_block t addr =
  let seg = segment_of_block t addr in
  let idx = addr - segment_first_block t seg - t.summary_blocks in
  if idx < 0 then invalid_arg "Layout.payload_index_of_block: summary block";
  idx

(* Superblock *)

let sb_magic = 0x4C465331 (* "LFS1" *)
let sb_crc_off = 32

let encode_superblock t =
  let e = Codec.encoder ~capacity:t.block_size () in
  Codec.u32 e sb_magic;
  Codec.u32 e t.block_size;
  Codec.u32 e (t.seg_blocks * t.block_size);
  Codec.u32 e t.max_files;
  Codec.u32 e t.total_blocks;
  Codec.u32 e t.nsegments;
  Codec.u32 e t.cp_blocks;
  Codec.u32 e t.align_sectors;
  Codec.u32 e 0 (* crc placeholder at sb_crc_off *);
  Codec.pad_to e t.block_size;
  let block = Codec.to_bytes e in
  Bytes.set_int32_le block sb_crc_off (Crc32.digest_bytes block);
  block

let decode_superblock block geometry =
  let check () =
    let d = Codec.decoder block in
    if Codec.read_u32 d <> sb_magic then Error "superblock: bad magic"
    else begin
      let block_size = Codec.read_u32 d in
      (* The CRC covers exactly one on-disk block; the caller may have
         read more than that. *)
      if block_size <= 0 || block_size > Bytes.length block then
        Error "superblock: implausible block size"
      else begin
        let scratch = Bytes.sub block 0 block_size in
        let stored = Bytes.get_int32_le scratch sb_crc_off in
        Bytes.set_int32_le scratch sb_crc_off 0l;
        if Crc32.digest_bytes scratch <> stored then Error "superblock: bad CRC"
        else begin
          let segment_size = Codec.read_u32 d in
          let max_files = Codec.read_u32 d in
          let total_blocks = Codec.read_u32 d in
          let nsegments = Codec.read_u32 d in
          let cp_blocks = Codec.read_u32 d in
          let align_sectors = Codec.read_u32 d in
          let config =
            {
              Config.default with
              block_size;
              segment_size;
              max_files;
              segment_align_sectors = align_sectors;
            }
          in
          match compute config geometry with
          | Error _ as e -> e
          | Ok layout ->
              if
                layout.total_blocks <> total_blocks
                || layout.nsegments <> nsegments
                || layout.cp_blocks <> cp_blocks
              then Error "superblock does not match disk geometry"
              else Ok layout
        end
      end
    end
  in
  match check () with
  | v -> v
  | exception Codec.Error m -> Error ("superblock: " ^ m)
  | exception Invalid_argument m -> Error ("superblock: " ^ m)

let pp ppf t =
  Format.fprintf ppf
    "layout: %d blocks of %d B, %d segments of %d blocks, cp regions at \
     (%d, %d) x%d blocks, imap %d blocks (%d files), usage %d blocks"
    t.total_blocks t.block_size t.nsegments t.seg_blocks (fst t.cp_region)
    (snd t.cp_region) t.cp_blocks t.n_imap_blocks t.max_files t.n_usage_blocks
