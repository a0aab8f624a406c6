module Codec = Lfs_util.Codec
module Crc32 = Lfs_util.Crc32

type entry =
  | Data of { inum : int; blkno : int; version : int }
  | Indirect of { inum : int; idx : int }
  | Dindirect of { inum : int }
  | Inode_block
  | Imap_block of { idx : int }
  | Usage_block of { idx : int }

let pp_entry ppf = function
  | Data { inum; blkno; version } ->
      Format.fprintf ppf "data(ino=%d blk=%d v=%d)" inum blkno version
  | Indirect { inum; idx } -> Format.fprintf ppf "ind(ino=%d idx=%d)" inum idx
  | Dindirect { inum } -> Format.fprintf ppf "dind(ino=%d)" inum
  | Inode_block -> Format.fprintf ppf "inodes"
  | Imap_block { idx } -> Format.fprintf ppf "imap(%d)" idx
  | Usage_block { idx } -> Format.fprintf ppf "usage(%d)" idx

let equal_entry (a : entry) (b : entry) = a = b

type header = {
  seq : int;
  timestamp_us : int;
  nblocks : int;
  payload_crc : int32;
}

let magic = 0x4C53554D (* "LSUM" *)

(* Bit 15 of the stored entry count marks a segment written in the
   middle of a run of inode blocks. *)
let continues_bit = 0x8000
let header_bytes = 30
let entry_bytes = 13

let max_entries ~size_bytes = (size_bytes - header_bytes) / entry_bytes

(* Smallest number of [block_size] blocks whose summary region can
   describe the rest of a [seg_blocks] segment. *)
let blocks_needed ~block_size ~seg_blocks =
  let rec go s =
    if s >= seg_blocks then
      invalid_arg "Summary.blocks_needed: segment too small"
    else if seg_blocks - s <= max_entries ~size_bytes:(s * block_size) then s
    else go (s + 1)
  in
  go 1

(* Entry [i] lies at a fixed offset after the header: a u8 tag and
   three u32 fields, unused ones zero. *)
let entry_off i = header_bytes + (i * entry_bytes)

let put_fields region off tag a b c =
  let off = Codec.put_u8 region off tag in
  let off = Codec.put_u32 region off a in
  let off = Codec.put_u32 region off b in
  ignore (Codec.put_u32 region off c : int)

let put_entry region i entry =
  let off = entry_off i in
  match entry with
  | Data { inum; blkno; version } -> put_fields region off 1 inum blkno version
  | Indirect { inum; idx } -> put_fields region off 2 inum idx 0
  | Dindirect { inum } -> put_fields region off 3 inum 0 0
  | Inode_block -> put_fields region off 4 0 0 0
  | Imap_block { idx } -> put_fields region off 5 idx 0 0
  | Usage_block { idx } -> put_fields region off 6 idx 0 0

let copy_entry src i dst j =
  Bytes.blit src (entry_off i) dst (entry_off j) entry_bytes

let valid_tag tag = tag >= 1 && tag <= 6
let is_data_at region i = Bytes.get_uint8 region (entry_off i) = 1
let data_inum_at region i = Codec.get_u32 region (entry_off i + 1)
let data_blkno_at region i = Codec.get_u32 region (entry_off i + 5)
let data_version_at region i = Codec.get_u32 region (entry_off i + 9)

let entry_at region i =
  let off = entry_off i in
  let a = Codec.get_u32 region (off + 1) in
  match Bytes.get_uint8 region off with
  | 1 ->
      Data
        {
          inum = a;
          blkno = Codec.get_u32 region (off + 5);
          version = Codec.get_u32 region (off + 9);
        }
  | 2 -> Indirect { inum = a; idx = Codec.get_u32 region (off + 5) }
  | 3 -> Dindirect { inum = a }
  | 4 -> Inode_block
  | 5 -> Imap_block { idx = a }
  | 6 -> Usage_block { idx = a }
  | n -> raise (Codec.Error (Printf.sprintf "summary: bad entry tag %d" n))

(* The block CRC lives in the last 4 bytes of the header region and is
   computed with that field zeroed. *)
let crc_off = header_bytes - 4

let seal region ~size_bytes ?(continues = false) header =
  if size_bytes > Bytes.length region then
    invalid_arg "Summary.seal: region longer than the buffer";
  if header.nblocks > max_entries ~size_bytes || header.nblocks >= continues_bit
  then invalid_arg "Summary.seal: too many entries for the summary region";
  let off = Codec.put_u32 region 0 magic in
  let off = Codec.put_int_as_i64 region off header.seq in
  let off = Codec.put_int_as_i64 region off header.timestamp_us in
  let off =
    Codec.put_u16 region off
      (if continues then header.nblocks lor continues_bit else header.nblocks)
  in
  let off =
    Codec.put_u32 region off (Int32.to_int header.payload_crc land 0xFFFFFFFF)
  in
  ignore (Codec.put_u32 region off 0 (* header crc placeholder *) : int);
  let used = entry_off header.nblocks in
  Bytes.fill region used (size_bytes - used) '\000';
  Bytes.set_int32_le region crc_off
    (Crc32.digest_bytes ~off:0 ~len:size_bytes region)

let encode ~size_bytes header entries =
  if List.length entries <> header.nblocks then
    invalid_arg "Summary.encode: entry count differs from header.nblocks";
  let region = Bytes.create size_bytes in
  List.iteri (put_entry region) entries;
  seal region ~size_bytes header;
  region

let rec tags_valid region i n =
  i >= n || (valid_tag (Bytes.get_uint8 region (entry_off i))
             && tags_valid region (i + 1) n)

let decode_header region =
  if Bytes.length region < header_bytes then None
  else begin
    (* Zero the CRC field in place for the digest, then put it back. *)
    let stored = Bytes.get_int32_le region crc_off in
    Bytes.set_int32_le region crc_off 0l;
    let crc = Crc32.digest_bytes region in
    Bytes.set_int32_le region crc_off stored;
    if crc <> stored || Codec.get_u32 region 0 <> magic then None
    else begin
      let nblocks = Bytes.get_uint16_le region 20 land (continues_bit - 1) in
      if entry_off nblocks > Bytes.length region
         || not (tags_valid region 0 nblocks)
      then None
      else
        Some
          {
            seq = Int64.to_int (Bytes.get_int64_le region 4);
            timestamp_us = Int64.to_int (Bytes.get_int64_le region 12);
            nblocks;
            payload_crc = Bytes.get_int32_le region 22;
          }
    end
  end

let continues region = Bytes.get_uint16_le region 20 land continues_bit <> 0

let decode region =
  match decode_header region with
  | None -> None
  | Some header -> Some (header, List.init header.nblocks (entry_at region))

let payload_crc bytes ~off ~len = Crc32.digest_bytes ~off ~len bytes
