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

let encode_entry e entry =
  let tag, a, b, c =
    match entry with
    | Data { inum; blkno; version } -> (1, inum, blkno, version)
    | Indirect { inum; idx } -> (2, inum, idx, 0)
    | Dindirect { inum } -> (3, inum, 0, 0)
    | Inode_block -> (4, 0, 0, 0)
    | Imap_block { idx } -> (5, idx, 0, 0)
    | Usage_block { idx } -> (6, idx, 0, 0)
  in
  Codec.u8 e tag;
  Codec.u32 e a;
  Codec.u32 e b;
  Codec.u32 e c

let decode_entry d =
  let tag = Codec.read_u8 d in
  let a = Codec.read_u32 d in
  let b = Codec.read_u32 d in
  let c = Codec.read_u32 d in
  match tag with
  | 1 -> Data { inum = a; blkno = b; version = c }
  | 2 -> Indirect { inum = a; idx = b }
  | 3 -> Dindirect { inum = a }
  | 4 -> Inode_block
  | 5 -> Imap_block { idx = a }
  | 6 -> Usage_block { idx = a }
  | n -> raise (Codec.Error (Printf.sprintf "summary: bad entry tag %d" n))

(* The block CRC lives in the last 4 bytes of the header region and is
   computed with that field zeroed. *)
let crc_off = header_bytes - 4

let encode ~size_bytes header entries =
  if List.length entries <> header.nblocks then
    invalid_arg "Summary.encode: entry count differs from header.nblocks";
  if header.nblocks > max_entries ~size_bytes then
    invalid_arg "Summary.encode: too many entries for the summary region";
  let e = Codec.encoder ~capacity:size_bytes () in
  Codec.u32 e magic;
  Codec.int_as_i64 e header.seq;
  Codec.int_as_i64 e header.timestamp_us;
  Codec.u16 e header.nblocks;
  Codec.u32 e (Int32.to_int header.payload_crc land 0xFFFFFFFF);
  Codec.u32 e 0 (* header crc placeholder *);
  List.iter (encode_entry e) entries;
  Codec.pad_to e size_bytes;
  let block = Codec.to_bytes e in
  let crc = Crc32.digest_bytes block in
  Bytes.set_int32_le block crc_off crc;
  block

let decode block =
  match
    (* Zero the CRC field in place for the digest, then put it back. *)
    let stored = Bytes.get_int32_le block crc_off in
    Bytes.set_int32_le block crc_off 0l;
    let crc = Crc32.digest_bytes block in
    Bytes.set_int32_le block crc_off stored;
    if crc <> stored then None
    else begin
      let d = Codec.decoder block in
      if Codec.read_u32 d <> magic then None
      else begin
        let seq = Codec.read_int_as_i64 d in
        let timestamp_us = Codec.read_int_as_i64 d in
        let nblocks = Codec.read_u16 d in
        let payload_crc = Int32.of_int (Codec.read_u32 d) in
        Codec.skip d 4 (* header crc *);
        let entries = List.init nblocks (fun _ -> decode_entry d) in
        Some ({ seq; timestamp_us; nblocks; payload_crc }, entries)
      end
    end
  with
  | v -> v
  | exception Codec.Error _ -> None
  | exception Invalid_argument _ -> None

let payload_crc bytes ~off ~len = Crc32.digest_bytes ~off ~len bytes
