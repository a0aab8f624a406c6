module Codec = Lfs_util.Codec

type kind = Fs_intf.file_kind

type t = {
  inum : int;
  mutable kind : kind;
  mutable size : int;
  mutable nlink : int;
  mutable mtime_us : int;
  mutable atime_us : int;
  direct : int array;
  mutable indirect : int;
  mutable dindirect : int;
}

let ndirect = 12
let null_addr = 0
let slot_bytes = 128

let create ~inum ~kind ~now_us =
  if inum <= 0 then invalid_arg "Inode.create: inum must be positive";
  {
    inum;
    kind;
    size = 0;
    nlink = 1;
    mtime_us = now_us;
    atime_us = now_us;
    direct = Array.make ndirect null_addr;
    indirect = null_addr;
    dindirect = null_addr;
  }

let nblocks ~block_size t = (t.size + block_size - 1) / block_size

let kind_tag = function Fs_intf.Regular -> 1 | Fs_intf.Directory -> 2

let kind_of_tag = function
  | 1 -> Fs_intf.Regular
  | 2 -> Fs_intf.Directory
  | n -> raise (Codec.Error (Printf.sprintf "inode: bad kind tag %d" n))

(* Slot layout: inum u32, kind u8, nlink u16, size i64, mtime i64,
   [atime i64], direct u32 x 12, indirect u32, dindirect u32, zeros. *)

let encode_into ~atime t buf ~off =
  let o = Codec.put_u32 buf off t.inum in
  let o = Codec.put_u8 buf o (kind_tag t.kind) in
  let o = Codec.put_u16 buf o t.nlink in
  let o = Codec.put_int_as_i64 buf o t.size in
  let o = Codec.put_int_as_i64 buf o t.mtime_us in
  let o = if atime then Codec.put_int_as_i64 buf o t.atime_us else o in
  for i = 0 to ndirect - 1 do
    ignore (Codec.put_u32 buf (o + (4 * i)) t.direct.(i))
  done;
  let o = Codec.put_u32 buf (o + (4 * ndirect)) t.indirect in
  let o = Codec.put_u32 buf o t.dindirect in
  Bytes.fill buf o (off + slot_bytes - o) '\000'

let get_i64 buf o = Int64.to_int (Bytes.get_int64_le buf o)

(* Read in place: the fields sit at fixed offsets, so no decoder. *)
let decode_at ~atime buf ~off =
  if off < 0 || off + slot_bytes > Bytes.length buf then
    raise (Codec.Error "inode: slot past the end of the block");
  let inum = Codec.get_u32 buf off in
  if inum = 0 then None
  else begin
    let kind = kind_of_tag (Bytes.get_uint8 buf (off + 4)) in
    let o = if atime then off + 31 else off + 23 in
    let direct = Array.make ndirect null_addr in
    for i = 0 to ndirect - 1 do
      direct.(i) <- Codec.get_u32 buf (o + (4 * i))
    done;
    let o = o + (4 * ndirect) in
    Some
      {
        inum;
        kind;
        size = get_i64 buf (off + 7);
        nlink = Bytes.get_uint16_le buf (off + 5);
        mtime_us = get_i64 buf (off + 15);
        atime_us = (if atime then get_i64 buf (off + 23) else 0);
        direct;
        indirect = Codec.get_u32 buf o;
        dindirect = Codec.get_u32 buf (o + 4);
      }
  end

let inum_at buf ~off = Codec.get_u32 buf off
let clear_slot buf ~off = Bytes.fill buf off slot_bytes '\000'
