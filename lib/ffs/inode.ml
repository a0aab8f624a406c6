module Codec = Lfs_util.Codec

type kind = Lfs_vfs.Fs_intf.file_kind

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

let create ~inum ~kind ~now_us =
  if inum <= 0 then invalid_arg "Inode.create: inum must be positive";
  {
    inum;
    kind;
    size = 0;
    nlink = 1;
    mtime_us = now_us;
    atime_us = now_us;
    direct = Array.make ndirect Layout.null_addr;
    indirect = Layout.null_addr;
    dindirect = Layout.null_addr;
  }

let nblocks ~block_size t = (t.size + block_size - 1) / block_size

let max_size layout =
  let ppb = Layout.ptrs_per_block layout in
  (ndirect + ppb + (ppb * ppb)) * layout.Layout.block_size

let kind_tag = function
  | Lfs_vfs.Fs_intf.Regular -> 1
  | Lfs_vfs.Fs_intf.Directory -> 2

let kind_of_tag = function
  | 1 -> Lfs_vfs.Fs_intf.Regular
  | 2 -> Lfs_vfs.Fs_intf.Directory
  | n -> raise (Codec.Error (Printf.sprintf "ffs inode: bad kind tag %d" n))

let encode_into t buf ~off =
  let o = Codec.put_u32 buf off t.inum in
  let o = Codec.put_u8 buf o (kind_tag t.kind) in
  let o = Codec.put_u16 buf o t.nlink in
  let o = Codec.put_int_as_i64 buf o t.size in
  let o = Codec.put_int_as_i64 buf o t.mtime_us in
  let o = Codec.put_int_as_i64 buf o t.atime_us in
  for i = 0 to ndirect - 1 do
    ignore (Codec.put_u32 buf (o + (4 * i)) t.direct.(i))
  done;
  let o = Codec.put_u32 buf (o + (4 * ndirect)) t.indirect in
  let o = Codec.put_u32 buf o t.dindirect in
  Bytes.fill buf o (off + Layout.inode_bytes - o) '\000'

let decode_at buf ~off =
  let d = Codec.decoder ~off ~len:Layout.inode_bytes buf in
  let inum = Codec.read_u32 d in
  if inum = 0 then None
  else begin
    let kind = kind_of_tag (Codec.read_u8 d) in
    let nlink = Codec.read_u16 d in
    let size = Codec.read_int_as_i64 d in
    let mtime_us = Codec.read_int_as_i64 d in
    let atime_us = Codec.read_int_as_i64 d in
    let direct = Array.init ndirect (fun _ -> Codec.read_u32 d) in
    let indirect = Codec.read_u32 d in
    let dindirect = Codec.read_u32 d in
    Some
      { inum; kind; size; nlink; mtime_us; atime_us; direct; indirect; dindirect }
  end

let clear_slot buf ~off = Bytes.fill buf off Layout.inode_bytes '\000'
