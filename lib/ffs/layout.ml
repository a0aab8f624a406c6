module Codec = Lfs_util.Codec
module Crc32 = Lfs_util.Crc32
module Geometry = Lfs_disk.Geometry

type t = {
  block_size : int;
  block_sectors : int;
  total_blocks : int;
  ngroups : int;
  group_blocks : int;
  inodes_per_group : int;
  bb_blocks : int;
  ib_blocks : int;
  it_blocks : int;
  max_files : int;
}

let inode_bytes = Lfs_vfs.Inode.slot_bytes
let inodes_per_block t = t.block_size / inode_bytes
let null_addr = Lfs_vfs.Inode.null_addr

let compute (config : Config.t) geometry =
  match Config.validate config with
  | Error _ as e -> e
  | Ok () ->
      let sector_size = geometry.Geometry.sector_size in
      if config.Config.block_size mod sector_size <> 0 then
        Error "block size not a multiple of sector size"
      else begin
        let block_size = config.Config.block_size in
        let total_blocks = Geometry.size_bytes geometry / block_size in
        let ngroups = config.Config.ngroups in
        let group_blocks = (total_blocks - 1) / ngroups in
        if group_blocks < 8 then Error "disk too small for this many groups"
        else begin
          let inodes_per_group =
            max 16
              (group_blocks * block_size / config.Config.inode_bytes_per_inode)
          in
          let bits_per_block = block_size * 8 in
          let bb_blocks = (group_blocks + bits_per_block - 1) / bits_per_block in
          let ib_blocks =
            (inodes_per_group + bits_per_block - 1) / bits_per_block
          in
          let per_block = block_size / inode_bytes in
          let it_blocks = (inodes_per_group + per_block - 1) / per_block in
          let meta = bb_blocks + ib_blocks + it_blocks in
          if meta >= group_blocks then
            Error "group metadata exceeds group size"
          else
            Ok
              {
                block_size;
                block_sectors = block_size / sector_size;
                total_blocks;
                ngroups;
                group_blocks;
                inodes_per_group;
                bb_blocks;
                ib_blocks;
                it_blocks;
                max_files = ngroups * inodes_per_group;
              }
        end
      end

let sector_of_block t addr = addr * t.block_sectors
let group_first_block t g = 1 + (g * t.group_blocks)

let group_data_first t g =
  group_first_block t g + t.bb_blocks + t.ib_blocks + t.it_blocks

let group_of_block t addr =
  if addr < 1 || addr >= 1 + (t.ngroups * t.group_blocks) then
    invalid_arg "Layout.group_of_block";
  (addr - 1) / t.group_blocks

let block_bitmap_block t ~group ~idx =
  if idx < 0 || idx >= t.bb_blocks then invalid_arg "block_bitmap_block";
  group_first_block t group + idx

let inode_bitmap_block t ~group ~idx =
  if idx < 0 || idx >= t.ib_blocks then invalid_arg "inode_bitmap_block";
  group_first_block t group + t.bb_blocks + idx

let group_of_inum t inum =
  if inum <= 0 || inum >= t.max_files then
    invalid_arg (Printf.sprintf "Layout.group_of_inum: %d" inum);
  inum / t.inodes_per_group

let inode_location t inum =
  let g = group_of_inum t inum in
  let index = inum mod t.inodes_per_group in
  let per_block = inodes_per_block t in
  let block =
    group_first_block t g + t.bb_blocks + t.ib_blocks + (index / per_block)
  in
  (block, index mod per_block)

let sb_magic = 0x46465331 (* "FFS1" *)
let sb_crc_off = 24

let encode_superblock t =
  let e = Codec.encoder ~capacity:t.block_size () in
  Codec.u32 e sb_magic;
  Codec.u32 e t.block_size;
  Codec.u32 e t.ngroups;
  Codec.u32 e t.inodes_per_group;
  Codec.u32 e t.total_blocks;
  Codec.u32 e t.group_blocks;
  Codec.u32 e 0 (* crc *);
  Codec.pad_to e t.block_size;
  let block = Codec.to_bytes e in
  Bytes.set_int32_le block sb_crc_off (Crc32.digest_bytes block);
  block

let decode_superblock block geometry =
  let check () =
    let d = Codec.decoder block in
    if Codec.read_u32 d <> sb_magic then Error "ffs superblock: bad magic"
    else begin
      let block_size = Codec.read_u32 d in
      if block_size <= 0 || block_size > Bytes.length block then
        Error "ffs superblock: implausible block size"
      else begin
        let scratch = Bytes.sub block 0 block_size in
        let stored = Bytes.get_int32_le scratch sb_crc_off in
        Bytes.set_int32_le scratch sb_crc_off 0l;
        if Crc32.digest_bytes scratch <> stored then
          Error "ffs superblock: bad CRC"
        else begin
          let ngroups = Codec.read_u32 d in
          let inodes_per_group = Codec.read_u32 d in
          let total_blocks = Codec.read_u32 d in
          let group_blocks = Codec.read_u32 d in
          (* Recompute meta sizes from stored primaries. *)
          let bits_per_block = block_size * 8 in
          let bb_blocks = (group_blocks + bits_per_block - 1) / bits_per_block in
          let ib_blocks =
            (inodes_per_group + bits_per_block - 1) / bits_per_block
          in
          let per_block = block_size / inode_bytes in
          let it_blocks = (inodes_per_group + per_block - 1) / per_block in
          let expected_blocks =
            Geometry.size_bytes geometry / block_size
          in
          if total_blocks <> expected_blocks then
            Error "ffs superblock does not match disk geometry"
          else
            Ok
              {
                block_size;
                block_sectors = block_size / geometry.Geometry.sector_size;
                total_blocks;
                ngroups;
                group_blocks;
                inodes_per_group;
                bb_blocks;
                ib_blocks;
                it_blocks;
                max_files = ngroups * inodes_per_group;
              }
        end
      end
    end
  in
  match check () with
  | v -> v
  | exception Codec.Error m -> Error ("ffs superblock: " ^ m)
  | exception Invalid_argument m -> Error ("ffs superblock: " ^ m)

let pp ppf t =
  Format.fprintf ppf
    "ffs layout: %d blocks of %d B, %d groups x %d blocks, %d inodes/group"
    t.total_blocks t.block_size t.ngroups t.group_blocks t.inodes_per_group
