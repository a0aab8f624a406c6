module Bitset = Lfs_util.Bitset
module Bmap = Lfs_vfs.Bmap
module Dir_block = Lfs_vfs.Dir_block
module Geometry = Lfs_disk.Geometry
module Inode = Lfs_vfs.Inode
module Io = Lfs_disk.Io

(* The block map read straight off the device: each pointer block is
   read once per walk, when its slots are first needed (handles are the
   block's bytes). *)
let read_block io layout addr =
  Io.sync_read io
    ~sector:(Layout.sector_of_block layout addr)
    ~count:layout.Layout.block_sectors

let scan_only _ = invalid_arg "Fsck: the scan never writes"

let map io layout : (unit, Inode.t, bytes) Bmap.store =
  let find addr =
    if addr = Layout.null_addr then Bytes.empty else read_block io layout addr
  in
  {
    inode = Fun.id;
    block_size = (fun () -> layout.Layout.block_size);
    present = (fun block -> Bytes.length block > 0);
    get = (fun () block i -> Bmap.get block i);
    single = (fun () ino -> find ino.Inode.indirect);
    top = (fun () ino -> find ino.Inode.dindirect);
    child = (fun () _ top c -> find (Bmap.get top c));
    make_single = (fun () _ _ -> scan_only ());
    make_child = (fun () _ _ _ -> scan_only ());
    put = (fun () _ _ _ _ _ -> scan_only ());
    touch = (fun () _ -> scan_only ());
  }

type report = {
  inodes_scanned : int;
  blocks_referenced : int;
  directories_walked : int;
  orphan_inodes : int;
  bad_inodes : int;
  bitmap_errors : int;
  elapsed_us : int;
}

let run io =
  let geometry = Io.geometry io in
  let sector_size = geometry.Geometry.sector_size in
  let count = min geometry.Geometry.sectors (65536 / sector_size) in
  let sb = Io.sync_read io ~sector:0 ~count in
  match Layout.decode_superblock sb geometry with
  | Error _ as e -> e
  | Ok layout ->
      let t0 = Io.now_us io in
      let bs = layout.Layout.block_size in
      let read_block = read_block io layout in
      let map = map io layout in
      (* Pass 1: scan every inode-table block, walking all pointers and
         rebuilding reference bitmaps. *)
      let want_blocks =
        Array.init layout.Layout.ngroups (fun _ ->
            Bitset.create layout.Layout.group_blocks)
      in
      let meta = layout.Layout.bb_blocks + layout.Layout.ib_blocks + layout.Layout.it_blocks in
      Array.iter
        (fun m ->
          for i = 0 to meta - 1 do
            Bitset.set m i
          done)
        want_blocks;
      let inodes_scanned = ref 0 in
      let bad_inodes = ref 0 in
      let blocks_referenced = ref 0 in
      let reference addr =
        if addr <> Layout.null_addr then begin
          incr blocks_referenced;
          let g = Layout.group_of_block layout addr in
          Bitset.set want_blocks.(g) (addr - Layout.group_first_block layout g)
        end
      in
      for g = 0 to layout.Layout.ngroups - 1 do
        let it_first =
          Layout.group_first_block layout g + layout.Layout.bb_blocks
          + layout.Layout.ib_blocks
        in
        for blk = 0 to layout.Layout.it_blocks - 1 do
          let block = read_block (it_first + blk) in
          for slot = 0 to Layout.inodes_per_block layout - 1 do
            match Inode.decode_at ~atime:true block ~off:(slot * Layout.inode_bytes) with
            | exception Lfs_util.Codec.Error _ -> incr bad_inodes
            | None -> ()
            | Some ino ->
                incr inodes_scanned;
                Bmap.iter map () ino
                  ~pointer:(fun _ addr -> reference addr)
                  ~data:(fun _ addr -> reference addr)
          done
        done
      done;
      (* Pass 2: directory connectivity from the root. *)
      let reachable = Hashtbl.create 256 in
      let dirs_walked = ref 0 in
      (* A slot that does not decode was counted by pass 1; it leads
         nowhere. *)
      let read_inode inum =
        let addr, slot = Layout.inode_location layout inum in
        match
          Inode.decode_at ~atime:true (read_block addr)
            ~off:(slot * Layout.inode_bytes)
        with
        | ino -> ino
        | exception Lfs_util.Codec.Error _ -> None
      in
      let rec walk inum =
        if not (Hashtbl.mem reachable inum) then begin
          Hashtbl.replace reachable inum ();
          match read_inode inum with
          | Some ino when ino.Inode.kind = Lfs_vfs.Fs_intf.Directory ->
              incr dirs_walked;
              Bmap.iter map () ino
                ~pointer:(fun _ _ -> ())
                ~data:(fun _ addr ->
                  if addr <> Layout.null_addr then
                    match Dir_block.parse (read_block addr) with
                    | entries -> List.iter (fun (_, child) -> walk child) entries
                    | exception Lfs_util.Codec.Error _ -> ())
          | Some _ | None -> ()
        end
      in
      walk 1;
      let orphan_inodes = !inodes_scanned - Hashtbl.length reachable in
      (* Pass 3: compare rebuilt bitmaps with the on-disk ones. *)
      let bitmap_errors = ref 0 in
      for g = 0 to layout.Layout.ngroups - 1 do
        let on_disk_blocks =
          let buf = Bytes.create (layout.Layout.bb_blocks * bs) in
          for i = 0 to layout.Layout.bb_blocks - 1 do
            Bytes.blit
              (read_block (Layout.block_bitmap_block layout ~group:g ~idx:i))
              0 buf (i * bs) bs
          done;
          Bitset.of_bytes ~length:layout.Layout.group_blocks buf
        in
        for i = 0 to layout.Layout.group_blocks - 1 do
          if Bitset.mem on_disk_blocks i <> Bitset.mem want_blocks.(g) i then
            incr bitmap_errors
        done
      done;
      Ok
        {
          inodes_scanned = !inodes_scanned;
          blocks_referenced = !blocks_referenced;
          directories_walked = !dirs_walked;
          orphan_inodes = max 0 orphan_inodes;
          bad_inodes = !bad_inodes;
          bitmap_errors = !bitmap_errors;
          elapsed_us = Io.now_us io - t0;
        }
