module Inode = Lfs_vfs.Inode
module Dir = Lfs_vfs.Dir
module Errors = Lfs_vfs.Errors
module Io = Lfs_disk.Io

let dir_entry (st : State.t) inum =
  let e = Inode_store.find st inum in
  if e.ino.Inode.kind <> Lfs_vfs.Fs_intf.Directory then
    Errors.raise_ (Errors.Enotdir (Printf.sprintf "inum %d" inum));
  e

let read (st : State.t) (e : State.itable_entry) blkidx =
  let inum = e.ino.Inode.inum in
  match Lfs_cache.Block_cache.find st.cache (Block_io.key_data ~inum ~blkno:blkidx) with
  | Some _ as block -> block
  | None ->
      let addr = Lfs_vfs.Bmap.read Inode_store.map st e blkidx in
      if addr = Layout.null_addr then None
      else Some (Block_io.fetch_file_block st ~inum ~blkno:blkidx ~addr)

(* A dirty cache insert: directory updates reach the disk inside segment
   writes. *)
let write (st : State.t) (e : State.itable_entry) blkidx block =
  let bs = st.layout.Layout.block_size in
  Lfs_cache.Block_cache.insert st.cache
    (Block_io.key_data ~inum:e.ino.Inode.inum ~blkno:blkidx)
    ~dirty:true block;
  if (blkidx + 1) * bs > e.ino.Inode.size then
    e.ino.Inode.size <- (blkidx + 1) * bs;
  e.ino.Inode.mtime_us <- Io.now_us st.io;
  Inode_store.mark_dirty st e

let backing : (State.t, State.itable_entry) Dir.backing =
  {
    views = (fun (st : State.t) -> st.dirs);
    inode = (fun _ (e : State.itable_entry) -> e.ino);
    read;
    write;
  }

let remove st ~dir name = Dir.remove backing st (dir_entry st dir) name
let entries st ~dir = Dir.entries backing st (dir_entry st dir)
