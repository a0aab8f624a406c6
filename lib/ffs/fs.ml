module Audit = Lfs_vfs.Audit
module Bmap = Lfs_vfs.Bmap
module Cache = Lfs_cache.Block_cache
module Readahead = Lfs_cache.Readahead
module Dir = Lfs_vfs.Dir
module Dir_block = Lfs_vfs.Dir_block
module Errors = Lfs_vfs.Errors
module Fs_intf = Lfs_vfs.Fs_intf
module Fs_ops = Lfs_vfs.Fs_ops
module Inode = Lfs_vfs.Inode
module Io = Lfs_disk.Io
module Bus = Lfs_obs.Bus
module Event = Lfs_obs.Event

(* Announce a synchronous metadata write on the trace bus — the pattern
   the paper blames for FFS's small-file performance (§2). *)
let trace_sync_write io ~what ~sector ~sectors =
  let bus = Io.bus io in
  if Bus.enabled bus then
    Bus.emit bus (Event.Ffs_sync_write { what; sector; sectors })

let owner_raw = -3
let root_inum = 1

type entry = { ino : Inode.t; mutable dirty : bool }

type t = {
  io : Io.t;
  config : Config.t;
  layout : Layout.t;
  cache : Cache.t;
  readahead : Readahead.t;
  alloc : Alloc.t;
  itable : (int, entry) Hashtbl.t;
  dirs : Dir.t;
}

let name = "FFS"
let io t = t.io
let config t = t.config
let layout t = t.layout
let free_blocks t = Alloc.free_block_count t.alloc

let key_data ~inum ~blkno = { Cache.owner = inum; blkno }
let key_raw addr = { Cache.owner = owner_raw; blkno = addr }
let sector_of_block t addr = Layout.sector_of_block t.layout addr

(* Raw (by-address) block read through the cache: inode-table blocks and
   indirect blocks. *)
let read_raw t addr =
  if addr = Layout.null_addr then invalid_arg "Ffs.read_raw: null address";
  match Cache.find t.cache (key_raw addr) with
  | Some data -> data
  | None ->
      let data =
        Io.sync_read t.io ~sector:(sector_of_block t addr)
          ~count:t.layout.Layout.block_sectors
      in
      Cache.insert t.cache (key_raw addr) ~dirty:false data;
      data

(* Update one inode slot in its fixed table block.  [`Sync] models BSD's
   synchronous metadata write on create/delete; [`Async] leaves the block
   dirty for delayed write-back. *)
let store_inode t (ino : Inode.t option) ~inum ~mode =
  let addr, slot = Layout.inode_location t.layout inum in
  let block = Bytes.copy (read_raw t addr) in
  (match ino with
  | Some ino ->
      Inode.encode_into ~atime:true ino block ~off:(slot * Layout.inode_bytes)
  | None -> Inode.clear_slot block ~off:(slot * Layout.inode_bytes));
  match mode with
  | `Sync ->
      trace_sync_write t.io ~what:"inode" ~sector:(sector_of_block t addr)
        ~sectors:t.layout.Layout.block_sectors;
      Io.sync_write t.io ~sector:(sector_of_block t addr) block;
      Cache.insert t.cache (key_raw addr) ~dirty:false block
  | `Async -> Cache.insert t.cache (key_raw addr) ~dirty:true block

let get_entry t inum =
  match Hashtbl.find_opt t.itable inum with
  | Some e -> e
  | None ->
      if not (Alloc.inode_allocated t.alloc inum) then
        Errors.raise_ (Errors.Enoent (Printf.sprintf "inum %d" inum));
      let addr, slot = Layout.inode_location t.layout inum in
      let corrupt reason =
        Errors.raise_
          (Errors.Ecorrupt
             (Printf.sprintf "inum %d (block %d slot %d): %s" inum addr slot
                reason))
      in
      (match
         Inode.decode_at ~atime:true (read_raw t addr)
           ~off:(slot * Layout.inode_bytes)
       with
      | Some ino when ino.Inode.inum = inum ->
          let e = { ino; dirty = false } in
          Hashtbl.replace t.itable inum e;
          e
      | Some ino -> corrupt (Printf.sprintf "slot holds inum %d" ino.Inode.inum)
      | None -> corrupt "allocated in the bitmap but the slot is empty"
      | exception Lfs_util.Codec.Error m -> corrupt m)

(* The block map.  Pointer blocks are ordinary disk blocks, read and
   updated in place through the cache by address; a write claims a
   missing one, allocated near the file's previous block. *)

let read_ptr t addr idx = Bmap.get (read_raw t addr) idx

let write_ptr t addr idx v =
  let block = Bytes.copy (read_raw t addr) in
  let old = Bmap.get block idx in
  Bmap.set block idx v;
  Cache.insert t.cache (key_raw addr) ~dirty:true block;
  old

(* BSD's maxbpg: one file may claim only so many blocks of a cylinder
   group before allocation moves on, so large files spread across the
   disk rather than monopolizing a group. *)
let maxbpg = 256

let rec alloc_near t (e : entry) blkno =
  let near =
    if blkno > 0 && blkno mod maxbpg = 0 then begin
      (* Chunk boundary: rotate to the next group. *)
      let g =
        (Layout.group_of_inum t.layout e.ino.Inode.inum + (blkno / maxbpg))
        mod t.layout.Layout.ngroups
      in
      Layout.group_data_first t.layout g
    end
    else begin
      (* Prefer right after the file's previous block; fall back to the
         inode's group. *)
      let rec back i =
        if i < 0 then
          Layout.group_data_first t.layout
            (Layout.group_of_inum t.layout e.ino.Inode.inum)
        else begin
          let a = Bmap.read map t e i in
          if a <> Layout.null_addr then a else back (i - 1)
        end
      in
      back
        (min (blkno - 1)
           (Inode.ndirect - 1
           + Bmap.ptrs_per_block ~block_size:t.layout.Layout.block_size))
    end
  in
  match Alloc.alloc_block t.alloc ~near with
  | Some addr -> addr
  | None -> Errors.raise_ Errors.Enospc

(* Allocate a zeroed pointer block. *)
and alloc_meta_block t (e : entry) blkno =
  let addr = alloc_near t e blkno in
  Cache.insert t.cache (key_raw addr) ~dirty:true
    (Bytes.make t.layout.Layout.block_size '\000');
  addr

and make_single t (e : entry) blkno =
  if e.ino.Inode.indirect = Layout.null_addr then begin
    e.ino.Inode.indirect <- alloc_meta_block t e blkno;
    e.dirty <- true
  end;
  e.ino.Inode.indirect

and make_child t (e : entry) c blkno =
  if e.ino.Inode.dindirect = Layout.null_addr then begin
    e.ino.Inode.dindirect <- alloc_meta_block t e blkno;
    e.dirty <- true
  end;
  let a = read_ptr t e.ino.Inode.dindirect c in
  if a <> Layout.null_addr then a
  else begin
    let a = alloc_meta_block t e blkno in
    ignore (write_ptr t e.ino.Inode.dindirect c a);
    a
  end

and map : (t, entry, int) Bmap.store =
  {
    inode = (fun (e : entry) -> e.ino);
    block_size = (fun t -> t.layout.Layout.block_size);
    present = (fun addr -> addr <> Layout.null_addr);
    get = read_ptr;
    single = (fun _ (e : entry) -> e.ino.Inode.indirect);
    top = (fun _ (e : entry) -> e.ino.Inode.dindirect);
    child = (fun t _ top c -> read_ptr t top c);
    make_single;
    make_child;
    put = (fun t _ addr _ idx v -> write_ptr t addr idx v);
    touch = (fun _ (e : entry) -> e.dirty <- true);
  }

let meta_blocks_per_group (l : Layout.t) =
  l.Layout.bb_blocks + l.Layout.ib_blocks + l.Layout.it_blocks

(* Write one elevator window, already sorted, one request per block. *)
let write_window t window =
  List.filter_map
    (fun (_, addr, key) ->
      if addr = Layout.null_addr then None
      else
        match Cache.find t.cache key with
        | Some data -> Some (addr, key, data)
        | None -> None)
    window
  |> List.iter (fun (addr, key, data) ->
         Io.async_write t.io ~sector:(sector_of_block t addr) data;
         Cache.mark_clean t.cache key)

(* Write back the dirty blocks [pick] selects.  A block goes out no
   earlier than the blocks it points at, so a crash part-way never
   leaves a pointer to a block the disk does not yet hold (which, after
   a delete or truncate, would be another file's bytes): file data
   first, then indirect blocks, then double-indirect blocks, then the
   inode table.  Within that order the blocks are address-sorted so the
   elevator gets its best shot — FFS's problem is where the blocks are,
   not the order they are issued in. *)
let write_back t pick =
  let l = t.layout in
  let dindirect = Hashtbl.create 16 in
  Hashtbl.iter
    (fun _ (e : entry) ->
      if e.ino.Inode.dindirect <> Layout.null_addr then
        Hashtbl.replace dindirect e.ino.Inode.dindirect ())
    t.itable;
  let rank addr =
    if
      addr
      < Layout.group_first_block l (Layout.group_of_block l addr)
        + meta_blocks_per_group l
    then 3
    else if Hashtbl.mem dindirect addr then 2
    else 1
  in
  let writes =
    Cache.fold_dirty
      (fun key _ acc ->
        if not (pick key) then acc
        else if key.Cache.owner = owner_raw then
          (rank key.Cache.blkno, key.Cache.blkno, key) :: acc
        else
          (0, Bmap.read map t (get_entry t key.Cache.owner) key.Cache.blkno, key)
          :: acc)
      t.cache []
    |> List.rev
    |> List.stable_sort (fun (a, _, _) (b, _, _) -> compare a b)
  in
  (* The disk driver's elevator reorders a bounded queue, not the whole
     backlog: sort within windows of the era's tagged-queue depth. *)
  let queue_depth = 16 in
  let rec windows = function
    | [] -> ()
    | l ->
        let rec take n acc rest =
          match (n, rest) with
          | 0, _ | _, [] -> (List.rev acc, rest)
          | n, x :: rest -> take (n - 1) (x :: acc) rest
        in
        let window, rest = take queue_depth [] l in
        write_window t (List.sort compare window);
        windows rest
  in
  windows writes

(* Delayed write-back: dirty inodes are folded into their table blocks,
   then every dirty block goes to its fixed address. *)
let flush t =
  Hashtbl.iter
    (fun inum (e : entry) ->
      if e.dirty then begin
        store_inode t (Some e.ino) ~inum ~mode:`Async;
        e.dirty <- false
      end)
    t.itable;
  write_back t (fun _ -> true)

let persist_bitmaps t =
  List.concat_map
    (fun g -> Alloc.encode_group t.alloc g)
    (Alloc.dirty_groups t.alloc)
  |> List.iter (fun (addr, block) ->
         Io.async_write t.io ~sector:(sector_of_block t addr) block);
  Alloc.clear_dirty t.alloc

let do_sync t =
  flush t;
  persist_bitmaps t;
  Io.drain t.io

let housekeep t =
  if Cache.over_capacity t.cache then flush t;
  let age = Cache.oldest_dirty_age_us t.cache in
  if age >= 0 && age >= t.config.Config.writeback_age_us then flush t

(* Directories *)

(* One block after a cache miss, cached clean: no second lookup. *)
let fetch_file_block t ~inum ~blkno ~addr =
  let block = Cache.take t.cache t.layout.Layout.block_size in
  Io.sync_read_into t.io ~sector:(sector_of_block t addr) [| block |];
  Cache.insert t.cache (key_data ~inum ~blkno) ~dirty:false block;
  block

let read_dir_block t (e : entry) blk =
  let inum = e.ino.Inode.inum in
  match Cache.find t.cache (key_data ~inum ~blkno:blk) with
  | Some _ as block -> block
  | None ->
      let addr = Bmap.read map t e blk in
      if addr = Layout.null_addr then None
      else Some (fetch_file_block t ~inum ~blkno:blk ~addr)

(* Inode changes on the namespace path are synchronous, as in BSD.  The
   file's own delayed blocks go out first, so the inode on disk never
   points at a block the disk does not yet hold. *)
let persist t (e : entry) =
  let ino = e.ino in
  let pointers = ref [] in
  Bmap.pointers map t e (fun _ addr -> pointers := addr :: !pointers);
  write_back t (fun key ->
      key.Cache.owner = ino.Inode.inum
      || (key.Cache.owner = owner_raw && List.mem key.Cache.blkno !pointers));
  store_inode t (Some ino) ~inum:ino.Inode.inum ~mode:`Sync;
  e.dirty <- false

(* Writing a directory block on the create/delete path is synchronous —
   the behaviour the paper blames for coupling FFS to disk latency. *)
let write_dir_block t (e : entry) blk block ~sync_write =
  let inum = e.ino.Inode.inum in
  let addr = Bmap.fill map t e blk alloc_near in
  if sync_write then begin
    trace_sync_write t.io ~what:"directory" ~sector:(sector_of_block t addr)
      ~sectors:t.layout.Layout.block_sectors;
    Io.sync_write t.io ~sector:(sector_of_block t addr) block;
    Cache.insert t.cache (key_data ~inum ~blkno:blk) ~dirty:false block
  end
  else Cache.insert t.cache (key_data ~inum ~blkno:blk) ~dirty:true block;
  e.ino.Inode.mtime_us <- Io.now_us t.io;
  e.dirty <- true;
  if (blk + 1) * t.layout.Layout.block_size > e.ino.Inode.size then begin
    e.ino.Inode.size <- (blk + 1) * t.layout.Layout.block_size;
    (* A directory grown by a synchronous entry write has its size made
       durable too, as BSD's [ufs_direnter] does: else a crash recovers
       the entry beyond the directory's end. *)
    if sync_write then persist t e
  end

let dir_backing : (t, entry) Dir.backing =
  {
    views = (fun t -> t.dirs);
    inode = (fun _ (e : entry) -> e.ino);
    read = read_dir_block;
    write = (fun t e blk block -> write_dir_block t e blk block ~sync_write:true);
  }


(* Data blocks *)

let file_backing : (t, entry) Lfs_cache.File_read.backing =
  {
    io = (fun t -> t.io);
    cache = (fun t -> t.cache);
    readahead = (fun t -> t.readahead);
    block_size = (fun t -> t.layout.Layout.block_size);
    clustering = (fun t -> t.config.Config.read_clustering);
    size = (fun (e : entry) -> e.ino.Inode.size);
    null_addr = Layout.null_addr;
    bmap = (fun t e blkno -> Bmap.read map t e blkno);
    (* Update in place: every mapped block is on disk. *)
    on_disk = (fun _ _ -> true);
    fetch = fetch_file_block;
    sector_of_block;
    fill_span = (fun bus f -> Bus.with_span bus "ffs_read_fill" f);
    prefetch_span = (fun bus f -> Bus.with_span bus "ffs_prefetch" f);
  }

(* Update in place: a block written needs its address before write-back,
   so a write allocates it first.  A former hole gets a freshly allocated
   block whose on-disk content belonged to someone else: its old bytes
   are zeros, never read back. *)
let claim t (e : entry) blkno =
  let existed = Bmap.read map t e blkno <> Layout.null_addr in
  let addr = Bmap.fill map t e blkno alloc_near in
  (* Read-modify-write whenever the pre-existing block holds bytes
     inside the current file size — even when this write's own offset
     lies past them. *)
  if existed && blkno * t.layout.Layout.block_size < e.ino.Inode.size then addr
  else Layout.null_addr

(* In-place FS: the pointer is cleared so the block is not seen on
   re-extension. *)
let free_block t (e : entry) blkno =
  let addr = Bmap.read map t e blkno in
  if addr <> Layout.null_addr then begin
    Alloc.free_block t.alloc addr;
    ignore (Bmap.write map t e blkno Layout.null_addr)
  end

let release_raw t addr =
  Alloc.free_block t.alloc addr;
  Cache.remove t.cache (key_raw addr)

(* Truncation to zero has freed every data block, so the pointer blocks
   map nothing: free them too, as BSD's itrunc does. *)
let emptied t (e : entry) =
  Bmap.pointers map t e release_raw;
  e.ino.Inode.indirect <- Layout.null_addr;
  e.ino.Inode.dindirect <- Layout.null_addr;
  e.dirty <- true

let alloc_inode t ~(dir : entry) kind =
  let group = Layout.group_of_inum t.layout dir.ino.Inode.inum in
  let inum =
    match Alloc.alloc_inode t.alloc ~group ~spread:(kind = Fs_intf.Directory) with
    | Some i -> i
    | None -> Errors.raise_ Errors.Enospc
  in
  let ino = Inode.create ~inum ~kind ~now_us:(Io.now_us t.io) in
  let e = { ino; dirty = false } in
  Hashtbl.replace t.itable inum e;
  (* The first of Figure 1's two synchronous writes: the new inode's
     table block, before the directory data block.  A new directory
     starts with one empty block, as BSD's starts with "." and "..", so
     its first entry does not grow it; writing the block writes the
     inode. *)
  if kind = Fs_intf.Directory then
    write_dir_block t e 0
      (Dir_block.encode ~block_size:t.layout.Layout.block_size [])
      ~sync_write:true
  else store_inode t (Some ino) ~inum ~mode:`Sync;
  inum

let release_data t (e : entry) blkno addr =
  if addr <> Layout.null_addr then begin
    Alloc.free_block t.alloc addr;
    Cache.remove t.cache (key_data ~inum:e.ino.Inode.inum ~blkno)
  end

let free_inode t inum (e : entry) =
  Bmap.release map t e ~data:release_data ~pointer:release_raw;
  Readahead.forget t.readahead ~owner:inum;
  store_inode t None ~inum ~mode:`Sync;
  Hashtbl.remove t.itable inum;
  Dir.forget t.dirs inum;
  Alloc.free_inode t.alloc inum

let ops : (t, entry) Fs_ops.backing =
  {
    file = file_backing;
    dir = dir_backing;
    root = root_inum;
    find = get_entry;
    atime = (fun _ _ e -> e.ino.Inode.atime_us);
    set_atime =
      (fun _ _ e us ->
        e.ino.Inode.atime_us <- us;
        e.dirty <- true);
    max_size =
      (fun t -> Bmap.max_size ~block_size:t.layout.Layout.block_size);
    alloc_inode;
    free_inode;
    persist;
    touch = (fun _ e -> e.dirty <- true);
    claim = Some claim;
    free_block;
    emptied = (fun t _ e -> emptied t e);
    housekeep = (fun t ~can_fail:_ -> housekeep t);
  }

let create t path = Fs_ops.create ops t path
let mkdir t path = Fs_ops.mkdir ops t path
let delete t path = Fs_ops.delete ops t path
let rename t src dst = Fs_ops.rename ops t src dst
let link t src dst = Fs_ops.link ops t src dst
let write t path ~off data = Fs_ops.write ops t path ~off data
let read t path ~off ~len = Fs_ops.read ops t path ~off ~len
let truncate t path ~size = Fs_ops.truncate ops t path ~size
let stat t path = Fs_ops.stat ops t path
let readdir t path = Fs_ops.readdir ops t path
let exists t path = Fs_ops.exists ops t path
let sync t = Fs_ops.syscall ops t `Sync (fun () -> do_sync t)
let fsync t path = Fs_ops.fsync ops t path (fun _ -> do_sync t)

let flush_caches t =
  do_sync t;
  Cache.drop_clean t.cache;
  Readahead.reset t.readahead;
  Dir.clear t.dirs;
  let clean =
    Hashtbl.fold
      (fun inum (e : entry) acc -> if e.dirty then acc else inum :: acc)
      t.itable []
  in
  List.iter (Hashtbl.remove t.itable) clean

let unmount t = do_sync t

(* Lifecycle *)

let make io config layout =
  {
    io;
    config;
    layout;
    cache =
      Cache.create ~capacity_blocks:config.Config.cache_blocks
        ~metrics:(Io.metrics io) ~bus:(Io.bus io) (Io.clock io);
    readahead =
      Readahead.create ~max_window:config.Config.readahead_blocks
        (Io.metrics io);
    alloc = Alloc.create layout;
    itable = Hashtbl.create 256;
    dirs = Dir.create ~io ~block_size:layout.Layout.block_size;
  }

let format io config =
  let geometry = Io.geometry io in
  match Layout.compute config geometry with
  | Error _ as e -> e
  | Ok layout ->
      Io.sync_write io ~sector:0 (Layout.encode_superblock layout);
      let t = make io config layout in
      (* Zero the inode-table blocks so stale data never decodes as
         inodes. *)
      let zero = Bytes.make layout.Layout.block_size '\000' in
      for g = 0 to layout.Layout.ngroups - 1 do
        let first =
          Layout.group_first_block layout g
          + layout.Layout.bb_blocks + layout.Layout.ib_blocks
        in
        for i = 0 to layout.Layout.it_blocks - 1 do
          Io.async_write io ~sector:(sector_of_block t (first + i)) zero
        done
      done;
      (match Alloc.alloc_inode t.alloc ~group:0 ~spread:false with
      | Some i when i = root_inum -> ()
      | Some _ | None -> failwith "FFS format: could not allocate root inode");
      let root =
        Inode.create ~inum:root_inum ~kind:Fs_intf.Directory
          ~now_us:(Io.now_us io)
      in
      store_inode t (Some root) ~inum:root_inum ~mode:`Sync;
      persist_bitmaps t;
      Io.drain io;
      Ok ()

let mount ?(config = Config.default) io =
  let geometry = Io.geometry io in
  let sector_size = geometry.Lfs_disk.Geometry.sector_size in
  let count = min geometry.Lfs_disk.Geometry.sectors (65536 / sector_size) in
  let sb = Io.sync_read io ~sector:0 ~count in
  match Layout.decode_superblock sb geometry with
  | Error _ as e -> e
  | Ok layout ->
      let config =
        {
          config with
          Config.block_size = layout.Layout.block_size;
          ngroups = layout.Layout.ngroups;
        }
      in
      let t = make io config layout in
      for g = 0 to layout.Layout.ngroups - 1 do
        Alloc.load_group t.alloc g ~read:(fun addr ->
            Io.sync_read io ~sector:(sector_of_block t addr)
              ~count:layout.Layout.block_sectors)
      done;
      Ok t

(* --- Structural verification ----------------------------------------- *)

(* The FFS counterpart of Lfs_core.Check: cylinder-group bitmaps vs the
   blocks actually reachable from allocated inodes, plus the namespace
   audit LFS gets.  Runs on the live (cache-coherent) state, so it sees
   unwritten changes too. *)

let data_first l g = Layout.group_first_block l g + meta_blocks_per_group l

(* Where a file's blocks may live: a group's data region. *)
let in_data_range l addr =
  addr >= 1
  && addr < l.Layout.total_blocks
  && addr >= data_first l (Layout.group_of_block l addr)

let fsck t =
  let l = t.layout in
  let issues = ref [] in
  let report i = issues := i :: !issues in
  (* Block-reference map: every reachable data/pointer block must have
     exactly one owner, and must not alias the superblock or a group's
     bitmap/inode-table region. *)
  let owners = Hashtbl.create 1024 in
  let reference = Audit.reference owners report ~in_range:(in_data_range l) in
  Audit.files map t ~max_files:l.Layout.max_files
    ~allocated:(Alloc.inode_allocated t.alloc) ~find:(get_entry t) reference
    report;
  Audit.double_references owners report;
  (* Cylinder-group bitmap cross-check: metadata blocks are permanently
     allocated; a data block is allocated iff something references it. *)
  for g = 0 to l.Layout.ngroups - 1 do
    let first = Layout.group_first_block l g in
    let dfirst = data_first l g in
    let last = min (first + l.Layout.group_blocks) l.Layout.total_blocks - 1 in
    for addr = first to last do
      let in_bitmap = Alloc.block_allocated t.alloc addr in
      if addr < dfirst then begin
        if not in_bitmap then
          report
            (Audit.Lost_block
               { owner = Printf.sprintf "group %d metadata" g; addr })
      end
      else
        match Hashtbl.find_opt owners addr with
        | Some os ->
            if not in_bitmap then
              report (Audit.Lost_block { owner = List.hd os; addr })
        | None -> if in_bitmap then report (Audit.Leaked_block { addr })
    done
  done;
  Audit.namespace ~root:root_inum ~max_files:l.Layout.max_files
    ~allocated:(Alloc.inode_allocated t.alloc)
    ~entries:(fun dir -> Dir.entries dir_backing t (get_entry t dir))
    ~inode:(fun inum -> (get_entry t inum).ino)
    report;
  List.rev !issues

let integrity t = List.map (Format.asprintf "%a" Audit.pp_issue) (fsck t)

(* --- Crash repair ---------------------------------------------------- *)

(* fsck-style repair after an unclean shutdown.  Update-in-place leaves
   no log to replay: the bitmaps on disk are whatever the last sync wrote
   (stale), directory blocks may be torn mid-sector, and inode slots may
   disagree with both.  The only ground truth is the inode table plus the
   reachable directory tree, so — exactly as the paper says of FFS — the
   whole disk must be scanned:

   1. every inode-table slot is decoded (garbage slots cleared), and the
      inode bitmaps rebuilt from the survivors;
   2. the namespace is walked from the root, salvaging unparseable
      (torn) directory blocks as empty, pruning entries whose inode did
      not survive, fixing link counts and releasing orphan inodes;
   3. the block bitmaps are rebuilt from the survivors' pointers,
      clearing bogus (out-of-range, doubly-claimed or beyond-size)
      pointers along the way.

   Returns a human-readable line per repair made.  Contrast
   [Lfs_core.Recovery]: LFS reads two checkpoint regions and the log
   tail; this reads every inode table and directory block on disk. *)
let repair t =
  let l = t.layout in
  let repairs = ref [] in
  let note fmt = Printf.ksprintf (fun s -> repairs := s :: !repairs) fmt in
  Hashtbl.reset t.itable;
  (* Pass 1: the inode table decides which inodes exist. *)
  let valid = Array.make l.Layout.max_files false in
  for inum = 1 to l.Layout.max_files - 1 do
    let addr, slot = Layout.inode_location l inum in
    let block = read_raw t addr in
    match Inode.decode_at ~atime:true block ~off:(slot * Layout.inode_bytes) with
    | Some ino when ino.Inode.inum = inum -> valid.(inum) <- true
    | None -> ()
    | Some _ | (exception Lfs_util.Codec.Error _) ->
        note "inum %d: cleared garbage inode slot" inum;
        store_inode t None ~inum ~mode:`Async
  done;
  if not valid.(root_inum) then failwith "FFS repair: root inode lost";
  Alloc.reset t.alloc;
  for inum = 1 to l.Layout.max_files - 1 do
    if valid.(inum) then Alloc.mark_inode t.alloc inum
  done;
  (* Pass 2: walk the namespace; salvage torn directory blocks, prune
     entries to dead inodes, then fix nlink and release orphans. *)
  let links = Hashtbl.create 256 in
  let visited = Hashtbl.create 256 in
  let rec walk dir =
    if not (Hashtbl.mem visited dir) then begin
      Hashtbl.replace visited dir ();
      let e = get_entry t dir in
      let rewrite blk entries =
        write_dir_block t e blk
          (Dir_block.encode ~block_size:l.Layout.block_size entries)
          ~sync_write:false
      in
      for blk = 0 to Inode.nblocks ~block_size:l.Layout.block_size e.ino - 1 do
        let entries =
          try Dir.block_entries dir_backing t e blk
          with Errors.Error (Errors.Ecorrupt _) | Io.Read_failed _ ->
            note "inum %d: salvaged torn directory block %d" dir blk;
            rewrite blk [];
            []
        in
        (* Prune entries to dead inodes.  A directory has one name: a
           crash in the middle of renaming one can leave it under both,
           and, as BSD's fsck does, the name met first stays. *)
        let keep =
          List.filter
            (fun (name, inum) ->
              if not (inum > 0 && inum < l.Layout.max_files && valid.(inum))
              then begin
                note "inum %d: pruned dangling entry %S -> inum %d" dir name inum;
                false
              end
              else
                let is_dir =
                  (get_entry t inum).ino.Inode.kind = Fs_intf.Directory
                in
                if is_dir && Hashtbl.mem links inum then begin
                  note "inum %d: dropped second name %S of directory inum %d"
                    dir name inum;
                  false
                end
                else begin
                  Hashtbl.replace links inum
                    (1 + Option.value ~default:0 (Hashtbl.find_opt links inum));
                  if is_dir then walk inum;
                  true
                end)
            entries
        in
        if List.compare_lengths keep entries <> 0 then rewrite blk keep
      done
    end
  in
  Hashtbl.replace links root_inum 1;
  walk root_inum;
  for inum = 1 to l.Layout.max_files - 1 do
    if valid.(inum) && not (Hashtbl.mem links inum) then begin
      note "inum %d: released orphan inode" inum;
      valid.(inum) <- false;
      Alloc.free_inode t.alloc inum;
      Hashtbl.remove t.itable inum;
      Dir.forget t.dirs inum;
      store_inode t None ~inum ~mode:`Async
    end
  done;
  Hashtbl.iter
    (fun inum count ->
      if valid.(inum) then begin
        let e = get_entry t inum in
        if e.ino.Inode.nlink <> count then begin
          note "inum %d: nlink %d -> %d" inum e.ino.Inode.nlink count;
          e.ino.Inode.nlink <- count;
          e.dirty <- true
        end
      end)
    links;
  (* Pass 3: rebuild the block bitmaps from the survivors, mirroring
     exactly what [fsck] counts as referenced so the result audits
     clean.  A pointer that is out of range, already claimed, or beyond
     the inode's size is bogus — clear it. *)
  let owned = Hashtbl.create 1024 in
  let claim addr =
    if (not (in_data_range l addr)) || Hashtbl.mem owned addr then false
    else begin
      Hashtbl.replace owned addr ();
      Alloc.mark_block t.alloc addr;
      true
    end
  in
  for inum = 1 to l.Layout.max_files - 1 do
    if valid.(inum) then begin
      let e = get_entry t inum in
      let ino = e.ino in
      let nblocks = Inode.nblocks ~block_size:l.Layout.block_size ino in
      Bmap.iter ~past_end:true map t e
        ~pointer:(fun kind addr ->
          if not (claim addr) then begin
            note "inum %d: cleared bogus %s pointer" inum
              (Bmap.pointer_name kind);
            match kind with
            | Bmap.Single ->
                ino.Inode.indirect <- Layout.null_addr;
                e.dirty <- true
            | Bmap.Top ->
                ino.Inode.dindirect <- Layout.null_addr;
                e.dirty <- true
            | Bmap.Child c ->
                ignore (write_ptr t ino.Inode.dindirect c Layout.null_addr)
          end)
        ~data:(fun blkno addr ->
          if addr <> Layout.null_addr then begin
            let beyond = blkno >= nblocks in
            if beyond || not (claim addr) then begin
              note "inum %d: cleared %s pointer to block %d" inum
                (if beyond then "beyond-size" else "bogus")
                blkno;
              ignore (Bmap.write map t e blkno Layout.null_addr);
              e.dirty <- true
            end
          end)
    end
  done;
  do_sync t;
  List.rev !repairs

(* Checker/test support *)

let alloc t = t.alloc
let entry_of = get_entry
let block_map = map
let inode_of t inum = (get_entry t inum).ino
let dir_views t = t.dirs
