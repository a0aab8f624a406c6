module Cache = Lfs_cache.Block_cache
module File_read = Lfs_cache.File_read
module Io = Lfs_disk.Io
module Profile = Lfs_obs.Profile

type ('fs, 'file) backing = {
  file : ('fs, 'file) File_read.backing;
  dir : ('fs, 'file) Dir.backing;
  root : int;
  find : 'fs -> int -> 'file;
  kind : 'file -> Fs_intf.file_kind;
  nlink : 'file -> int;
  set_nlink : 'file -> int -> unit;
  mtime : 'file -> int;
  set_mtime : 'file -> int -> unit;
  set_size : 'file -> int -> unit;
  atime : 'fs -> int -> 'file -> int;
  set_atime : 'fs -> int -> 'file -> int -> unit;
  max_size : 'fs -> int;
  alloc_inode : 'fs -> dir:'file -> Fs_intf.file_kind -> int;
  free_inode : 'fs -> int -> 'file -> unit;
  persist : 'fs -> 'file -> unit;
  touch : 'fs -> 'file -> unit;
  claim : ('fs -> 'file -> int -> int) option;
  free_block : 'fs -> 'file -> int -> unit;
  emptied : 'fs -> int -> 'file -> unit;
  housekeep : 'fs -> can_fail:bool -> unit;
}

(* The envelope *)

let syscall b fs op f =
  let io = b.file.io fs in
  Profile.with_op (Io.bus io) op (fun () ->
      Io.charge_syscall io;
      f ())

let call b fs op f =
  match syscall b fs op f with
  | v -> Ok v
  | exception Errors.Error e -> Error e

(* Path resolution: the namei walk, one directory scan per component. *)

let dir_file b fs inum =
  let f = b.find fs inum in
  if b.kind f <> Fs_intf.Directory then
    Errors.raise_ (Errors.Enotdir (Printf.sprintf "inum %d" inum));
  f

let rec walk b fs cur = function
  | [] -> cur
  | name :: rest -> (
      match Dir.lookup b.dir fs (dir_file b fs cur) name with
      | Some inum -> walk b fs inum rest
      | None -> Errors.raise_ (Errors.Enoent name))

let resolve b fs path =
  match Path.split path with
  | Ok components -> walk b fs b.root components
  | Error e -> Errors.raise_ e

let resolve_dir b fs components = dir_file b fs (walk b fs b.root components)

let split_parent path =
  match Path.parent_and_name path with
  | Ok v -> v
  | Error e -> Errors.raise_ e

let absent b fs dir name path =
  match Dir.lookup b.dir fs dir name with
  | Some _ -> Errors.raise_ (Errors.Eexist path)
  | None -> ()

let regular b fs path =
  let file = b.find fs (resolve b fs path) in
  if b.kind file = Fs_intf.Directory then Errors.raise_ (Errors.Eisdir path);
  file

(* Namespace *)

let make_node b fs path kind =
  let parent, name = split_parent path in
  let dir = resolve_dir b fs parent in
  absent b fs dir name path;
  let inum = b.alloc_inode fs ~dir kind in
  Dir.add b.dir fs dir name inum;
  b.housekeep fs ~can_fail:true

let create b fs path =
  call b fs `Create (fun () -> make_node b fs path Fs_intf.Regular)

let mkdir b fs path =
  call b fs `Mkdir (fun () -> make_node b fs path Fs_intf.Directory)

let delete b fs path =
  call b fs `Delete @@ fun () ->
  let parent, name = split_parent path in
  let dir = resolve_dir b fs parent in
  let inum =
    match Dir.lookup b.dir fs dir name with
    | Some i -> i
    | None -> Errors.raise_ (Errors.Enoent path)
  in
  let file = b.find fs inum in
  if b.kind file = Fs_intf.Directory && Dir.entries b.dir fs file <> [] then
    Errors.raise_ (Errors.Enotempty path);
  Dir.remove b.dir fs dir name;
  (* Hard links: the inode and its data live until the last name is
     gone. *)
  if b.nlink file > 1 then begin
    b.set_nlink file (b.nlink file - 1);
    b.set_mtime file (Io.now_us (b.file.io fs));
    b.persist fs file
  end
  else b.free_inode fs inum file;
  (* A delete must succeed even on a full disk — it is how space is
     freed. *)
  b.housekeep fs ~can_fail:false

let rec is_prefix a b =
  match (a, b) with
  | [], _ -> true
  | x :: a', y :: b' -> x = y && is_prefix a' b'
  | _ :: _, [] -> false

let rename b fs src dst =
  call b fs `Rename @@ fun () ->
  let src_parent, src_name = split_parent src in
  let dst_parent, dst_name = split_parent dst in
  (* Moving a directory under itself would orphan the subtree. *)
  if is_prefix (src_parent @ [ src_name ]) (dst_parent @ [ dst_name ]) then
    Errors.raise_ (Errors.Einval "cannot move a directory beneath itself");
  let src_dir = resolve_dir b fs src_parent in
  let inum =
    match Dir.lookup b.dir fs src_dir src_name with
    | Some i -> i
    | None -> Errors.raise_ (Errors.Enoent src)
  in
  let dst_dir = resolve_dir b fs dst_parent in
  absent b fs dst_dir dst_name dst;
  (* BSD order: the new name is durable before the old one goes, so a
     crash between leaves the file under both names (FFS's [repair] sets
     a file's link count to 2 and keeps one name of a directory), never
     under neither. *)
  Dir.add b.dir fs dst_dir dst_name inum;
  Dir.remove b.dir fs src_dir src_name;
  b.housekeep fs ~can_fail:true

let link b fs src dst =
  call b fs `Link @@ fun () ->
  let inum = resolve b fs src in
  let file = b.find fs inum in
  if b.kind file = Fs_intf.Directory then Errors.raise_ (Errors.Eisdir src);
  let dst_parent, dst_name = split_parent dst in
  let dst_dir = resolve_dir b fs dst_parent in
  absent b fs dst_dir dst_name dst;
  (* As with creat: the inode, then the directory entry. *)
  b.set_nlink file (b.nlink file + 1);
  b.set_mtime file (Io.now_us (b.file.io fs));
  b.persist fs file;
  Dir.add b.dir fs dst_dir dst_name inum;
  b.housekeep fs ~can_fail:true

let stat b fs path =
  call b fs `Stat @@ fun () ->
  let inum = resolve b fs path in
  let file = b.find fs inum in
  {
    Fs_intf.inum;
    kind = b.kind file;
    size = b.file.size file;
    nlink = b.nlink file;
    mtime_us = b.mtime file;
    atime_us = b.atime fs inum file;
  }

let readdir b fs path =
  call b fs `Readdir @@ fun () ->
  Dir.entries b.dir fs (dir_file b fs (resolve b fs path))
  |> List.map fst
  |> List.sort String.compare

let exists b fs path =
  match resolve b fs path with
  | _ -> true
  | exception Errors.Error _ -> false

(* Data *)

(* A block's old bytes after its cache miss (fetched without a second
   lookup, so the miss counts once), to be modified and re-inserted dirty
   rather than mutated in the cache's buffer: a full cache may evict a
   clean block the moment it is inserted. *)
let old_bytes b fs ~inum ~blkno ~addr =
  if addr = b.file.null_addr then Bytes.make (b.file.block_size fs) '\000'
  else Bytes.copy (b.file.fetch fs ~inum ~blkno ~addr)

let write b fs path ~off data =
  call b fs `Write @@ fun () ->
  let len = Bytes.length data in
  if off < 0 then Errors.raise_ (Errors.Einval "negative offset or length");
  let file = regular b fs path in
  if off + len > b.max_size fs then Errors.raise_ Errors.Efbig;
  let io = b.file.io fs in
  let cache = b.file.cache fs in
  let bs = b.file.block_size fs in
  let inum = b.dir.inum file in
  let pos = ref 0 in
  while !pos < len do
    let abs = off + !pos in
    let blkno = abs / bs in
    let in_block = abs mod bs in
    let chunk = min (len - !pos) (bs - in_block) in
    let claimed =
      match b.claim with
      | Some claim -> claim fs file blkno
      | None -> b.file.null_addr
    in
    let key = { Cache.owner = inum; blkno } in
    if chunk = bs then begin
      (* Whole-block overwrite: no read needed. *)
      let block = Cache.take cache bs in
      Bytes.blit data !pos block 0 bs;
      Cache.insert cache key ~dirty:true block
    end
    else begin
      match Cache.find cache key with
      | Some block ->
          Bytes.blit data !pos block in_block chunk;
          Cache.mark_dirty cache key
      | None ->
          (* Unclaimed blocks are mapped only now: a whole-block or
             cached overwrite must not load pointer blocks. *)
          let addr =
            match b.claim with
            | Some _ -> claimed
            | None -> b.file.bmap fs file blkno
          in
          let block = old_bytes b fs ~inum ~blkno ~addr in
          Bytes.blit data !pos block in_block chunk;
          Cache.insert cache key ~dirty:true block
    end;
    pos := !pos + chunk
  done;
  if off + len > b.file.size file then b.set_size file (off + len);
  b.set_mtime file (Io.now_us io);
  b.touch fs file;
  Io.charge_copy io ~bytes:len;
  b.housekeep fs ~can_fail:true

let read b fs path ~off ~len =
  call b fs `Read @@ fun () ->
  if off < 0 || len < 0 then
    Errors.raise_ (Errors.Einval "negative offset or length");
  let file = regular b fs path in
  let inum = b.dir.inum file in
  let data = File_read.read b.file fs file ~inum ~off ~len in
  b.set_atime fs inum file (Io.now_us (b.file.io fs));
  b.housekeep fs ~can_fail:false;
  data

let truncate b fs path ~size =
  call b fs `Truncate @@ fun () ->
  if size < 0 then Errors.raise_ (Errors.Einval "negative size");
  if size > b.max_size fs then Errors.raise_ Errors.Efbig;
  let file = regular b fs path in
  let inum = b.dir.inum file in
  let cache = b.file.cache fs in
  let bs = b.file.block_size fs in
  let old_size = b.file.size file in
  if size < old_size then begin
    let keep = (size + bs - 1) / bs in
    let old_blocks = (old_size + bs - 1) / bs in
    (* BSD order: the shrunk inode is durable before its blocks can be
       reallocated, so a crash never recovers it pointing at another
       file's new bytes (FFS's [repair] clears pointers past the size).
       On FFS [persist] writes the inode synchronously; on LFS it only
       marks it dirty. *)
    b.set_size file size;
    b.persist fs file;
    for blkno = keep to old_blocks - 1 do
      b.free_block fs file blkno;
      Cache.remove cache { Cache.owner = inum; blkno }
    done;
    (* Zero the tail of a now-partial final block so reads past [size]
       after a later extension see zeros. *)
    let tail = size mod bs in
    if tail <> 0 && keep > 0 then begin
      let blkno = keep - 1 in
      let key = { Cache.owner = inum; blkno } in
      match Cache.find cache key with
      | Some block ->
          Bytes.fill block tail (bs - tail) '\000';
          Cache.mark_dirty cache key
      | None ->
          let addr = b.file.bmap fs file blkno in
          if addr <> b.file.null_addr then begin
            let block = old_bytes b fs ~inum ~blkno ~addr in
            Bytes.fill block tail (bs - tail) '\000';
            Cache.insert cache key ~dirty:true block
          end
    end;
    if size = 0 then b.emptied fs inum file
  end;
  b.set_size file size;
  b.set_mtime file (Io.now_us (b.file.io fs));
  b.touch fs file;
  b.housekeep fs ~can_fail:false

(* Durability *)

let fsync b fs path body = call b fs `Fsync (fun () -> body (resolve b fs path))

let iter_parents b fs path f =
  match Path.parent_and_name path with
  | Error _ -> ()
  | Ok (parent, _) ->
      let rec down dir = function
        | [] -> f dir
        | name :: rest -> (
            f dir;
            match Dir.lookup b.dir fs (dir_file b fs dir) name with
            | Some child -> down child rest
            | None -> ())
      in
      down b.root parent
