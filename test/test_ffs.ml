(* FFS-baseline specifics: the synchronous metadata writes of §3.1,
   allocation locality, and mount/unmount persistence. *)

module Alloc = Lfs_ffs.Alloc
module Config = Lfs_ffs.Config
module Fs = Lfs_ffs.Fs
module Io = Lfs_disk.Io
module Layout = Lfs_ffs.Layout

let check_ok what = function
  | Ok v -> v
  | Error e -> Alcotest.failf "%s: %s" what (Lfs_vfs.Errors.to_string e)

let make ?(size_bytes = 8 * 1024 * 1024) () =
  let io = Common.make_io ~size_bytes () in
  (match Fs.format io Config.small with
  | Ok () -> ()
  | Error e -> failwith e);
  match Fs.mount ~config:Config.small io with
  | Ok fs -> fs
  | Error e -> failwith e

let test_create_is_synchronous () =
  let fs = make () in
  let io = Fs.io fs in
  check_ok "mkdir" (Fs.mkdir fs "/d");
  Fs.sync fs;
  let writes =
    Common.writes_during io (fun () -> check_ok "create" (Fs.create fs "/d/f"))
  in
  (* The defining behaviour the paper attacks: creat writes the inode
     table block and the directory block synchronously, before returning. *)
  Alcotest.(check int) "two writes" 2 (List.length writes);
  List.iter
    (fun r -> Alcotest.(check bool) "synchronous" true r.Common.sync)
    writes

let test_lfs_create_is_asynchronous () =
  (* The contrast: the same operation on LFS touches the disk not at
     all. *)
  let fs = Common.make_lfs () in
  let io = Lfs_core.Fs.io fs in
  Common.check_ok "mkdir" (Lfs_core.Fs.mkdir fs "/d");
  Lfs_core.Fs.sync fs;
  Alcotest.(check int) "no disk writes on create" 0
    (List.length
       (Common.writes_during io (fun () ->
            Common.check_ok "create" (Lfs_core.Fs.create fs "/d/f"))))

let test_sequential_allocation () =
  let fs = make () in
  check_ok "create" (Fs.create fs "/f");
  check_ok "write" (Fs.write fs "/f" ~off:0 (Common.pattern ~seed:1 (16 * 1024)));
  Fs.sync fs;
  (* A sequentially-written file must occupy mostly-consecutive blocks:
     read it back after a cache flush and count seeks. *)
  Fs.flush_caches fs;
  let io = Fs.io fs in
  let disk = Io.member_disk io 0 in
  let before = (Lfs_disk.Disk.stats disk).Lfs_disk.Disk.seeks in
  ignore (check_ok "read" (Fs.read fs "/f" ~off:0 ~len:(16 * 1024)));
  let seeks = (Lfs_disk.Disk.stats disk).Lfs_disk.Disk.seeks - before in
  Alcotest.(check bool)
    (Printf.sprintf "few seeks for sequential file (%d)" seeks)
    true (seeks <= 4)

let test_remount_persistence () =
  let fs = make () in
  check_ok "mkdir" (Fs.mkdir fs "/d");
  check_ok "create" (Fs.create fs "/d/f");
  check_ok "write" (Fs.write fs "/d/f" ~off:0 (Common.pattern ~seed:5 3000));
  Fs.unmount fs;
  let fs2 =
    match Fs.mount ~config:Config.small (Fs.io fs) with
    | Ok f -> f
    | Error e -> Alcotest.failf "remount: %s" e
  in
  let data = check_ok "read" (Fs.read fs2 "/d/f" ~off:0 ~len:3000) in
  Common.check_bytes "content" (Common.pattern ~seed:5 3000) data;
  (* Allocation state survived: a new file must not collide. *)
  check_ok "create new" (Fs.create fs2 "/d/g");
  check_ok "write new" (Fs.write fs2 "/d/g" ~off:0 (Common.pattern ~seed:6 2000));
  Common.check_bytes "old intact"
    (Common.pattern ~seed:5 3000)
    (check_ok "read old" (Fs.read fs2 "/d/f" ~off:0 ~len:3000))

let test_directory_spread () =
  (* Directories go to the least-loaded group, files to their parent's
     group. *)
  let fs = make () in
  let layout = Fs.layout fs in
  check_ok "mkdir" (Fs.mkdir fs "/d1");
  check_ok "mkdir" (Fs.mkdir fs "/d2");
  let g1 =
    Layout.group_of_inum layout
      (check_ok "stat" (Fs.stat fs "/d1")).Lfs_vfs.Fs_intf.inum
  in
  let g2 =
    Layout.group_of_inum layout
      (check_ok "stat" (Fs.stat fs "/d2")).Lfs_vfs.Fs_intf.inum
  in
  Alcotest.(check bool) "dirs spread over groups" true (g1 <> g2);
  check_ok "create" (Fs.create fs "/d1/f");
  let gf =
    Layout.group_of_inum layout
      (check_ok "stat" (Fs.stat fs "/d1/f")).Lfs_vfs.Fs_intf.inum
  in
  Alcotest.(check int) "file in parent's group" g1 gf

let test_free_blocks_accounting () =
  let fs = make () in
  (* Warm the root directory's data block first: it stays allocated after
     the file is deleted. *)
  check_ok "warm create" (Fs.create fs "/warm");
  check_ok "warm delete" (Fs.delete fs "/warm");
  let before = Fs.free_blocks fs in
  check_ok "create" (Fs.create fs "/f");
  check_ok "write" (Fs.write fs "/f" ~off:0 (Common.pattern ~seed:9 (8 * 1024)));
  let after_write = Fs.free_blocks fs in
  Alcotest.(check bool) "blocks consumed" true (after_write < before);
  check_ok "delete" (Fs.delete fs "/f");
  Alcotest.(check int) "blocks returned" before (Fs.free_blocks fs)

let test_enospc () =
  let fs = make ~size_bytes:(2 * 1024 * 1024) () in
  let full = ref false in
  (try
     for i = 0 to 10_000 do
       match Fs.create fs (Printf.sprintf "/f%05d" i) with
       | Error Lfs_vfs.Errors.Enospc -> raise Exit
       | Error e -> Alcotest.failf "create: %s" (Lfs_vfs.Errors.to_string e)
       | Ok () -> (
           match
             Fs.write fs (Printf.sprintf "/f%05d" i) ~off:0
               (Common.pattern ~seed:i 4096)
           with
           | Error Lfs_vfs.Errors.Enospc -> raise Exit
           | Error e -> Alcotest.failf "write: %s" (Lfs_vfs.Errors.to_string e)
           | Ok () -> ())
     done
   with Exit -> full := true);
  Alcotest.(check bool) "reports Enospc when full" true !full;
  (* Deleting something frees space again. *)
  check_ok "delete" (Fs.delete fs "/f00000");
  check_ok "create after delete" (Fs.create fs "/again");
  check_ok "write after delete"
    (Fs.write fs "/again" ~off:0 (Common.pattern ~seed:1 2048))

let test_fsck_healthy () =
  let fs = make () in
  check_ok "mkdir" (Fs.mkdir fs "/d");
  for i = 0 to 19 do
    check_ok "create" (Fs.create fs (Printf.sprintf "/d/f%02d" i));
    check_ok "write"
      (Fs.write fs (Printf.sprintf "/d/f%02d" i) ~off:0 (Common.pattern ~seed:i 3000))
  done;
  check_ok "link" (Fs.link fs "/d/f00" "/alias");
  Fs.unmount fs;
  match Lfs_ffs.Fsck.run (Fs.io fs) with
  | Error e -> Alcotest.failf "fsck: %s" e
  | Ok r ->
      Alcotest.(check int) "no bitmap errors" 0 r.Lfs_ffs.Fsck.bitmap_errors;
      Alcotest.(check int) "no orphans" 0 r.Lfs_ffs.Fsck.orphan_inodes;
      (* 21 files+1 dir+root = 23 inodes; the hard link shares one. *)
      Alcotest.(check int) "inodes" 22 r.Lfs_ffs.Fsck.inodes_scanned;
      Alcotest.(check bool) "walked dirs" true (r.Lfs_ffs.Fsck.directories_walked >= 2);
      Alcotest.(check bool) "scan costs time" true (r.Lfs_ffs.Fsck.elapsed_us > 0)

let test_fsck_detects_bitmap_corruption () =
  let fs = make () in
  check_ok "create" (Fs.create fs "/f");
  check_ok "write" (Fs.write fs "/f" ~off:0 (Common.pattern ~seed:1 4096));
  Fs.unmount fs;
  (* Flip bits in the first block bitmap directly on the media. *)
  let io = Fs.io fs in
  let layout = Fs.layout fs in
  let addr = Layout.block_bitmap_block layout ~group:0 ~idx:0 in
  let sector = Layout.sector_of_block layout addr in
  let block = Io.sync_read io ~sector ~count:layout.Layout.block_sectors in
  Bytes.set block 10 (Char.chr (Char.code (Bytes.get block 10) lxor 0xFF));
  Io.sync_write io ~sector block;
  match Lfs_ffs.Fsck.run io with
  | Error e -> Alcotest.failf "fsck: %s" e
  | Ok r ->
      Alcotest.(check int) "eight flipped bits found" 8
        r.Lfs_ffs.Fsck.bitmap_errors

let test_fsck_detects_orphan () =
  let fs = make () in
  check_ok "create" (Fs.create fs "/victim");
  check_ok "write" (Fs.write fs "/victim" ~off:0 (Common.pattern ~seed:2 1000));
  Fs.unmount fs;
  (* Surgically wipe the root directory's entry block, orphaning the
     file's inode. *)
  let io = Fs.io fs in
  let layout = Fs.layout fs in
  (* Root dir inum 1: read its inode to find its first data block. *)
  let addr, slot = Layout.inode_location layout 1 in
  let block =
    Io.sync_read io
      ~sector:(Layout.sector_of_block layout addr)
      ~count:layout.Layout.block_sectors
  in
  (match Lfs_ffs.Inode.decode_at block ~off:(slot * Layout.inode_bytes) with
  | Some root when root.Lfs_ffs.Inode.direct.(0) <> Layout.null_addr ->
      let dir_block = root.Lfs_ffs.Inode.direct.(0) in
      let empty = Lfs_vfs.Dir_block.encode ~block_size:layout.Layout.block_size [] in
      Io.sync_write io
        ~sector:(Layout.sector_of_block layout dir_block)
        empty
  | _ -> Alcotest.fail "could not locate root directory block");
  match Lfs_ffs.Fsck.run io with
  | Error e -> Alcotest.failf "fsck: %s" e
  | Ok r ->
      Alcotest.(check bool) "orphan reported" true
        (r.Lfs_ffs.Fsck.orphan_inodes >= 1)

(* A slot whose kind tag does not decode is an fsck finding, not an
   exception out of [Fsck.run]. *)
let test_fsck_reports_bad_inode_slot () =
  let fs = make () in
  check_ok "create" (Fs.create fs "/f");
  check_ok "write" (Fs.write fs "/f" ~off:0 (Common.pattern ~seed:3 100));
  Fs.sync fs;
  let inum = (check_ok "stat" (Fs.stat fs "/f")).Lfs_vfs.Fs_intf.inum in
  let io = Fs.io fs in
  let layout = Fs.layout fs in
  let addr, slot = Layout.inode_location layout inum in
  let sector = Layout.sector_of_block layout addr in
  let block = Io.sync_read io ~sector ~count:layout.Layout.block_sectors in
  (* The kind tag follows the slot's 4-byte inum. *)
  Bytes.set_uint8 block ((slot * Layout.inode_bytes) + 4) 9;
  Io.sync_write io ~sector block;
  match Lfs_ffs.Fsck.run io with
  | Error e -> Alcotest.failf "fsck: %s" e
  | Ok r ->
      Alcotest.(check int) "bad slot reported" 1 r.Lfs_ffs.Fsck.bad_inodes;
      Alcotest.(check int) "root still scanned" 1 r.Lfs_ffs.Fsck.inodes_scanned

(* Truncation to zero frees the single-indirect block with the data, as
   BSD's itrunc does: an 80 KB file of 1 KB blocks needs one. *)
let test_truncate_frees_pointer_blocks () =
  let fs = make () in
  check_ok "create" (Fs.create fs "/f");
  Fs.sync fs;
  let before = Fs.free_blocks fs in
  check_ok "write" (Fs.write fs "/f" ~off:0 (Common.pattern ~seed:4 (80 * 1024)));
  Fs.sync fs;
  Alcotest.(check int) "80 data blocks and one indirect" (before - 81)
    (Fs.free_blocks fs);
  check_ok "truncate" (Fs.truncate fs "/f" ~size:0);
  Fs.sync fs;
  Alcotest.(check int) "every block returned" before (Fs.free_blocks fs);
  check_ok "rewrite" (Fs.write fs "/f" ~off:0 (Common.pattern ~seed:5 (80 * 1024)));
  Fs.sync fs;
  Alcotest.(check int) "re-extension allocates afresh" (before - 81)
    (Fs.free_blocks fs);
  let data = check_ok "read" (Fs.read fs "/f" ~off:0 ~len:(80 * 1024)) in
  Alcotest.(check bool) "re-extended content" true
    (Bytes.equal data (Common.pattern ~seed:5 (80 * 1024)));
  match Lfs_ffs.Fsck.run (Fs.io fs) with
  | Error e -> Alcotest.failf "fsck: %s" e
  | Ok r -> Alcotest.(check int) "bitmaps agree" 0 r.Lfs_ffs.Fsck.bitmap_errors

(* Crash ordering (DESIGN.md §8): a write never reaches the disk before
   a block it points at, so a crash part-way cannot recover a pointer to
   a block that holds another file's old bytes. *)

let inum fs path = (check_ok "stat" (Fs.stat fs path)).Lfs_vfs.Fs_intf.inum

let inode_sector fs path =
  let l = Fs.layout fs in
  Layout.sector_of_block l (fst (Layout.inode_location l (inum fs path)))

let data_sectors fs path =
  let l = Fs.layout fs in
  Array.to_list (Fs.inode_of fs (inum fs path)).Lfs_ffs.Inode.direct
  |> List.filter (fun a -> a <> Layout.null_addr)
  |> List.map (Layout.sector_of_block l)

(* Position of the write to [sector] in [writes]. *)
let position writes sector =
  let rec go i = function
    | [] -> Alcotest.failf "no write to sector %d" sector
    | (r : Common.request) :: rest ->
        if r.Common.sector = sector then i else go (i + 1) rest
  in
  go 0 writes

let check_data_first what fs path writes =
  let itable = position writes (inode_sector fs path) in
  List.iter
    (fun s ->
      if position writes s > itable then
        Alcotest.failf "%s: data sector %d written after the inode" what s)
    (data_sectors fs path)

let test_flush_writes_data_first () =
  let fs = make () in
  check_ok "create" (Fs.create fs "/f");
  Fs.sync fs;
  check_ok "write" (Fs.write fs "/f" ~off:0 (Common.pattern ~seed:1 3000));
  let writes = Common.writes_during (Fs.io fs) (fun () -> Fs.sync fs) in
  check_data_first "sync" fs "/f" writes

let test_persist_writes_data_first () =
  let fs = make () in
  check_ok "create" (Fs.create fs "/f");
  Fs.sync fs;
  check_ok "write" (Fs.write fs "/f" ~off:0 (Common.pattern ~seed:2 3000));
  (* link writes the inode synchronously, with the file's new blocks. *)
  let writes =
    Common.writes_during (Fs.io fs) (fun () -> check_ok "link" (Fs.link fs "/f" "/g"))
  in
  check_data_first "link" fs "/f" writes

let test_truncate_writes_inode_first () =
  let fs = make () in
  check_ok "create" (Fs.create fs "/f");
  check_ok "write" (Fs.write fs "/f" ~off:0 (Common.pattern ~seed:3 3000));
  Fs.sync fs;
  let writes =
    Common.writes_during (Fs.io fs) (fun () ->
        check_ok "truncate" (Fs.truncate fs "/f" ~size:100))
  in
  let r = List.nth writes (position writes (inode_sector fs "/f")) in
  Alcotest.(check bool) "shrunk inode written synchronously" true r.Common.sync

let test_directory_growth_is_synchronous () =
  let fs = make () in
  check_ok "mkdir" (Fs.mkdir fs "/a");
  let writes =
    Common.writes_during (Fs.io fs) (fun () -> check_ok "mkdir" (Fs.mkdir fs "/d"))
  in
  (* The new directory's first block, its inode, the parent's block. *)
  Alcotest.(check int) "mkdir: three writes" 3 (List.length writes);
  let size () = (Fs.inode_of fs (inum fs "/d")).Lfs_ffs.Inode.size in
  let first = size () in
  let rec grow i =
    let path = Printf.sprintf "/d/file%d" i in
    let writes =
      Common.writes_during (Fs.io fs) (fun () -> check_ok "create" (Fs.create fs path))
    in
    if size () = first then grow (i + 1)
    else begin
      (* The new inode, the new directory block, the grown directory's
         inode. *)
      Alcotest.(check int) "growing create: three writes" 3 (List.length writes);
      List.iter
        (fun r -> Alcotest.(check bool) "synchronous" true r.Common.sync)
        writes
    end
  in
  grow 0

let suite =
  [
    Alcotest.test_case "fsck reports a bad inode slot" `Quick
      test_fsck_reports_bad_inode_slot;
    Alcotest.test_case "truncate to zero frees pointer blocks" `Quick
      test_truncate_frees_pointer_blocks;
    Alcotest.test_case "fsck on healthy fs" `Quick test_fsck_healthy;
    Alcotest.test_case "flush writes data before the inode" `Quick
      test_flush_writes_data_first;
    Alcotest.test_case "synchronous inode write follows its data" `Quick
      test_persist_writes_data_first;
    Alcotest.test_case "truncate writes the shrunk inode first" `Quick
      test_truncate_writes_inode_first;
    Alcotest.test_case "directory growth is synchronous" `Quick
      test_directory_growth_is_synchronous;
    Alcotest.test_case "fsck detects bitmap corruption" `Quick
      test_fsck_detects_bitmap_corruption;
    Alcotest.test_case "fsck detects orphans" `Quick test_fsck_detects_orphan;
    Alcotest.test_case "create writes synchronously" `Quick
      test_create_is_synchronous;
    Alcotest.test_case "LFS create touches no disk" `Quick
      test_lfs_create_is_asynchronous;
    Alcotest.test_case "sequential allocation" `Quick test_sequential_allocation;
    Alcotest.test_case "remount persistence" `Quick test_remount_persistence;
    Alcotest.test_case "directory spread" `Quick test_directory_spread;
    Alcotest.test_case "free block accounting" `Quick
      test_free_blocks_accounting;
    Alcotest.test_case "Enospc and recovery of space" `Quick test_enospc;
  ]
