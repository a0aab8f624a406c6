(* Corruption injection: fabricate each class of damage the checkers
   exist to catch, directly in the mounted state, and assert that fsck
   reports exactly that class (and pretty-prints it usefully).  A checker
   only proven against healthy file systems proves nothing. *)

module Audit = Lfs_vfs.Audit
module Bmap = Lfs_vfs.Bmap
module Check = Lfs_core.Check
module Fs = Lfs_core.Fs
module Imap = Lfs_core.Imap
module Inode = Lfs_vfs.Inode
module Inode_store = Lfs_core.Inode_store
module Layout = Lfs_core.Layout
module Namespace = Lfs_core.Namespace
module Seg_usage = Lfs_core.Seg_usage
module State = Lfs_core.State

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec scan i = i + m <= n && (String.sub s i m = sub || scan (i + 1)) in
  m = 0 || scan 0

let assert_rendered what sub rendered =
  if not (List.exists (fun s -> contains s sub) rendered) then
    Alcotest.failf "%s: no issue mentions %S in: %s" what sub
      (String.concat " | " rendered)

(* A small mounted LFS with two files, synced so every block has a disk
   address, verified structurally sound before the test corrupts it. *)
let make_sound () =
  let fs = Common.make_lfs () in
  Common.write_file fs "/f1" (Common.pattern ~seed:1 9000);
  Common.write_file fs "/f2" (Common.pattern ~seed:2 9000);
  Fs.sync fs;
  Alcotest.(check (list string)) "sound before corruption" [] (Fs.integrity fs);
  fs

let inum_of fs path = (Result.get_ok (Fs.stat fs path)).Lfs_vfs.Fs_intf.inum

let rendered issues =
  List.map (fun i -> Format.asprintf "%a" Audit.pp_issue i) issues

let test_double_reference () =
  let fs = make_sound () in
  let e1 = Inode_store.find fs (inum_of fs "/f1") in
  let e2 = Inode_store.find fs (inum_of fs "/f2") in
  let stolen = e2.State.ino.Inode.direct.(0) in
  e1.State.ino.Inode.direct.(0) <- stolen;
  let issues = Check.fsck fs in
  let found =
    List.exists
      (function
        | Audit.Double_reference { addr; owners } ->
            addr = stolen && List.length owners = 2
        | _ -> false)
      issues
  in
  Alcotest.(check bool) "double reference detected" true found;
  assert_rendered "double reference" "referenced by" (rendered issues);
  Alcotest.(check bool) "integrity reports it" false (Fs.integrity fs = [])

let test_address_out_of_range () =
  let fs = make_sound () in
  let e = Inode_store.find fs (inum_of fs "/f1") in
  let wild = (Fs.layout fs).Layout.total_blocks + 10 in
  e.State.ino.Inode.direct.(0) <- wild;
  let issues = Check.fsck fs in
  let found =
    List.exists
      (function
        | Audit.Address_out_of_range { addr; _ } -> addr = wild | _ -> false)
      issues
  in
  Alcotest.(check bool) "wild address detected" true found;
  assert_rendered "wild address" "out-of-range" (rendered issues)

let test_bad_nlink () =
  let fs = make_sound () in
  let inum = inum_of fs "/f1" in
  let e = Inode_store.find fs inum in
  e.State.ino.Inode.nlink <- 5;
  let issues = Check.fsck fs in
  let found =
    List.exists
      (function
        | Audit.Bad_nlink { inum = i; nlink; entries } ->
            i = inum && nlink = 5 && entries = 1
        | _ -> false)
      issues
  in
  Alcotest.(check bool) "bad nlink detected" true found;
  assert_rendered "bad nlink" "nlink 5" (rendered issues)

let test_bad_dir_entry () =
  let fs = make_sound () in
  let inum = inum_of fs "/f1" in
  Imap.free fs.State.imap inum;
  let issues = Check.fsck fs in
  let found =
    List.exists
      (function
        | Audit.Bad_dir_entry { name; inum = i; _ } -> name = "f1" && i = inum
        | _ -> false)
      issues
  in
  Alcotest.(check bool) "bad dir entry detected" true found;
  assert_rendered "bad dir entry" "unallocated" (rendered issues)

let test_orphan_inode () =
  let fs = make_sound () in
  let inum = inum_of fs "/f1" in
  Namespace.remove fs ~dir:State.root_inum "f1";
  let issues = Check.fsck fs in
  let found =
    List.exists
      (function Audit.Orphan_inode { inum = i } -> i = inum | _ -> false)
      issues
  in
  Alcotest.(check bool) "orphan detected" true found;
  assert_rendered "orphan" "unreachable" (rendered issues)

let test_usage_drift () =
  let fs = make_sound () in
  (* make_sound already proved the baseline within tolerance; a couple of
     blocks of self-reference slack on the tail segment is normal.  The
     injected error must surface as exactly that much *additional*
     drift. *)
  let drift_at seg =
    match List.find_opt (fun (s, _, _) -> s = seg) (Check.usage_drift fs) with
    | Some (_, recorded, recomputed) -> recorded - recomputed
    | None -> 0
  in
  let before = drift_at 0 in
  let bs = (Fs.layout fs).Layout.block_size in
  Seg_usage.add_live fs.State.usage 0 ~bytes:(64 * bs) ~now_us:0;
  Alcotest.(check int) "injected drift surfaces at its segment"
    (before + (64 * bs))
    (drift_at 0);
  (* Past the sanitizer's tolerance, so the always-on audit fails too. *)
  assert_rendered "usage drift" "usage drift" (Fs.integrity fs)

let has_names issues ~inum =
  List.exists
    (function
      | Audit.Directory_names { inum = i; entries = 2 } -> i = inum | _ -> false)
    issues

(* A directory entry naming an ancestor: the walk must end, and the
   second name of the root is reported. *)
let test_cycle () =
  let fs = make_sound () in
  Common.check_ok "mkdir" (Fs.mkdir fs "/a");
  let a = Inode_store.find fs (inum_of fs "/a") in
  Lfs_vfs.Dir.add Namespace.backing fs a "up" State.root_inum;
  let issues = Check.fsck fs in
  Alcotest.(check bool) "cycle reported" true (has_names issues ~inum:1);
  assert_rendered "cycle" "reached under 2 names" (rendered issues)

(* A file through the direct, single- and double-indirect ranges (1 KB
   blocks: 12 + 256 + 296 blocks), then truncated into the first
   double-indirect child with a partial last block.  [Bmap.iter] must
   give every block below the size, each as [Bmap.read] maps it, and
   exactly the four pointer blocks (the emptied second child stays
   until the file is emptied), all distinct. *)
let spanning_blocks bs = Lfs_vfs.Inode.ndirect + (bs / 4) + (bs / 4) + 40
let truncated_size bs = ((Lfs_vfs.Inode.ndirect + (bs / 4) + 100) * bs) + 300

let check_walk what store fs file ~block_size =
  let n = Inode.nblocks ~block_size (store.Bmap.inode file) in
  let data = ref [] and pointers = ref [] in
  Bmap.iter store fs file
    ~pointer:(fun kind addr -> pointers := (Bmap.pointer_name kind, addr) :: !pointers)
    ~data:(fun blkno addr ->
      if addr = Inode.null_addr || addr <> Bmap.read store fs file blkno then
        Alcotest.failf "%s: block %d walked as %d" what blkno addr;
      data := (blkno, addr) :: !data);
  Alcotest.(check (list int)) (what ^ ": every block below the size")
    (List.init n Fun.id) (List.rev_map fst !data);
  Alcotest.(check (list string)) (what ^ ": pointer blocks")
    [ "indirect"; "dindirect"; "dind child 0"; "dind child 1" ]
    (List.rev_map fst !pointers);
  let all = List.map snd !data @ List.map snd !pointers in
  Alcotest.(check int) (what ^ ": distinct addresses") (List.length all)
    (List.length (List.sort_uniq compare all))

let test_walk () =
  let fs = Common.make_lfs () in
  let bs = fs.State.layout.Layout.block_size in
  Common.write_file fs "/big" (Common.pattern ~seed:4 (spanning_blocks bs * bs));
  Common.check_ok "truncate" (Fs.truncate fs "/big" ~size:(truncated_size bs));
  Fs.sync fs;
  let inum = inum_of fs "/big" in
  check_walk "live" Inode_store.map fs (Inode_store.find fs inum) ~block_size:bs;
  Alcotest.(check (list string)) "integrity" [] (Fs.integrity fs);
  Fs.unmount fs;
  let fs = Result.get_ok (Fs.mount ~config:Common.small_config (Fs.io fs)) in
  check_walk "remounted" Inode_store.map fs (Inode_store.find fs inum)
    ~block_size:bs;
  Alcotest.(check (list string)) "integrity after remount" [] (Fs.integrity fs)

(* FFS: the same philosophy against the cylinder-group structures. *)

module F = Lfs_ffs.Fs
module Falloc = Lfs_ffs.Alloc

let make_sound_ffs () =
  let io = Common.make_io () in
  (match F.format io Lfs_ffs.Config.small with
  | Ok () -> ()
  | Error e -> failwith e);
  let fs =
    match F.mount ~config:Lfs_ffs.Config.small io with
    | Ok fs -> fs
    | Error e -> failwith e
  in
  Common.check_ok "create" (F.create fs "/f1");
  Common.check_ok "write" (F.write fs "/f1" ~off:0 (Common.pattern ~seed:3 9000));
  F.sync fs;
  Alcotest.(check (list string)) "sound before corruption" [] (F.integrity fs);
  fs

let ffs_rendered issues =
  List.map (fun i -> Format.asprintf "%a" Audit.pp_issue i) issues

let test_ffs_bad_nlink () =
  let fs = make_sound_ffs () in
  (F.inode_of fs F.root_inum).Inode.nlink <- 7;
  let issues = F.fsck fs in
  let found =
    List.exists
      (function
        | Audit.Bad_nlink { inum; nlink = 7; _ } -> inum = F.root_inum
        | _ -> false)
      issues
  in
  Alcotest.(check bool) "bad nlink detected" true found;
  assert_rendered "ffs bad nlink" "nlink 7" (ffs_rendered issues)

let test_ffs_lost_block () =
  let fs = make_sound_ffs () in
  (* Free a block the root directory still points at: referenced but
     marked free in its cylinder-group bitmap. *)
  let addr = (F.inode_of fs F.root_inum).Inode.direct.(0) in
  Falloc.free_block (F.alloc fs) addr;
  let issues = F.fsck fs in
  let found =
    List.exists
      (function
        | Audit.Lost_block { addr = a; _ } -> a = addr | _ -> false)
      issues
  in
  Alcotest.(check bool) "lost block detected" true found;
  assert_rendered "ffs lost block" "says is free" (ffs_rendered issues)

let test_ffs_leaked_block () =
  let fs = make_sound_ffs () in
  (* Mark a block used that nothing references. *)
  let addr =
    match Falloc.alloc_block (F.alloc fs) ~near:0 with
    | Some a -> a
    | None -> Alcotest.fail "no free block to leak"
  in
  let issues = F.fsck fs in
  let found =
    List.exists
      (function Audit.Leaked_block { addr = a } -> a = addr | _ -> false)
      issues
  in
  Alcotest.(check bool) "leaked block detected" true found;
  assert_rendered "ffs leaked block" "referenced by nothing" (ffs_rendered issues)


(* An entry added behind the file system's back: [dir]'s first block is
   rewritten on disk, and the caches dropped so the next scan reads it. *)
let ffs_inject fs ~dir name inum =
  F.sync fs;
  let io = F.io fs and layout = F.layout fs in
  let sector =
    Lfs_ffs.Layout.sector_of_block layout (F.inode_of fs dir).Inode.direct.(0)
  in
  let block =
    Lfs_disk.Io.sync_read io ~sector ~count:layout.Lfs_ffs.Layout.block_sectors
  in
  Lfs_disk.Io.sync_write io ~sector
    (Lfs_vfs.Dir_block.encode ~block_size:layout.Lfs_ffs.Layout.block_size
       ((name, inum) :: Lfs_vfs.Dir_block.parse block));
  F.flush_caches fs

let ffs_inum fs path = (Result.get_ok (F.stat fs path)).Lfs_vfs.Fs_intf.inum

let test_ffs_cycle () =
  let fs = make_sound_ffs () in
  Common.check_ok "mkdir" (F.mkdir fs "/a");
  ffs_inject fs ~dir:(ffs_inum fs "/a") "up" F.root_inum;
  Alcotest.(check bool) "cycle reported" true
    (has_names (F.fsck fs) ~inum:F.root_inum)

(* A directory under two names with nlink 2: the counts agree, but a
   directory has one name. *)
let two_parents () =
  let fs = make_sound_ffs () in
  Common.check_ok "mkdir" (F.mkdir fs "/a");
  Common.check_ok "mkdir" (F.mkdir fs "/b");
  Common.check_ok "create" (F.create fs "/a/f");
  let a = ffs_inum fs "/a" in
  ffs_inject fs ~dir:(ffs_inum fs "/b") "x" a;
  (fs, a)

let test_ffs_directory_names () =
  let fs, a = two_parents () in
  (F.inode_of fs a).Inode.nlink <- 2;
  let issues = F.fsck fs in
  Alcotest.(check bool) "second name reported" true (has_names issues ~inum:a);
  Alcotest.(check bool) "counts agree" false
    (List.exists (function Audit.Bad_nlink _ -> true | _ -> false) issues);
  assert_rendered "two names" "reached under 2 names" (ffs_rendered issues)

let test_ffs_repair_keeps_one_name () =
  let fs, _ = two_parents () in
  ignore (F.repair fs : string list);
  Alcotest.(check (list string)) "integrity after repair" [] (F.integrity fs);
  Alcotest.(check bool) "exactly one name left" true
    (F.exists fs "/a/f" <> F.exists fs "/b/x/f")

let test_ffs_walk () =
  let fs = make_sound_ffs () in
  let bs = Lfs_ffs.Config.small.Lfs_ffs.Config.block_size in
  Common.check_ok "create" (F.create fs "/big");
  Common.check_ok "write"
    (F.write fs "/big" ~off:0 (Common.pattern ~seed:5 (spanning_blocks bs * bs)));
  Common.check_ok "truncate" (F.truncate fs "/big" ~size:(truncated_size bs));
  F.sync fs;
  let inum = ffs_inum fs "/big" in
  check_walk "ffs" F.block_map fs (F.entry_of fs inum) ~block_size:bs;
  Alcotest.(check (list string)) "integrity" [] (F.integrity fs);
  Alcotest.(check (list string)) "repair of a clean image" [] (F.repair fs);
  check_walk "ffs after repair" F.block_map fs (F.entry_of fs inum)
    ~block_size:bs

let suite =
  [
    ("lfs: double reference", `Quick, test_double_reference);
    ("lfs: address out of range", `Quick, test_address_out_of_range);
    ("lfs: bad nlink", `Quick, test_bad_nlink);
    ("lfs: bad dir entry", `Quick, test_bad_dir_entry);
    ("lfs: orphan inode", `Quick, test_orphan_inode);
    ("lfs: usage drift", `Quick, test_usage_drift);
    ("lfs: cyclic tree", `Quick, test_cycle);
    ("lfs: block map walk", `Quick, test_walk);
    ("ffs: bad nlink", `Quick, test_ffs_bad_nlink);
    ("ffs: lost block", `Quick, test_ffs_lost_block);
    ("ffs: leaked block", `Quick, test_ffs_leaked_block);
    ("ffs: cyclic tree", `Quick, test_ffs_cycle);
    ("ffs: directory under two names", `Quick, test_ffs_directory_names);
    ("ffs: repair keeps one name", `Quick, test_ffs_repair_keeps_one_name);
    ("ffs: block map walk", `Quick, test_ffs_walk);
  ]
