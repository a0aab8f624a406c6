(* Corruption injection: fabricate each class of damage the checkers
   exist to catch, directly in the mounted state, and assert that fsck
   reports exactly that class (and pretty-prints it usefully).  A checker
   only proven against healthy file systems proves nothing. *)

module Check = Lfs_core.Check
module Fs = Lfs_core.Fs
module Imap = Lfs_core.Imap
module Inode = Lfs_core.Inode
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
  List.map (fun i -> Format.asprintf "%a" Check.pp_issue i) issues

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
        | Check.Double_reference { addr; owners } ->
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
        | Check.Address_out_of_range { addr; _ } -> addr = wild | _ -> false)
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
        | Check.Bad_nlink { inum = i; nlink; entries } ->
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
        | Check.Bad_dir_entry { name; inum = i; _ } -> name = "f1" && i = inum
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
      (function Check.Orphan_inode { inum = i } -> i = inum | _ -> false)
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

(* FFS: the same philosophy against the cylinder-group structures. *)

module F = Lfs_ffs.Fs
module Fcheck = Lfs_ffs.Check
module Falloc = Lfs_ffs.Alloc
module Finode = Lfs_ffs.Inode

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
  List.map (fun i -> Format.asprintf "%a" Fcheck.pp_issue i) issues

let test_ffs_bad_nlink () =
  let fs = make_sound_ffs () in
  (F.inode_of fs F.root_inum).Finode.nlink <- 7;
  let issues = Fcheck.fsck fs in
  let found =
    List.exists
      (function
        | Fcheck.Bad_nlink { inum; nlink = 7; _ } -> inum = F.root_inum
        | _ -> false)
      issues
  in
  Alcotest.(check bool) "bad nlink detected" true found;
  assert_rendered "ffs bad nlink" "nlink 7" (ffs_rendered issues)

let test_ffs_lost_block () =
  let fs = make_sound_ffs () in
  (* Free a block the root directory still points at: referenced but
     marked free in its cylinder-group bitmap. *)
  let addr = (F.inode_of fs F.root_inum).Finode.direct.(0) in
  Falloc.free_block (F.alloc fs) addr;
  let issues = Fcheck.fsck fs in
  let found =
    List.exists
      (function
        | Fcheck.Lost_block { addr = a; _ } -> a = addr | _ -> false)
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
  let issues = Fcheck.fsck fs in
  let found =
    List.exists
      (function Fcheck.Leaked_block { addr = a } -> a = addr | _ -> false)
      issues
  in
  Alcotest.(check bool) "leaked block detected" true found;
  assert_rendered "ffs leaked block" "referenced by nothing" (ffs_rendered issues)

let suite =
  [
    ("lfs: double reference", `Quick, test_double_reference);
    ("lfs: address out of range", `Quick, test_address_out_of_range);
    ("lfs: bad nlink", `Quick, test_bad_nlink);
    ("lfs: bad dir entry", `Quick, test_bad_dir_entry);
    ("lfs: orphan inode", `Quick, test_orphan_inode);
    ("lfs: usage drift", `Quick, test_usage_drift);
    ("ffs: bad nlink", `Quick, test_ffs_bad_nlink);
    ("ffs: lost block", `Quick, test_ffs_lost_block);
    ("ffs: leaked block", `Quick, test_ffs_leaked_block);
  ]
