(* Basic LFS functionality: namespace operations, data paths, sync and
   remount round trips. *)

open Common
module Fs = Lfs_core.Fs
module E = Lfs_vfs.Errors

let test_format_mount () =
  let fs = make_lfs () in
  Alcotest.(check (list string)) "empty root" [] (check_ok "readdir" (Fs.readdir fs "/"))

let test_create_stat () =
  let fs = make_lfs () in
  check_ok "create" (Fs.create fs "/a");
  let st = check_ok "stat" (Fs.stat fs "/a") in
  Alcotest.(check int) "size" 0 st.Lfs_vfs.Fs_intf.size;
  Alcotest.(check bool) "kind" true (st.Lfs_vfs.Fs_intf.kind = Lfs_vfs.Fs_intf.Regular);
  check_err "create twice" (E.Eexist "/a") (Fs.create fs "/a")

let test_write_read_roundtrip () =
  let fs = make_lfs () in
  let data = pattern ~seed:42 5000 in
  write_file fs "/f" data;
  check_bytes "immediate read" data (read_all fs "/f");
  Fs.sync fs;
  check_bytes "after sync" data (read_all fs "/f");
  Fs.flush_caches fs;
  check_bytes "after cache flush" data (read_all fs "/f")

let test_overwrite () =
  let fs = make_lfs () in
  write_file fs "/f" (pattern ~seed:1 3000);
  let v2 = pattern ~seed:2 3000 in
  check_ok "overwrite" (Fs.write fs "/f" ~off:0 v2);
  check_bytes "overwrite wins" v2 (read_all fs "/f");
  (* Partial overwrite in the middle. *)
  let patch = bytes_of_string "HELLO" in
  check_ok "patch" (Fs.write fs "/f" ~off:1000 patch);
  let expect = Bytes.copy v2 in
  Bytes.blit patch 0 expect 1000 5;
  check_bytes "patched" expect (read_all fs "/f")

let test_sparse_and_holes () =
  let fs = make_lfs () in
  check_ok "create" (Fs.create fs "/sparse");
  let tail = bytes_of_string "end" in
  check_ok "write far" (Fs.write fs "/sparse" ~off:5000 tail);
  let st = check_ok "stat" (Fs.stat fs "/sparse") in
  Alcotest.(check int) "size" 5003 st.Lfs_vfs.Fs_intf.size;
  let all = read_all fs "/sparse" in
  Alcotest.(check int) "read len" 5003 (Bytes.length all);
  for i = 0 to 4999 do
    if Bytes.get all i <> '\000' then Alcotest.failf "hole not zero at %d" i
  done;
  Alcotest.(check string) "tail" "end" (Bytes.to_string (Bytes.sub all 5000 3));
  Fs.flush_caches fs;
  let all = read_all fs "/sparse" in
  Alcotest.(check string) "tail after flush" "end"
    (Bytes.to_string (Bytes.sub all 5000 3))

let test_delete () =
  let fs = make_lfs () in
  write_file fs "/f" (pattern ~seed:3 2000);
  check_ok "delete" (Fs.delete fs "/f");
  Alcotest.(check bool) "gone" false (Fs.exists fs "/f");
  check_err "re-delete" (E.Enoent "/f") (Fs.delete fs "/f");
  (* Name reusable. *)
  write_file fs "/f" (bytes_of_string "new");
  Alcotest.(check string) "new content" "new" (Bytes.to_string (read_all fs "/f"))

let test_directories () =
  let fs = make_lfs () in
  check_ok "mkdir" (Fs.mkdir fs "/d");
  check_ok "mkdir nested" (Fs.mkdir fs "/d/e");
  write_file fs "/d/e/f" (bytes_of_string "deep");
  Alcotest.(check (list string)) "ls /" [ "d" ] (check_ok "readdir" (Fs.readdir fs "/"));
  Alcotest.(check (list string)) "ls /d" [ "e" ] (check_ok "readdir" (Fs.readdir fs "/d"));
  Alcotest.(check (list string)) "ls /d/e" [ "f" ] (check_ok "readdir" (Fs.readdir fs "/d/e"));
  check_err "rmdir nonempty" (E.Enotempty "/d") (Fs.delete fs "/d");
  check_ok "rm file" (Fs.delete fs "/d/e/f");
  check_ok "rmdir e" (Fs.delete fs "/d/e");
  check_ok "rmdir d" (Fs.delete fs "/d")

let test_many_files_in_dir () =
  let fs = make_lfs () in
  let n = 200 in
  for i = 0 to n - 1 do
    write_file fs (Printf.sprintf "/file%04d" i) (pattern ~seed:i 100)
  done;
  let names = check_ok "readdir" (Fs.readdir fs "/") in
  Alcotest.(check int) "count" n (List.length names);
  Fs.flush_caches fs;
  for i = 0 to n - 1 do
    check_bytes
      (Printf.sprintf "file %d" i)
      (pattern ~seed:i 100)
      (read_all fs (Printf.sprintf "/file%04d" i))
  done

let test_rename () =
  let fs = make_lfs () in
  write_file fs "/a" (bytes_of_string "content");
  check_ok "mkdir" (Fs.mkdir fs "/d");
  check_ok "rename" (Fs.rename fs "/a" "/d/b");
  Alcotest.(check bool) "src gone" false (Fs.exists fs "/a");
  Alcotest.(check string) "dst content" "content" (Bytes.to_string (read_all fs "/d/b"));
  check_err "rename missing" (E.Enoent "/a") (Fs.rename fs "/a" "/c");
  (* Cannot move a directory beneath itself. *)
  check_ok "mkdir2" (Fs.mkdir fs "/d/sub");
  (match Fs.rename fs "/d" "/d/sub/x" with
  | Error (E.Einval _) -> ()
  | Ok () -> Alcotest.fail "rename into own subtree succeeded"
  | Error e -> Alcotest.failf "unexpected error %s" (E.to_string e))

let test_truncate () =
  let fs = make_lfs () in
  let data = pattern ~seed:9 4000 in
  write_file fs "/t" data;
  check_ok "shrink" (Fs.truncate fs "/t" ~size:1500);
  let got = read_all fs "/t" in
  Alcotest.(check int) "len" 1500 (Bytes.length got);
  check_bytes "prefix" (Bytes.sub data 0 1500) got;
  (* Extend back: the tail must read as zeros. *)
  check_ok "extend" (Fs.truncate fs "/t" ~size:3000);
  let got = read_all fs "/t" in
  Alcotest.(check int) "len2" 3000 (Bytes.length got);
  for i = 1500 to 2999 do
    if Bytes.get got i <> '\000' then Alcotest.failf "tail not zero at %d" i
  done;
  (* Truncate to zero bumps the version. *)
  check_ok "zero" (Fs.truncate fs "/t" ~size:0);
  Alcotest.(check int) "empty" 0 (Bytes.length (read_all fs "/t"))

let test_remount_preserves () =
  let fs = make_lfs () in
  write_file fs "/keep" (pattern ~seed:7 2500);
  check_ok "mkdir" (Fs.mkdir fs "/dir");
  write_file fs "/dir/sub" (bytes_of_string "subfile");
  Fs.unmount fs;
  let fs2 =
    match Fs.mount ~config:small_config (Fs.io fs) with
    | Ok f -> f
    | Error e -> Alcotest.failf "remount: %s" e
  in
  check_bytes "file survives" (pattern ~seed:7 2500) (read_all fs2 "/keep");
  Alcotest.(check string) "subfile" "subfile" (Bytes.to_string (read_all fs2 "/dir/sub"));
  Alcotest.(check (list string)) "root" [ "dir"; "keep" ]
    (check_ok "readdir" (Fs.readdir fs2 "/"))

let test_errors () =
  let fs = make_lfs () in
  check_err "read missing" (E.Enoent "x") (Fs.read fs "/x" ~off:0 ~len:10);
  check_ok "mkdir" (Fs.mkdir fs "/d");
  check_err "write dir" (E.Eisdir "/d") (Fs.write fs "/d" ~off:0 (bytes_of_string "no"));
  check_err "read dir" (E.Eisdir "/d") (Fs.read fs "/d" ~off:0 ~len:1);
  (match Fs.create fs "relative" with
  | Error (E.Einval _) -> ()
  | _ -> Alcotest.fail "relative path accepted");
  (match Fs.create fs "/d/x/y" with
  | Error (E.Enoent _) -> ()
  | _ -> Alcotest.fail "missing intermediate accepted");
  (match
     let _ = Fs.create fs "/f" in
     Fs.create fs "/f/child"
   with
  | Error (E.Enotdir _) -> ()
  | _ -> Alcotest.fail "file used as directory accepted")

let test_large_file_indirect () =
  (* Exercise single- and double-indirect block paths: with 1 KB blocks
     and 12 direct pointers the single-indirect range covers 12+256
     blocks; go past it. *)
  let fs = make_lfs ~size_bytes:(24 * 1024 * 1024) () in
  let size = 600 * 1024 in
  let data = pattern ~seed:11 size in
  check_ok "create" (Fs.create fs "/big");
  (* Write in 8 KB chunks as the paper's large-file test does. *)
  let chunk = 8192 in
  let rec go off =
    if off < size then begin
      let n = min chunk (size - off) in
      check_ok "write chunk" (Fs.write fs "/big" ~off (Bytes.sub data off n));
      go (off + n)
    end
  in
  go 0;
  Fs.flush_caches fs;
  check_bytes "big roundtrip" data (read_all fs "/big");
  (* Random rewrites. *)
  let rng = Lfs_util.Rng.create 99 in
  for _ = 1 to 50 do
    let off = Lfs_util.Rng.int rng (size - chunk) in
    let patch = pattern ~seed:off chunk in
    check_ok "rewrite" (Fs.write fs "/big" ~off patch);
    Bytes.blit patch 0 data off chunk
  done;
  Fs.flush_caches fs;
  check_bytes "after rewrites" data (read_all fs "/big");
  check_ok "delete big" (Fs.delete fs "/big")

let test_atime_mtime () =
  let fs = make_lfs () in
  let io = Fs.io fs in
  write_file fs "/t" (bytes_of_string "x");
  let st1 = check_ok "stat" (Fs.stat fs "/t") in
  Lfs_disk.Io.charge_cpu io 1_000_000;
  ignore (check_ok "read" (Fs.read fs "/t" ~off:0 ~len:1));
  let st2 = check_ok "stat" (Fs.stat fs "/t") in
  Alcotest.(check bool) "atime advanced" true
    (st2.Lfs_vfs.Fs_intf.atime_us > st1.Lfs_vfs.Fs_intf.atime_us);
  Alcotest.(check int) "mtime unchanged" st1.Lfs_vfs.Fs_intf.mtime_us
    st2.Lfs_vfs.Fs_intf.mtime_us

let test_writeback_age_trigger () =
  (* §4.3.5 cache write-back: dirty data older than the threshold is
     pushed to disk by ordinary activity, without any sync call. *)
  let fs = make_lfs () in
  let io = Fs.io fs in
  let disk = Lfs_disk.Io.member_disk io 0 in
  write_file fs "/aged" (pattern ~seed:21 3000);
  let writes_before = (Lfs_disk.Disk.stats disk).Lfs_disk.Disk.writes in
  (* 31 simulated seconds pass; a read then triggers housekeeping. *)
  Lfs_disk.Io.charge_cpu io 31_000_000;
  ignore (check_ok "read" (Fs.read fs "/aged" ~off:0 ~len:10));
  Alcotest.(check bool) "aged data flushed" true
    ((Lfs_disk.Disk.stats disk).Lfs_disk.Disk.writes > writes_before)

let test_checkpoint_interval_trigger () =
  let fs = make_lfs () in
  let io = Fs.io fs in
  let before = (Fs.stats fs).Lfs_core.State.checkpoints in
  write_file fs "/tick" (pattern ~seed:22 500);
  Lfs_disk.Io.charge_cpu io 31_000_000;
  ignore (check_ok "read" (Fs.read fs "/tick" ~off:0 ~len:10));
  Alcotest.(check bool) "periodic checkpoint ran" true
    ((Fs.stats fs).Lfs_core.State.checkpoints > before)

let test_atime_survives_checkpointed_remount () =
  (* The access time lives in the inode map (paper, footnote 2), which is
     persisted at checkpoints. *)
  let fs = make_lfs () in
  write_file fs "/a" (pattern ~seed:23 100);
  Lfs_disk.Io.charge_cpu (Fs.io fs) 1_000_000;
  ignore (check_ok "read" (Fs.read fs "/a" ~off:0 ~len:10));
  let atime = (check_ok "stat" (Fs.stat fs "/a")).Lfs_vfs.Fs_intf.atime_us in
  Fs.unmount fs;
  let fs2 =
    match Fs.mount ~config:small_config (Fs.io fs) with
    | Ok f -> f
    | Error e -> Alcotest.failf "remount: %s" e
  in
  Alcotest.(check int) "atime persisted" atime
    (check_ok "stat" (Fs.stat fs2 "/a")).Lfs_vfs.Fs_intf.atime_us

let test_fresh_fs_is_sound () =
  let fs = make_lfs () in
  write_file fs "/x" (pattern ~seed:24 100);
  Alcotest.(check int) "no structural issues" 0
    (List.length (Lfs_core.Check.fsck fs))

let suite =
  [
    Alcotest.test_case "write-back age trigger" `Quick
      test_writeback_age_trigger;
    Alcotest.test_case "checkpoint interval trigger" `Quick
      test_checkpoint_interval_trigger;
    Alcotest.test_case "atime survives remount" `Quick
      test_atime_survives_checkpointed_remount;
    Alcotest.test_case "structural check on fresh fs" `Quick
      test_fresh_fs_is_sound;
    Alcotest.test_case "format+mount" `Quick test_format_mount;
    Alcotest.test_case "create+stat" `Quick test_create_stat;
    Alcotest.test_case "write/read roundtrip" `Quick test_write_read_roundtrip;
    Alcotest.test_case "overwrite" `Quick test_overwrite;
    Alcotest.test_case "sparse files" `Quick test_sparse_and_holes;
    Alcotest.test_case "delete" `Quick test_delete;
    Alcotest.test_case "directories" `Quick test_directories;
    Alcotest.test_case "many files" `Quick test_many_files_in_dir;
    Alcotest.test_case "rename" `Quick test_rename;
    Alcotest.test_case "truncate" `Quick test_truncate;
    Alcotest.test_case "remount" `Quick test_remount_preserves;
    Alcotest.test_case "errors" `Quick test_errors;
    Alcotest.test_case "large file (indirect)" `Quick test_large_file_indirect;
    Alcotest.test_case "atime/mtime" `Quick test_atime_mtime;
  ]
