(* Crash recovery: checkpoints, roll-forward, torn writes (§4.4). *)

open Common
module Fs = Lfs_core.Fs
module Disk = Lfs_disk.Disk
module Io = Lfs_disk.Io

let remount ?(config = small_config) fs =
  match Fs.mount ~config (Fs.io fs) with
  | Ok f -> f
  | Error e -> Alcotest.failf "remount: %s" e

(* Mount again without unmounting: everything not on disk is lost, as in
   a crash. *)
let crash_and_remount ?config fs =
  Disk.clear_crash (Io.member_disk (Fs.io fs) 0);
  remount ?config fs

let test_checkpoint_then_crash () =
  let fs = make_lfs () in
  write_file fs "/safe" (pattern ~seed:1 2000);
  Fs.checkpoint_now fs;
  (* Dirty data in the cache only: lost at crash. *)
  write_file fs "/lost" (pattern ~seed:2 2000);
  let fs2 = crash_and_remount fs in
  check_bytes "checkpointed file survives" (pattern ~seed:1 2000)
    (read_all fs2 "/safe");
  Alcotest.(check bool) "unflushed file lost" false (Fs.exists fs2 "/lost")

let test_rollforward_recovers_synced () =
  let fs = make_lfs () in
  write_file fs "/safe" (pattern ~seed:1 2000);
  Fs.checkpoint_now fs;
  write_file fs "/synced" (pattern ~seed:3 3000);
  Fs.sync fs;
  (* Sync wrote segments but no checkpoint region. *)
  let fs2 = crash_and_remount fs in
  check_bytes "pre-checkpoint file" (pattern ~seed:1 2000) (read_all fs2 "/safe");
  check_bytes "roll-forward recovers synced data" (pattern ~seed:3 3000)
    (read_all fs2 "/synced")

let test_no_rollforward_loses_synced () =
  let config = { small_config with Lfs_core.Config.roll_forward = false } in
  let fs = make_lfs ~config () in
  write_file fs "/safe" (pattern ~seed:1 2000);
  Fs.checkpoint_now fs;
  write_file fs "/synced" (pattern ~seed:3 3000);
  Fs.sync fs;
  let fs2 = crash_and_remount ~config fs in
  check_bytes "pre-checkpoint file" (pattern ~seed:1 2000) (read_all fs2 "/safe");
  Alcotest.(check bool) "synced-but-not-checkpointed lost without roll-forward"
    false (Fs.exists fs2 "/synced")

let test_crash_mid_segment_write () =
  let fs = make_lfs () in
  write_file fs "/safe" (pattern ~seed:4 4000);
  Fs.checkpoint_now fs;
  write_file fs "/torn" (pattern ~seed:5 8000);
  (* Allow only a few more sectors: the segment write will tear. *)
  Disk.set_crash_after (Io.member_disk (Fs.io fs) 0) ~sectors:5;
  (try Fs.sync fs with Disk.Crash -> ());
  let fs2 = crash_and_remount fs in
  check_bytes "checkpointed data intact" (pattern ~seed:4 4000)
    (read_all fs2 "/safe");
  (* The torn file may or may not exist, but the FS must be consistent:
     every visible file must be fully readable. *)
  List.iter
    (fun name -> ignore (read_all fs2 ("/" ^ name)))
    (check_ok "readdir" (Fs.readdir fs2 "/"))

let test_torn_checkpoint_region () =
  let fs = make_lfs () in
  write_file fs "/a" (pattern ~seed:6 1000);
  Fs.checkpoint_now fs;
  write_file fs "/b" (pattern ~seed:7 1000);
  (* Let the flush complete but tear the checkpoint region write: the
     flush for this config is well under 120 sectors; the region write
     comes last.  Find the tear point empirically by sweeping. *)
  Fs.sync fs;
  let snapshot = Disk.snapshot (Io.member_disk (Fs.io fs) 0) in
  let try_tear sectors =
    (* Start from the snapshot with a *freshly mounted* instance — the
       old [fs] value's in-memory state no longer matches the media. *)
    Disk.restore (Io.member_disk (Fs.io fs) 0) snapshot;
    Disk.clear_crash (Io.member_disk (Fs.io fs) 0);
    let fs1 = remount fs in
    write_file fs1 (Printf.sprintf "/extra%d" sectors) (pattern ~seed:sectors 500);
    Disk.set_crash_after (Io.member_disk (Fs.io fs) 0) ~sectors;
    (try Fs.checkpoint_now fs1 with Disk.Crash -> ());
    let fs2 = crash_and_remount fs1 in
    check_bytes "pre-tear file" (pattern ~seed:6 1000) (read_all fs2 "/a");
    List.iter
      (fun name -> ignore (read_all fs2 ("/" ^ name)))
      (check_ok "readdir" (Fs.readdir fs2 "/"))
  in
  (* A range of tear points covering segment write and region write. *)
  List.iter try_tear [ 1; 3; 8; 16; 24; 32; 40; 48 ]

let test_double_remount_idempotent () =
  let fs = make_lfs () in
  write_file fs "/f" (pattern ~seed:8 5000);
  Fs.sync fs;
  let fs2 = crash_and_remount fs in
  let c1 = read_all fs2 "/f" in
  let fs3 = crash_and_remount fs2 in
  let c2 = read_all fs3 "/f" in
  check_bytes "idempotent recovery" c1 c2

let test_delete_durable_after_rollforward () =
  (* A post-checkpoint delete whose directory update reached the log is
     durable: roll-forward replays the directory, and the recovery-time
     namespace sweep frees the now-nameless inode (the 1990 paper lacked
     this; see DESIGN.md). *)
  let fs = make_lfs () in
  write_file fs "/doomed" (pattern ~seed:9 2000);
  write_file fs "/keeper" (pattern ~seed:10 2000);
  Fs.checkpoint_now fs;
  check_ok "delete" (Fs.delete fs "/doomed");
  Fs.sync fs;
  let fs2 = crash_and_remount fs in
  Alcotest.(check bool) "delete survives the crash" false
    (Fs.exists fs2 "/doomed");
  check_bytes "keeper intact" (pattern ~seed:10 2000) (read_all fs2 "/keeper");
  (* No orphan left behind. *)
  match Lfs_core.Check.fsck fs2 with
  | [] -> ()
  | issues ->
      Alcotest.failf "issues after recovery: %s"
        (String.concat "; "
           (List.map (Format.asprintf "%a" Lfs_vfs.Audit.pp_issue) issues))

let test_links_survive_recovery () =
  let fs = make_lfs () in
  write_file fs "/file" (pattern ~seed:11 1500);
  check_ok "link" (Fs.link fs "/file" "/alias");
  Fs.checkpoint_now fs;
  (* Unlink one name after the checkpoint, then crash. *)
  check_ok "delete" (Fs.delete fs "/file");
  Fs.sync fs;
  let fs2 = crash_and_remount fs in
  Alcotest.(check bool) "unlinked name gone" false (Fs.exists fs2 "/file");
  check_bytes "alias still reads" (pattern ~seed:11 1500) (read_all fs2 "/alias");
  let st = check_ok "stat" (Fs.stat fs2 "/alias") in
  Alcotest.(check int) "nlink repaired" 1 st.Lfs_vfs.Fs_intf.nlink;
  Alcotest.(check int) "fsck clean" 0 (List.length (Lfs_core.Check.fsck fs2))

let test_fsync_is_durable_and_narrow () =
  (* fsync pushes exactly the named file (and its directory entry): after
     a crash the fsynced file survives; a dirty sibling that was never
     synced does not. *)
  let fs = make_lfs () in
  Fs.checkpoint_now fs;
  check_ok "mkdir" (Fs.mkdir fs "/d");
  write_file fs "/d/precious" (pattern ~seed:31 2500);
  write_file fs "/d/unsynced" (pattern ~seed:32 2500);
  check_ok "fsync" (Fs.fsync fs "/d/precious");
  let fs2 = crash_and_remount fs in
  check_bytes "fsynced file survives" (pattern ~seed:31 2500)
    (read_all fs2 "/d/precious");
  Alcotest.(check bool) "dirty sibling lost" false (Fs.exists fs2 "/d/unsynced");
  Alcotest.(check int) "fsck clean" 0 (List.length (Lfs_core.Check.fsck fs2))

let test_recovery_after_cleaning () =
  let fs = make_lfs () in
  for i = 0 to 49 do
    write_file fs (Printf.sprintf "/f%02d" i) (pattern ~seed:i 1500)
  done;
  Fs.sync fs;
  for i = 0 to 49 do
    if i mod 2 = 0 then check_ok "delete" (Fs.delete fs (Printf.sprintf "/f%02d" i))
  done;
  let freed = Fs.clean_now fs in
  Alcotest.(check bool) "cleaned something" true (freed >= 0);
  let fs2 = crash_and_remount fs in
  for i = 0 to 49 do
    if i mod 2 = 1 then
      check_bytes
        (Printf.sprintf "f%02d after clean+crash" i)
        (pattern ~seed:i 1500)
        (read_all fs2 (Printf.sprintf "/f%02d" i))
  done

let test_crash_during_cleaning_sweep () =
  (* Power-cut at assorted points while the cleaner is relocating live
     data: recovery must always produce a structurally sound tree with
     every surviving file intact (the victims' originals are still in
     place until the moves are durable). *)
  let run_one sectors =
    let fs = make_lfs ~config:{ small_config with Lfs_core.Config.auto_clean = false } () in
    for i = 0 to 79 do
      write_file fs (Printf.sprintf "/f%02d" i) (pattern ~seed:i 1500)
    done;
    Fs.sync fs;
    Fs.checkpoint_now fs;
    for i = 0 to 79 do
      if i mod 2 = 0 then check_ok "delete" (Fs.delete fs (Printf.sprintf "/f%02d" i))
    done;
    Fs.sync fs;
    Disk.set_crash_after (Io.member_disk (Fs.io fs) 0) ~sectors;
    (try ignore (Fs.clean_now ~target:max_int fs) with Disk.Crash -> ());
    let fs2 = crash_and_remount fs in
    (* Every file the recovered namespace shows must read correctly; all
       odd-numbered survivors whose deletes were durable... the invariant
       we can assert unconditionally: odd files must exist with exact
       content (they were checkpointed and never touched). *)
    for i = 0 to 79 do
      if i mod 2 = 1 then
        check_bytes
          (Printf.sprintf "crash@%d f%02d" sectors i)
          (pattern ~seed:i 1500)
          (read_all fs2 (Printf.sprintf "/f%02d" i))
    done;
    match
      List.filter
        (function Lfs_vfs.Audit.Orphan_inode _ -> false | _ -> true)
        (Lfs_core.Check.fsck fs2)
    with
    | [] -> ()
    | issues ->
        Alcotest.failf "crash@%d: %s" sectors
          (String.concat "; "
             (List.map (Format.asprintf "%a" Lfs_vfs.Audit.pp_issue) issues))
  in
  List.iter run_one [ 2; 9; 17; 33; 65; 120; 250 ]

let no_divergence what ~expected ~recovered =
  match Lfs_core.Check.recovery_divergence ~expected ~recovered with
  | [] -> ()
  | ds -> Alcotest.failf "%s: recovery diverged: %s" what (String.concat "; " ds)

let integrity_clean what fs =
  match Fs.integrity fs with
  | [] -> ()
  | issues ->
      Alcotest.failf "%s: integrity issues: %s" what (String.concat "; " issues)

let test_recovery_cross_validation () =
  (* Checkpoint/recovery cross-validation: the recovered tree must match
     the pre-crash durable tree exactly — names, kinds, nlinks, sizes
     and bytes — not merely fsck clean. *)
  let fs = make_lfs () in
  check_ok "mkdir" (Fs.mkdir fs "/d");
  write_file fs "/d/a" (pattern ~seed:21 3000);
  write_file fs "/b" (pattern ~seed:22 12000);
  check_ok "link" (Fs.link fs "/d/a" "/alias");
  Fs.checkpoint_now fs;
  (* Everything is durable: recovery must reproduce the live state. *)
  let fs2 = crash_and_remount fs in
  no_divergence "after checkpoint" ~expected:fs ~recovered:fs2;
  integrity_clean "after checkpoint recovery" fs2;
  (* Post-checkpoint mutations, synced but not checkpointed: roll-forward
     must reconstruct them all. *)
  write_file fs2 "/d/c" (pattern ~seed:23 5000);
  check_ok "delete" (Fs.delete fs2 "/b");
  check_ok "rename" (Fs.rename fs2 "/alias" "/d/alias2");
  Fs.sync fs2;
  let fs3 = crash_and_remount fs2 in
  no_divergence "after roll-forward" ~expected:fs2 ~recovered:fs3;
  integrity_clean "after roll-forward recovery" fs3;
  (* Recovery is idempotent at whole-tree granularity. *)
  let fs4 = crash_and_remount fs3 in
  no_divergence "second recovery" ~expected:fs3 ~recovered:fs4;
  integrity_clean "second recovery" fs4

let test_mount_unformatted () =
  let io = make_io () in
  match Fs.mount ~config:small_config io with
  | Ok _ -> Alcotest.fail "mounted an unformatted disk"
  | Error _ -> ()

let suite =
  [
    Alcotest.test_case "checkpoint then crash" `Quick test_checkpoint_then_crash;
    Alcotest.test_case "roll-forward recovers synced data" `Quick
      test_rollforward_recovers_synced;
    Alcotest.test_case "no roll-forward loses synced data" `Quick
      test_no_rollforward_loses_synced;
    Alcotest.test_case "crash mid segment write" `Quick
      test_crash_mid_segment_write;
    Alcotest.test_case "torn checkpoint region (sweep)" `Quick
      test_torn_checkpoint_region;
    Alcotest.test_case "double remount idempotent" `Quick
      test_double_remount_idempotent;
    Alcotest.test_case "post-checkpoint delete is durable" `Quick
      test_delete_durable_after_rollforward;
    Alcotest.test_case "hard links survive recovery" `Quick
      test_links_survive_recovery;
    Alcotest.test_case "fsync durable and narrow" `Quick
      test_fsync_is_durable_and_narrow;
    Alcotest.test_case "recovery after cleaning" `Quick
      test_recovery_after_cleaning;
    Alcotest.test_case "crash during cleaning (sweep)" `Quick
      test_crash_during_cleaning_sweep;
    Alcotest.test_case "recovery cross-validation" `Quick
      test_recovery_cross_validation;
    Alcotest.test_case "mount unformatted disk" `Quick test_mount_unformatted;
  ]
