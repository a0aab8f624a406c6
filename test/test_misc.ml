(* Odds and ends: configuration validation, space accounting, the
   inspection API, error plumbing. *)

open Common
module Config = Lfs_core.Config
module Fs = Lfs_core.Fs

let test_config_validation () =
  let bad c = Alcotest.(check bool) "rejected" true (Result.is_error (Config.validate c)) in
  Alcotest.(check bool) "default ok" true (Result.is_ok (Config.validate Config.default));
  Alcotest.(check bool) "small ok" true (Result.is_ok (Config.validate Config.small));
  bad { Config.default with Config.block_size = 3000 };
  bad { Config.default with Config.segment_size = 5000 };
  bad { Config.default with Config.segment_size = Config.default.Config.block_size };
  bad { Config.default with Config.max_files = 1 };
  bad { Config.default with Config.cache_blocks = 0 };
  bad { Config.default with Config.reserve_segments = 0 };
  bad { Config.default with Config.max_live_fraction = 1.5 };
  bad
    {
      Config.default with
      Config.clean_target_segments = 2;
      clean_threshold_segments = 8;
    }

let test_ffs_config_validation () =
  let module C = Lfs_ffs.Config in
  Alcotest.(check bool) "default ok" true (Result.is_ok (C.validate C.default));
  Alcotest.(check bool) "bad block size" true
    (Result.is_error (C.validate { C.default with C.block_size = 3000 }));
  Alcotest.(check bool) "bad groups" true
    (Result.is_error (C.validate { C.default with C.ngroups = 0 }))

let test_space_accounting () =
  let fs = make_lfs () in
  let s0 = Fs.space fs in
  Alcotest.(check int) "conserved" s0.Fs.capacity_bytes
    (s0.Fs.live_bytes + s0.Fs.clean_bytes + s0.Fs.cleanable_bytes);
  write_file fs "/f" (pattern ~seed:1 (64 * 1024));
  Fs.sync fs;
  let s1 = Fs.space fs in
  Alcotest.(check bool) "live grew" true (s1.Fs.live_bytes > s0.Fs.live_bytes);
  Alcotest.(check bool) "clean shrank" true (s1.Fs.clean_bytes < s0.Fs.clean_bytes);
  check_ok "delete" (Fs.delete fs "/f");
  let s2 = Fs.space fs in
  Alcotest.(check bool) "deletion frees (cleanable grows)" true
    (s2.Fs.cleanable_bytes > s1.Fs.cleanable_bytes)

let test_inspect_segment () =
  let fs = make_lfs () in
  write_file fs "/f" (pattern ~seed:2 4000);
  Fs.sync fs;
  (* The tail segment must decode and describe the file's blocks. *)
  let described = ref false in
  List.iter
    (fun (seg, state, _) ->
      if state = Lfs_core.Seg_usage.Dirty then begin
        let text = Lfs_core.Inspect.describe_segment fs seg in
        Alcotest.(check bool) "mentions state" true
          (String.length text > 0);
        match Lfs_core.Inspect.segment_summary fs seg with
        | Some (header, entries) ->
            Alcotest.(check int) "entry count matches header"
              header.Lfs_core.Summary.nblocks (List.length entries);
            described := true
        | None -> ()
      end)
    (Fs.segment_report fs);
  Alcotest.(check bool) "at least one segment decoded" true !described;
  (* A never-written segment decodes to no summary; find one past the
     log tail of this young file system. *)
  let layout = Fs.layout fs in
  let virgin = layout.Lfs_core.Layout.nsegments - 1 in
  if Lfs_core.Seg_usage.Clean = (let _, s, _ = List.nth (Fs.segment_report fs) virgin in s)
  then
    Alcotest.(check bool) "virgin segment has no summary" true
      (Lfs_core.Inspect.segment_summary fs virgin = None)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let test_inspect_checkpoints () =
  let fs = make_lfs () in
  write_file fs "/f" (pattern ~seed:3 100);
  Fs.checkpoint_now fs;
  let text = Lfs_core.Inspect.describe_checkpoints fs in
  Alcotest.(check bool) "describes both regions" true
    (String.length text > 40);
  Alcotest.(check bool) "recovery chooses one" true
    (contains text "recovery would use")

let test_errors_wrap () =
  Alcotest.(check bool) "ok passes" true
    (Lfs_vfs.Errors.wrap (fun () -> 42) = Ok 42);
  Alcotest.(check bool) "error caught" true
    (Lfs_vfs.Errors.wrap (fun () -> Lfs_vfs.Errors.raise_ Lfs_vfs.Errors.Enospc)
    = Error Lfs_vfs.Errors.Enospc)

let test_exception_printers () =
  let shows what needle exn =
    let text = Printexc.to_string exn in
    Alcotest.(check bool) (Printf.sprintf "%s: %S" what text) true
      (contains text needle)
  in
  shows "Errors.Error" "no such file or directory: /missing"
    (Lfs_vfs.Errors.Error (Lfs_vfs.Errors.Enoent "/missing"));
  shows "Io.Read_failed" "sector 1234, 5 attempts"
    (Io.Read_failed { sector = 1234; attempts = 5 });
  shows "Faulty.Crash" "power cut" Lfs_disk.Faulty.Crash;
  shows "Disk.Read_fault transient" "sector 77, transient"
    (Lfs_disk.Disk.Read_fault { sector = 77; transient = true });
  shows "Disk.Read_fault sticky" "sector 78, sticky"
    (Lfs_disk.Disk.Read_fault { sector = 78; transient = false })

let suite =
  [
    Alcotest.test_case "LFS config validation" `Quick test_config_validation;
    Alcotest.test_case "FFS config validation" `Quick test_ffs_config_validation;
    Alcotest.test_case "space accounting" `Quick test_space_accounting;
    Alcotest.test_case "inspect segments" `Quick test_inspect_segment;
    Alcotest.test_case "inspect checkpoints" `Quick test_inspect_checkpoints;
    Alcotest.test_case "errors wrap" `Quick test_errors_wrap;
    Alcotest.test_case "exception printers" `Quick test_exception_printers;
  ]
