(* Internal LFS modules: layout computation, segment writer, namespace
   block management, imap allocation, usage bookkeeping. *)

open Common
module Config = Lfs_core.Config
module Geometry = Lfs_disk.Geometry
module Imap = Lfs_core.Imap
module Layout = Lfs_core.Layout
module Namespace = Lfs_core.Namespace
module Seg_usage = Lfs_core.Seg_usage
module Segwriter = Lfs_core.Segwriter
module Summary = Lfs_core.Summary


(* Layout *)

let prop_layout_invariants =
  QCheck.Test.make ~name:"layout invariants over configurations" ~count:100
    QCheck.(
      triple (int_range 0 3) (* block size: 1K << n *)
        (int_range 2 8) (* segment = block << n *)
        (int_range 4 128) (* disk MB *))
    (fun (bshift, sshift, disk_mb) ->
      let block_size = 1024 lsl bshift in
      let segment_size = block_size lsl sshift in
      let config =
        { Config.default with Config.block_size; segment_size; max_files = 2048 }
      in
      let geometry = Geometry.wren_iv ~size_bytes:(disk_mb * 1024 * 1024) in
      match Layout.compute config geometry with
      | Error _ -> QCheck.assume_fail () (* too small: rejected cleanly *)
      | Ok l ->
          l.Layout.summary_blocks >= 1
          && l.Layout.payload_blocks
             = l.Layout.seg_blocks - l.Layout.summary_blocks
          && l.Layout.payload_blocks
             <= Summary.max_entries
                  ~size_bytes:(l.Layout.summary_blocks * block_size)
          && l.Layout.first_segment_block
             + (l.Layout.nsegments * l.Layout.seg_blocks)
             <= l.Layout.total_blocks
          && fst l.Layout.cp_region < snd l.Layout.cp_region
          && snd l.Layout.cp_region + l.Layout.cp_blocks
             <= l.Layout.first_segment_block)

let test_layout_addr_roundtrip () =
  let geometry = Geometry.wren_iv ~size_bytes:(8 * 1024 * 1024) in
  let l =
    match Layout.compute Config.small geometry with
    | Ok l -> l
    | Error e -> failwith e
  in
  for seg = 0 to l.Layout.nsegments - 1 do
    for idx = 0 to l.Layout.payload_blocks - 1 do
      let addr = Layout.segment_payload_block l ~seg ~idx in
      Alcotest.(check int) "segment" seg (Layout.segment_of_block l addr);
      Alcotest.(check int) "index" idx (Layout.payload_index_of_block l addr)
    done
  done

(* Segwriter (through a mounted fs) *)

let test_segwriter_fills_and_rolls () =
  let fs = make_lfs () in
  let layout = Lfs_core.Fs.layout fs in
  let bs = layout.Lfs_core.Layout.block_size in
  Alcotest.(check int) "no active blocks" 0 (Segwriter.active_blocks fs);
  (* Write more than one segment's payload and flush. *)
  let nblocks = layout.Lfs_core.Layout.payload_blocks + 3 in
  write_file fs "/big" (pattern ~seed:1 (nblocks * bs));
  Lfs_core.Fs.sync fs;
  let stats = Lfs_core.Fs.stats fs in
  Alcotest.(check bool) "multiple segments written" true
    (stats.Lfs_core.State.segments_written >= 2);
  Alcotest.(check bool) "partials counted" true
    (stats.Lfs_core.State.partial_segments >= 1);
  Alcotest.(check int) "buffer drained" 0 (Segwriter.active_blocks fs)

let test_segwriter_append_off () =
  let fs = make_lfs () in
  let layout = Lfs_core.Fs.layout fs in
  let bs = layout.Lfs_core.Layout.block_size in
  let buf = pattern ~seed:2 (2 * bs) in
  let append ?off data =
    Segwriter.append fs ~privilege:`System ~entry:Summary.Inode_block
      ~live_bytes:0 ?off data
  in
  let rejects what f =
    match f () with
    | _ -> Alcotest.failf "%s: expected Invalid_argument" what
    | exception Invalid_argument _ -> ()
  in
  rejects "negative off" (fun () -> append ~off:(-1) buf);
  rejects "block past the end" (fun () -> append ~off:(bs + 1) buf);
  rejects "short buffer" (fun () -> append ~off:0 (Bytes.create (bs - 1)));
  rejects "no off, two blocks" (fun () -> append buf);
  Alcotest.(check int) "nothing appended" 0 (Segwriter.active_blocks fs);
  ignore (append ~off:bs buf : int);
  let st : Lfs_core.State.t = fs in
  let pos = layout.Lfs_core.Layout.summary_blocks * bs in
  Alcotest.(check string) "second block copied"
    (Bytes.sub_string buf bs bs)
    (Bytes.sub_string st.seg.buf pos bs)

(* Namespace: directory growth across blocks *)

let test_directory_spills_blocks () =
  let fs = make_lfs () in
  (* 1 KB blocks hold ~45 entries of ~22 bytes; create enough to force
     several directory blocks, with names long enough to straddle. *)
  let n = 150 in
  for i = 0 to n - 1 do
    check_ok "create"
      (Lfs_core.Fs.create fs (Printf.sprintf "/a-rather-long-file-name-%04d" i))
  done;
  let st = check_ok "stat" (Lfs_core.Fs.stat fs "/") in
  Alcotest.(check bool) "root spans multiple blocks" true
    (st.Lfs_vfs.Fs_intf.size > 1024);
  Alcotest.(check int) "all listed" n
    (List.length (check_ok "readdir" (Lfs_core.Fs.readdir fs "/")));
  (* Delete from the middle; the namespace must stay consistent. *)
  for i = 0 to n - 1 do
    if i mod 3 = 1 then
      check_ok "delete"
        (Lfs_core.Fs.delete fs (Printf.sprintf "/a-rather-long-file-name-%04d" i))
  done;
  Alcotest.(check int) "two thirds remain" (n - (n / 3))
    (List.length (check_ok "readdir" (Lfs_core.Fs.readdir fs "/")));
  Alcotest.(check int) "fsck clean" 0 (List.length (Lfs_core.Check.fsck fs))

let test_max_name_length () =
  let fs = make_lfs () in
  let name255 = String.make 255 'x' in
  check_ok "255-char name" (Lfs_core.Fs.create fs ("/" ^ name255));
  Alcotest.(check bool) "listed" true
    (List.mem name255 (check_ok "readdir" (Lfs_core.Fs.readdir fs "/")));
  match Lfs_core.Fs.create fs ("/" ^ String.make 256 'y') with
  | Error (Lfs_vfs.Errors.Einval _) -> ()
  | _ -> Alcotest.fail "256-char name accepted"

(* Imap allocation behaviour through the public API *)

let test_inum_exhaustion_and_reuse () =
  let config = { small_config with Config.max_files = 64 } in
  let fs = make_lfs ~config () in
  (* Fill the inode map (root takes one slot). *)
  let created = ref 0 in
  (try
     for i = 0 to 200 do
       match Lfs_core.Fs.create fs (Printf.sprintf "/f%03d" i) with
       | Ok () -> incr created
       | Error Lfs_vfs.Errors.Enospc -> raise Exit
       | Error e -> Alcotest.failf "create: %s" (Lfs_vfs.Errors.to_string e)
     done
   with Exit -> ());
  Alcotest.(check int) "map filled" 62 !created;
  (* Deleting one frees exactly one slot. *)
  check_ok "delete" (Lfs_core.Fs.delete fs "/f000");
  check_ok "create again" (Lfs_core.Fs.create fs "/reborn");
  match Lfs_core.Fs.create fs "/one-too-many" with
  | Error Lfs_vfs.Errors.Enospc -> ()
  | _ -> Alcotest.fail "expected Enospc"

(* Segment usage bookkeeping visible through the report *)

let test_usage_report_consistency () =
  let fs = make_lfs () in
  for i = 0 to 29 do
    write_file fs (Printf.sprintf "/f%02d" i) (pattern ~seed:i 2000)
  done;
  Lfs_core.Fs.sync fs;
  let report = Lfs_core.Fs.segment_report fs in
  let total =
    List.fold_left
      (fun acc (_, state, u) ->
        (match state with
        | Seg_usage.Clean -> Alcotest.(check (float 0.001)) "clean is empty" 0.0 u
        | Seg_usage.Dirty | Seg_usage.Active -> ());
        acc + 1)
      0 report
  in
  Alcotest.(check int) "all segments reported"
    (Lfs_core.Fs.layout fs).Lfs_core.Layout.nsegments total;
  (* Live bytes roughly match what we wrote (30 files x 2 KB data plus
     metadata; generous upper bound). *)
  let live = Lfs_core.Fs.live_bytes fs in
  Alcotest.(check bool)
    (Printf.sprintf "live bytes sane (%d)" live)
    true
    (live > 30 * 2000 && live < 30 * 2000 * 4)

let suite =
  [
    qcheck prop_layout_invariants;
    Alcotest.test_case "layout address roundtrip" `Quick
      test_layout_addr_roundtrip;
    Alcotest.test_case "segment writer fills and rolls" `Quick
      test_segwriter_fills_and_rolls;
    Alcotest.test_case "segment writer append off" `Quick
      test_segwriter_append_off;
    Alcotest.test_case "directory spills blocks" `Quick
      test_directory_spills_blocks;
    Alcotest.test_case "max name length" `Quick test_max_name_length;
    Alcotest.test_case "inum exhaustion and reuse" `Quick
      test_inum_exhaustion_and_reuse;
    Alcotest.test_case "usage report consistency" `Quick
      test_usage_report_consistency;
  ]
