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
  let append data =
    Segwriter.append fs ~privilege:`System ~entry:Summary.Inode_block
      ~live_bytes:0 data
  in
  let entry = Summary.Data { inum = 7; blkno = 3; version = 2 } in
  let summary = Bytes.make (layout.Lfs_core.Layout.summary_blocks * bs) '\000' in
  Summary.put_entry summary 1 entry;
  let moved ~off data =
    Segwriter.append_moved fs ~summary ~entry:1 ~live_bytes:0 ~off data
  in
  let rejects what f =
    match f () with
    | _ -> Alcotest.failf "%s: expected Invalid_argument" what
    | exception Invalid_argument _ -> ()
  in
  rejects "negative off" (fun () -> moved ~off:(-1) buf);
  rejects "block past the end" (fun () -> moved ~off:(bs + 1) buf);
  rejects "short buffer" (fun () -> append (Bytes.create (bs - 1)));
  rejects "two blocks" (fun () -> append buf);
  Alcotest.(check int) "nothing appended" 0 (Segwriter.active_blocks fs);
  ignore (moved ~off:bs buf : int);
  let st : Lfs_core.State.t = fs in
  let pos = layout.Lfs_core.Layout.summary_blocks * bs in
  Alcotest.(check string) "second block copied"
    (Bytes.sub_string buf bs bs)
    (Bytes.sub_string st.seg.buf pos bs);
  Alcotest.(check bool) "summary entry copied" true
    (Summary.equal_entry entry (Summary.entry_at st.seg.buf 0))

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

(* Host cost of the dirty-inode set: words one [Fs.sync] allocates
   with one dirty inode, among 16 and among ~8,000 loaded clean inodes.
   A walk of the whole table that allocated per entry shows here.  (The
   table fold the set replaced allocated only for dirty entries, so it
   passes this gate too: the gate pins that the set costs no words per
   clean inode.)  The cache holds 4,096 blocks so that neither case
   evicts during the measured syncs. *)
let test_sync_allocation_flat_in_loaded () =
  let config =
    { small_config with Config.max_files = 9000; cache_blocks = 4096 }
  in
  let with_loaded files =
    let fs = make_lfs ~size_bytes:(16 * 1024 * 1024) ~config () in
    let dirs = (files + 99) / 100 in
    for d = 0 to dirs - 1 do
      check_ok "mkdir" (Lfs_core.Fs.mkdir fs (Printf.sprintf "/d%02d" d))
    done;
    for i = 0 to files - 1 do
      check_ok "create"
        (Lfs_core.Fs.create fs (Printf.sprintf "/d%02d/f%04d" (i / 100) i))
    done;
    write_file fs "/hot" (Bytes.make 100 'h');
    Lfs_core.Fs.sync fs;
    let loaded = Lfs_core.Inode_store.loaded_count fs in
    (* The median of five: the segment writer's position differs between
       the two file systems, so one sync may roll to a new segment. *)
    let words =
      List.init 5 (fun k ->
          check_ok "write"
            (Lfs_core.Fs.write fs "/hot" ~off:k (Bytes.make 1 'x'));
          let before = Gc.minor_words () in
          Lfs_core.Fs.sync fs;
          Gc.minor_words () -. before)
      |> List.sort compare
    in
    (loaded, List.nth words 2)
  in
  let few, w_few = with_loaded 12 and many, w_many = with_loaded 8000 in
  if few > 20 || many < 8000 then
    Alcotest.failf "%d then %d loaded inodes, expected ~16 then >= 8000" few
      many;
  if Float.abs (w_many -. w_few) > 8. then
    Alcotest.failf
      "sync allocates %.0f words with %d loaded inodes, %.0f with %d" w_many
      many w_few few

(* The maintained dirty-inode set against a scan of the whole table,
   after every op of a seeded random run.  An op that raises a dirty
   flag without recording it in the set would lose that inode at the
   next flush; this finds it.  Offsets reach the direct, single- and
   double-indirect ranges (12 direct pointers, 256 per 1 KB block). *)
let test_dirty_set_matches_scan () =
  let module State = Lfs_core.State in
  let module Fs = Lfs_core.Fs in
  let fs = make_lfs ~size_bytes:(16 * 1024 * 1024) () in
  let scan () =
    Array.fold_left
      (fun acc -> function
        | Some (e : State.itable_entry)
          when e.ino_dirty || e.ind_dirty || e.dind_top_dirty
               || Lfs_util.Bitset.cardinal e.dind_child_dirty > 0 ->
            e.ino.Lfs_vfs.Inode.inum :: acc
        | Some _ | None -> acc)
      [] fs.State.itable
    |> List.sort compare
  in
  let rng = Lfs_util.Rng.create 23 in
  let path () = Printf.sprintf "/f%d" (Lfs_util.Rng.int rng 12) in
  let offsets = [| 0; 5 * 1024; 20 * 1024; 300 * 1024; 600 * 1024 |] in
  let ignore_result (_ : (unit, Lfs_vfs.Errors.t) result) = () in
  for step = 1 to 600 do
    (match Lfs_util.Rng.int rng 9 with
    | 0 | 1 -> ignore_result (Fs.create fs (path ()))
    | 2 | 3 ->
        let off = offsets.(Lfs_util.Rng.int rng (Array.length offsets)) in
        ignore_result (Fs.write fs (path ()) ~off (Bytes.make 100 'w'))
    | 4 ->
        ignore_result
          (Fs.truncate fs (path ()) ~size:(Lfs_util.Rng.int rng 3 * 4096))
    | 5 -> ignore_result (Fs.delete fs (path ()))
    | 6 -> ignore_result (Fs.link fs (path ()) (path ()))
    | 7 -> Fs.sync fs
    | _ -> ignore (Fs.clean_now ~target:max_int fs : int));
    let want = scan () in
    let got =
      Array.to_list
        (Array.map
           (fun (e : State.itable_entry) -> e.ino.Lfs_vfs.Inode.inum)
           (Lfs_core.Inode_store.dirty_inodes fs))
    in
    if got <> want then
      Alcotest.failf "step %d: dirty set [%s], table scan [%s]" step
        (String.concat ";" (List.map string_of_int got))
        (String.concat ";" (List.map string_of_int want))
  done

(* Each way a clean, loaded file gets a dirty flag must put it in the
   dirty-inode set.  The cleaner's touches matter most: they raise a
   pointer block's flag alone, and a file missing from the set would
   keep its pointer block in a segment the cleaner then frees.  Block 0
   is direct, 12 single-indirect and 268 (12 + 256) double-indirect. *)
let test_every_raise_records_inum () =
  let module Fs = Lfs_core.Fs in
  let module Store = Lfs_core.Inode_store in
  let fs = make_lfs ~size_bytes:(16 * 1024 * 1024) () in
  write_file fs "/f" (Bytes.make (270 * 1024) 'f');
  Fs.sync fs;
  let inum = (check_ok "stat" (Fs.stat fs "/f")).Lfs_vfs.Fs_intf.inum in
  let e =
    match Store.find_loaded fs inum with
    | Some e -> e
    | None -> Alcotest.fail "/f not loaded after its write"
  in
  let dirty () =
    Array.to_list
      (Array.map
         (fun (e : Lfs_core.State.itable_entry) -> e.ino.Lfs_vfs.Inode.inum)
         (Store.dirty_inodes fs))
  in
  Alcotest.(check (list int)) "clean after sync" [] (dirty ());
  let rewrite blkno =
    let map = Store.map in
    ignore (Lfs_vfs.Bmap.write map fs e blkno (Lfs_vfs.Bmap.read map fs e blkno) : int)
  in
  List.iter
    (fun (what, raise_flag) ->
      raise_flag ();
      Alcotest.(check (list int)) what [ inum ] (dirty ());
      Fs.sync fs;
      Alcotest.(check (list int)) (what ^ ", then sync") [] (dirty ()))
    [
      ("direct pointer", fun () -> rewrite 0);
      ("single-indirect pointer", fun () -> rewrite 12);
      ("double-indirect pointer", fun () -> rewrite 268);
      ("cleaner touches the indirect block", fun () ->
        Store.cleaner_touch fs e (-1));
      ("cleaner touches the double-indirect top", fun () ->
        Store.cleaner_touch fs e (-2));
      ("cleaner touches a double-indirect child", fun () ->
        Store.cleaner_touch fs e 0);
    ];
  check_bytes "/f reads back" (Bytes.make (270 * 1024) 'f')
    (Fs.flush_caches fs;
     read_all fs "/f")

(* The inode table is indexed by inum, so a lookup of a loaded inode is
   a bounds check and one load: 1,000 [Inode_store.find] calls allocate
   nothing (a [Hashtbl.find_opt] allocates a [Some] per call).  Measured
   against the same loop without the calls, so the harness's own words
   cancel. *)
let test_find_allocates_nothing () =
  let module Store = Lfs_core.Inode_store in
  let fs = make_lfs () in
  let inums =
    Array.init 10 (fun i ->
        let path = Printf.sprintf "/f%d" i in
        check_ok "create" (Lfs_core.Fs.create fs path);
        (check_ok "stat" (Lfs_core.Fs.stat fs path)).Lfs_vfs.Fs_intf.inum)
  in
  let words f =
    let before = Gc.minor_words () in
    for i = 1 to 1000 do
      f inums.(i mod Array.length inums)
    done;
    Gc.minor_words () -. before
  in
  let find inum = ignore (Sys.opaque_identity (Store.find fs inum)) in
  let none (_ : int) = () in
  ignore (words find : float);
  let w_find = words find and w_none = words none in
  if w_find <> w_none then
    Alcotest.failf "1000 finds allocate %.0f words (the empty loop %.0f)"
      w_find w_none;
  Alcotest.(check bool) "out of range is not loaded" true
    (Store.find_loaded fs (-1) = None
    && Store.find_loaded fs fs.Lfs_core.State.layout.Layout.max_files = None)

(* The loaded count against the filled slots, through a seeded churn of
   creates, deletes, syncs, remounts and cache flushes ([clear_clean]);
   a deleted inum is never found again. *)
let test_itable_churn () =
  let module Fs = Lfs_core.Fs in
  let module Store = Lfs_core.Inode_store in
  let module State = Lfs_core.State in
  let fs = ref (make_lfs ~size_bytes:(16 * 1024 * 1024) ()) in
  let rng = Lfs_util.Rng.create 29 in
  let live = Hashtbl.create 64 and deleted = ref [] in
  let check step =
    let st = !fs in
    let filled =
      Array.fold_left
        (fun n -> function Some _ -> n + 1 | None -> n)
        0 st.State.itable
    in
    if Store.loaded_count st <> filled then
      Alcotest.failf "step %d: loaded_count %d, %d filled slots" step
        (Store.loaded_count st) filled;
    List.iter
      (fun inum ->
        if Store.find_loaded st inum <> None then
          Alcotest.failf "step %d: deleted inum %d still loaded" step inum;
        match Store.find st inum with
        | _ -> Alcotest.failf "step %d: deleted inum %d found" step inum
        | exception Lfs_vfs.Errors.Error (Lfs_vfs.Errors.Enoent _) -> ())
      !deleted
  in
  for step = 1 to 400 do
    (match Lfs_util.Rng.int rng 10 with
    | 0 | 1 | 2 | 3 ->
        let path = Printf.sprintf "/f%d" step in
        write_file !fs path (Bytes.make (Lfs_util.Rng.int rng 3000) 'c');
        let inum = (check_ok "stat" (Fs.stat !fs path)).Lfs_vfs.Fs_intf.inum in
        deleted := List.filter (( <> ) inum) !deleted;
        Hashtbl.replace live path inum
    | 4 | 5 | 6 -> (
        match Hashtbl.fold (fun p i acc -> (p, i) :: acc) live [] with
        | [] -> ()
        | files ->
            let files = List.sort compare files in
            let path, inum =
              List.nth files (Lfs_util.Rng.int rng (List.length files))
            in
            check_ok "delete" (Fs.delete !fs path);
            Hashtbl.remove live path;
            deleted := inum :: !deleted)
    | 7 -> Fs.sync !fs
    | 8 -> Fs.flush_caches !fs
    | _ -> (
        Fs.unmount !fs;
        match Fs.mount ~config:small_config (Fs.io !fs) with
        | Ok m -> fs := m
        | Error e -> Alcotest.failf "remount: %s" e));
    check step
  done;
  Alcotest.(check bool) "churn loaded and dropped inodes" true
    (Hashtbl.length live > 0 && !deleted <> [])

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
    Alcotest.test_case "sync allocation flat in loaded inodes" `Quick
      test_sync_allocation_flat_in_loaded;
    Alcotest.test_case "dirty-inode set matches a table scan" `Quick
      test_dirty_set_matches_scan;
    Alcotest.test_case "inode lookups allocate nothing" `Quick
      test_find_allocates_nothing;
    Alcotest.test_case "inode table count through churn" `Quick
      test_itable_churn;
    Alcotest.test_case "every dirty-flag raise records the inum" `Quick
      test_every_raise_records_inum;
  ]
