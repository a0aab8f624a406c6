(* Segment cleaning (§4.3): liveness, space reclamation, policies. *)

open Common
module Fs = Lfs_core.Fs
module Config = Lfs_core.Config
module Seg_usage = Lfs_core.Seg_usage

let no_autoclean = { small_config with Config.auto_clean = false }

let fill_and_delete fs ~files ~keep_every =
  for i = 0 to files - 1 do
    write_file fs (Printf.sprintf "/f%03d" i) (pattern ~seed:i 1500)
  done;
  Fs.sync fs;
  for i = 0 to files - 1 do
    if i mod keep_every <> 0 then
      check_ok "delete" (Fs.delete fs (Printf.sprintf "/f%03d" i))
  done;
  Fs.sync fs

let test_cleaning_reclaims_space () =
  let fs = make_lfs ~config:no_autoclean () in
  fill_and_delete fs ~files:100 ~keep_every:4;
  let before = Fs.clean_segment_count fs in
  let freed = Fs.clean_now ~target:max_int fs in
  let after = Fs.clean_segment_count fs in
  Alcotest.(check bool) "freed segments" true (freed > 0);
  Alcotest.(check bool)
    (Printf.sprintf "clean count grew (%d -> %d)" before after)
    true (after > before)

let test_cleaning_preserves_data () =
  let fs = make_lfs ~config:no_autoclean () in
  fill_and_delete fs ~files:100 ~keep_every:3;
  ignore (Fs.clean_now ~target:max_int fs);
  Fs.flush_caches fs;
  for i = 0 to 99 do
    if i mod 3 = 0 then
      check_bytes
        (Printf.sprintf "f%03d" i)
        (pattern ~seed:i 1500)
        (read_all fs (Printf.sprintf "/f%03d" i))
  done

let test_cleaning_preserves_large_file () =
  (* Indirect blocks must survive evacuation. *)
  let fs = make_lfs ~size_bytes:(24 * 1024 * 1024) ~config:no_autoclean () in
  let size = 400 * 1024 in
  let data = pattern ~seed:77 size in
  check_ok "create" (Fs.create fs "/big");
  check_ok "write" (Fs.write fs "/big" ~off:0 data);
  (* Interleave small files, sync, delete them to fragment segments. *)
  for i = 0 to 99 do
    write_file fs (Printf.sprintf "/s%03d" i) (pattern ~seed:i 1024)
  done;
  Fs.sync fs;
  for i = 0 to 99 do
    check_ok "delete" (Fs.delete fs (Printf.sprintf "/s%03d" i))
  done;
  ignore (Fs.clean_now ~target:max_int fs);
  Fs.flush_caches fs;
  check_bytes "big file intact" data (read_all fs "/big")

let test_log_wraps () =
  (* Total bytes written far exceed the disk: the log must wrap through
     cleaned segments indefinitely. *)
  let fs = make_lfs ~size_bytes:(4 * 1024 * 1024) () in
  for round = 0 to 30 do
    let path = Printf.sprintf "/wrap%d" (round mod 3) in
    if Fs.exists fs path then check_ok "delete" (Fs.delete fs path);
    check_ok "create" (Fs.create fs path);
    check_ok "write" (Fs.write fs path ~off:0 (pattern ~seed:round (256 * 1024)));
    Fs.sync fs
  done;
  (* ~8 MB written through a 4 MB disk. *)
  Alcotest.(check bool) "cleaner ran" true ((Fs.stats fs).Lfs_core.State.segments_cleaned > 0);
  (* Every byte that reached the disk — full segments, cleaner output and
     the final partial segment — pinned, so host-side work on the log
     path cannot silently change the on-disk format. *)
  Alcotest.(check string) "media digest" "e8aeea921b3beaa17770f5731d67988c"
    (Digest.to_hex (Digest.bytes (Io.snapshot_media fs.Lfs_core.State.io)))

let test_greedy_picks_emptiest () =
  let fs = make_lfs ~config:no_autoclean () in
  fill_and_delete fs ~files:60 ~keep_every:2;
  let report = Fs.segment_report fs in
  let dirty =
    List.filter (fun (_, s, _) -> s = Seg_usage.Dirty) report
    |> List.map (fun (seg, _, u) -> (u, seg))
    |> List.sort compare
  in
  match dirty with
  | [] -> Alcotest.fail "no dirty segments"
  | (_, emptiest) :: _ ->
      let victims = Lfs_core.Cleaner.select_victims fs ~batch:1 in
      Alcotest.(check (list int)) "greedy victim" [ emptiest ] victims

let test_policies_all_run () =
  List.iter
    (fun policy ->
      let fs = make_lfs ~config:{ no_autoclean with Config.policy } () in
      fill_and_delete fs ~files:80 ~keep_every:4;
      ignore (Fs.clean_now ~target:max_int fs);
      for i = 0 to 79 do
        if i mod 4 = 0 then
          check_bytes
            (Printf.sprintf "%s f%03d" (Config.policy_name policy) i)
            (pattern ~seed:i 1500)
            (read_all fs (Printf.sprintf "/f%03d" i))
      done)
    [ Config.Greedy; Config.Cost_benefit; Config.Oldest ]

let test_full_segments_not_selected () =
  let fs = make_lfs ~config:no_autoclean () in
  (* Create files but delete nothing: all dirty segments are ~full. *)
  for i = 0 to 59 do
    write_file fs (Printf.sprintf "/f%03d" i) (pattern ~seed:i 1500)
  done;
  Fs.sync fs;
  let victims = Lfs_core.Cleaner.select_victims fs ~batch:10 in
  (* Only partial segments (tail of log) may be eligible. *)
  List.iter
    (fun seg ->
      let u = Lfs_core.Seg_usage.utilization
                (let st : Lfs_core.State.t = fs in st.usage) seg in
      Alcotest.(check bool) "victim below threshold" true
        (u < small_config.Config.max_live_fraction))
    victims

let test_write_cost_reported () =
  let fs = make_lfs ~config:no_autoclean () in
  fill_and_delete fs ~files:100 ~keep_every:3;
  Alcotest.(check bool) "cost starts at ~1" true (Fs.write_cost fs >= 1.0);
  ignore (Fs.clean_now ~target:max_int fs);
  Alcotest.(check bool) "cleaning raises write cost" true (Fs.write_cost fs > 1.0)

let test_enospc_when_truly_full () =
  let fs = make_lfs ~size_bytes:(2 * 1024 * 1024) () in
  let wrote = ref 0 in
  let full = ref false in
  (try
     for i = 0 to 10_000 do
       (match Fs.create fs (Printf.sprintf "/fill%05d" i) with
       | Ok () -> ()
       | Error Lfs_vfs.Errors.Enospc -> raise Exit
       | Error e -> Alcotest.failf "create: %s" (Lfs_vfs.Errors.to_string e));
       (match
          Fs.write fs (Printf.sprintf "/fill%05d" i) ~off:0 (pattern ~seed:i 4096)
        with
       | Ok () -> incr wrote
       | Error Lfs_vfs.Errors.Enospc -> raise Exit
       | Error e -> Alcotest.failf "write: %s" (Lfs_vfs.Errors.to_string e))
     done
   with Exit -> full := true);
  Alcotest.(check bool) "eventually reports Enospc" true !full;
  (* Must have stored a sensible fraction of the disk before failing. *)
  Alcotest.(check bool)
    (Printf.sprintf "stored enough before Enospc (%d files)" !wrote)
    true
    (!wrote * 4096 > 1024 * 1024 / 2);
  (* Still consistent and readable. *)
  let names = check_ok "readdir" (Fs.readdir fs "/") in
  ignore (read_all fs ("/" ^ List.hd names))

let test_structurally_sound_after_cleaning () =
  let fs = make_lfs ~config:no_autoclean () in
  fill_and_delete fs ~files:100 ~keep_every:3;
  ignore (Fs.clean_now ~target:max_int fs);
  match Lfs_core.Check.fsck fs with
  | [] -> ()
  | issues ->
      Alcotest.failf "structural issues after cleaning: %s"
        (String.concat "; "
           (List.map (Format.asprintf "%a" Lfs_vfs.Audit.pp_issue) issues))

let test_usage_accounting_exact () =
  (* The incremental live-byte estimates must track ground truth through
     create/overwrite/delete/clean cycles (modulo the usage-array
     self-reference, which the paper tolerates: the array's own blocks
     move during the checkpoint that records them). *)
  let fs = make_lfs ~config:no_autoclean () in
  fill_and_delete fs ~files:120 ~keep_every:3;
  for i = 0 to 119 do
    if i mod 6 = 0 then
      check_ok "overwrite" (Fs.write fs (Printf.sprintf "/f%03d" i) ~off:0 (pattern ~seed:(i + 7) 1500))
  done;
  Fs.sync fs;
  ignore (Fs.clean_now ~target:max_int fs);
  let layout = Fs.layout fs in
  let tolerance = 2 * layout.Lfs_core.Layout.block_size in
  List.iter
    (fun (seg, recorded, truth) ->
      if abs (recorded - truth) > tolerance then
        Alcotest.failf "segment %d accounting drift: recorded %d vs truth %d"
          seg recorded truth)
    (Lfs_core.Check.usage_drift fs)

(* The cleaner decides an inode slot's liveness from its inum and the
   inode map alone, so a dead slot whose bytes no longer decode (here a
   bad kind tag, as a torn write over a reused segment can leave) does
   not stop the pass.  A torn slot the map still points at is another
   matter, and still open. *)
(* A victim segment holding an inode-block slot that [pick] accepts
   (given the slot's inum, block address and slot index): the segment,
   the slot's block address, the block's bytes and the slot's offset. *)
let find_inode_slot fs ~pick =
  let module Layout = Lfs_core.Layout in
  let module Io = Lfs_disk.Io in
  let layout = Fs.layout fs and io = Fs.io fs in
  let read_block addr =
    Io.sync_read io
      ~sector:(Layout.sector_of_block layout addr)
      ~count:layout.Layout.block_sectors
  in
  let slot_in seg =
    let first = Layout.segment_first_block layout seg in
    let summary =
      Io.sync_read io
        ~sector:(Layout.sector_of_block layout first)
        ~count:(layout.Layout.summary_blocks * layout.Layout.block_sectors)
    in
    match Lfs_core.Summary.decode summary with
    | None -> None
    | Some (_, entries) ->
        List.mapi (fun idx e -> (idx, e)) entries
        |> List.find_map (fun (idx, entry) ->
               match (entry : Lfs_core.Summary.entry) with
               | Lfs_core.Summary.Inode_block ->
                   let addr = Layout.segment_payload_block layout ~seg ~idx in
                   let block = read_block addr in
                   List.init (Layout.inodes_per_block layout) Fun.id
                   |> List.find_map (fun slot ->
                          let off = slot * Layout.inode_bytes in
                          let inum = Lfs_vfs.Inode.inum_at block ~off in
                          if inum > 0 && pick ~inum ~addr ~slot then
                            Some (addr, block, off)
                          else None)
               | _ -> None)
  in
  List.init (Seg_usage.nsegments fs.usage) Fun.id
  |> List.find_map (fun seg ->
         if Seg_usage.state fs.usage seg = Seg_usage.Dirty then
           Option.map (fun (addr, block, off) -> (seg, addr, block, off))
             (slot_in seg)
         else None)

(* Overwrite a slot's kind tag, and with [~whole] every byte after its
   inum too, with 0xEE, so that decoding it raises; write it back. *)
let plant_bad_slot fs ~addr block ~off ~whole =
  let module Layout = Lfs_core.Layout in
  let len = if whole then Layout.inode_bytes - 4 else 1 in
  Bytes.fill block (off + 4) len '\xEE';
  (match Lfs_vfs.Inode.decode_at ~atime:false block ~off with
  | exception Lfs_util.Codec.Error _ -> ()
  | _ -> Alcotest.fail "planted kind tag still decodes");
  Lfs_disk.Io.sync_write (Fs.io fs)
    ~sector:(Layout.sector_of_block (Fs.layout fs) addr)
    block

(* After cleaning: every kept file of [fill_and_delete ~files:40
   ~keep_every:4] reads back cold, and fsck is clean. *)
let check_kept_files fs =
  Fs.flush_caches fs;
  for i = 0 to 39 do
    if i mod 4 = 0 then
      check_bytes
        (Printf.sprintf "f%03d" i)
        (pattern ~seed:i 1500)
        (read_all fs (Printf.sprintf "/f%03d" i))
  done;
  match Lfs_core.Check.fsck fs with
  | [] -> ()
  | issues ->
      Alcotest.failf "structural issues after cleaning: %s"
        (String.concat "; "
           (List.map (Format.asprintf "%a" Lfs_vfs.Audit.pp_issue) issues))

let test_dead_inode_slot_not_decoded () =
  let fs = make_lfs ~config:no_autoclean () in
  fill_and_delete fs ~files:40 ~keep_every:4;
  let pick ~inum ~addr ~slot =
    not
      (Lfs_core.Imap.is_allocated fs.imap inum
      && Lfs_core.Imap.located_at fs.imap inum ~addr ~slot)
  in
  let seg, addr, block, off =
    match find_inode_slot fs ~pick with
    | Some found -> found
    | None -> Alcotest.fail "no dead inode slot in a dirty segment"
  in
  plant_bad_slot fs ~addr block ~off ~whole:false;
  let freed = Lfs_core.Cleaner.clean_exact fs ~victims:[ seg ] in
  Alcotest.(check int) "victim cleaned" 1 freed;
  check_kept_files fs

(* A live slot whose inode is loaded: the in-memory inode is the newer
   copy, so the cleaner rewrites it without decoding the slot.  Every
   byte after the slot's inum is garbage here. *)
let test_loaded_live_inode_slot_not_decoded () =
  let fs = make_lfs ~config:no_autoclean () in
  fill_and_delete fs ~files:40 ~keep_every:4;
  let pick ~inum ~addr ~slot =
    Lfs_core.Imap.is_allocated fs.imap inum
    && Lfs_core.Imap.located_at fs.imap inum ~addr ~slot
    && Lfs_core.Inode_store.find_loaded fs inum <> None
  in
  let seg, addr, block, off =
    match find_inode_slot fs ~pick with
    | Some found -> found
    | None -> Alcotest.fail "no loaded live inode slot in a dirty segment"
  in
  let inum = Lfs_vfs.Inode.inum_at block ~off in
  plant_bad_slot fs ~addr block ~off ~whole:true;
  let freed = Lfs_core.Cleaner.clean_exact fs ~victims:[ seg ] in
  Alcotest.(check int) "victim cleaned" 1 freed;
  Alcotest.(check bool) "the slot's inode moved" false
    (Lfs_core.Imap.located_at fs.imap inum ~addr
       ~slot:(off / Lfs_core.Layout.inode_bytes));
  check_kept_files fs

(* Minor words the cleaner spends per live 4 KB block it moves: the
   slope between cleaning a victim of [n] live blocks and one of [3n],
   each a fresh file system holding one file, so the pass's fixed cost
   (metadata flush, checkpoint) cancels.  The victim's summary is walked
   where it was read: a data entry's fields are read in place, the
   cache is asked by owner and block number without a key, and the
   entry is copied byte for byte into the new segment's summary, so a
   move costs little more than the re-pointed block map.  Measured 4.1
   words per block (OCaml 5.1, no flambda); it was 13.1 with a decoded
   [Data] record, a cache key and a boxed [~off] per block, and 28.1
   when the log writer kept an entry list. *)
let test_clean_allocation_per_block () =
  let words_to_clean n =
    let config = { Config.default with Config.auto_clean = false } in
    let fs = make_lfs ~size_bytes:(16 * 1024 * 1024) ~config () in
    write_file fs "/f" (pattern ~seed:n (n * 4096));
    Fs.sync fs;
    let inum = (check_ok "stat" (Fs.stat fs "/f")).Lfs_vfs.Fs_intf.inum in
    let seg =
      match Lfs_core.Inode_store.find_loaded fs inum with
      | Some e ->
          Lfs_core.Layout.segment_of_block (Fs.layout fs)
            (Lfs_vfs.Bmap.read Lfs_core.Inode_store.map fs e 0)
      | None -> Alcotest.fail "/f not loaded after its write"
    in
    Fs.flush_caches fs;
    let before = Gc.minor_words () in
    let freed = Lfs_core.Cleaner.clean_exact fs ~victims:[ seg ] in
    let words = Gc.minor_words () -. before in
    Alcotest.(check int) "victim cleaned" 1 freed;
    check_bytes "moved file" (pattern ~seed:n (n * 4096)) (read_all fs "/f");
    words
  in
  let n = 40 in
  let per_block =
    (words_to_clean (3 * n) -. words_to_clean n) /. float (2 * n)
  in
  if per_block > 5. then
    Alcotest.failf "cleaning allocates %.1f words per moved block (bound 5)"
      per_block

let suite =
  [
    Alcotest.test_case "cleaning allocates per block only what it moves"
      `Quick test_clean_allocation_per_block;
    Alcotest.test_case "usage accounting matches ground truth" `Quick
      test_usage_accounting_exact;
    Alcotest.test_case "structurally sound after cleaning" `Quick
      test_structurally_sound_after_cleaning;
    Alcotest.test_case "reclaims space" `Quick test_cleaning_reclaims_space;
    Alcotest.test_case "preserves data" `Quick test_cleaning_preserves_data;
    Alcotest.test_case "preserves large file" `Quick
      test_cleaning_preserves_large_file;
    Alcotest.test_case "log wraps" `Quick test_log_wraps;
    Alcotest.test_case "dead inode slot is not decoded" `Quick
      test_dead_inode_slot_not_decoded;
    Alcotest.test_case "loaded live inode slot is not decoded" `Quick
      test_loaded_live_inode_slot_not_decoded;
    Alcotest.test_case "greedy picks emptiest" `Quick test_greedy_picks_emptiest;
    Alcotest.test_case "all policies preserve data" `Quick test_policies_all_run;
    Alcotest.test_case "full segments not selected" `Quick
      test_full_segments_not_selected;
    Alcotest.test_case "write cost reported" `Quick test_write_cost_reported;
    Alcotest.test_case "Enospc when truly full" `Quick
      test_enospc_when_truly_full;
  ]
