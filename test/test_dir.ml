(* The shared directory layer seen through both file systems: a corrupt
   directory block is an error, not an exception; namei charges one
   lookup per block examined (the paper's linear scan); and a lookup in
   a cached directory no longer re-decodes its blocks.  The host-cost
   gates here bound the words an operation allocates, so a per-op walk
   over the directory or the cache shows up as a failure. *)

module Cpu_model = Lfs_disk.Cpu_model
module Dir_block = Lfs_vfs.Dir_block
module E = Lfs_vfs.Errors
module Fs_intf = Lfs_vfs.Fs_intf
module Io = Lfs_disk.Io
module Metrics = Lfs_obs.Metrics
module Profile = Lfs_obs.Profile

(* Distinct, nonzero costs so every charge shows in the clock. *)
let cpu = { Cpu_model.syscall_us = 1000; per_kb_us = 0; lookup_us = 7 }

(* Names of one length (entry 10 bytes): a 1 KB block holds
   (1024 - 2) / 10 = 102 of them, filled in creation order. *)
let name i = Printf.sprintf "f%03d" i

module Cases
    (F : Fs_intf.S) (Env : sig
      val label : string

      val make :
        cache_blocks:int ->
        size_bytes:int ->
        cpu:Cpu_model.t ->
        block_size:int ->
        F.t
      (** Formatted and mounted. *)

      val dir_block_sector : F.t -> string -> int -> int
      (** First sector of a directory's block (direct blocks only on
          FFS). *)


      val inodes_in_use : F.t -> int
    end) =
struct
  let ok what = Common.check_ok (Env.label ^ " " ^ what)

  let make_dir ?(block_size = 1024) ~name n =
    let fs =
      Env.make ~cache_blocks:1024 ~size_bytes:(8 * 1024 * 1024) ~cpu ~block_size
    in
    ok "mkdir" (F.mkdir fs "/d");
    for i = 0 to n - 1 do
      ok "create" (F.create fs ("/d/" ^ name i))
    done;
    fs

  let clock_delta fs f =
    let t0 = Io.now_us (F.io fs) in
    f ();
    Io.now_us (F.io fs) - t0

  (* Entry count 5000 in the first sector of /a's block 0: the block
     claims far more entries than it holds. *)
  let test_corrupt_block () =
    let fs =
      Env.make ~cache_blocks:1024 ~size_bytes:(16 * 1024 * 1024)
        ~cpu:Cpu_model.free ~block_size:1024
    in
    ok "mkdir" (F.mkdir fs "/a");
    ok "create" (F.create fs "/a/x");
    F.sync fs;
    let io = F.io fs in
    let sector = Env.dir_block_sector fs "/a" 0 in
    let first = Io.sync_read io ~sector ~count:1 in
    Bytes.set_uint16_le first 0 5000;
    Io.sync_write io ~sector first;
    F.flush_caches fs;
    let corrupt what = function
      | Error (E.Ecorrupt m) ->
          if not (String.starts_with ~prefix:"directory inum " m) then
            Alcotest.failf "%s: message %S does not name the block" what m
      | Error e -> Alcotest.failf "%s: %s, expected Ecorrupt" what (E.to_string e)
      | Ok _ -> Alcotest.failf "%s: succeeded on a corrupt directory" what
    in
    corrupt "stat" (F.stat fs "/a/x");
    let inodes = Env.inodes_in_use fs in
    corrupt "create" (F.create fs "/a/y");
    Alcotest.(check int) "failed create allocated nothing" inodes
      (Env.inodes_in_use fs);
    corrupt "delete" (F.delete fs "/a/x");
    corrupt "readdir" (Result.map ignore (F.readdir fs "/a"));
    Alcotest.(check (list string)) "root untouched" [ "a" ]
      (ok "readdir /" (F.readdir fs "/"))

  (* Three cached blocks; the root holds one, so "/d" costs one lookup. *)
  let test_charge_model () =
    let fs = make_dir ~name 250 in
    let stat path = ignore (F.stat fs path) in
    let lookup = cpu.Cpu_model.lookup_us in
    let base = clock_delta fs (fun () -> stat "/d") in
    Alcotest.(check int) "stat /d" (cpu.Cpu_model.syscall_us + lookup) base;
    List.iter
      (fun (i, k) ->
        Alcotest.(check int)
          (Printf.sprintf "%s in block %d" (name i) k)
          (base + ((k + 1) * lookup))
          (clock_delta fs (fun () -> stat ("/d/" ^ name i))))
      [ (0, 0); (101, 0); (102, 1); (150, 1); (204, 2); (249, 2) ];
    Alcotest.(check int) "missing name scans all 3 blocks"
      (base + (3 * lookup))
      (clock_delta fs (fun () -> stat "/d/nope"));
    (* Room in block 1 only: create misses all 3 blocks, then stops
       at block 1.  FFS writes synchronously, so count the op's CPU
       time (its time outside disk spans), not the clock. *)
    ok "delete" (F.delete fs ("/d/" ^ name 150));
    let profile = Profile.attach (Io.bus (F.io fs)) in
    ok "create" (F.create fs "/d/g150");
    Profile.detach profile;
    let create =
      List.find (fun s -> s.Profile.op = "create") (Profile.report profile).Profile.ops
    in
    Alcotest.(check int) "create: 3 misses + blocks up to the first with room"
      (base + ((3 + 2) * lookup))
      create.Profile.cache_us

  (* 1,000 stats over the 1,000 names of a cached 4-block directory
     (4 KB blocks of 16-byte entries, 255 a block: the paper's small-file
     directories).  When each visit re-decoded every block scanned this
     cost 5,804 words a call on both file systems; with the decoded views
     it is 149. *)
  let words_bound = 600

  let test_stat_allocation () =
    let name i = Printf.sprintf "file%06d" i in
    let fs = make_dir ~block_size:4096 ~name 1000 in
    let paths = Array.init 1000 (fun i -> "/d/" ^ name i) in
    Array.iter (fun p -> ok "warm" (F.stat fs p) |> ignore) paths;
    let before = Gc.minor_words () in
    for i = 0 to 999 do
      match F.stat fs paths.(i) with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "stat: %s" (E.to_string e)
    done;
    let per_call = (Gc.minor_words () -. before) /. 1000. in
    if per_call > float_of_int words_bound then
      Alcotest.failf "%s stat allocates %.0f words per call (bound %d)"
        Env.label per_call words_bound

  (* Words per cached read, with few and with many dirty blocks resident.
     Every op checks the write-back age on its way out.  While that check
     folded over the whole cache, most-recently-used first, it allocated a
     [Some] each time the running maximum grew.  Here it grows at every
     dirty block: the bulk file is written and synced whole, so its
     pointer blocks are clean, and then overwritten one block per call
     with a 1 ms syscall charge, so each block becomes dirty at its own
     time and the least recently used is the oldest. *)
  let test_read_allocation_flat () =
    let fs =
      Env.make ~cache_blocks:4096 ~size_bytes:(16 * 1024 * 1024) ~cpu
        ~block_size:1024
    in
    ok "create" (F.create fs "/hot");
    ok "write" (F.write fs "/hot" ~off:0 (Bytes.make 1024 'h'));
    F.sync fs;
    ok "create" (F.create fs "/bulk");
    ok "write" (F.write fs "/bulk" ~off:0 (Bytes.make (3000 * 1024) 'a'));
    F.sync fs;
    let block = Bytes.make 1024 'b' in
    let written = ref 0 in
    let dirty_to n =
      while !written < n do
        ok "write" (F.write fs "/bulk" ~off:(!written * 1024) block);
        incr written
      done
    in
    let dirty () =
      match
        Metrics.find (Metrics.snapshot (Io.metrics (F.io fs)))
          "cache.dirty_blocks"
      with
      | Some (Metrics.Gauge g) -> int_of_float g
      | Some _ | None -> Alcotest.fail "no cache.dirty_blocks gauge"
    in
    let words_per_read () =
      ok "warm" (F.read fs "/hot" ~off:0 ~len:1024) |> ignore;
      let before = Gc.minor_words () in
      for _ = 1 to 1000 do
        match F.read fs "/hot" ~off:0 ~len:1024 with
        | Ok _ -> ()
        | Error e -> Alcotest.failf "read: %s" (E.to_string e)
      done;
      (Gc.minor_words () -. before) /. 1000.
    in
    dirty_to 16;
    let few = dirty () in
    let w_few = words_per_read () in
    dirty_to 3000;
    let many = dirty () in
    let w_many = words_per_read () in
    if few > 20 || many < 3000 then
      Alcotest.failf "%s: %d then %d dirty blocks, expected ~16 then >= 3000"
        Env.label few many;
    if Float.abs (w_many -. w_few) > 2. then
      Alcotest.failf
        "%s cached read allocates %.1f words with %d dirty blocks, %.1f with %d"
        Env.label w_many many w_few few

  (* Creates and deletes patch the directory block they change rather
     than re-encode it; what reaches the disk must still be exactly the
     block's encoding.  Names of 1..255 bytes on 2 KB blocks, so blocks
     fill and later creates reuse the room deletes free.  Block 0 may
     first get junk written past its used bytes on disk and be read back
     cold: the next create patches that block and must zero the junk. *)
  type dir_op = Create of string | Delete of int

  let dir_op_gen =
    QCheck.Gen.(
      let len = frequency [ (3, int_range 1 8); (2, int_range 200 255) ] in
      frequency
        [
          (3, map (fun n -> Create n) (string_size ~gen:(char_range 'a' 'z') len));
          (2, map (fun k -> Delete k) nat);
        ])

  let prop_blocks_are_encodings =
    QCheck.Test.make
      ~name:(Env.label ^ " directory blocks on disk are their encoding")
      ~count:40
      (QCheck.make
         ~print:(fun (junk, ops) ->
           Printf.sprintf "junk=%b\n%s" junk
             (String.concat "\n"
                (List.map
                   (function
                     | Create n -> Printf.sprintf "create %d bytes" (String.length n)
                     | Delete k -> Printf.sprintf "delete #%d" k)
                   ops)))
         QCheck.Gen.(pair bool (list_size (int_range 1 40) dir_op_gen)))
      (fun (junk, ops) ->
        let block_size = 2048 in
        let fs =
          Env.make ~cache_blocks:1024 ~size_bytes:(8 * 1024 * 1024)
            ~cpu:Cpu_model.free ~block_size
        in
        let io = F.io fs in
        let count = block_size / (Io.geometry io).Lfs_disk.Geometry.sector_size in
        let read_block blk =
          Io.sync_read io ~sector:(Env.dir_block_sector fs "/d" blk) ~count
        in
        ok "mkdir" (F.mkdir fs "/d");
        ok "create" (F.create fs "/d/first");
        if junk then begin
          F.sync fs;
          let b = read_block 0 in
          let used = Dir_block.used_bytes (Dir_block.parse b) in
          Bytes.fill b used (block_size - used) '\xAA';
          Io.sync_write io ~sector:(Env.dir_block_sector fs "/d" 0) b;
          F.flush_caches fs
        end;
        ok "create" (F.create fs "/d/second");
        let live = ref [ "second"; "first" ] in
        List.iter
          (function
            | Create n ->
                if not (List.mem n !live) then begin
                  ok "create" (F.create fs ("/d/" ^ n));
                  live := n :: !live
                end
            | Delete k -> (
                match !live with
                | [] -> ()
                | l ->
                    let n = List.nth l (k mod List.length l) in
                    ok "delete" (F.delete fs ("/d/" ^ n));
                    live := List.filter (fun m -> m <> n) l))
          ops;
        F.sync fs;
        let size = (ok "stat" (F.stat fs "/d")).Fs_intf.size in
        let names =
          List.concat_map
            (fun blk ->
              let b = read_block blk in
              let entries = Dir_block.parse b in
              if not (Bytes.equal b (Dir_block.encode ~block_size entries)) then
                QCheck.Test.fail_reportf "block %d is not its encoding" blk;
              List.map fst entries)
            (List.init (size / block_size) Fun.id)
        in
        List.sort compare names = List.sort compare !live)

  (* A one-block cache: each block read evicts the one before, so a
     directory block's buffer is reused for file blocks and comes back
     for a later read of the directory.  Its view is reused only when
     the cache hands back the buffer it was decoded from, which then
     holds the block's current bytes; lookups, adds and removes must
     see exactly the model's names throughout. *)
  let test_view_after_buffer_reuse () =
    let fs =
      Env.make ~cache_blocks:1 ~size_bytes:(8 * 1024 * 1024)
        ~cpu:Cpu_model.free ~block_size:1024
    in
    ok "mkdir" (F.mkdir fs "/d");
    (* 120 names: two directory blocks. *)
    let live = ref (List.init 120 name) in
    List.iter (fun n -> ok "create" (F.create fs ("/d/" ^ n))) !live;
    let big = Common.pattern ~seed:8 (16 * 1024) in
    ok "create big" (F.create fs "/big");
    ok "write big" (F.write fs "/big" ~off:0 big);
    F.sync fs;
    F.flush_caches fs;
    let check what =
      Alcotest.(check (list string)) what (List.sort compare !live)
        (ok "readdir" (F.readdir fs "/d"));
      List.iter (fun n -> ignore (ok ("stat " ^ n) (F.stat fs ("/d/" ^ n)))) !live
    in
    for round = 0 to 5 do
      Common.check_bytes "big" big (ok "read big" (F.read fs "/big" ~off:0 ~len:(16 * 1024)));
      check (Printf.sprintf "round %d" round);
      let gone = name (round * 7) in
      ok "delete" (F.delete fs ("/d/" ^ gone));
      live := List.filter (( <> ) gone) !live;
      (match F.stat fs ("/d/" ^ gone) with
      | Ok _ -> Alcotest.failf "%s still found" gone
      | Error _ -> ());
      let added = Printf.sprintf "g%03d" round in
      ok "create" (F.create fs ("/d/" ^ added));
      live := added :: !live;
      if round mod 2 = 1 then F.sync fs
    done;
    F.flush_caches fs;
    check "cold"

  let cases =
    [
      Alcotest.test_case (Env.label ^ " corrupt block is Ecorrupt") `Quick
        test_corrupt_block;
      Alcotest.test_case (Env.label ^ " view after its buffer is reused") `Quick
        test_view_after_buffer_reuse;
      Alcotest.test_case (Env.label ^ " lookup charge per block") `Quick
        test_charge_model;
      Alcotest.test_case (Env.label ^ " stat allocation bound") `Quick
        test_stat_allocation;
      Alcotest.test_case
        (Env.label ^ " read allocation flat in dirty blocks")
        `Quick test_read_allocation_flat;
      Common.qcheck prop_blocks_are_encodings;
    ]
end

module Lfs = Cases (Lfs_core.Fs) (struct
  let label = "lfs"

  let make ~cache_blocks ~size_bytes ~cpu ~block_size =
    let io = Common.make_io ~size_bytes ~cpu () in
    let config =
      {
        Common.small_config with
        Lfs_core.Config.block_size;
        segment_size = 16 * block_size;
        max_files = 2048;
        cache_blocks;
      }
    in
    (match Lfs_core.Fs.format io config with
    | Ok () -> ()
    | Error e -> failwith e);
    match Lfs_core.Fs.mount ~config io with Ok fs -> fs | Error e -> failwith e

  let dir_block_sector fs path blk =
    let inum = (Common.check_ok "stat" (Lfs_core.Fs.stat fs path)).Fs_intf.inum in
    let e = Lfs_core.Inode_store.find fs inum in
    Lfs_core.Layout.sector_of_block (Lfs_core.Fs.layout fs)
      (Lfs_core.Inode_store.bmap_read fs e blk)

  let inodes_in_use (fs : Lfs_core.Fs.t) = Lfs_core.Imap.count_allocated fs.imap
end)

module Ffs = Cases (Lfs_ffs.Fs) (struct
  let label = "ffs"

  let make ~cache_blocks ~size_bytes ~cpu ~block_size =
    let io = Common.make_io ~size_bytes ~cpu () in
    let config = { Lfs_ffs.Config.small with block_size; cache_blocks } in
    (match Lfs_ffs.Fs.format io config with
    | Ok () -> ()
    | Error e -> failwith e);
    match Lfs_ffs.Fs.mount ~config io with Ok fs -> fs | Error e -> failwith e

  let dir_block_sector fs path blk =
    let inum = (Common.check_ok "stat" (Lfs_ffs.Fs.stat fs path)).Fs_intf.inum in
    Lfs_ffs.Layout.sector_of_block (Lfs_ffs.Fs.layout fs)
      (Lfs_ffs.Fs.inode_of fs inum).Lfs_ffs.Inode.direct.(blk)

  let inodes_in_use fs =
    let l = Lfs_ffs.Fs.layout fs in
    (l.Lfs_ffs.Layout.ngroups * l.Lfs_ffs.Layout.inodes_per_group)
    - Lfs_ffs.Alloc.free_inode_count (Lfs_ffs.Fs.alloc fs)
end)

let suite = Lfs.cases @ Ffs.cases
