(* A conformance suite over the shared Fs_intf.S signature, instantiated
   for both LFS and the FFS baseline so the two systems are held to the
   same semantics. *)

module Fs_intf = Lfs_vfs.Fs_intf
module E = Lfs_vfs.Errors

module Make
    (F : Fs_intf.S) (Env : sig
      val label : string
      val make : unit -> F.t

      val corrupt_inode : F.t -> int -> unit
      (** Write a bad kind tag into the on-disk slot of an inode that is
          not cached. *)
    end) =
struct
  let check_ok what = function
    | Ok v -> v
    | Error e -> Alcotest.failf "%s: %s" what (E.to_string e)

  let pattern = Common.pattern

  let read_all fs path =
    let st = check_ok "stat" (F.stat fs path) in
    check_ok "read" (F.read fs path ~off:0 ~len:st.Fs_intf.size)

  let write_file fs path data =
    check_ok "create" (F.create fs path);
    check_ok "write" (F.write fs path ~off:0 data)

  let check_bytes what expected actual =
    if not (Bytes.equal expected actual) then
      Alcotest.failf "%s: content mismatch (%d vs %d bytes)" what
        (Bytes.length expected) (Bytes.length actual)

  let test_crud fs =
    write_file fs "/a" (pattern ~seed:1 3000);
    check_bytes "read back" (pattern ~seed:1 3000) (read_all fs "/a");
    F.sync fs;
    F.flush_caches fs;
    check_bytes "after flush" (pattern ~seed:1 3000) (read_all fs "/a");
    check_ok "delete" (F.delete fs "/a");
    Alcotest.(check bool) "gone" false (F.exists fs "/a")

  let test_tree fs =
    check_ok "mkdir" (F.mkdir fs "/d1");
    check_ok "mkdir" (F.mkdir fs "/d1/d2");
    write_file fs "/d1/d2/f" (pattern ~seed:2 500);
    Alcotest.(check (list string)) "ls" [ "d2" ] (check_ok "readdir" (F.readdir fs "/d1"));
    check_bytes "deep read" (pattern ~seed:2 500) (read_all fs "/d1/d2/f");
    (match F.delete fs "/d1" with
    | Error (E.Enotempty _) -> ()
    | _ -> Alcotest.fail "nonempty delete accepted")

  let test_many_files fs =
    for i = 0 to 99 do
      write_file fs (Printf.sprintf "/f%02d" i) (pattern ~seed:i 700)
    done;
    F.flush_caches fs;
    for i = 0 to 99 do
      check_bytes
        (Printf.sprintf "f%02d" i)
        (pattern ~seed:i 700)
        (read_all fs (Printf.sprintf "/f%02d" i))
    done;
    for i = 0 to 99 do
      if i mod 2 = 0 then
        check_ok "delete" (F.delete fs (Printf.sprintf "/f%02d" i))
    done;
    Alcotest.(check int) "count" 50
      (List.length (check_ok "readdir" (F.readdir fs "/")))

  let test_overwrite_and_extend fs =
    write_file fs "/f" (pattern ~seed:3 2000);
    check_ok "patch" (F.write fs "/f" ~off:500 (Bytes.of_string "XYZ"));
    check_ok "extend" (F.write fs "/f" ~off:3000 (Bytes.of_string "tail"));
    let data = read_all fs "/f" in
    Alcotest.(check int) "size" 3004 (Bytes.length data);
    Alcotest.(check string) "patch" "XYZ" (Bytes.to_string (Bytes.sub data 500 3));
    Alcotest.(check string) "tail" "tail" (Bytes.to_string (Bytes.sub data 3000 4));
    for i = 2000 to 2999 do
      if Bytes.get data i <> '\000' then Alcotest.failf "hole not zero at %d" i
    done

  let test_truncate fs =
    write_file fs "/t" (pattern ~seed:4 5000);
    check_ok "shrink" (F.truncate fs "/t" ~size:1234);
    check_bytes "prefix" (Bytes.sub (pattern ~seed:4 5000) 0 1234) (read_all fs "/t");
    F.flush_caches fs;
    check_bytes "prefix after flush"
      (Bytes.sub (pattern ~seed:4 5000) 0 1234)
      (read_all fs "/t")

  let test_rename fs =
    write_file fs "/old" (pattern ~seed:5 800);
    check_ok "mkdir" (F.mkdir fs "/d");
    check_ok "rename" (F.rename fs "/old" "/d/new");
    Alcotest.(check bool) "old gone" false (F.exists fs "/old");
    check_bytes "content moved" (pattern ~seed:5 800) (read_all fs "/d/new")

  let test_hard_links fs =
    write_file fs "/orig" (pattern ~seed:8 2048);
    check_ok "mkdir" (F.mkdir fs "/d");
    check_ok "link" (F.link fs "/orig" "/d/alias");
    check_bytes "alias reads same" (pattern ~seed:8 2048) (read_all fs "/d/alias");
    let st = check_ok "stat" (F.stat fs "/orig") in
    Alcotest.(check int) "nlink 2" 2 st.Fs_intf.nlink;
    (* Writes through one name are visible through the other. *)
    check_ok "write via alias" (F.write fs "/d/alias" ~off:0 (Bytes.of_string "XY"));
    let via_orig = check_ok "read" (F.read fs "/orig" ~off:0 ~len:2) in
    Alcotest.(check string) "shared data" "XY" (Bytes.to_string via_orig);
    (* Deleting one name keeps the data. *)
    check_ok "delete orig" (F.delete fs "/orig");
    Alcotest.(check bool) "orig gone" false (F.exists fs "/orig");
    let st = check_ok "stat alias" (F.stat fs "/d/alias") in
    Alcotest.(check int) "nlink back to 1" 1 st.Fs_intf.nlink;
    F.flush_caches fs;
    Alcotest.(check int) "content survives" 2048
      (Bytes.length (read_all fs "/d/alias"));
    (* Deleting the last name frees it. *)
    check_ok "delete alias" (F.delete fs "/d/alias");
    Alcotest.(check bool) "alias gone" false (F.exists fs "/d/alias");
    (* Errors: linking directories or onto existing names. *)
    (match F.link fs "/d" "/d2" with
    | Error (E.Eisdir _) -> ()
    | _ -> Alcotest.fail "linked a directory");
    write_file fs "/a" (pattern ~seed:9 10);
    write_file fs "/b" (pattern ~seed:10 10);
    match F.link fs "/a" "/b" with
    | Error (E.Eexist _) -> ()
    | _ -> Alcotest.fail "link onto existing name"

  let test_fsync fs =
    write_file fs "/f" (pattern ~seed:6 1500);
    check_ok "fsync" (F.fsync fs "/f");
    check_bytes "after fsync" (pattern ~seed:6 1500) (read_all fs "/f")

  let test_stat_fields fs =
    check_ok "mkdir" (F.mkdir fs "/d");
    write_file fs "/d/f" (pattern ~seed:7 1000);
    let st = check_ok "stat file" (F.stat fs "/d/f") in
    Alcotest.(check int) "size" 1000 st.Fs_intf.size;
    Alcotest.(check bool) "file kind" true (st.Fs_intf.kind = Fs_intf.Regular);
    let st = check_ok "stat dir" (F.stat fs "/d") in
    Alcotest.(check bool) "dir kind" true (st.Fs_intf.kind = Fs_intf.Directory)

  let cache_misses fs =
    Lfs_obs.Metrics.(value (counter (Lfs_disk.Io.metrics (F.io fs)) "cache.misses"))

  (* A cold partial-block write reads the block's old bytes once: the
     miss that finds it absent is the only one counted. *)
  let test_rmw_one_miss fs =
    write_file fs "/m" (pattern ~seed:11 8192);
    F.sync fs;
    F.flush_caches fs;
    ignore (check_ok "stat" (F.stat fs "/m"));
    let before = cache_misses fs in
    check_ok "write" (F.write fs "/m" ~off:4106 (pattern ~seed:12 100));
    Alcotest.(check int) "one miss for the cold block" 1 (cache_misses fs - before);
    let expected = pattern ~seed:11 8192 in
    Bytes.blit (pattern ~seed:12 100) 0 expected 4106 100;
    check_bytes "patched" expected (read_all fs "/m")

  let outcome = function
    | Ok _ -> "ok"
    | Error e -> (
        match e with
        | E.Enoent _ -> "Enoent"
        | E.Eexist _ -> "Eexist"
        | E.Enotdir _ -> "Enotdir"
        | E.Eisdir _ -> "Eisdir"
        | E.Enotempty _ -> "Enotempty"
        | E.Enospc -> "Enospc"
        | E.Efbig -> "Efbig"
        | E.Einval _ -> "Einval"
        | E.Ecorrupt _ -> "Ecorrupt")

  (* One row per error branch of the shared front end: both systems
     must refuse each misuse with the same constructor, and leave the
     tree intact (the sanitizer runs after). *)
  let test_error_parity fs =
    check_ok "mkdir" (F.mkdir fs "/d");
    write_file fs "/d/f" (pattern ~seed:13 100);
    write_file fs "/g" (pattern ~seed:14 100);
    check_ok "mkdir" (F.mkdir fs "/full");
    write_file fs "/full/x" (pattern ~seed:15 10);
    let huge = 1 lsl 40 in
    let some = Bytes.of_string "z" in
    List.iter
      (fun (what, expected, result) ->
        Alcotest.(check string) what expected (result ()))
      [
        ("create over a name", "Eexist", fun () -> outcome @@ F.create fs "/d/f");
        ("mkdir over a name", "Eexist", fun () -> outcome @@ F.mkdir fs "/d");
        ("link onto a name", "Eexist", fun () -> outcome @@ F.link fs "/g" "/d/f");
        ("rename onto a name", "Eexist", fun () -> outcome @@ F.rename fs "/g" "/d/f");
        ("create in a missing dir", "Enoent", fun () -> outcome @@ F.create fs "/no/f");
        ("mkdir in a missing dir", "Enoent", fun () -> outcome @@ F.mkdir fs "/no/e");
        ("rename a missing source", "Enoent", fun () -> outcome @@ F.rename fs "/no" "/h");
        ("rename into a missing dir", "Enoent", fun () -> outcome @@ F.rename fs "/g" "/no/h");
        ("link a missing source", "Enoent", fun () -> outcome @@ F.link fs "/no" "/h");
        ("delete a missing name", "Enoent", fun () -> outcome @@ F.delete fs "/d/no");
        ("stat a missing name", "Enoent", fun () -> outcome @@ F.stat fs "/no");
        ("read a missing file", "Enoent", fun () -> outcome @@ F.read fs "/no" ~off:0 ~len:1);
        ("create under a file", "Enotdir", fun () -> outcome @@ F.create fs "/g/x");
        ("delete under a file", "Enotdir", fun () -> outcome @@ F.delete fs "/g/x");
        ("rename into a file", "Enotdir", fun () -> outcome @@ F.rename fs "/d/f" "/g/x");
        ("stat under a file", "Enotdir", fun () -> outcome @@ F.stat fs "/g/x");
        ("readdir a file", "Enotdir", fun () -> outcome @@ F.readdir fs "/g");
        ("read a directory", "Eisdir", fun () -> outcome @@ F.read fs "/d" ~off:0 ~len:1);
        ("write a directory", "Eisdir", fun () -> outcome @@ F.write fs "/d" ~off:0 some);
        ("truncate a directory", "Eisdir", fun () -> outcome @@ F.truncate fs "/d" ~size:0);
        ("link a directory", "Eisdir", fun () -> outcome @@ F.link fs "/d" "/h");
        ("delete a full directory", "Enotempty", fun () -> outcome @@ F.delete fs "/full");
        ("move beneath itself", "Einval", fun () -> outcome @@ F.rename fs "/d" "/d/sub");
        ("delete the root", "Einval", fun () -> outcome @@ F.delete fs "/");
        ("rename the root", "Einval", fun () -> outcome @@ F.rename fs "/" "/r");
        ("create the root", "Einval", fun () -> outcome @@ F.create fs "/");
        ("relative path", "Einval", fun () -> outcome @@ F.create fs "rel");
        ("negative read offset", "Einval", fun () -> outcome @@ F.read fs "/g" ~off:(-1) ~len:1);
        ("negative read length", "Einval", fun () -> outcome @@ F.read fs "/g" ~off:0 ~len:(-1));
        ("negative write offset", "Einval", fun () -> outcome @@ F.write fs "/g" ~off:(-1) some);
        ("negative size", "Einval", fun () -> outcome @@ F.truncate fs "/g" ~size:(-1));
        (* Bounds come before the path: LFS used to resolve first. *)
        ("bad bounds, missing file", "Einval", fun () ->
          outcome @@ F.read fs "/no" ~off:(-1) ~len:1);
        ("bad size, missing file", "Einval", fun () -> outcome @@ F.truncate fs "/no" ~size:(-1));
        ("write past the largest file", "Efbig", fun () -> outcome @@ F.write fs "/g" ~off:huge some);
        ("truncate past the largest file", "Efbig", fun () ->
          outcome @@ F.truncate fs "/g" ~size:huge);
      ];
    check_bytes "file intact" (pattern ~seed:14 100) (read_all fs "/g");
    Alcotest.(check (list string)) "tree intact" [ "d"; "full"; "g" ]
      (check_ok "readdir" (F.readdir fs "/"))

  (* An inode slot that does not decode is reported, never raised. *)
  let test_corrupt_inode () =
    let fs = Env.make () in
    write_file fs "/bad" (pattern ~seed:16 5000);
    write_file fs "/ok" (pattern ~seed:17 100);
    let inum = (check_ok "stat" (F.stat fs "/bad")).Fs_intf.inum in
    F.sync fs;
    F.flush_caches fs;
    Env.corrupt_inode fs inum;
    let corrupt what r = Alcotest.(check string) what "Ecorrupt" (outcome r) in
    corrupt "stat" (F.stat fs "/bad");
    corrupt "read" (F.read fs "/bad" ~off:0 ~len:10);
    corrupt "delete" (F.delete fs "/bad");
    check_bytes "neighbour readable" (pattern ~seed:17 100) (read_all fs "/ok");
    let named = Printf.sprintf "inum %d" inum in
    let mentions line =
      String.length line >= String.length named
      && List.exists
           (fun i -> String.sub line i (String.length named) = named)
           (List.init (String.length line - String.length named + 1) Fun.id)
    in
    Alcotest.(check bool) "integrity names the inode" true
      (List.exists mentions (F.integrity fs))

  (* Every conformance test runs under the always-on sanitizer: after
     the test body, sync and require the system's structural self-check
     to come back clean, so a test that corrupts an invariant fails
     even when its own assertions pass. *)
  let sanitized f () =
    let fs = Env.make () in
    f fs;
    F.sync fs;
    match F.integrity fs with
    | [] -> ()
    | issues ->
        Alcotest.failf "%s: integrity issues after test:\n  %s" Env.label
          (String.concat "\n  " issues)

  let suite =
    List.map
      (fun (name, f) ->
        Alcotest.test_case
          (Printf.sprintf "%s: %s" Env.label name)
          `Quick (sanitized f))
      [
        ("crud", test_crud);
        ("tree", test_tree);
        ("many files", test_many_files);
        ("overwrite+extend", test_overwrite_and_extend);
        ("truncate", test_truncate);
        ("rename", test_rename);
        ("hard links", test_hard_links);
        ("fsync", test_fsync);
        ("stat", test_stat_fields);
        ("cold partial write counts one miss", test_rmw_one_miss);
        ("error parity", test_error_parity);
      ]
    @ [
        Alcotest.test_case
          (Printf.sprintf "%s: corrupt inode slot is Ecorrupt" Env.label)
          `Quick test_corrupt_inode;
      ]
end

(* The kind tag follows the 4-byte inum in both inode formats. *)
let plant_bad_tag io ~sector ~inode_off =
  let geometry = Lfs_disk.Io.geometry io in
  let count = 4096 / geometry.Lfs_disk.Geometry.sector_size in
  let block = Lfs_disk.Io.sync_read io ~sector ~count in
  Bytes.set_uint8 block (inode_off + 4) 9;
  Lfs_disk.Io.sync_write io ~sector block

module Lfs_env = struct
  let label = "lfs"
  let make () = Common.make_lfs ()

  let corrupt_inode (st : Lfs_core.State.t) inum =
    let module L = Lfs_core.Layout in
    match Lfs_core.Imap.location st.imap inum with
    | None -> Alcotest.fail "inode has no location"
    | Some (addr, slot) ->
        plant_bad_tag st.io ~sector:(L.sector_of_block st.layout addr)
          ~inode_off:(slot * L.inode_bytes)
end

module Ffs_env = struct
  let label = "ffs"

  let make () =
    let io = Common.make_io () in
    (match Lfs_ffs.Fs.format io Lfs_ffs.Config.small with
    | Ok () -> ()
    | Error e -> failwith ("ffs format: " ^ e));
    match Lfs_ffs.Fs.mount ~config:Lfs_ffs.Config.small io with
    | Ok fs -> fs
    | Error e -> failwith ("ffs mount: " ^ e)

  let corrupt_inode fs inum =
    let module L = Lfs_ffs.Layout in
    let layout = Lfs_ffs.Fs.layout fs in
    let addr, slot = L.inode_location layout inum in
    plant_bad_tag (Lfs_ffs.Fs.io fs) ~sector:(L.sector_of_block layout addr)
      ~inode_off:(slot * L.inode_bytes)
end

module Lfs_suite = Make (Lfs_core.Fs) (Lfs_env)
module Ffs_suite = Make (Lfs_ffs.Fs) (Ffs_env)

(* Property-based runs through the scenario DSL: a whole operation
   interleaving is derived from a single integer seed, generated and
   checked (lockstep model comparison, final tree check, post-flush
   re-read, integrity) by Lfs_scenario.  A failing seed is minimized by
   the builder's delta-debugging shrinker, and the report carries a
   one-line `lfstool scenario … --replay SEED` invocation instead of a
   bespoke seed-printing path. *)

module Scenario = Lfs_scenario.Scenario

let seed_arb = QCheck.(make ~print:string_of_int Gen.(int_bound 1_000_000))

let scenario_prop name sys =
  QCheck.Test.make ~name ~count:35 seed_arb (fun s ->
      let r = Scenario.(make |> system sys |> seed s |> run) in
      match r.Scenario.failure with
      | None -> true
      | Some f ->
          QCheck.Test.fail_reportf
            "%s\nminimal counterexample (%d of %d ops):\n  %s\nreplay: %s"
            f.Scenario.message f.Scenario.shrunk_steps f.Scenario.original_steps
            (String.concat "\n  " f.Scenario.steps)
            f.Scenario.replay)

let props =
  [
    scenario_prop "lfs: seeded random ops match model" `Lfs;
    scenario_prop "ffs: seeded random ops match model" `Ffs;
  ]

let suite =
  Lfs_suite.suite @ Ffs_suite.suite
  @ List.map Common.qcheck props
