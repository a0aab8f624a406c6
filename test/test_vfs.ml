(* Path handling, shared error type, the directory-block codec and the
   directory layer over it. *)

module Dir = Lfs_vfs.Dir
module Dir_block = Lfs_vfs.Dir_block
module E = Lfs_vfs.Errors
module Path = Lfs_vfs.Path

let qcheck = Common.qcheck

let test_path_split () =
  Alcotest.(check (list string)) "root" [] (Path.split_exn "/");
  Alcotest.(check (list string)) "simple" [ "a"; "b" ] (Path.split_exn "/a/b");
  Alcotest.(check (list string)) "double slash" [ "a"; "b" ] (Path.split_exn "/a//b");
  Alcotest.(check (list string)) "trailing" [ "a" ] (Path.split_exn "/a/");
  let bad p =
    match Path.split p with
    | Error (E.Einval _) -> ()
    | Ok _ -> Alcotest.failf "accepted %S" p
    | Error e -> Alcotest.failf "wrong error for %S: %s" p (E.to_string e)
  in
  bad "relative";
  bad "";
  bad "/a/../b";
  bad "/a/./b";
  bad ("/" ^ String.make 300 'x')

let test_parent_and_name () =
  (match Path.parent_and_name "/a/b/c" with
  | Ok (parent, name) ->
      Alcotest.(check (list string)) "parent" [ "a"; "b" ] parent;
      Alcotest.(check string) "name" "c" name
  | Error e -> Alcotest.failf "unexpected: %s" (E.to_string e));
  match Path.parent_and_name "/" with
  | Error (E.Einval _) -> ()
  | _ -> Alcotest.fail "root has no parent"

let test_valid_name () =
  Alcotest.(check bool) "ok" true (Path.valid_name "file.txt");
  Alcotest.(check bool) "empty" false (Path.valid_name "");
  Alcotest.(check bool) "dot" false (Path.valid_name ".");
  Alcotest.(check bool) "dotdot" false (Path.valid_name "..");
  Alcotest.(check bool) "slash" false (Path.valid_name "a/b");
  Alcotest.(check bool) "nul" false (Path.valid_name "a\000b");
  Alcotest.(check bool) "max length" true (Path.valid_name (String.make 255 'x'));
  Alcotest.(check bool) "too long" false (Path.valid_name (String.make 256 'x'))

let test_errors_printable () =
  List.iter
    (fun e -> Alcotest.(check bool) "nonempty" true (String.length (E.to_string e) > 0))
    [
      E.Enoent "x"; E.Eexist "x"; E.Enotdir "x"; E.Eisdir "x";
      E.Enotempty "x"; E.Enospc; E.Efbig; E.Einval "x"; E.Ecorrupt "x";
    ]

let test_dir_block_roundtrip () =
  let entries = [ ("zebra", 42); ("a", 1); ("file.txt", 65535) ] in
  let block = Dir_block.encode ~block_size:512 entries in
  Alcotest.(check int) "block size" 512 (Bytes.length block);
  Alcotest.(check (list (pair string int))) "roundtrip" entries
    (Dir_block.parse block)

(* One directory (inum 2) of 64-byte blocks kept in a table, driven
   through the shared directory layer. *)
type toy = { views : Dir.t; blocks : (int, bytes) Hashtbl.t }

let toy () =
  { views = Dir.create ~io:(Common.make_io ()) ~block_size:64; blocks = Hashtbl.create 4 }

(* Directory [d] with [size] bytes of blocks. *)
let toy_inode d ~size =
  { (Lfs_vfs.Inode.create ~inum:d ~kind:Lfs_vfs.Fs_intf.Directory ~now_us:0) with size }

let toy_backing : (toy, int) Dir.backing =
  {
    views = (fun t -> t.views);
    inode = (fun t d -> toy_inode d ~size:(Hashtbl.length t.blocks * 64));
    read = (fun t _ blk -> Hashtbl.find_opt t.blocks blk);
    write = (fun t _ blk block -> Hashtbl.replace t.blocks blk block);
  }

let test_dir_view_room () =
  let t = toy () in
  let block blk = Dir_block.parse (Hashtbl.find t.blocks blk) in
  let entries = Alcotest.(list (pair string int)) in
  let b50 = String.make 50 'b' and c32 = String.make 32 'c' in
  (* header 2 + (6 + 10) = 18 bytes used; "bb" needs 8 more. *)
  Dir.add toy_backing t 2 "aaaaaaaaaa" 1;
  Dir.add toy_backing t 2 "bb" 2;
  Alcotest.check entries "fits: new entry at the head" [ ("bb", 2); ("aaaaaaaaaa", 1) ]
    (block 0);
  Dir.add toy_backing t 2 b50 3;
  Alcotest.check entries "overflow spills to a new block" [ (b50, 3) ] (block 1);
  (* 26 + 38 = 64: exactly full still fits. *)
  Dir.add toy_backing t 2 c32 4;
  Alcotest.(check int) "exact fit stays in block 0" 2 (Hashtbl.length t.blocks);
  Dir.add toy_backing t 2 "d" 5;
  Alcotest.check entries "both full: third block" [ ("d", 5) ] (block 2);
  Alcotest.(check (option int)) "lookup" (Some 3) (Dir.lookup toy_backing t 2 b50);
  Dir.remove toy_backing t 2 "bb";
  Alcotest.check entries "remove keeps order" [ (c32, 4); ("aaaaaaaaaa", 1) ] (block 0);
  Alcotest.(check bytes) "blocks are the codec's encoding"
    (Dir_block.encode ~block_size:64 [ (c32, 4); ("aaaaaaaaaa", 1) ])
    (Hashtbl.find t.blocks 0);
  Dir.add toy_backing t 2 "ee" 6;
  Alcotest.check entries "freed room is reused first" [ ("ee", 6); (c32, 4); ("aaaaaaaaaa", 1) ]
    (block 0)

(* A view is reused only while the backing returns the buffer it was
   decoded from: a block replaced behind the layer's back is re-read. *)
let test_dir_view_identity () =
  let t = toy () in
  Dir.add toy_backing t 2 "x" 7;
  Alcotest.(check (option int)) "cached view" (Some 7) (Dir.lookup toy_backing t 2 "x");
  Hashtbl.replace t.blocks 0 (Dir_block.encode ~block_size:64 [ ("y", 8) ]);
  Alcotest.(check (option int)) "stale view not reused" None (Dir.lookup toy_backing t 2 "x");
  Alcotest.(check (option int)) "new block decoded" (Some 8) (Dir.lookup toy_backing t 2 "y");
  Hashtbl.replace t.blocks 0 (Bytes.of_string "\255\255 garbage");
  match Dir.lookup toy_backing t 2 "y" with
  | _ -> Alcotest.fail "corrupt block decoded"
  | exception E.Error (E.Ecorrupt m) ->
      Alcotest.(check bool) "names directory and block" true
        (String.starts_with ~prefix:"directory inum 2 block 0" m)

let prop_dir_block =
  let name_gen = QCheck.Gen.(map (fun s -> "n" ^ s) (string_size ~gen:(char_range 'a' 'z') (int_bound 20))) in
  QCheck.Test.make ~name:"dir block roundtrip" ~count:200
    QCheck.(make Gen.(small_list (pair name_gen (int_bound 100000))))
    (fun entries ->
      (* Dedup names as a directory would. *)
      let entries =
        List.fold_left
          (fun acc (n, i) -> if List.mem_assoc n acc then acc else (n, i) :: acc)
          [] entries
      in
      QCheck.assume (Dir_block.used_bytes entries <= 4096);
      Dir_block.parse (Dir_block.encode ~block_size:4096 entries) = entries)

(* [Dir.add] and [Dir.remove] patch the block they change instead of
   re-encoding it; every block they write must still be exactly
   [Dir_block.encode] of its new entries.  Random sequences on 1 KB
   blocks: names of 1..255 bytes (so blocks fill after a few long
   names), re-adds of names already present (a later [remove] drops the
   first occurrence), block 0 optionally starting with junk past its
   used bytes (a block read back from a disk that never zeroed it), and
   optionally a hole at block 1 that an add spilling past block 0 must
   fill. *)
type patch_op = Add of string * int | Add_again of int * int | Remove of int

let patch_block_size = 1024

let patch_case_gen =
  let open QCheck.Gen in
  let name =
    let len = frequency [ (3, int_range 1 8); (1, int_range 200 255); (1, int_range 1 255) ] in
    string_size ~gen:(char_range 'a' 'z') len
  in
  let inum = int_bound 0xFFFF_FFFF in
  let op =
    frequency
      [
        (4, map2 (fun n i -> Add (n, i)) name inum);
        (1, map2 (fun k i -> Add_again (k, i)) nat inum);
        (3, map (fun k -> Remove k) nat);
      ]
  in
  quad (list_size (int_bound 10) (pair name inum)) bool bool
    (list_size (int_range 1 60) op)

let pp_patch_case (start, junk, hole, ops) =
  let short n = if String.length n > 12 then Printf.sprintf "%s..(%d)" (String.sub n 0 8) (String.length n) else n in
  Printf.sprintf "start [%s] junk=%b hole=%b\n%s"
    (String.concat "; " (List.map (fun (n, i) -> Printf.sprintf "%s=%d" (short n) i) start))
    junk hole
    (String.concat "\n"
       (List.map
          (function
            | Add (n, i) -> Printf.sprintf "add %s %d" (short n) i
            | Add_again (k, i) -> Printf.sprintf "add again #%d %d" k i
            | Remove k -> Printf.sprintf "remove #%d" k)
          ops))

type patch_dir = {
  p_views : Dir.t;
  p_blocks : (int, bytes) Hashtbl.t;
  mutable p_n : int;
  p_written : (int, unit) Hashtbl.t;
}

let patch_backing : (patch_dir, int) Dir.backing =
  {
    views = (fun t -> t.p_views);
    inode = (fun t d -> toy_inode d ~size:(t.p_n * patch_block_size));
    read = (fun t _ blk -> Hashtbl.find_opt t.p_blocks blk);
    write =
      (fun t _ blk block ->
        Hashtbl.replace t.p_blocks blk block;
        Hashtbl.replace t.p_written blk ();
        t.p_n <- max t.p_n (blk + 1));
  }

let rec drop_first name = function
  | [] -> []
  | ((n, _) as e) :: rest -> if String.equal n name then rest else e :: drop_first name rest

let prop_dir_patch =
  QCheck.Test.make ~name:"patched dir blocks equal Dir_block.encode" ~count:300
    (QCheck.make ~print:pp_patch_case patch_case_gen)
    (fun (start, junk, hole, ops) ->
      let bs = patch_block_size in
      let fits l = Dir_block.used_bytes l <= bs in
      let start =
        List.fold_left (fun acc e -> if fits (acc @ [ e ]) then acc @ [ e ] else acc) [] start
      in
      let t =
        {
          p_views = Dir.create ~io:(Common.make_io ()) ~block_size:bs;
          p_blocks = Hashtbl.create 4;
          p_n = (if hole then 2 else 1);
          p_written = Hashtbl.create 4;
        }
      in
      let block0 = Dir_block.encode ~block_size:bs start in
      let used0 = Dir_block.used_bytes start in
      if junk then Bytes.fill block0 used0 (bs - used0) '\xAA';
      Hashtbl.replace t.p_blocks 0 block0;
      (* The model: each block's entries, a hole being an empty block. *)
      let model = Hashtbl.create 4 in
      Hashtbl.replace model 0 start;
      let entries blk = Option.value (Hashtbl.find_opt model blk) ~default:[] in
      let names () = List.concat_map (fun blk -> List.map fst (entries blk)) (List.init t.p_n Fun.id) in
      let add name inum =
        let size = Dir_block.entry_bytes name in
        let rec place blk =
          if blk >= t.p_n || Dir_block.used_bytes (entries blk) + size <= bs then blk
          else place (blk + 1)
        in
        let blk = place 0 in
        Dir.add patch_backing t 2 name inum;
        Hashtbl.replace model blk ((name, inum) :: entries blk)
      in
      let pick k = match names () with [] -> None | l -> Some (List.nth l (k mod List.length l)) in
      List.iteri
        (fun i op ->
          (match op with
          | Add (name, inum) -> add name inum
          | Add_again (k, inum) -> Option.iter (fun name -> add name inum) (pick k)
          | Remove k ->
              Option.iter
                (fun name ->
                  Dir.remove patch_backing t 2 name;
                  let rec first blk =
                    if List.mem_assoc name (entries blk) then blk else first (blk + 1)
                  in
                  let blk = first 0 in
                  Hashtbl.replace model blk (drop_first name (entries blk)))
                (pick k));
          for blk = 0 to t.p_n - 1 do
            if Dir.block_entries patch_backing t 2 blk <> entries blk then
              QCheck.Test.fail_reportf "after op %d: block %d entries differ" i blk;
            if Hashtbl.mem t.p_written blk
               && not
                    (Bytes.equal (Hashtbl.find t.p_blocks blk)
                       (Dir_block.encode ~block_size:bs (entries blk)))
            then
              QCheck.Test.fail_reportf "after op %d: block %d is not the encoding" i blk
          done)
        ops;
      true)

let suite =
  [
    Alcotest.test_case "path split" `Quick test_path_split;
    Alcotest.test_case "parent and name" `Quick test_parent_and_name;
    Alcotest.test_case "valid names" `Quick test_valid_name;
    Alcotest.test_case "errors printable" `Quick test_errors_printable;
    Alcotest.test_case "dir block roundtrip" `Quick test_dir_block_roundtrip;
    Alcotest.test_case "dir view room" `Quick test_dir_view_room;
    Alcotest.test_case "dir view identity" `Quick test_dir_view_identity;
    qcheck prop_dir_block;
    qcheck prop_dir_patch;
  ]
