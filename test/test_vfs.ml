(* Path handling, shared error type, and the directory-block codec. *)

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
      E.Enotempty "x"; E.Enospc; E.Efbig; E.Einval "x";
    ]

let test_dir_block_roundtrip () =
  let entries = [ ("zebra", 42); ("a", 1); ("file.txt", 65535) ] in
  let block = Dir_block.encode ~block_size:512 entries in
  Alcotest.(check int) "block size" 512 (Bytes.length block);
  Alcotest.(check (list (pair string int))) "roundtrip" entries
    (Dir_block.parse block)

let test_dir_block_fits () =
  let bs = 64 in
  let entries = [ ("aaaaaaaaaa", 1) ] in
  Alcotest.(check bool) "fits" true (Dir_block.fits ~block_size:bs entries "bb");
  Alcotest.(check bool) "overflow" false
    (Dir_block.fits ~block_size:bs entries (String.make 50 'b'))

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

let suite =
  [
    Alcotest.test_case "path split" `Quick test_path_split;
    Alcotest.test_case "parent and name" `Quick test_parent_and_name;
    Alcotest.test_case "valid names" `Quick test_valid_name;
    Alcotest.test_case "errors printable" `Quick test_errors_printable;
    Alcotest.test_case "dir block roundtrip" `Quick test_dir_block_roundtrip;
    Alcotest.test_case "dir block fits" `Quick test_dir_block_fits;
    qcheck prop_dir_block;
  ]
