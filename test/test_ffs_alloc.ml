(* The FFS allocator: cylinder-group placement, spill, free counting,
   and bitmap persistence. *)

module Alloc = Lfs_ffs.Alloc
module Config = Lfs_ffs.Config
module Geometry = Lfs_disk.Geometry
module Layout = Lfs_ffs.Layout

let qcheck = Common.qcheck

let layout () =
  match
    Layout.compute Config.small (Geometry.wren_iv ~size_bytes:(8 * 1024 * 1024))
  with
  | Ok l -> l
  | Error e -> failwith e

let test_inode_alloc_basics () =
  let l = layout () in
  let a = Alloc.create l in
  let i1 = Option.get (Alloc.alloc_inode a ~group:0 ~spread:false) in
  Alcotest.(check int) "first inum" 1 i1;
  Alcotest.(check bool) "allocated" true (Alloc.inode_allocated a i1);
  let i2 = Option.get (Alloc.alloc_inode a ~group:0 ~spread:false) in
  Alcotest.(check bool) "distinct" true (i1 <> i2);
  Alloc.free_inode a i1;
  Alcotest.(check bool) "freed" false (Alloc.inode_allocated a i1);
  let i3 = Option.get (Alloc.alloc_inode a ~group:0 ~spread:false) in
  Alcotest.(check int) "lowest free reused" i1 i3

let test_inode_spread () =
  let l = layout () in
  let a = Alloc.create l in
  (* Load group 0 heavily; a spread allocation must avoid it. *)
  for _ = 1 to 10 do
    ignore (Alloc.alloc_inode a ~group:0 ~spread:false)
  done;
  let spread = Option.get (Alloc.alloc_inode a ~group:0 ~spread:true) in
  Alcotest.(check bool) "spread avoids the loaded group" true
    (Layout.group_of_inum l spread <> 0)

let test_block_alloc_locality () =
  let l = layout () in
  let a = Alloc.create l in
  let first = Option.get (Alloc.alloc_block a ~near:(Layout.group_data_first l 0)) in
  let next = Option.get (Alloc.alloc_block a ~near:first) in
  Alcotest.(check int) "consecutive" (first + 1) next;
  (* Metadata blocks are never handed out. *)
  Alcotest.(check bool) "data region only" true
    (first >= Layout.group_data_first l 0)

let test_block_spill_across_groups () =
  let l = layout () in
  let a = Alloc.create l in
  (* Exhaust group 0's data blocks. *)
  let group0_data =
    Layout.group_first_block l 1 - Layout.group_data_first l 0
  in
  for _ = 1 to group0_data do
    ignore (Option.get (Alloc.alloc_block a ~near:(Layout.group_data_first l 0)))
  done;
  let spilled =
    Option.get (Alloc.alloc_block a ~near:(Layout.group_data_first l 0))
  in
  Alcotest.(check bool) "spilled to another group" true
    (Layout.group_of_block l spilled <> 0)

let test_free_counts () =
  let l = layout () in
  let a = Alloc.create l in
  let before = Alloc.free_block_count a in
  let b1 = Option.get (Alloc.alloc_block a ~near:(Layout.group_data_first l 0)) in
  Alcotest.(check int) "minus one" (before - 1) (Alloc.free_block_count a);
  Alloc.free_block a b1;
  Alcotest.(check int) "restored" before (Alloc.free_block_count a);
  Alcotest.(check bool) "cannot free metadata" true
    (try
       Alloc.free_block a (Layout.group_first_block l 0);
       false
     with Invalid_argument _ -> true)

let prop_bitmap_persistence =
  QCheck.Test.make ~name:"alloc bitmap persistence roundtrip" ~count:50
    QCheck.(small_list (int_bound 500))
    (fun picks ->
      let l = layout () in
      let a = Alloc.create l in
      let allocated = ref [] in
      List.iter
        (fun _ ->
          match Alloc.alloc_block a ~near:(Layout.group_data_first l 0) with
          | Some b -> allocated := b :: !allocated
          | None -> ())
        picks;
      (* Serialize every group, load into a fresh allocator, compare. *)
      let a' = Alloc.create l in
      let blocks = Hashtbl.create 16 in
      for g = 0 to l.Layout.ngroups - 1 do
        List.iter
          (fun (addr, data) -> Hashtbl.replace blocks addr data)
          (Alloc.encode_group a g)
      done;
      for g = 0 to l.Layout.ngroups - 1 do
        Alloc.load_group a' g ~read:(fun addr -> Hashtbl.find blocks addr)
      done;
      List.for_all (fun b -> Alloc.block_allocated a' b) !allocated
      && Alloc.free_block_count a' = Alloc.free_block_count a)

let suite =
  [
    Alcotest.test_case "inode alloc basics" `Quick test_inode_alloc_basics;
    Alcotest.test_case "inode spread" `Quick test_inode_spread;
    Alcotest.test_case "block locality" `Quick test_block_alloc_locality;
    Alcotest.test_case "block spill across groups" `Quick
      test_block_spill_across_groups;
    Alcotest.test_case "free counts" `Quick test_free_counts;
    qcheck prop_bitmap_persistence;
  ]
