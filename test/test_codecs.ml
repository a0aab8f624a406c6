(* Round-trip properties for every LFS on-disk structure: inodes, summary
   regions, checkpoint regions, superblocks, imap and usage blocks. *)

module Checkpoint = Lfs_core.Checkpoint
module Config = Lfs_core.Config
module Geometry = Lfs_disk.Geometry
module Imap = Lfs_core.Imap
module Inode = Lfs_core.Inode
module Layout = Lfs_core.Layout
module Seg_usage = Lfs_core.Seg_usage
module Summary = Lfs_core.Summary

let qcheck = Common.qcheck

let layout () =
  let geometry = Geometry.wren_iv ~size_bytes:(8 * 1024 * 1024) in
  match Layout.compute Config.small geometry with
  | Ok l -> l
  | Error e -> failwith e

(* Inode *)

let inode_gen =
  QCheck.Gen.(
    let addr = int_bound 100_000 in
    map
      (fun ((inum, kind, size), (nlink, mtime, direct, ind, dind)) ->
        let ino =
          Inode.create
            ~inum:(1 + inum)
            ~kind:(if kind then Lfs_vfs.Fs_intf.Regular else Lfs_vfs.Fs_intf.Directory)
            ~now_us:mtime
        in
        ino.Inode.size <- size;
        ino.Inode.nlink <- nlink;
        List.iteri (fun i a -> if i < Inode.ndirect then ino.Inode.direct.(i) <- a) direct;
        ino.Inode.indirect <- ind;
        ino.Inode.dindirect <- dind;
        ino)
      (pair
         (triple (int_bound 60000) bool (int_bound 10_000_000))
         (tup5 (int_range 1 100) (int_bound 1_000_000) (list_size (pure 12) addr)
            addr addr)))

let prop_inode_roundtrip =
  QCheck.Test.make ~name:"inode codec roundtrip" ~count:300
    (QCheck.make inode_gen)
    (fun ino ->
      let buf = Bytes.make Layout.inode_bytes '\000' in
      Inode.encode_into ino buf ~off:0;
      match Inode.decode_at buf ~off:0 with
      | None -> false
      | Some ino' ->
          ino'.Inode.inum = ino.Inode.inum
          && ino'.Inode.kind = ino.Inode.kind
          && ino'.Inode.size = ino.Inode.size
          && ino'.Inode.nlink = ino.Inode.nlink
          && ino'.Inode.mtime_us = ino.Inode.mtime_us
          && ino'.Inode.direct = ino.Inode.direct
          && ino'.Inode.indirect = ino.Inode.indirect
          && ino'.Inode.dindirect = ino.Inode.dindirect)

let test_inode_empty_slot () =
  let buf = Bytes.make Layout.inode_bytes '\000' in
  Alcotest.(check bool) "zeroed slot is free" true (Inode.decode_at buf ~off:0 = None)

(* Summary *)

let entry_gen =
  QCheck.Gen.(
    oneof
      [
        map3
          (fun inum blkno version -> Summary.Data { inum = 1 + inum; blkno; version })
          (int_bound 60000) (int_bound 100000) (int_bound 1000);
        map2 (fun inum idx -> Summary.Indirect { inum = 1 + inum; idx }) (int_bound 60000) (int_bound 300);
        map (fun inum -> Summary.Dindirect { inum = 1 + inum }) (int_bound 60000);
        pure Summary.Inode_block;
        map (fun idx -> Summary.Imap_block { idx }) (int_bound 300);
        map (fun idx -> Summary.Usage_block { idx }) (int_bound 300);
      ])

let prop_summary_roundtrip =
  QCheck.Test.make ~name:"summary codec roundtrip" ~count:200
    (QCheck.make
       QCheck.Gen.(
         triple (list_size (int_bound 14) entry_gen) (pair small_nat small_nat) bool))
    (fun (entries, (seq, ts), continues) ->
      let size_bytes = 1024 in
      QCheck.assume (List.length entries <= Summary.max_entries ~size_bytes);
      let header =
        {
          Summary.seq;
          timestamp_us = ts;
          nblocks = List.length entries;
          payload_crc = 0xDEADBEEFl;
        }
      in
      let region = Summary.encode ~size_bytes header entries in
      if continues then Summary.seal region ~size_bytes ~continues header;
      match Summary.decode region with
      | None -> false
      | Some (h, es) ->
          h = header
          && List.for_all2 Summary.equal_entry es entries
          && Summary.continues region = continues)

let test_summary_rejects_corruption () =
  let header =
    { Summary.seq = 3; timestamp_us = 99; nblocks = 1; payload_crc = 0l }
  in
  let region =
    Summary.encode ~size_bytes:1024 header [ Summary.Inode_block ]
  in
  Alcotest.(check bool) "valid decodes" true (Summary.decode region <> None);
  Bytes.set region 40 'X';
  Alcotest.(check bool) "bit flip rejected" true (Summary.decode region = None);
  Alcotest.(check bool) "zeros rejected" true
    (Summary.decode (Bytes.make 1024 '\000') = None)

(* The list codec the segment summary had before it was written and
   walked in place, kept as the model: a growable encoder over the whole
   entry list, and a decoder that builds the list. *)
module Summary_model = struct
  module Codec = Lfs_util.Codec

  let magic = 0x4C53554D
  let crc_off = 26

  let encode ~size_bytes (h : Summary.header) entries =
    let e = Codec.encoder ~capacity:size_bytes () in
    Codec.u32 e magic;
    Codec.int_as_i64 e h.Summary.seq;
    Codec.int_as_i64 e h.Summary.timestamp_us;
    Codec.u16 e h.Summary.nblocks;
    Codec.u32 e (Int32.to_int h.Summary.payload_crc land 0xFFFFFFFF);
    Codec.u32 e 0;
    List.iter
      (fun entry ->
        let tag, a, b, c =
          match entry with
          | Summary.Data { inum; blkno; version } -> (1, inum, blkno, version)
          | Summary.Indirect { inum; idx } -> (2, inum, idx, 0)
          | Summary.Dindirect { inum } -> (3, inum, 0, 0)
          | Summary.Inode_block -> (4, 0, 0, 0)
          | Summary.Imap_block { idx } -> (5, idx, 0, 0)
          | Summary.Usage_block { idx } -> (6, idx, 0, 0)
        in
        Codec.u8 e tag;
        Codec.u32 e a;
        Codec.u32 e b;
        Codec.u32 e c)
      entries;
    Codec.pad_to e size_bytes;
    let block = Codec.to_bytes e in
    Bytes.set_int32_le block crc_off (Lfs_util.Crc32.digest_bytes block);
    block

  let decode block =
    match
      let stored = Bytes.get_int32_le block crc_off in
      Bytes.set_int32_le block crc_off 0l;
      let crc = Lfs_util.Crc32.digest_bytes block in
      Bytes.set_int32_le block crc_off stored;
      if crc <> stored then None
      else begin
        let d = Codec.decoder block in
        if Codec.read_u32 d <> magic then None
        else begin
          let seq = Codec.read_int_as_i64 d in
          let timestamp_us = Codec.read_int_as_i64 d in
          (* Bit 15 marks a continuing segment (Summary.continues). *)
          let nblocks = Codec.read_u16 d land 0x7FFF in
          let payload_crc = Int32.of_int (Codec.read_u32 d) in
          Codec.skip d 4;
          let entry _ =
            let tag = Codec.read_u8 d in
            let a = Codec.read_u32 d in
            let b = Codec.read_u32 d in
            let c = Codec.read_u32 d in
            match tag with
            | 1 -> Summary.Data { inum = a; blkno = b; version = c }
            | 2 -> Summary.Indirect { inum = a; idx = b }
            | 3 -> Summary.Dindirect { inum = a }
            | 4 -> Summary.Inode_block
            | 5 -> Summary.Imap_block { idx = a }
            | 6 -> Summary.Usage_block { idx = a }
            | n -> raise (Codec.Error (Printf.sprintf "bad tag %d" n))
          in
          let entries = List.init nblocks entry in
          Some ({ Summary.seq; timestamp_us; nblocks; payload_crc }, entries)
        end
      end
    with
    | v -> v
    | exception Codec.Error _ -> None
    | exception Invalid_argument _ -> None

  (* Re-seal a region after a field was patched, so only the patched
     field can make it invalid. *)
  let reseal block =
    Bytes.set_int32_le block crc_off 0l;
    Bytes.set_int32_le block crc_off (Lfs_util.Crc32.digest_bytes block)
end

(* Entries whose fields span the whole u32 range. *)
let wide_entry_gen =
  QCheck.Gen.(
    let u32 = oneof [ int_bound 1000; int_bound 0xFFFF_FFFF ] in
    oneof
      [
        map3
          (fun inum blkno version -> Summary.Data { inum; blkno; version })
          u32 u32 u32;
        map2 (fun inum idx -> Summary.Indirect { inum; idx }) u32 u32;
        map (fun inum -> Summary.Dindirect { inum }) u32;
        pure Summary.Inode_block;
        map (fun idx -> Summary.Imap_block { idx }) u32;
        map (fun idx -> Summary.Usage_block { idx }) u32;
      ])

let header_gen nblocks =
  QCheck.Gen.(
    map3
      (fun seq timestamp_us crc ->
        { Summary.seq; timestamp_us; nblocks; payload_crc = Int32.of_int crc })
      (int_bound 1_000_000_000) (int_bound max_int) (int_bound 0xFFFF_FFFF))

let take n l = List.filteri (fun i _ -> i < n) l

(* [put_entry] and [seal] write a region byte for byte as the list
   encoder did: any number of entries up to a partial or full region,
   in a segment buffer that still holds an earlier summary (longer or
   shorter) and whose bytes past the region must stay as they were. *)
let prop_summary_in_place =
  let gen =
    QCheck.Gen.(
      oneofl [ 512; 1024; 4096 ] >>= fun size_bytes ->
      let max = Summary.max_entries ~size_bytes in
      let entries = list_size (int_bound max) wide_entry_gen in
      pair (pair entries entries) (pair (int_bound 255) (pure size_bytes))
      >>= fun ((earlier, entries), (fill, size_bytes)) ->
      let earlier = take max earlier and entries = take max entries in
      map2
        (fun he h -> (size_bytes, fill, (he, earlier), (h, entries)))
        (header_gen (List.length earlier))
        (header_gen (List.length entries)))
  in
  QCheck.Test.make ~name:"summary written in place equals the list encoder"
    ~count:300 (QCheck.make gen)
    (fun (size_bytes, fill, (he, earlier), (h, entries)) ->
      let buf = Bytes.make (size_bytes + 512) (Char.chr fill) in
      let write h entries =
        List.iteri (Summary.put_entry buf) entries;
        Summary.seal buf ~size_bytes h
      in
      write he earlier;
      write h entries;
      let want = Summary_model.encode ~size_bytes h entries in
      Bytes.equal (Bytes.sub buf 0 size_bytes) want
      && Bytes.equal
           (Bytes.sub buf size_bytes 512)
           (Bytes.make 512 (Char.chr fill))
      && Bytes.equal (Summary.encode ~size_bytes h entries) want)

(* [decode_header] and [entry_at] accept exactly the regions the list
   decoder accepts and read the same header and entries: valid regions,
   bit flips, a bad tag or an out-of-range entry count under a valid
   CRC, and random bytes of any length. *)
let prop_summary_walk =
  let gen =
    QCheck.Gen.(
      let size_bytes = 512 in
      let max = Summary.max_entries ~size_bytes in
      list_size (int_bound max) wide_entry_gen >>= fun entries ->
      header_gen (List.length entries) >>= fun h ->
      let valid () = Summary_model.encode ~size_bytes h entries in
      let n = List.length entries in
      oneof
        [
          map (fun () -> valid ()) unit;
          map2
            (fun pos bit ->
              let r = valid () in
              Bytes.set_uint8 r pos (Bytes.get_uint8 r pos lxor (1 lsl bit));
              r)
            (int_bound (size_bytes - 1)) (int_bound 7);
          map2
            (fun i tag ->
              let r = valid () in
              if n > 0 then begin
                Bytes.set_uint8 r (30 + (13 * (i mod n))) tag;
                Summary_model.reseal r
              end;
              r)
            (int_bound max)
            (oneof [ pure 0; pure 7; int_range 8 255; int_range 1 6 ]);
          map
            (fun count ->
              let r = valid () in
              Bytes.set_uint16_le r 20 count;
              Summary_model.reseal r;
              r)
            (int_bound 0xFFFF);
          map Bytes.of_string (string_size (int_bound 600));
        ])
  in
  QCheck.Test.make ~name:"summary walked in place equals the list decoder"
    ~count:500
    (QCheck.make
       ~print:(fun r -> Printf.sprintf "%d bytes" (Bytes.length r))
       gen)
    (fun region ->
      let want = Summary_model.decode region in
      let walked =
        match Summary.decode_header region with
        | None -> None
        | Some h ->
            Some (h, List.init h.Summary.nblocks (Summary.entry_at region))
      in
      walked = want && Summary.decode region = want)

let test_summary_blocks_needed () =
  (* 1 KB blocks: one block describes (1024-30)/13 = 76 payload blocks. *)
  Alcotest.(check int) "small segment" 1
    (Summary.blocks_needed ~block_size:1024 ~seg_blocks:16);
  (* 4 MB segments of 4 KB blocks need a multi-block summary. *)
  let s = Summary.blocks_needed ~block_size:4096 ~seg_blocks:1024 in
  Alcotest.(check bool) "multi-block" true (s > 1);
  Alcotest.(check bool) "fits" true
    (1024 - s <= Summary.max_entries ~size_bytes:(s * 4096))

(* Checkpoint *)

let test_checkpoint_roundtrip () =
  let l = layout () in
  let cp =
    {
      Checkpoint.timestamp_us = 123456;
      seq = 42;
      tail_segment = 7;
      next_inum_hint = 19;
      imap_addrs = Array.init l.Layout.n_imap_blocks (fun i -> i * 3);
      usage_addrs = Array.init l.Layout.n_usage_blocks (fun i -> 1000 + i);
    }
  in
  let region = Checkpoint.encode l cp in
  Alcotest.(check int) "region size" (l.Layout.cp_blocks * l.Layout.block_size)
    (Bytes.length region);
  (match Checkpoint.decode l region with
  | Some cp' -> Alcotest.(check bool) "roundtrip" true (cp = cp')
  | None -> Alcotest.fail "decode failed");
  Bytes.set region 100 '\255';
  Alcotest.(check bool) "corruption rejected" true (Checkpoint.decode l region = None)

let test_checkpoint_choose () =
  let l = layout () in
  let mk ts seq =
    {
      Checkpoint.timestamp_us = ts;
      seq;
      tail_segment = 0;
      next_inum_hint = 1;
      imap_addrs = Array.make l.Layout.n_imap_blocks 0;
      usage_addrs = Array.make l.Layout.n_usage_blocks 0;
    }
  in
  let a = mk 100 1 and b = mk 200 2 in
  Alcotest.(check bool) "newer wins" true (Checkpoint.choose (Some a) (Some b) = Some b);
  Alcotest.(check bool) "either order" true (Checkpoint.choose (Some b) (Some a) = Some b);
  Alcotest.(check bool) "single" true (Checkpoint.choose None (Some a) = Some a);
  Alcotest.(check bool) "none" true (Checkpoint.choose None None = None);
  let tie1 = mk 100 5 and tie2 = mk 100 6 in
  Alcotest.(check bool) "tie on seq" true
    (Checkpoint.choose (Some tie1) (Some tie2) = Some tie2)

(* Superblock *)

let test_superblock_roundtrip () =
  let geometry = Geometry.wren_iv ~size_bytes:(8 * 1024 * 1024) in
  let l = layout () in
  let sb = Layout.encode_superblock l in
  (match Layout.decode_superblock sb geometry with
  | Ok l' -> Alcotest.(check bool) "roundtrip" true (l = l')
  | Error e -> Alcotest.failf "decode: %s" e);
  (* Reading more than one block (as mount does) still decodes. *)
  let padded = Bytes.make (Bytes.length sb * 2) '\000' in
  Bytes.blit sb 0 padded 0 (Bytes.length sb);
  (match Layout.decode_superblock padded geometry with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "padded decode: %s" e);
  (* Wrong geometry rejected. *)
  let other = Geometry.wren_iv ~size_bytes:(16 * 1024 * 1024) in
  match Layout.decode_superblock sb other with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted mismatched geometry"

(* Imap / usage block codecs *)

let test_imap_block_roundtrip () =
  let l = layout () in
  let m = Imap.create l in
  let now = 777 in
  for i = 1 to 30 do
    Imap.alloc_specific m i ~now_us:now;
    Imap.set_location m i ~addr:(100 + i) ~slot:(i mod 8);
    if i mod 3 = 0 then Imap.bump_version m i
  done;
  Imap.free m 5;
  let block0 = Imap.encode_block m ~idx:0 in
  let m' = Imap.create l in
  Imap.load_block m' ~idx:0 block0;
  for i = 1 to min 30 (Layout.imap_entries_per_block l - 1) do
    Alcotest.(check bool)
      (Printf.sprintf "alloc %d" i)
      (Imap.is_allocated m i) (Imap.is_allocated m' i);
    Alcotest.(check int) (Printf.sprintf "version %d" i) (Imap.version m i)
      (Imap.version m' i);
    if Imap.is_allocated m i then
      Alcotest.(check (option (pair int int)))
        (Printf.sprintf "loc %d" i)
        (Imap.location m i) (Imap.location m' i)
  done

let test_usage_block_roundtrip () =
  let l = layout () in
  let u = Seg_usage.create l in
  Seg_usage.set_state u 0 Seg_usage.Dirty;
  Seg_usage.add_live u 0 ~bytes:5000 ~now_us:100;
  Seg_usage.set_state u 1 Seg_usage.Active;
  Seg_usage.add_live u 1 ~bytes:123 ~now_us:200;
  let block0 = Seg_usage.encode_block u ~idx:0 in
  let u' = Seg_usage.create l in
  Seg_usage.load_block u' ~idx:0 block0;
  Alcotest.(check int) "live" 5000 (Seg_usage.live_bytes u' 0);
  Alcotest.(check int) "mtime" 100 (Seg_usage.mtime_us u' 0);
  Alcotest.(check bool) "dirty state" true (Seg_usage.state u' 0 = Seg_usage.Dirty);
  (* Active persists as Dirty: after a crash the half-filled segment is
     just fragmented. *)
  Alcotest.(check bool) "active persisted as dirty" true
    (Seg_usage.state u' 1 = Seg_usage.Dirty)

(* The map-block encoders write each entry in place.  Their model is the
   growable [Codec] encoder they used before: entry by entry, padded to
   the entry size, then to the block.  A block of random entries is
   loaded (every field in range, so [load_block] keeps it as it is:
   null or in-log addresses, slots within an inode block, and state tag
   2, Active, which persists as Dirty), re-encoded, and compared
   byte for byte with the model built from the same entries. *)
let model_block ~block_size ~entry_bytes entries put =
  let e = Lfs_util.Codec.encoder ~capacity:block_size () in
  List.iteri
    (fun k entry ->
      put e entry;
      Lfs_util.Codec.pad_to e ((k + 1) * entry_bytes))
    entries;
  Lfs_util.Codec.pad_to e block_size;
  Lfs_util.Codec.to_bytes e

let map_block_gen = QCheck.(pair small_nat int)

let prop_imap_block_model =
  QCheck.Test.make ~name:"imap block encodes as the codec model" ~count:100
    map_block_gen
    (fun (idx, seed) ->
      let module Codec = Lfs_util.Codec in
      let l = layout () in
      let m = Imap.create l in
      let idx = idx mod Imap.n_blocks m in
      let rng = Lfs_util.Rng.create seed in
      let per = Layout.imap_entries_per_block l in
      let base = idx * per in
      let n = min per (Imap.max_files m - base) in
      let u32 () = Int64.to_int (Lfs_util.Rng.next_int64 rng) land 0xFFFFFFFF in
      let entries =
        List.init n (fun _ ->
            let addr =
              if Lfs_util.Rng.bool rng then Layout.null_addr
              else
                l.Layout.first_segment_block
                + Lfs_util.Rng.int rng
                    (l.Layout.total_blocks - l.Layout.first_segment_block)
            in
            ( addr,
              Lfs_util.Rng.int rng (Layout.inodes_per_block l),
              u32 (),
              Int64.to_int (Lfs_util.Rng.next_int64 rng),
              Lfs_util.Rng.bool rng ))
      in
      let want =
        model_block ~block_size:l.Layout.block_size
          ~entry_bytes:Layout.imap_entry_bytes entries
          (fun e (addr, slot, version, atime, alloc) ->
            Codec.u32 e addr;
            Codec.u16 e slot;
            Codec.u32 e version;
            Codec.int_as_i64 e atime;
            Codec.u8 e (if alloc then 1 else 0))
      in
      Imap.load_block m ~idx want;
      Bytes.equal want (Imap.encode_block m ~idx))

let prop_usage_block_model =
  QCheck.Test.make ~name:"usage block encodes as the codec model" ~count:100
    map_block_gen
    (fun (idx, seed) ->
      let module Codec = Lfs_util.Codec in
      let l = layout () in
      let u = Seg_usage.create l in
      let idx = idx mod Seg_usage.n_blocks u in
      let rng = Lfs_util.Rng.create seed in
      let per = Layout.usage_entries_per_block l in
      let base = idx * per in
      let n = min per (Seg_usage.nsegments u - base) in
      let entries =
        List.init n (fun _ ->
            ( Int64.to_int (Lfs_util.Rng.next_int64 rng) land 0xFFFFFFFF,
              Int64.to_int (Lfs_util.Rng.next_int64 rng),
              Lfs_util.Rng.int rng 3 ))
      in
      let encode tag_of e (live, mtime, tag) =
        Codec.u32 e live;
        Codec.int_as_i64 e mtime;
        Codec.u8 e (tag_of tag)
      in
      let model tag_of =
        model_block ~block_size:l.Layout.block_size
          ~entry_bytes:Layout.usage_entry_bytes entries (encode tag_of)
      in
      Seg_usage.load_block u ~idx (model Fun.id);
      Bytes.equal
        (model (fun tag -> if tag = 2 then 1 else tag))
        (Seg_usage.encode_block u ~idx))

let suite =
  [
    qcheck prop_inode_roundtrip;
    Alcotest.test_case "inode empty slot" `Quick test_inode_empty_slot;
    qcheck prop_summary_roundtrip;
    qcheck prop_summary_in_place;
    qcheck prop_summary_walk;
    Alcotest.test_case "summary rejects corruption" `Quick
      test_summary_rejects_corruption;
    Alcotest.test_case "summary region sizing" `Quick test_summary_blocks_needed;
    Alcotest.test_case "checkpoint roundtrip" `Quick test_checkpoint_roundtrip;
    Alcotest.test_case "checkpoint choose" `Quick test_checkpoint_choose;
    Alcotest.test_case "superblock roundtrip" `Quick test_superblock_roundtrip;
    Alcotest.test_case "imap block roundtrip" `Quick test_imap_block_roundtrip;
    Alcotest.test_case "usage block roundtrip" `Quick test_usage_block_roundtrip;
    qcheck prop_imap_block_model;
    qcheck prop_usage_block_model;
  ]
