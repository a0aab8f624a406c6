(* The multi-disk volume layer: the logical->member address map
   (round-trip and boundary-crossing splits, property-tested), the
   1-member-volume = bare-disk equivalence that pins the refactored
   [Io] timing path, deterministic snapshot/restore on multi-member
   stacks, and the mirror degraded-read failover. *)

module Clock = Lfs_disk.Clock
module Cpu_model = Lfs_disk.Cpu_model
module Disk = Lfs_disk.Disk
module Geometry = Lfs_disk.Geometry
module Io = Lfs_disk.Io
module Metrics = Lfs_obs.Metrics
module Volume = Lfs_disk.Volume
module Driver = Lfs_workload.Driver
module Scenario = Lfs_scenario.Scenario
module Setup = Lfs_workload.Setup

let qcheck = Common.qcheck
let geo () = Geometry.wren_iv ~size_bytes:(16 * 1024 * 1024)

let cval io name = Metrics.value (Metrics.counter (Io.metrics io) name)

(* ------------------------------------------------------------------ *)
(* Address-map properties                                              *)
(* ------------------------------------------------------------------ *)

(* A policy/member-count pair plus a logical range inside the volume's
   capacity; chunk sizes deliberately include awkward primes. *)
let map_case_gen =
  QCheck.Gen.(
    let* members = int_range 1 8 in
    let* policy =
      oneof
        [
          (let* chunk = oneofl [ 1; 3; 7; 16; 42; 128 ] in
           return (Volume.Stripe { chunk_sectors = chunk }));
          (let* per_member = oneofl [ 1; 4; 32; 256 ] in
           return
             (Volume.Log_stripe { stripe_sectors = per_member * members }));
        ]
    in
    let v = Volume.create policy ~members (geo ()) in
    let cap = (Volume.geometry v).Geometry.sectors in
    let* sector = int_bound (cap - 1) in
    let* count = int_range 1 (min 4096 (cap - sector)) in
    return (policy, members, sector, count))

let map_case_print (policy, members, sector, count) =
  Printf.sprintf "%s members=%d sector=%d count=%d"
    (Volume.policy_name policy)
    members sector count

let locate_roundtrip =
  QCheck.Test.make ~name:"locate/logical_of round-trip" ~count:300
    (QCheck.make ~print:map_case_print map_case_gen)
    (fun (policy, members, sector, _) ->
      let v = Volume.create policy ~members (geo ()) in
      let member, msec = Volume.locate v ~sector in
      if member < 0 || member >= members then
        QCheck.Test.fail_reportf "member %d out of range" member;
      if msec < 0 || msec >= (Volume.member_geometry v).Geometry.sectors then
        QCheck.Test.fail_reportf "member sector %d out of range" msec;
      Volume.logical_of v ~member ~msec = sector)

(* Boundary-crossing requests split correctly: per-member runs are
   contiguous member ranges, their scatter/gather pieces tile the
   logical range exactly once, and every piece agrees with [locate]. *)
let split_covers =
  QCheck.Test.make ~name:"map_write splits tile the request" ~count:300
    (QCheck.make ~print:map_case_print map_case_gen)
    (fun (policy, members, sector, count) ->
      let v = Volume.create policy ~members (geo ()) in
      let runs = Volume.map_write v ~sector ~count in
      let covered = Array.make count false in
      List.iter
        (fun (r : Volume.run) ->
          if r.Volume.member < 0 || r.Volume.member >= members then
            QCheck.Test.fail_reportf "run on member %d" r.Volume.member;
          let piece_total =
            List.fold_left (fun a (_, l) -> a + l) 0 r.Volume.pieces
          in
          if piece_total <> r.Volume.count then
            QCheck.Test.fail_reportf "pieces sum %d <> run count %d"
              piece_total r.Volume.count;
          (* Pieces appear in member-sector order: piece [k] starts at
             [r.sector + sum of earlier piece lengths] on the member. *)
          let consumed = ref 0 in
          List.iter
            (fun (off, len) ->
              for j = 0 to len - 1 do
                if covered.(off + j) then
                  QCheck.Test.fail_reportf "logical offset %d covered twice"
                    (off + j);
                covered.(off + j) <- true;
                let m, msec = Volume.locate v ~sector:(sector + off + j) in
                if
                  m <> r.Volume.member
                  || msec <> r.Volume.sector + !consumed + j
                then
                  QCheck.Test.fail_reportf
                    "piece (%d,%d)+%d maps to (%d,%d), locate says (%d,%d)"
                    off len j r.Volume.member
                    (r.Volume.sector + !consumed + j)
                    m msec
              done;
              consumed := !consumed + len)
            r.Volume.pieces)
        runs;
      Array.for_all Fun.id covered)

(* Mirrors: writes fan out whole-range to every member; the address map
   names member 0's replica for a read ([Io] balances mirror reads
   itself). *)
let test_mirror_map () =
  let v = Volume.create Volume.Mirror ~members:3 (geo ()) in
  let runs = Volume.map_write v ~sector:100 ~count:10 in
  Alcotest.(check int) "one run per member" 3 (List.length runs);
  List.iter
    (fun (r : Volume.run) ->
      Alcotest.(check int) "full range" 10 r.Volume.count;
      Alcotest.(check int) "at the logical sector" 100 r.Volume.sector)
    runs;
  match Volume.map_read v ~sector:100 ~count:10 with
  | [ r ] ->
      Alcotest.(check int) "read on member 0" 0 r.Volume.member;
      Alcotest.(check int) "whole range" 10 r.Volume.count
  | l -> Alcotest.failf "mirror read split into %d runs" (List.length l)

(* ------------------------------------------------------------------ *)
(* 1-member volume = bare disk                                         *)
(* ------------------------------------------------------------------ *)

(* The registry cells a bare disk and a one-member volume share: the
   aggregate [disk.*] counters and every [io.*] instrument.  A volume
   built by [Volume.create] also keeps its member's [disk.0.*] family,
   which a bare disk does not register. *)
let shared_cells io =
  List.filter
    (fun (name, _) ->
      String.starts_with ~prefix:"io." name
      || String.starts_with ~prefix:"disk." name
         && not (String.length name > 5 && name.[5] >= '0' && name.[5] <= '9'))
    (Metrics.snapshot (Io.metrics io))

(* The same LFS workload on a bare disk and on one-member volumes of
   every policy must end with byte-identical media, an identical clock and identical device and I/O metrics: a
   bare disk is a one-member volume, and every request takes the one
   volume path. *)
let test_single_member_lockstep () =
  let workload io =
    let inst = Setup.lfs_on io ~config:Lfs_core.Config.small () in
    for i = 0 to 39 do
      let path = Printf.sprintf "/f%02d" i in
      Driver.create inst path;
      Driver.write inst path ~off:0 (Driver.content ~seed:i 3000);
      if i mod 8 = 7 then Driver.sync inst
    done;
    Driver.delete inst "/f03";
    Driver.sync inst;
    Driver.sanitize inst;
    ignore (Driver.read inst "/f10" ~off:0 ~len:3000 : bytes);
    (Io.snapshot_media io, Io.now_us io, shared_cells io)
  in
  let media, clock, cells =
    workload (Io.of_geometry (geo ()) (Clock.create ()) Cpu_model.free)
  in
  Alcotest.(check bool) "bare disk has disk.* and io.* cells" true
    (List.exists (fun (n, _) -> n = "disk.writes") cells
    && List.exists (fun (n, _) -> n = "io.write_us") cells);
  List.iter
    (fun policy ->
      let name = Volume.policy_name policy in
      let media', clock', cells' =
        workload
          (Io.of_volume
             (Volume.create policy ~members:1 (geo ()))
             (Clock.create ()) Cpu_model.free)
      in
      Alcotest.(check bool) (name ^ ": media byte-identical") true
        (media = media');
      Alcotest.(check int) (name ^ ": clock identical") clock clock';
      Alcotest.(check (list string))
        (name ^ ": same cell names") (List.map fst cells) (List.map fst cells');
      List.iter2
        (fun (n, v) (_, v') ->
          if v <> v' then Alcotest.failf "%s: %s differs" name n)
        cells cells')
    (* Awkward chunk sizes, but each divides the disk's 32,886 sectors:
       a one-member volume rounds its capacity down to whole chunks, and
       a smaller file system would format different media. *)
    [
      Volume.Stripe { chunk_sectors = 42 };
      Volume.Mirror;
      Volume.Log_stripe { stripe_sectors = 54 };
    ]

(* A bare disk publishes only its [Disk_request]s: a [Volume_op] there
   would only repeat the request that follows it.  A two-member stripe
   publishes one per logical request. *)
let test_bare_disk_no_volume_op () =
  let volume_ops io =
    let sink = Lfs_obs.Bus.attach (Io.bus io) in
    Io.sync_write io ~sector:64 (Bytes.make 4096 'v');
    Io.async_write io ~sector:128 (Bytes.make 4096 'w');
    ignore (Io.sync_read io ~sector:64 ~count:8 : bytes);
    Io.drain io;
    let records = Lfs_obs.Bus.records sink in
    let count p = List.length (List.filter p records) in
    ( count (fun r ->
          match r.Lfs_obs.Event.event with
          | Lfs_obs.Event.Volume_op _ -> true
          | _ -> false),
      count (fun r ->
          match r.Lfs_obs.Event.event with
          | Lfs_obs.Event.Disk_request _ -> true
          | _ -> false) )
  in
  let ops, requests =
    volume_ops (Io.of_geometry (geo ()) (Clock.create ()) Cpu_model.free)
  in
  Alcotest.(check int) "bare disk: no Volume_op" 0 ops;
  Alcotest.(check int) "bare disk: one Disk_request per request" 3 requests;
  let ops, _ =
    volume_ops
      (Io.of_volume
         (Volume.create (Volume.Stripe { chunk_sectors = 8 }) ~members:2
            (geo ()))
         (Clock.create ()) Cpu_model.free)
  in
  Alcotest.(check int) "2-member stripe: one Volume_op per request" 3 ops

(* [disk_stats] reads the shared aggregate [disk.*] cells; on a striped
   volume they must equal the field-wise sum of the members' own
   counters. *)
let test_disk_stats_sums_members () =
  let io =
    Setup.make_volume_io ~disk_mb:16 ~cpu:Cpu_model.free
      ~policy:(Volume.Stripe { chunk_sectors = 16 })
      ~members:3 ()
  in
  let inst = Setup.lfs_on io ~config:Lfs_core.Config.small () in
  for i = 0 to 19 do
    let path = Printf.sprintf "/s%02d" i in
    Driver.create inst path;
    Driver.write inst path ~off:0 (Driver.content ~seed:i 7000)
  done;
  Driver.sync inst;
  Driver.sanitize inst;
  ignore (Driver.read inst "/s07" ~off:0 ~len:7000 : bytes);
  let sum = Array.init 3 (Io.member_stats io) in
  let total f = Array.fold_left (fun a s -> a + f s) 0 sum in
  let s = Io.disk_stats io in
  let check name f =
    Alcotest.(check int) name (total f) (f s);
    if f s = 0 then Alcotest.failf "%s: workload did not reach it" name
  in
  check "reads" (fun s -> s.Disk.reads);
  check "writes" (fun s -> s.Disk.writes);
  check "sectors_read" (fun s -> s.Disk.sectors_read);
  check "sectors_written" (fun s -> s.Disk.sectors_written);
  check "seeks" (fun s -> s.Disk.seeks);
  check "busy_us" (fun s -> s.Disk.busy_us)

(* ------------------------------------------------------------------ *)
(* Snapshot / restore on multi-member stacks                           *)
(* ------------------------------------------------------------------ *)

let test_snapshot_restore_deterministic () =
  let io =
    Setup.make_volume_io ~disk_mb:16 ~cpu:Cpu_model.free
      ~policy:(Volume.Stripe { chunk_sectors = 64 })
      ~members:3 ()
  in
  let inst = Setup.lfs_on io ~config:Lfs_core.Config.small () in
  Driver.create inst "/a";
  Driver.write inst "/a" ~off:0 (Driver.content ~seed:1 5000);
  Driver.sync inst;
  let snap = Io.snapshot_media io in
  Alcotest.(check int) "snapshot is the member concatenation"
    (3 * (Volume.member_geometry (Io.volume io)).Geometry.sectors
   * (geo ()).Geometry.sector_size)
    (Bytes.length snap);
  (* Diverge, restore, and the media must match the snapshot exactly;
     a fresh mount of the restored media sees the old state. *)
  Driver.create inst "/b";
  Driver.write inst "/b" ~off:0 (Driver.content ~seed:2 9000);
  Driver.sync inst;
  Alcotest.(check bool) "media diverged" false (Io.snapshot_media io = snap);
  Io.restore_media io snap;
  Alcotest.(check bool) "restore is exact" true (Io.snapshot_media io = snap);
  match Lfs_core.Fs.mount ~config:Lfs_core.Config.small io with
  | Error e -> Alcotest.failf "remount after restore: %s" e
  | Ok fs ->
      let inst = Lfs_vfs.Fs_intf.Instance ((module Lfs_core.Fs), fs) in
      Alcotest.(check bytes) "old file survives"
        (Driver.content ~seed:1 5000)
        (Driver.read inst "/a" ~off:0 ~len:5000);
      Alcotest.(check bool) "new file gone" true
        (match Driver.read inst "/b" ~off:0 ~len:1 with
        | exception _ -> true
        | _ -> false)

(* ------------------------------------------------------------------ *)
(* Mirror degraded reads                                               *)
(* ------------------------------------------------------------------ *)

(* A sticky bad sector on one mirror member: the load-balanced read
   picks the faulted replica (its head is closest), exhausts its retry
   budget, fails over to the healthy member, and the caller sees good
   data.  The detour is visible in [io.degraded_reads] and the fault in
   [disk.faults.bad_sector_reads]. *)
let test_mirror_degraded_read () =
  let io =
    Io.of_volume
      (Volume.create Volume.Mirror ~members:2 (geo ()))
      (Clock.create ()) Cpu_model.free
  in
  let payload = Bytes.init 512 (fun i -> Char.chr (i mod 256)) in
  Io.sync_write io ~sector:5000 payload;
  (* Park member 0's head far away: the balanced read of sector 20000
     breaks its tie toward member 0, so the later read of 5000 prefers
     member 1 — the replica about to go bad. *)
  ignore (Io.sync_read io ~sector:20_000 ~count:1);
  let data, _inj =
    Scenario.with_faults ~member:1 io
      [ Scenario.Bad_sectors [ 5000 ] ]
      (fun () -> Io.sync_read io ~sector:5000 ~count:1)
  in
  Alcotest.(check bytes) "served from the healthy replica" payload data;
  Alcotest.(check bool) "failover counted" true (cval io "io.degraded_reads" > 0);
  Alcotest.(check bool) "fault counted under disk.faults.*" true
    (cval io "disk.faults.bad_sector_reads" > 0)

let suite =
  [
    qcheck locate_roundtrip;
    qcheck split_covers;
    Alcotest.test_case "mirror address map" `Quick test_mirror_map;
    Alcotest.test_case "1-member volume = bare disk" `Quick
      test_single_member_lockstep;
    Alcotest.test_case "bare disk emits no Volume_op" `Quick
      test_bare_disk_no_volume_op;
    Alcotest.test_case "disk_stats sums the members" `Quick
      test_disk_stats_sums_members;
    Alcotest.test_case "snapshot/restore deterministic on volumes" `Quick
      test_snapshot_restore_deterministic;
    Alcotest.test_case "mirror degraded read" `Quick
      test_mirror_degraded_read;
  ]
