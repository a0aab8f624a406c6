(* Clustered multi-block reads and sequential read-ahead.

   The optimizations must be invisible to correctness: every read returns
   byte-for-byte what a per-block implementation returns, across holes,
   cache hits and unsynced dirty overlays.  The visible effects are on the
   request stream (fewer, larger disk reads for sequential scans) and the
   io.readahead.* accounting. *)

module W = Lfs_workload
module Driver = W.Driver
module Io = Lfs_disk.Io
module Cpu_model = Lfs_disk.Cpu_model
module Metrics = Lfs_obs.Metrics
module Rng = Lfs_util.Rng

let disk_mb = 16
let cpu = Cpu_model.free

(* A cache big enough that nothing is evicted mid-test: block population
   differences between the two configurations (a clustered run caches
   whole runs) must not turn into behavioural differences. *)
let lfs ~fast () =
  let config =
    {
      Lfs_core.Config.small with
      Lfs_core.Config.cache_blocks = 1024;
      read_clustering = fast;
      readahead_blocks = (if fast then 8 else 0);
    }
  in
  W.Setup.lfs ~disk_mb ~cpu ~config ()

let ffs ~fast () =
  let config =
    {
      Lfs_ffs.Config.small with
      Lfs_ffs.Config.cache_blocks = 1024;
      read_clustering = fast;
      readahead_blocks = (if fast then 8 else 0);
    }
  in
  W.Setup.ffs ~disk_mb ~cpu ~config ()

let cval inst name = Metrics.value (Metrics.counter (Driver.metrics inst) name)

let check_invariant inst =
  let issued = cval inst "io.readahead.issued" in
  let hit = cval inst "io.readahead.hit" in
  let wasted = cval inst "io.readahead.wasted" in
  Alcotest.(check bool)
    (Printf.sprintf "hit (%d) + wasted (%d) <= issued (%d)" hit wasted issued)
    true
    (hit + wasted <= issued)

(* ------------------------------------------------------------------ *)
(* Byte-for-byte equivalence                                           *)
(* ------------------------------------------------------------------ *)

let file_size = 96 * 1024

(* One deterministic gauntlet: a file with a hole in the middle, synced,
   caches dropped, then overwritten in place (dirty, unsynced overlays),
   then read sequentially and at random offsets/lengths.  Every read is
   checked against an in-memory model of the file. *)
let exercise inst =
  let path = "/f" in
  let model = Bytes.make file_size '\000' in
  let put ~seed ~off len =
    let data = Driver.content ~seed len in
    Driver.write inst path ~off data;
    Bytes.blit data 0 model off len
  in
  Driver.create inst path;
  put ~seed:1 ~off:0 (40 * 1024);
  put ~seed:2 ~off:(64 * 1024) (32 * 1024) (* hole from 40 KB to 64 KB *);
  Driver.sync inst;
  Driver.flush_caches inst;
  (* Dirty overlays straddling block boundaries; never synced, so a
     clustered fetch that clobbered cached blocks would lose them. *)
  put ~seed:3 ~off:((10 * 1024) + 100) 5000;
  put ~seed:4 ~off:((65 * 1024) + 17) 3000;
  let check what ~off ~len =
    let expect_len = max 0 (min len (file_size - off)) in
    let got = Driver.read inst path ~off ~len in
    if Bytes.length got <> expect_len then
      Alcotest.failf "%s: read %d bytes, expected %d (off=%d len=%d)" what
        (Bytes.length got) expect_len off len;
    if not (Bytes.equal got (Bytes.sub model off expect_len)) then
      Alcotest.failf "%s: data mismatch (off=%d len=%d)" what off len
  in
  (* Sequential scan in 8 KB requests: trains the read-ahead stream. *)
  let step = 8 * 1024 in
  let i = ref 0 in
  while !i < file_size do
    check "seq" ~off:!i ~len:(min step (file_size - !i));
    i := !i + step
  done;
  (* Random offsets and lengths over holes, cached and cold ranges. *)
  let rng = Rng.create 42 in
  for k = 0 to 79 do
    let off = Rng.int rng file_size in
    let len = 1 + Rng.int rng (24 * 1024) in
    check (Printf.sprintf "rand%d" k) ~off ~len
  done;
  (* Re-reads served from cache. *)
  check "reread head" ~off:0 ~len:(16 * 1024);
  check "reread past hole" ~off:(64 * 1024) ~len:(8 * 1024)

let test_equivalence_lfs () =
  exercise (lfs ~fast:false ());
  let inst = lfs ~fast:true () in
  exercise inst;
  check_invariant inst

let test_equivalence_ffs () =
  exercise (ffs ~fast:false ());
  let inst = ffs ~fast:true () in
  exercise inst;
  check_invariant inst

(* A cache smaller than one clustered run and the read-ahead window: a
   run evicts its own first blocks while it is being cached, and every
   miss and whole-block write takes a buffer an eviction just left.
   After the gauntlet, whole-block overwrites interleave with reads,
   then everything is re-read cold. *)
let churn inst =
  let path = "/g" in
  let bs = 1024 and nblocks = 48 in
  let model = Driver.content ~seed:11 (nblocks * bs) in
  Driver.create inst path;
  Driver.write inst path ~off:0 model;
  Driver.sync inst;
  Driver.flush_caches inst;
  let check what ~off ~len =
    if not (Bytes.equal (Driver.read inst path ~off ~len) (Bytes.sub model off len))
    then Alcotest.failf "%s: data mismatch (off=%d len=%d)" what off len
  in
  let rng = Rng.create 7 in
  for k = 0 to 59 do
    let blk = Rng.int rng nblocks in
    let data = Driver.content ~seed:(100 + k) bs in
    Driver.write inst path ~off:(blk * bs) data;
    Bytes.blit data 0 model (blk * bs) bs;
    let off = Rng.int rng (nblocks * bs) in
    check (Printf.sprintf "churn%d" k) ~off
      ~len:(min (1 + Rng.int rng (12 * bs)) ((nblocks * bs) - off))
  done;
  Driver.sync inst;
  Driver.flush_caches inst;
  check "cold re-read" ~off:0 ~len:(nblocks * bs)

let tiny_lfs () =
  W.Setup.lfs ~disk_mb ~cpu
    ~config:
      {
        Lfs_core.Config.small with
        Lfs_core.Config.cache_blocks = 4;
        read_clustering = true;
        readahead_blocks = 8;
      }
    ()

let tiny_ffs () =
  W.Setup.ffs ~disk_mb ~cpu
    ~config:
      {
        Lfs_ffs.Config.small with
        Lfs_ffs.Config.cache_blocks = 4;
        read_clustering = true;
        readahead_blocks = 8;
      }
    ()

let test_tiny_cache make () =
  let inst = make () in
  exercise inst;
  churn inst;
  check_invariant inst

(* ------------------------------------------------------------------ *)
(* Read-ahead accounting                                               *)
(* ------------------------------------------------------------------ *)

let test_counters () =
  let inst = lfs ~fast:true () in
  let path = "/seq" in
  let bs = 1024 in
  Driver.create inst path;
  Driver.write inst path ~off:0 (Driver.content ~seed:9 (64 * bs));
  Driver.sync inst;
  Driver.flush_caches inst;
  for i = 0 to 63 do
    ignore (Driver.read inst path ~off:(i * bs) ~len:bs)
  done;
  let issued = cval inst "io.readahead.issued" in
  Alcotest.(check bool) "prefetch happened" true (issued > 0);
  (* A full sequential scan consumes everything it prefetched: the window
     is clamped at end of file, so nothing is written off. *)
  Alcotest.(check int) "all prefetches consumed" issued
    (cval inst "io.readahead.hit");
  Alcotest.(check int) "no waste on a full scan" 0
    (cval inst "io.readahead.wasted");
  (* Abandoning a stream mid-flight writes off its in-flight blocks. *)
  Driver.flush_caches inst;
  let wasted_before = cval inst "io.readahead.wasted" in
  for i = 0 to 7 do
    ignore (Driver.read inst path ~off:(i * bs) ~len:bs)
  done;
  ignore (Driver.read inst path ~off:(48 * bs) ~len:bs);
  Alcotest.(check bool) "abandon wastes pending prefetches" true
    (cval inst "io.readahead.wasted" > wasted_before);
  check_invariant inst

let test_disabled_issues_nothing () =
  let inst = lfs ~fast:false () in
  let path = "/seq" in
  Driver.create inst path;
  Driver.write inst path ~off:0 (Driver.content ~seed:9 (64 * 1024));
  Driver.sync inst;
  Driver.flush_caches inst;
  for i = 0 to 63 do
    ignore (Driver.read inst path ~off:(i * 1024) ~len:1024)
  done;
  Alcotest.(check int) "no prefetch when disabled" 0
    (cval inst "io.readahead.issued")

(* ------------------------------------------------------------------ *)
(* The request stream of a sequential scan                             *)
(* ------------------------------------------------------------------ *)

let audited_scan make =
  let inst = make () in
  let path = "/big" in
  let size = 128 * 1024 in
  Driver.create inst path;
  Driver.write inst path ~off:0 (Driver.content ~seed:5 size);
  Driver.sync inst;
  Driver.flush_caches inst;
  let io = Driver.io inst in
  let step = 4 * 1024 in
  let reads =
    Common.requests_during io (fun () ->
        for i = 0 to (size / step) - 1 do
          ignore (Driver.read inst path ~off:(i * step) ~len:step)
        done)
    |> List.filter (fun r -> r.Common.kind = Lfs_obs.Event.Read)
  in
  ( List.length reads,
    List.fold_left (fun acc r -> acc + r.Common.sectors) 0 reads )

let check_scan_pair base fast =
  let base_n, base_sectors = audited_scan base in
  let fast_n, fast_sectors = audited_scan fast in
  Alcotest.(check bool)
    (Printf.sprintf "at least 2x fewer read requests (%d vs %d)" base_n fast_n)
    true
    (fast_n * 2 <= base_n);
  Alcotest.(check int) "total sectors transferred unchanged" base_sectors
    fast_sectors

let test_seq_scan_lfs () = check_scan_pair (lfs ~fast:false) (lfs ~fast:true)
let test_seq_scan_ffs () = check_scan_pair (ffs ~fast:false) (ffs ~fast:true)

(* ------------------------------------------------------------------ *)
(* One read path, two systems                                          *)
(* ------------------------------------------------------------------ *)

(* A cold one-block read misses each block it needs exactly once: the
   data block's miss must not be counted again by the fetch that
   follows it, whether or not the miss is clustered. *)
let cold_one_block_misses make =
  let inst = make () in
  let path = "/one" in
  Driver.create inst path;
  Driver.write inst path ~off:0 (Driver.content ~seed:4 (8 * 1024));
  Driver.sync inst;
  Driver.flush_caches inst;
  let before = cval inst "cache.misses" in
  ignore (Driver.read inst path ~off:0 ~len:1024);
  cval inst "cache.misses" - before

let test_cold_read_misses () =
  List.iter
    (fun (label, make) ->
      Alcotest.(check int)
        (label ^ ": same misses with clustering on and off")
        (cold_one_block_misses (make ~fast:false))
        (cold_one_block_misses (make ~fast:true)))
    [ ("LFS", lfs); ("FFS", ffs) ]

(* Each system's misses and read-ahead runs stay under its own spans. *)
let spans_of_scan make =
  let inst = make ~fast:true () in
  let path = "/scan" in
  Driver.create inst path;
  Driver.write inst path ~off:0 (Driver.content ~seed:6 (64 * 1024));
  Driver.sync inst;
  Driver.flush_caches inst;
  let sink =
    Lfs_obs.Bus.attach
      ~filter:(function Lfs_obs.Event.Span_begin _ -> true | _ -> false)
      (Driver.bus inst)
  in
  for i = 0 to 15 do
    ignore (Driver.read inst path ~off:(i * 1024) ~len:1024)
  done;
  Lfs_obs.Bus.detach (Driver.bus inst) sink;
  List.filter_map
    (fun (r : Lfs_obs.Event.record) ->
      match r.Lfs_obs.Event.event with
      | Lfs_obs.Event.Span_begin { name; _ } -> Some name
      | _ -> None)
    (Lfs_obs.Bus.records sink)
  |> List.sort_uniq String.compare

let test_read_spans () =
  List.iter
    (fun (sys, other, make) ->
      let spans = spans_of_scan make in
      List.iter
        (fun suffix ->
          Alcotest.(check bool)
            (Printf.sprintf "%s emits %s_%s" sys sys suffix)
            true
            (List.mem (sys ^ "_" ^ suffix) spans);
          Alcotest.(check bool)
            (Printf.sprintf "%s never emits %s_%s" sys other suffix)
            false
            (List.mem (other ^ "_" ^ suffix) spans))
        [ "read_fill"; "prefetch" ])
    [ ("lfs", "ffs", lfs); ("ffs", "lfs", ffs) ]

let suite =
  [
    Alcotest.test_case "LFS equivalence with clustering+read-ahead" `Quick
      test_equivalence_lfs;
    Alcotest.test_case "FFS equivalence with clustering+read-ahead" `Quick
      test_equivalence_ffs;
    Alcotest.test_case "LFS reads through a cache smaller than a run" `Quick
      (test_tiny_cache tiny_lfs);
    Alcotest.test_case "FFS reads through a cache smaller than a run" `Quick
      (test_tiny_cache tiny_ffs);
    Alcotest.test_case "read-ahead counter accounting" `Quick test_counters;
    Alcotest.test_case "read-ahead disabled issues nothing" `Quick
      test_disabled_issues_nothing;
    Alcotest.test_case "LFS sequential scan: fewer, larger reads" `Quick
      test_seq_scan_lfs;
    Alcotest.test_case "FFS sequential scan: fewer, larger reads" `Quick
      test_seq_scan_ffs;
    Alcotest.test_case "cold one-block read: misses same with clustering on/off"
      `Quick test_cold_read_misses;
    Alcotest.test_case "each system keeps its own read spans" `Quick
      test_read_spans;
  ]
