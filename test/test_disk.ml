(* The disk substrate: geometry timing model, crash injection, the
   chunked medium against a flat reference, the I/O scheduler's
   sync/async accounting, and the CPU model. *)

module Clock = Lfs_disk.Clock
module Cpu_model = Lfs_disk.Cpu_model
module Disk = Lfs_disk.Disk
module Geometry = Lfs_disk.Geometry
module Io = Lfs_disk.Io

let geo () = Geometry.wren_iv ~size_bytes:(8 * 1024 * 1024)

(* [count] sectors from [sector], through the one read path. *)
let read d ~sector ~count =
  let len = count * (Disk.geometry d).Geometry.sector_size in
  let buf = Bytes.create len in
  ignore (Disk.read_into d ~sector [ { Disk.buf; off = 0; len } ] : int);
  buf

let test_geometry_derivations () =
  let g = geo () in
  (* WREN-IV calibration: ~1.2-1.3 MB/s, ~17.5 ms average seek, 3600 RPM. *)
  let bw = Geometry.bandwidth_bytes_per_sec g /. 1_048_576.0 in
  if bw < 1.1 || bw > 1.4 then Alcotest.failf "bandwidth %.2f MB/s off" bw;
  let seek = float_of_int (Geometry.avg_seek_us g) /. 1000.0 in
  if seek < 14.0 || seek > 21.0 then Alcotest.failf "avg seek %.1f ms off" seek;
  Alcotest.(check int) "rotation" 16_666 (Geometry.rotation_us g);
  Alcotest.(check int) "zero seek" 0 (Geometry.seek_us g ~from_cyl:5 ~to_cyl:5);
  Alcotest.(check bool) "monotone seek" true
    (Geometry.seek_us g ~from_cyl:0 ~to_cyl:10
    < Geometry.seek_us g ~from_cyl:0 ~to_cyl:100)

let test_sequential_vs_random () =
  let d = Disk.create (geo ()) in
  let buf = Bytes.make 4096 'x' in
  (* The head parks at sector 0, so go elsewhere first to pay a seek;
     the continuation then streams with no positioning cost. *)
  let first = Disk.write d ~sector:4000 buf in
  let second = Disk.write d ~sector:4008 buf in
  Alcotest.(check bool) "sequential cheaper" true (second < first);
  let far = Disk.write d ~sector:15_000 buf in
  Alcotest.(check bool) "random costs positioning" true (far > 2 * second)

let test_streamed_classification () =
  let d = Disk.create (geo ()) in
  let buf = Bytes.make 4096 'x' in
  ignore (Disk.write d ~sector:4000 buf);
  Alcotest.(check bool) "first request not streamed" false
    (Disk.last_was_streamed d);
  ignore (Disk.write d ~sector:4008 buf);
  Alcotest.(check bool) "exact continuation streamed" true
    (Disk.last_was_streamed d);
  (* Same cylinder but not contiguous: no seek, yet not sequential. *)
  ignore (Disk.write d ~sector:4020 buf);
  Alcotest.(check bool) "gap on same cylinder not streamed" false
    (Disk.last_was_streamed d)

let test_missed_rotation () =
  let g = geo () in
  let d = Disk.create g in
  let buf = Bytes.make 4096 'x' in
  let t0 = Disk.write ~start_us:0 d ~sector:4000 buf in
  (* Back to back, the continuation streams with transfer-only cost. *)
  let streamed = Disk.write ~start_us:t0 d ~sector:4008 buf in
  Alcotest.(check int) "back-to-back pays transfer only"
    (Geometry.transfer_us g ~sectors:8)
    streamed;
  ignore (Disk.write ~start_us:(t0 + streamed) d ~sector:4016 buf);
  (* Arriving after the device idled: the platter kept spinning, so the
     head waits out the rest of the rotation before the transfer. *)
  let idle_us = 1000 in
  let at = t0 + streamed + Geometry.transfer_us g ~sectors:8 + idle_us in
  let late = Disk.write ~start_us:at d ~sector:4024 buf in
  let rot = Geometry.rotation_us g in
  Alcotest.(check int) "late continuation pays the missed rotation"
    (rot - (idle_us mod rot) + Geometry.transfer_us g ~sectors:8)
    late

let test_disk_data_roundtrip () =
  let d = Disk.create (geo ()) in
  let data = Bytes.init 1536 (fun i -> Char.chr (i mod 256)) in
  ignore (Disk.write d ~sector:42 data);
  let got = read d ~sector:42 ~count:3 in
  Alcotest.(check bytes) "roundtrip" data got;
  (* Unwritten sectors read as zeros. *)
  let zeros = read d ~sector:45 ~count:1 in
  Alcotest.(check bytes) "zeros" (Bytes.make 512 '\000') zeros

let test_disk_bounds () =
  let d = Disk.create (geo ()) in
  Alcotest.(check bool) "read oob" true
    (try
       ignore (read d ~sector:(-1) ~count:1);
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "write misaligned" true
    (try
       ignore (Disk.write d ~sector:0 (Bytes.make 100 'x'));
       false
     with Invalid_argument _ -> true)

let test_crash_injection () =
  let d = Disk.create (geo ()) in
  Disk.set_crash_after d ~sectors:2;
  let data = Bytes.make 2048 'A' in
  (* 4 sectors requested, 2 permitted: the write tears. *)
  Alcotest.(check bool) "raises" true
    (try
       ignore (Disk.write d ~sector:0 data);
       false
     with Disk.Crash -> true);
  Alcotest.(check bool) "crashed" true (Disk.crashed d);
  Disk.clear_crash d;
  let got = read d ~sector:0 ~count:4 in
  Alcotest.(check bytes) "torn prefix" (Bytes.make 1024 'A') (Bytes.sub got 0 1024);
  Alcotest.(check bytes) "torn tail" (Bytes.make 1024 '\000') (Bytes.sub got 1024 1024);
  (* Writes work again after clear. *)
  ignore (Disk.write d ~sector:0 data)

let test_crash_while_down () =
  let d = Disk.create (geo ()) in
  Disk.set_crash_after d ~sectors:0;
  (try ignore (Disk.write d ~sector:0 (Bytes.make 512 'x')) with Disk.Crash -> ());
  Alcotest.(check bool) "still down" true
    (try
       ignore (Disk.write d ~sector:8 (Bytes.make 512 'x'));
       false
     with Disk.Crash -> true)

let test_snapshot_restore () =
  let d = Disk.create (geo ()) in
  ignore (Disk.write d ~sector:0 (Bytes.make 512 'A'));
  let snap = Disk.snapshot d in
  ignore (Disk.write d ~sector:0 (Bytes.make 512 'B'));
  Disk.restore d snap;
  let got = read d ~sector:0 ~count:1 in
  Alcotest.(check char) "restored" 'A' (Bytes.get got 0)

(* ------------------------------------------------------------------ *)
(* The chunked medium against a flat reference                         *)
(* ------------------------------------------------------------------ *)

(* A 1 MB request rounds up to 6 cylinders: 17 whole chunks and a short
   last one. *)
let chunk_geo () = Geometry.wren_iv ~size_bytes:(1024 * 1024)

type op =
  | Write of { sector : int; count : int; fill : int }
  | Read of { sector : int; count : int; cuts : int list }
  | Torn_countdown of { sector : int; count : int; allow : int }
  | Torn_hook of { sector : int; count : int; persisted : int }
  | Snapshot_restore

let pp_op = function
  | Write { sector; count; fill } ->
      Printf.sprintf "write %d+%d fill=%d" sector count fill
  | Read { sector; count; cuts } ->
      Printf.sprintf "read %d+%d cuts=[%s]" sector count
        (String.concat ";" (List.map string_of_int cuts))
  | Torn_countdown { sector; count; allow } ->
      Printf.sprintf "countdown %d+%d allow=%d" sector count allow
  | Torn_hook { sector; count; persisted } ->
      Printf.sprintf "hook %d+%d persisted=%d" sector count persisted
  | Snapshot_restore -> "snapshot/restore"

(* Spans start within a few sectors of a chunk edge and run up to three
   chunks long, so most of them straddle one. *)
let span_gen sectors =
  let spc = Disk.chunk_bytes / 512 in
  QCheck.Gen.(
    let* edge = int_bound (sectors / spc) in
    let* delta = int_range (-6) 6 in
    let sector = max 0 (min (sectors - 1) ((edge * spc) + delta)) in
    let* count = oneof [ int_range 1 12; int_range 1 (3 * spc) ] in
    return (sector, min count (sectors - sector)))

let op_gen sectors =
  QCheck.Gen.(
    let* sector, count = span_gen sectors in
    frequency
      [
        ( 4,
          let* fill = int_bound 3 in
          return (Write { sector; count; fill }) );
        ( 4,
          let* cuts = list_size (int_bound 4) (int_bound (count * 512)) in
          return (Read { sector; count; cuts }) );
        ( 1,
          let* allow = int_bound count in
          return (Torn_countdown { sector; count; allow }) );
        ( 1,
          let* persisted = int_bound count in
          return (Torn_hook { sector; count; persisted }) );
        (1, return Snapshot_restore);
      ])

(* Fill 0 writes zeros (a chunk holding only zeros is still resident
   until a restore drops it); fill 1 writes zeros but for one byte, which
   a restore must not mistake for an empty chunk; others write a window
   of seeded noise that depends on the op, so a misplaced byte shows. *)
let noise = lazy (Common.pattern ~seed:64 (4 * Disk.chunk_bytes))

let payload ~fill ~sector ~count =
  let len = count * 512 in
  match fill with
  | 0 -> Bytes.make len '\000'
  | 1 ->
      let b = Bytes.make len '\000' in
      Bytes.set b ((sector * 13) mod len) '\001';
      b
  | _ ->
      let noise = Lazy.force noise in
      let room = Bytes.length noise - len in
      Bytes.sub noise (((sector * 7) + (fill * 1031)) mod room) len

let differential =
  let g = chunk_geo () in
  let size = Geometry.size_bytes g in
  let nchunks = (size + Disk.chunk_bytes - 1) / Disk.chunk_bytes in
  let chunk_len i = min Disk.chunk_bytes (size - (i * Disk.chunk_bytes)) in
  QCheck.Test.make ~name:"chunked medium matches a flat reference" ~count:200
    (QCheck.make
       ~print:(fun ops -> String.concat "\n" (List.map pp_op ops))
       QCheck.Gen.(list_size (int_range 1 40) (op_gen g.Geometry.sectors)))
    (fun ops ->
      let d = Disk.create g in
      let model = Bytes.make size '\000' in
      (* Which chunks the lazy medium should hold right now. *)
      let resident = Array.make nchunks false in
      let persist ~sector data ~sectors =
        let pos = sector * 512 and len = sectors * 512 in
        Bytes.blit data 0 model pos len;
        let cb = Disk.chunk_bytes in
        if len > 0 then
          for i = pos / cb to (pos + len - 1) / cb do
            resident.(i) <- true
          done
      in
      let check_resident what =
        let expect = ref 0 in
        Array.iteri
          (fun i r -> if r then expect := !expect + chunk_len i)
          resident;
        if Disk.resident_bytes d <> !expect then
          QCheck.Test.fail_reportf "%s: %d bytes resident, model says %d" what
            (Disk.resident_bytes d) !expect
      in
      let torn what ~sector ~count ~persisted arm =
        let data = payload ~fill:2 ~sector ~count in
        arm ();
        (match Disk.write d ~sector data with
        | _ -> QCheck.Test.fail_reportf "%s: write did not crash" what
        | exception Disk.Crash -> ());
        if not (Disk.crashed d) then
          QCheck.Test.fail_reportf "%s: disk not down" what;
        Disk.set_fault_hook d None;
        Disk.clear_crash d;
        persist ~sector data ~sectors:persisted
      in
      List.iter
        (fun op ->
          (match op with
          | Write { sector; count; fill } ->
              let data = payload ~fill ~sector ~count in
              ignore (Disk.write d ~sector data : int);
              persist ~sector data ~sectors:count
          | Read { sector; count; cuts } ->
              (* Each slice lands at an offset inside its own larger
                 buffer; the cut points need not be sector-aligned. *)
              let len = count * 512 in
              let bounds = List.sort_uniq compare ((0 :: cuts) @ [ len ]) in
              let rec pieces = function
                | a :: (b :: _ as rest) -> (a, b - a) :: pieces rest
                | _ -> []
              in
              let dst =
                List.map
                  (fun (start, n) ->
                    let buf = Bytes.make (n + 7) '#' in
                    (start, { Disk.buf; off = 3; len = n }))
                  (pieces bounds)
              in
              ignore (Disk.read_into d ~sector (List.map snd dst) : int);
              List.iter
                (fun (start, (s : Disk.slice)) ->
                  let want = Bytes.sub model ((sector * 512) + start) s.len in
                  if Bytes.sub s.buf s.off s.len <> want then
                    QCheck.Test.fail_reportf "read %d+%d: slice at %d differs"
                      sector count start;
                  if
                    Bytes.sub s.buf 0 3 <> Bytes.make 3 '#'
                    || Bytes.sub s.buf (s.off + s.len) 4 <> Bytes.make 4 '#'
                  then
                    QCheck.Test.fail_reportf
                      "read %d+%d: wrote outside a slice" sector count)
                dst
          | Torn_countdown { sector; count; allow } ->
              torn "countdown" ~sector ~count ~persisted:(min allow count)
                (fun () -> Disk.set_crash_after d ~sectors:allow)
          | Torn_hook { sector; count; persisted } ->
              torn "hook" ~sector ~count ~persisted (fun () ->
                  Disk.set_fault_hook d
                    (Some
                       {
                         Disk.on_read = (fun ~sector:_ ~count:_ -> ());
                         on_write = (fun ~sector:_ ~count:_ -> Some persisted);
                       }))
          | Snapshot_restore ->
              let snap = Disk.snapshot d in
              if snap <> model then
                QCheck.Test.fail_reportf "snapshot differs from the model";
              (* Scribble, then restore: the image wins, and only its
                 non-zero chunks stay resident. *)
              ignore (Disk.write d ~sector:0 (Bytes.make 512 'x') : int);
              Disk.restore d snap;
              Array.iteri
                (fun i _ ->
                  let n = chunk_len i in
                  resident.(i) <-
                    Bytes.sub model (i * Disk.chunk_bytes) n
                    <> Bytes.make n '\000')
                resident);
          check_resident (pp_op op))
        ops;
      Disk.snapshot d = model)

(* A chunk first reached by a write that covers it whole skips the zero
   fill; one first reached by a partial write must still read zeros
   around what was written, whether the write starts inside the chunk
   or runs into it from the chunk before. *)
let test_first_write_zeros () =
  let d = Disk.create (geo ()) in
  let cs = Disk.chunk_bytes / 512 in
  let read ~sector ~len =
    let buf = Bytes.create len in
    ignore (Disk.read_into d ~sector [ { Disk.buf; off = 0; len } ] : int);
    buf
  in
  let zeros n = Bytes.make n '\000' in
  ignore (Disk.write d ~sector:((2 * cs) + 3) (Bytes.make 512 'x') : int);
  Alcotest.(check bytes) "zeros around a write inside a fresh chunk"
    (Bytes.concat Bytes.empty
       [ zeros 1536; Bytes.make 512 'x'; zeros (Disk.chunk_bytes - 2048) ])
    (read ~sector:(2 * cs) ~len:Disk.chunk_bytes);
  ignore (Disk.write d ~sector:((5 * cs) - 1) (Bytes.make 1024 'y') : int);
  Alcotest.(check bytes) "zeros after a write running into a fresh chunk"
    (Bytes.concat Bytes.empty
       [ Bytes.make 512 'y'; zeros (Disk.chunk_bytes - 512) ])
    (read ~sector:(5 * cs) ~len:Disk.chunk_bytes);
  let whole =
    Bytes.init Disk.chunk_bytes (fun i -> Char.chr (1 + (i mod 251)))
  in
  ignore (Disk.write d ~sector:(7 * cs) whole : int);
  Alcotest.(check bytes) "a whole-chunk write reads back" whole
    (read ~sector:(7 * cs) ~len:Disk.chunk_bytes);
  Alcotest.(check int) "four chunks resident" (4 * Disk.chunk_bytes)
    (Disk.resident_bytes d)

(* Unwritten ranges cost nothing: a formatted LFS on a 300 MB disk
   touches a few segments' worth of chunks, one sector touches one
   chunk, and an all-zero image restores to an empty table. *)
let test_resident_media () =
  let io = Common.make_io ~size_bytes:(300 * 1024 * 1024) () in
  (match Lfs_core.Fs.format io Lfs_core.Config.default with
  | Ok () -> ()
  | Error e -> Alcotest.failf "format: %s" e);
  let formatted = Disk.resident_bytes (Io.member_disk io 0) in
  if formatted >= 8 * 1024 * 1024 then
    Alcotest.failf "format materialised %d bytes of a 300 MB disk" formatted;
  let d = Disk.create (geo ()) in
  Alcotest.(check int) "fresh disk holds nothing" 0 (Disk.resident_bytes d);
  let sector = 3 * Disk.chunk_bytes / 512 in
  ignore (Disk.write d ~sector (Bytes.make 512 'x'));
  Alcotest.(check int) "one sector, one chunk" Disk.chunk_bytes
    (Disk.resident_bytes d);
  Disk.restore d (Bytes.make (Geometry.size_bytes (geo ())) '\000');
  Alcotest.(check int) "all-zero image restores to nothing" 0
    (Disk.resident_bytes d);
  Alcotest.(check bytes) "and reads as zeros" (Bytes.make 512 '\000')
    (read d ~sector ~count:1)

let make_io () =
  let d = Disk.create (geo ()) in
  let clock = Clock.create () in
  (Io.create ~max_backlog_us:100_000 d clock Cpu_model.free, d, clock)

let test_io_sync_advances_clock () =
  let io, _, clock = make_io () in
  Io.sync_write io ~sector:0 (Bytes.make 4096 'x');
  let t1 = Clock.now_us clock in
  Alcotest.(check bool) "sync waits" true (t1 > 0);
  ignore (Io.sync_read io ~sector:0 ~count:8);
  Alcotest.(check bool) "read waits" true (Clock.now_us clock > t1)

(* [~len] reads a prefix of the buffers, across buffer edges, at the
   cost of a read of just that many sectors. *)
let test_io_read_into_len () =
  let data = Common.pattern ~seed:5 4096 in
  let setup () =
    let io, _, clock = make_io () in
    Io.sync_write io ~sector:0 data;
    (io, clock, Clock.now_us clock)
  in
  let io, clock, t0 = setup () in
  let bufs = [| Bytes.make 1024 '.'; Bytes.make 1024 '.' |] in
  Io.sync_read_into io ~len:1536 ~sector:0 bufs;
  let read_us = Clock.now_us clock - t0 in
  Alcotest.(check string) "first buffer" (Bytes.sub_string data 0 1024)
    (Bytes.to_string bufs.(0));
  Alcotest.(check string) "second buffer: one sector, then untouched"
    (Bytes.sub_string data 1024 512 ^ String.make 512 '.')
    (Bytes.to_string bufs.(1));
  let io', clock', t0' = setup () in
  ignore (Io.sync_read io' ~sector:0 ~count:3);
  Alcotest.(check int) "costs a 3-sector read" (Clock.now_us clock' - t0')
    read_us;
  List.iter
    (fun len ->
      match Io.sync_read_into io ~len ~sector:0 bufs with
      | () -> Alcotest.failf "len %d accepted" len
      | exception Invalid_argument _ -> ())
    [ 0; 100; 2560 ]

let test_io_async_overlaps () =
  let io, _, clock = make_io () in
  Io.async_write io ~sector:0 (Bytes.make 4096 'x');
  Alcotest.(check int) "no wait" 0 (Clock.now_us clock);
  Alcotest.(check bool) "queued" true (Io.backlog_us io > 0);
  Io.drain io;
  Alcotest.(check int) "drained" 0 (Io.backlog_us io);
  Alcotest.(check bool) "time passed" true (Clock.now_us clock > 0)

let test_io_throttling () =
  let io, _, clock = make_io () in
  (* Queue far more than the 100 ms backlog allowance: the caller must
     eventually be throttled. *)
  for i = 0 to 63 do
    Io.async_write io ~sector:(i * 8) (Bytes.make 4096 'x')
  done;
  Alcotest.(check bool) "throttled" true (Clock.now_us clock > 0);
  Alcotest.(check bool) "backlog capped" true (Io.backlog_us io <= 100_000)

(* Every request reaches the trace bus as a [Disk_request], in issue
   order; a detached sink records nothing more. *)
let test_io_request_log () =
  let io, _, _ = make_io () in
  let reqs =
    Common.requests_during io (fun () ->
        Io.sync_write io ~sector:0 (Bytes.make 512 'x');
        Io.async_write io ~sector:8 (Bytes.make 512 'x');
        ignore (Io.sync_read io ~sector:0 ~count:1))
  in
  Alcotest.(check int) "three requests" 3 (List.length reqs);
  (match reqs with
  | [ w1; w2; r ] ->
      Alcotest.(check bool) "w1 sync" true w1.Common.sync;
      Alcotest.(check bool) "w2 async" false w2.Common.sync;
      Alcotest.(check (list int)) "sectors" [ 0; 8; 0 ]
        (List.map (fun r -> r.Common.sector) reqs);
      Alcotest.(check bool) "r is read" true (r.Common.kind = Lfs_obs.Event.Read)
  | _ -> Alcotest.fail "unexpected log shape");
  Alcotest.(check int) "nothing recorded outside the window" 0
    (List.length (Common.requests_during io ignore))

let test_cpu_model () =
  let m = Cpu_model.sun4_260 in
  Alcotest.(check int) "copy 1KB" m.Cpu_model.per_kb_us
    (Cpu_model.copy_us m ~bytes:1024);
  Alcotest.(check bool) "copy rounds up" true
    (Cpu_model.copy_us m ~bytes:1 > 0);
  let fast = Cpu_model.scale m 0.1 in
  Alcotest.(check bool) "scaled" true
    (fast.Cpu_model.syscall_us * 9 < m.Cpu_model.syscall_us)

let test_clock () =
  let c = Clock.create () in
  Clock.advance_us c 500;
  Clock.advance_to_us c 300 (* no-op backwards *);
  Alcotest.(check int) "monotone" 500 (Clock.now_us c);
  Clock.advance_to_us c 800;
  Alcotest.(check int) "forward" 800 (Clock.now_us c);
  Alcotest.(check bool) "negative rejected" true
    (try
       Clock.advance_us c (-1);
       false
     with Invalid_argument _ -> true)

(* A bare disk is a one-member volume, and every request takes the
   volume path: a mirror write goes whole to each member without a run
   list, and a mirror read ranks replicas by an integer scan, so the one
   member of a bare disk costs no more than a dedicated single-disk path
   did.  Minor words per one-block request on a warm medium (OCaml 5.1,
   no flambda): the single-disk path measured 23 per write and 69 per
   read; a read with no closures in its length check and retry loop and
   its slices built in order measures 26.  A per-request run list or
   replica list would show here. *)
let test_io_request_allocation () =
  let io, _, _ = make_io () in
  let blk = Bytes.make 4096 'a' in
  let bufs = [| Bytes.create 4096 |] in
  let words () = Gc.minor_words () in
  let empty = let a = words () in words () -. a in
  let per_request name bound f =
    for i = 0 to 15 do f i done;
    let before = words () in
    for i = 0 to 999 do f i done;
    let per = (words () -. before -. empty) /. 1000. in
    if per > bound then
      Alcotest.failf "%s allocates %.2f words per request (bound %.0f)" name
        per bound
  in
  let sector i = 8 * (i mod 16) in
  per_request "sync_write" 23. (fun i -> Io.sync_write io ~sector:(sector i) blk);
  per_request "async_write" 23. (fun i ->
      Io.async_write io ~sector:(sector i) blk);
  per_request "sync_read_into" 26. (fun i ->
      Io.sync_read_into io ~sector:(sector i) bufs)

let suite =
  [
    Alcotest.test_case "geometry derivations" `Quick test_geometry_derivations;
    Alcotest.test_case "sequential vs random" `Quick test_sequential_vs_random;
    Alcotest.test_case "streamed classification" `Quick
      test_streamed_classification;
    Alcotest.test_case "missed rotation on idle continuation" `Quick
      test_missed_rotation;
    Alcotest.test_case "data roundtrip" `Quick test_disk_data_roundtrip;
    Alcotest.test_case "bounds checks" `Quick test_disk_bounds;
    Alcotest.test_case "crash injection (torn write)" `Quick test_crash_injection;
    Alcotest.test_case "crash keeps device down" `Quick test_crash_while_down;
    Alcotest.test_case "snapshot/restore" `Quick test_snapshot_restore;
    Common.qcheck differential;
    Alcotest.test_case "media cost only what is written" `Quick
      test_resident_media;
    Alcotest.test_case "first partial write reads zeros around it" `Quick
      test_first_write_zeros;
    Alcotest.test_case "sync advances clock" `Quick test_io_sync_advances_clock;
    Alcotest.test_case "read-into len" `Quick test_io_read_into_len;
    Alcotest.test_case "async overlaps" `Quick test_io_async_overlaps;
    Alcotest.test_case "writer throttling" `Quick test_io_throttling;
    Alcotest.test_case "request log" `Quick test_io_request_log;
    Alcotest.test_case "one-block requests allocate as a bare disk" `Quick
      test_io_request_allocation;
    Alcotest.test_case "cpu model" `Quick test_cpu_model;
    Alcotest.test_case "clock" `Quick test_clock;
  ]
