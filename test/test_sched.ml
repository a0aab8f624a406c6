(* The disk request scheduler: discipline selection policy (pure Sched),
   the queued-Io integration (reordering really changes serviced order,
   seeks and the sequential classification), write/read ordering safety,
   the backlog throttle boundary, and the queue's bus events. *)

module Clock = Lfs_disk.Clock
module Cpu_model = Lfs_disk.Cpu_model
module Disk = Lfs_disk.Disk
module Geometry = Lfs_disk.Geometry
module Io = Lfs_disk.Io
module Sched = Lfs_disk.Sched
module Bus = Lfs_obs.Bus
module Event = Lfs_obs.Event

let geo () = Geometry.wren_iv ~size_bytes:(8 * 1024 * 1024)

let enq q ~sector =
  ignore
    (Sched.enqueue q ~kind:`Write ~sync:false ~sector ~count:8 ~data:None
       ~arrival_us:0)

let sectors_selected q ~heads =
  List.map
    (fun head ->
      match Sched.select q ~head with
      | Some e -> e.Sched.sector
      | None -> Alcotest.fail "queue ran dry early")
    heads

(* --- pure policy ---------------------------------------------------- *)

(* The labels are the "discipline" values the concurrency figure writes
   and its --check-json invariants look up. *)
let test_discipline_names () =
  Alcotest.(check (list string))
    "labels" [ "fcfs"; "scan"; "cscan" ]
    (List.map Sched.discipline_name [ Sched.Fcfs; Sched.Scan; Sched.Cscan ])

let test_fcfs_order () =
  let q = Sched.create Sched.Fcfs in
  List.iter (fun sector -> enq q ~sector) [ 500; 100; 300 ];
  (* Head position is irrelevant: FCFS is issue order. *)
  Alcotest.(check (list int))
    "issue order" [ 500; 100; 300 ]
    (sectors_selected q ~heads:[ 200; 200; 200 ]);
  Alcotest.(check bool) "empty" true (Sched.is_empty q)

let test_scan_sweep_and_flip () =
  let q = Sched.create Sched.Scan in
  List.iter (fun sector -> enq q ~sector) [ 300; 100; 500 ];
  (* Starts sweeping upward from 200: 300, then 500; nothing above 508
     is left, so the elevator reverses and picks up 100 on the way
     down. *)
  Alcotest.(check (list int))
    "up then flip" [ 300; 500; 100 ]
    (sectors_selected q ~heads:[ 200; 308; 508 ])

let test_cscan_wrap () =
  let q = Sched.create Sched.Cscan in
  List.iter (fun sector -> enq q ~sector) [ 300; 100; 500 ];
  (* One-directional: 500 is the only request at or above 400; the sweep
     then wraps to the lowest pending sector and continues upward. *)
  Alcotest.(check (list int))
    "wrap to lowest" [ 500; 100; 300 ]
    (sectors_selected q ~heads:[ 400; 508; 108 ])

let test_overlap_preserves_order () =
  let q = Sched.create Sched.Cscan in
  enq q ~sector:100;
  (* A read inside the pending write's range: even though it is nearer
     the head, it must wait for the older write. *)
  ignore
    (Sched.enqueue q ~kind:`Read ~sync:true ~sector:104 ~count:2 ~data:None
       ~arrival_us:0);
  (match Sched.select q ~head:104 with
  | Some e ->
      Alcotest.(check int) "older write first" 100 e.Sched.sector;
      Alcotest.(check bool) "is the write" true (e.Sched.kind = `Write)
  | None -> Alcotest.fail "empty");
  match Sched.select q ~head:108 with
  | Some e -> Alcotest.(check int) "then the read" 104 e.Sched.sector
  | None -> Alcotest.fail "read vanished"

let test_enqueue_validation () =
  let q = Sched.create Sched.Fcfs in
  Alcotest.(check bool) "count <= 0 rejected" true
    (try
       ignore
         (Sched.enqueue q ~kind:`Read ~sync:true ~sector:0 ~count:0 ~data:None
            ~arrival_us:0);
       false
     with Invalid_argument _ -> true)

(* --- queued Io: reordering, accounting, safety ----------------------- *)

let make_io () =
  let d = Disk.create (geo ()) in
  let clock = Clock.create () in
  (Io.create ~max_backlog_us:10_000_000 d clock Cpu_model.free, d, clock)

let payload c = Bytes.make 4096 c

(* Satellite regression: under reordering, [sequential] and the seek
   count must describe the *serviced* order, not the issue order.  The
   same four writes — 8000, 4000, 4008, 8008 — stream once under FCFS
   (only 4008 continues 4000) but twice under C-SCAN, which services
   4000, 4008, 8000, 8008 and saves a seek. *)
let issue_four io =
  List.iter
    (fun (sector, c) -> Io.async_write io ~sector (payload c))
    [ (8000, 'a'); (4000, 'b'); (4008, 'c'); (8008, 'd') ];
  Io.drain io

let run_four discipline =
  let io, d, _ = make_io () in
  let reqs =
    Common.requests_during io (fun () ->
        Io.set_scheduler io discipline;
        issue_four io)
  in
  let order = List.map (fun r -> r.Common.sector) reqs in
  let seq = List.map (fun r -> r.Common.sequential) reqs in
  (order, seq, (Disk.stats d).Disk.seeks, io)

let test_reordering_sequential_flags () =
  let order_f, seq_f, seeks_f, _ = run_four (Some Sched.Fcfs) in
  Alcotest.(check (list int)) "fcfs services issue order"
    [ 8000; 4000; 4008; 8008 ] order_f;
  Alcotest.(check (list bool)) "fcfs streams only 4008"
    [ false; false; true; false ] seq_f;
  Alcotest.(check int) "fcfs pays three seeks" 3 seeks_f;
  let order_c, seq_c, seeks_c, io = run_four (Some Sched.Cscan) in
  Alcotest.(check (list int)) "cscan sweeps ascending"
    [ 4000; 4008; 8000; 8008 ] order_c;
  Alcotest.(check (list bool)) "cscan streams both continuations"
    [ false; true; false; true ] seq_c;
  Alcotest.(check int) "cscan saves a seek" 2 seeks_c;
  (* Reordering never changes what lands on the platter. *)
  List.iter
    (fun (sector, c) ->
      Alcotest.(check bytes)
        (Printf.sprintf "sector %d" sector)
        (payload c)
        (Io.sync_read io ~sector ~count:8))
    [ (8000, 'a'); (4000, 'b'); (4008, 'c'); (8008, 'd') ]

let test_read_your_writes_through_queue () =
  let io, _, _ = make_io () in
  Io.set_scheduler io (Some Sched.Cscan);
  Io.async_write io ~sector:16 (payload 'R');
  Alcotest.(check int) "write pending" 1 (Io.queue_depth io);
  let got = Io.sync_read io ~sector:16 ~count:8 in
  Alcotest.(check bytes) "read sees queued write" (payload 'R') got;
  Alcotest.(check int) "queue drained to the read" 0 (Io.queue_depth io)

let test_policy_change_dispatches_pending () =
  let io, _, _ = make_io () in
  Io.set_scheduler io (Some Sched.Fcfs);
  Io.async_write io ~sector:0 (payload 'x');
  Io.async_write io ~sector:64 (payload 'y');
  Io.set_scheduler io (Some Sched.Cscan);
  Alcotest.(check int) "pending work dispatched on policy change" 0
    (Io.queue_depth io);
  Alcotest.(check bool) "cscan installed" true
    (Io.scheduler io = Some Sched.Cscan);
  Io.set_scheduler io None;
  Alcotest.(check bool) "reverted to immediate" true (Io.scheduler io = None)

(* --- backlog throttle boundary --------------------------------------- *)

(* Replay the same three writes against a bare disk to learn their exact
   service times (the Io path starts request N at the device's busy
   horizon, i.e. back to back). *)
let service_times sectors =
  let d = Disk.create (geo ()) in
  let _, times =
    List.fold_left
      (fun (start, acc) sector ->
        let s = Disk.write ~start_us:start d ~sector (payload 'x') in
        (start + s, s :: acc))
      (0, []) sectors
  in
  List.rev times

let test_backlog_boundary () =
  let sectors = [ 1000; 5000; 9000 ] in
  match service_times sectors with
  | [ s1; s2; s3 ] ->
      let d = Disk.create (geo ()) in
      let clock = Clock.create () in
      let io = Io.create ~max_backlog_us:(s1 + s2) d clock Cpu_model.free in
      (* Exactly at the limit: the throttle is strict >, the caller does
         not wait. *)
      Io.async_write io ~sector:1000 (payload 'x');
      Io.async_write io ~sector:5000 (payload 'x');
      Alcotest.(check int) "at limit, no throttle" 0 (Clock.now_us clock);
      Alcotest.(check int) "backlog is s1+s2" (s1 + s2) (Io.backlog_us io);
      (* One over: the caller pays until the backlog fits again — the
         clock advances by exactly the overshoot, s3. *)
      Io.async_write io ~sector:9000 (payload 'x');
      Alcotest.(check int) "one over, caller pays s3" s3 (Clock.now_us clock);
      Alcotest.(check int) "backlog back at the cap" (s1 + s2)
        (Io.backlog_us io);
      (* Drain, then refill: the allowance is fully restored. *)
      Io.drain io;
      Alcotest.(check int) "drained to busy" (s1 + s2 + s3)
        (Clock.now_us clock);
      Alcotest.(check int) "no backlog" 0 (Io.backlog_us io);
      let t = Clock.now_us clock in
      Io.async_write io ~sector:1000 (payload 'x');
      Alcotest.(check int) "refill is free again" t (Clock.now_us clock)
  | _ -> Alcotest.fail "service time probe shape"

(* --- queue events on the bus ----------------------------------------- *)

let test_queue_bus_events () =
  let io, _, _ = make_io () in
  let sink =
    Bus.attach
      ~filter:(function Event.Disk_queue _ -> true | _ -> false)
      (Io.bus io)
  in
  Io.set_scheduler io (Some Sched.Fcfs);
  Io.async_write io ~sector:0 (payload 'x');
  Io.async_write io ~sector:64 (payload 'y');
  Io.drain io;
  let actions =
    List.filter_map
      (fun r ->
        match r.Event.event with
        | Event.Disk_queue { action; depth; wait_us; _ } ->
            Some (action, depth, wait_us)
        | _ -> None)
      (Bus.records sink)
  in
  (match actions with
  | [
   (`Enqueue, d1, _); (`Enqueue, d2, _); (`Dispatch, d3, w3); (`Dispatch, d4, w4);
  ] ->
      Alcotest.(check int) "first enqueue depth" 1 d1;
      Alcotest.(check int) "second enqueue depth" 2 d2;
      Alcotest.(check int) "first dispatch leaves one" 1 d3;
      Alcotest.(check int) "second dispatch empties" 0 d4;
      Alcotest.(check bool) "waits non-negative" true (w3 >= 0 && w4 >= 0)
  | l -> Alcotest.failf "unexpected queue event shape (%d events)" (List.length l));
  Bus.detach (Io.bus io) sink

let suite =
  [
    Alcotest.test_case "discipline names are stable labels" `Quick
      test_discipline_names;
    Alcotest.test_case "fcfs is issue order" `Quick test_fcfs_order;
    Alcotest.test_case "scan sweeps and reverses" `Quick test_scan_sweep_and_flip;
    Alcotest.test_case "cscan wraps to lowest" `Quick test_cscan_wrap;
    Alcotest.test_case "overlap preserves issue order" `Quick
      test_overlap_preserves_order;
    Alcotest.test_case "enqueue validation" `Quick test_enqueue_validation;
    Alcotest.test_case "reordering fixes sequential flags and seeks" `Quick
      test_reordering_sequential_flags;
    Alcotest.test_case "read-your-writes through the queue" `Quick
      test_read_your_writes_through_queue;
    Alcotest.test_case "policy change dispatches pending" `Quick
      test_policy_change_dispatches_pending;
    Alcotest.test_case "backlog throttle boundary" `Quick test_backlog_boundary;
    Alcotest.test_case "queue events on the bus" `Quick test_queue_bus_events;
  ]
