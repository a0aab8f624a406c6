(* The fault-injection layer and the crash-point recovery harness,
   driven through the scenario DSL.

   The sweeps here are the CI-pinned version of `lfstool scenario
   --sweep`: every write boundary of a default-mix stream (creates,
   partial overwrites, appends, truncates, renames, links, deletes and
   syncs), on both systems, must remount to a state the crash oracle
   accepts.  The remaining cases cover the other fault kinds one by one:
   torn writes at the log tail, transient read errors absorbed by
   retry/backoff, retry-budget exhaustion surfacing as a typed error,
   and a sticky bad sector over a checkpoint region.  Scoped injection
   goes through Scenario.with_faults — the scenario-entry lint rule
   keeps the raw Crashpoint/Faulty entry points out of test code. *)

module Crashpoint = Lfs_workload.Crashpoint
module Scenario = Lfs_scenario.Scenario
module Faulty = Lfs_disk.Faulty
module Io = Lfs_disk.Io
module Bus = Lfs_obs.Bus
module Event = Lfs_obs.Event
module Metrics = Lfs_obs.Metrics

(* The default mix.  LFS writes a stream of 200 ops in 10-25 requests;
   FFS, with its synchronous namespace writes, writes 48 ops in 40-90.
   At seed 86 the FFS stream renames non-empty directories across
   directories: it fails if rename drops the old name before the new
   one is on disk, or if repair leaves a directory under both names. *)
let sweep_spec ?(at = 86) sys =
  Scenario.(
    make |> system sys
    |> count (match sys with `Lfs -> 200 | `Ffs -> 48)
    |> boundaries 256 |> seed at)

let fail_failure = function
  | None -> ()
  | Some f ->
      Alcotest.failf "%s\nreplay: %s" f.Scenario.message f.Scenario.replay

let check_sweep ?(torn = false) ?at sys =
  let spec = Scenario.crash_sweep (sweep_spec ?at sys) in
  let spec = if torn then Scenario.faults [ Scenario.Torn ] spec else spec in
  let r = Scenario.run spec in
  fail_failure r.Scenario.failure;
  let o =
    match r.Scenario.sweep with
    | Some o -> o
    | None -> Alcotest.fail "sweep scenario produced no sweep outcome"
  in
  if o.Crashpoint.total_writes = 0 then Alcotest.fail "workload never wrote";
  (* Under the cap, so the sweep was exhaustive: every boundary tested. *)
  Alcotest.(check int) "exhaustive" o.Crashpoint.total_writes
    o.Crashpoint.boundaries_tested;
  (* Each tested boundary must actually have cut the power. *)
  List.iter
    (fun (p : Crashpoint.point) ->
      if not p.Crashpoint.crashed then
        Alcotest.failf "boundary %d never crashed" p.Crashpoint.boundary)
    o.Crashpoint.points;
  if o.Crashpoint.faults < o.Crashpoint.boundaries_tested then
    Alcotest.failf "only %d faults over %d replays" o.Crashpoint.faults
      o.Crashpoint.boundaries_tested

let test_sweep_lfs () = check_sweep `Lfs
let test_sweep_ffs () = check_sweep `Ffs

(* Torn variant: the crashing write persists a seeded sector prefix.
   LFS-only — its log never overwrites live data, so durability must
   hold; FFS update-in-place can legitimately tear a directory block
   over durable entries (fsck's lost+found case). *)
let test_torn_sweep_lfs () = check_sweep ~torn:true `Lfs

(* At seed 12 a sync's flush spans segments, and a crash between them
   must not recover a directory rename half done: the inode blocks of
   one flush are applied all or none. *)
let test_split_flush_lfs () =
  check_sweep ~at:12 `Lfs;
  check_sweep ~torn:true ~at:12 `Lfs

let test_read_faults () =
  List.iter
    (fun sys ->
      let r =
        Scenario.(
          make |> system sys |> count 64
          |> faults [ Transient { rate = 0.15; burst = 2 } ]
          |> read_back |> seed 11 |> run)
      in
      fail_failure r.Scenario.failure;
      let s = r.Scenario.stats in
      if s.Scenario.read_errors = 0 then Alcotest.fail "no faults injected";
      (* Every injected fault costs one retry, and every retry backs
         off. *)
      if s.Scenario.retries < s.Scenario.read_errors then
        Alcotest.failf "%d retries for %d injected faults" s.Scenario.retries
          s.Scenario.read_errors;
      if s.Scenario.backoff_us <= 0 then Alcotest.fail "no backoff recorded")
    [ `Lfs; `Ffs ]

let test_retry_exhaustion () =
  let io = Common.make_io () in
  let (), inj =
    Scenario.with_faults ~seed:5 io
      [ Scenario.Bad_sectors [ 7 ] ]
      (fun () ->
        (* A neighbouring read is unaffected by the sticky sector. *)
        ignore (Io.sync_read io ~sector:8 ~count:1);
        match Io.sync_read io ~sector:7 ~count:1 with
        | _ -> Alcotest.fail "read of a bad sector succeeded"
        | exception Io.Read_failed { sector; attempts } ->
            Alcotest.(check int) "failed sector" 7 sector;
            Alcotest.(check int) "budget spent" 4 attempts)
  in
  Alcotest.(check int) "faults while attached" 4 inj.Scenario.inj_faults;
  let snap = Metrics.snapshot (Io.metrics io) in
  let v name = Option.value ~default:0 (Metrics.counter_value snap name) in
  (* 3 retries after the first attempt, exponential backoff 1+2+4 ms. *)
  Alcotest.(check int) "io.retries" 3 (v "io.retries");
  Alcotest.(check int) "io.backoff_us" 7000 (v "io.backoff_us");
  Alcotest.(check int) "sticky faults" 4 (v "disk.faults.bad_sector_reads")

let test_transient_within_budget () =
  let io = Common.make_io () in
  let (), inj =
    Scenario.with_faults ~seed:6 io
      [ Scenario.Transient { rate = 1.0; burst = 2 } ]
      (fun () ->
        (* Every fresh request fails twice, then the third attempt goes
           through — inside the default budget of 4. *)
        ignore (Io.sync_read io ~sector:0 ~count:2))
  in
  Alcotest.(check int) "faults while attached" 2 inj.Scenario.inj_faults;
  let snap = Metrics.snapshot (Io.metrics io) in
  let v name = Option.value ~default:0 (Metrics.counter_value snap name) in
  Alcotest.(check int) "io.retries" 2 (v "io.retries");
  Alcotest.(check int) "io.backoff_us" 3000 (v "io.backoff_us");
  Alcotest.(check int) "transient faults" 2 (v "disk.faults.read_errors")

let test_bad_sector_checkpoint () =
  let r = Scenario.(make |> faults [ Checkpoint_bad_sector ] |> run) in
  fail_failure r.Scenario.failure;
  if r.Scenario.stats.Scenario.bad_sector_reads = 0 then
    Alcotest.fail "checkpoint region A was never read"

(* Regression for torn-tail tolerance in Recovery: tear the segment
   write at the log tail, then also make its summary region sticky-bad,
   so roll-forward hits both a corrupt and an unreadable summary.  The
   mount must succeed (truncating the log there) with all checkpointed
   data intact, instead of letting Io.Read_failed escape. *)
let test_torn_tail_summary () =
  let fs = Common.make_lfs () in
  let io = Lfs_core.Fs.io fs in
  Common.write_file fs "/a" (Common.pattern ~seed:1 4000);
  Lfs_core.Fs.sync fs;
  Common.write_file fs "/b" (Common.pattern ~seed:2 4000);
  let sink =
    Bus.attach
      ~filter:(function Event.Fault_injected _ -> true | _ -> false)
      (Io.bus io)
  in
  let (), crash_inj =
    Scenario.with_faults ~seed:3 io
      [ Scenario.Crash_after 0; Scenario.Torn ]
      (fun () ->
        try
          Lfs_core.Fs.sync fs;
          Alcotest.fail "sync survived the armed crash"
        with Faulty.Crash -> ())
  in
  Alcotest.(check bool) "machine went down" true crash_inj.Scenario.inj_crashed;
  let torn_sector =
    match
      List.filter_map
        (fun (r : Event.record) ->
          match r.Event.event with
          | Event.Fault_injected { sector; _ } -> Some sector
          | _ -> None)
        (Bus.records sink)
    with
    | s :: _ -> s
    | [] -> Alcotest.fail "no fault event on the bus"
  in
  (* The torn request began with the segment summary; leaving its first
     sector unreadable forces the Read_failed path through recovery. *)
  let (), _ =
    Scenario.with_faults ~seed:4 io
      [ Scenario.Bad_sectors [ torn_sector ] ]
      (fun () ->
        match Lfs_core.Fs.mount ~config:Common.small_config io with
        | Error e -> Alcotest.failf "remount after torn tail failed: %s" e
        | Ok fs2 ->
            Common.check_bytes "checkpointed file survives"
              (Common.pattern ~seed:1 4000)
              (Common.check_ok "read /a"
                 (Lfs_core.Fs.read fs2 "/a" ~off:0 ~len:4000));
            Alcotest.(check bool) "unsynced file legitimately at risk" true
              (match Lfs_core.Fs.read fs2 "/b" ~off:0 ~len:4000 with
              | Ok _ | Error _ -> true))
  in
  ()

let suite =
  [
    Alcotest.test_case "lfs: exhaustive crash-point sweep" `Quick test_sweep_lfs;
    Alcotest.test_case "ffs: exhaustive crash-point sweep" `Quick test_sweep_ffs;
    Alcotest.test_case "lfs: torn-write sweep" `Quick test_torn_sweep_lfs;
    Alcotest.test_case "lfs: a flush split across segments" `Quick
      test_split_flush_lfs;
    Alcotest.test_case "transient read errors are retried" `Quick
      test_read_faults;
    Alcotest.test_case "retry-budget exhaustion is typed" `Quick
      test_retry_exhaustion;
    Alcotest.test_case "transient burst within budget" `Quick
      test_transient_within_budget;
    Alcotest.test_case "bad sector over checkpoint region A" `Quick
      test_bad_sector_checkpoint;
    Alcotest.test_case "torn+unreadable log-tail summary" `Quick
      test_torn_tail_summary;
  ]
