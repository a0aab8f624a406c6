(* The trace substrate: generation properties, serialization, replay. *)

module W = Lfs_workload
module Trace = Lfs_workload.Trace
module Model_fs = Lfs_workload.Model_fs
module Op = Lfs_workload.Op

let qcheck = Common.qcheck

let test_generation_well_formed () =
  let events = Trace.generate ~seed:1 ~config:{ Trace.default_gen with Trace.events = 2_000; target_live = 300 } () in
  (* Replay against the pure model: a well-formed trace never produces a
     failing operation. *)
  let model = Model_fs.create () in
  List.iteri
    (fun i ev ->
      let apply = Model_fs.apply model in
      let outcome =
        match ev with
        | Trace.Mkdir { path } -> apply (Op.Mkdir path)
        | Trace.Create { path; size } ->
            (match apply (Op.Create path) with
            | Model_fs.Done -> apply (Op.Write { path; off = 0; seed = 0; len = size })
            | other -> other)
        | Trace.Overwrite { path; size } ->
            apply (Op.Write { path; off = 0; seed = 0; len = size })
        | Trace.Read { path } -> apply (Op.Read { path; off = 0; len = 1 })
        | Trace.Delete { path } -> apply (Op.Delete path)
      in
      if outcome = Model_fs.Failed then
        Alcotest.failf "event %d (%s) fails on the model" i
          (Format.asprintf "%a" Trace.pp_event ev))
    events

let test_generation_mix () =
  let events =
    Trace.generate ~seed:7
      ~config:{ Trace.default_gen with Trace.events = 5_000; target_live = 500 }
      ()
  in
  let creates = ref 0 and reads = ref 0 and small = ref 0 in
  List.iter
    (fun ev ->
      match ev with
      | Trace.Create { size; _ } ->
          incr creates;
          if size <= 8192 then incr small
      | Trace.Read _ -> incr reads
      | Trace.Overwrite _ | Trace.Delete _ | Trace.Mkdir _ -> ())
    events;
  (* The office/engineering profile: mostly small files, plenty of
     reads. *)
  Alcotest.(check bool) "mostly small files" true
    (float_of_int !small > 0.7 *. float_of_int !creates);
  Alcotest.(check bool) "reads happen" true (!reads > 1000)

let prop_serialization_roundtrip =
  QCheck.Test.make ~name:"trace line roundtrip" ~count:100
    QCheck.(pair (int_bound 1000) (int_bound 100))
    (fun (seed, extra) ->
      let events =
        Trace.generate ~seed
          ~config:{ Trace.default_gen with Trace.events = 50 + extra; target_live = 20; dirs = 3 }
          ()
      in
      Trace.of_lines (Trace.to_lines events) = events)

let test_replay_both_systems () =
  let events =
    Trace.generate ~seed:3
      ~config:{ Trace.default_gen with Trace.events = 800; target_live = 150; dirs = 5 }
      ()
  in
  let results =
    List.map (fun inst -> Trace.replay inst events) (W.Setup.both ~disk_mb:32 ())
  in
  match results with
  | [ lfs; ffs ] ->
      Alcotest.(check int) "same events" lfs.Trace.events ffs.Trace.events;
      Alcotest.(check int) "same bytes written" lfs.Trace.bytes_written
        ffs.Trace.bytes_written;
      Alcotest.(check int) "same bytes read" lfs.Trace.bytes_read
        ffs.Trace.bytes_read;
      (* The headline: LFS is faster end to end on the mixed workload. *)
      Alcotest.(check bool) "LFS faster overall" true
        (lfs.Trace.ops_per_sec > ffs.Trace.ops_per_sec)
  | _ -> Alcotest.fail "expected two systems"

let suite =
  [
    Alcotest.test_case "generated traces are well-formed" `Quick
      test_generation_well_formed;
    Alcotest.test_case "workload mix" `Quick test_generation_mix;
    qcheck prop_serialization_roundtrip;
    Alcotest.test_case "replay on both systems" `Slow test_replay_both_systems;
  ]
