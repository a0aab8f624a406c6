(* The concurrent multi-client engine: determinism (same seed and
   client count reproduce the event sequence, the metrics and the final
   image, on both systems), accounting invariants, and the interaction
   with the disk request scheduler. *)

module Engine = Lfs_workload.Engine
module Setup = Lfs_workload.Setup
module Driver = Lfs_workload.Driver
module Io = Lfs_disk.Io
module Sched = Lfs_disk.Sched
module Bus = Lfs_obs.Bus
module Event = Lfs_obs.Event
module Fs_intf = Lfs_vfs.Fs_intf

let small =
  {
    Engine.default with
    Engine.clients = 4;
    ops_per_client = 40;
    working_set = 60;
    dirs = 4;
  }

(* Run the engine on a fresh instance, capturing the Client_op event
   stream and the final media image alongside the result. *)
let run_traced ?(config = small) make =
  let inst = make () in
  let io = Fs_intf.instance_io inst in
  let events = ref [] in
  let sub =
    Bus.subscribe (Io.bus io) (fun r ->
        match r.Event.event with
        | Event.Client_op { client; op; latency_us } ->
            events := (r.Event.at_us, client, op, latency_us) :: !events
        | _ -> ())
  in
  let result = Engine.run ~config inst in
  Bus.unsubscribe (Io.bus io) sub;
  (result, List.rev !events, Io.snapshot_media io)

let check_determinism name make =
  let r1, ev1, media1 = run_traced make in
  let r2, ev2, media2 = run_traced make in
  Alcotest.(check bool) (name ^ ": same result") true (r1 = r2);
  Alcotest.(check int)
    (name ^ ": same event count")
    (List.length ev1) (List.length ev2);
  Alcotest.(check bool) (name ^ ": same event sequence") true (ev1 = ev2);
  Alcotest.(check bytes) (name ^ ": same final image") media1 media2;
  Alcotest.(check bool)
    (name ^ ": events observed")
    true
    (List.length ev1 = small.Engine.clients * small.Engine.ops_per_client)

let test_determinism_lfs () =
  check_determinism "lfs" (fun () -> Setup.lfs ~disk_mb:24 ())

let test_determinism_ffs () =
  check_determinism "ffs" (fun () -> Setup.ffs ~disk_mb:24 ())

let test_seed_matters () =
  let r1, _, _ = run_traced (fun () -> Setup.lfs ~disk_mb:24 ()) in
  let r2, _, _ =
    run_traced
      ~config:{ small with Engine.seed = small.Engine.seed + 1 }
      (fun () -> Setup.lfs ~disk_mb:24 ())
  in
  Alcotest.(check bool) "different seed, different run" true (r1 <> r2)

let test_accounting () =
  let inst = Setup.ffs ~disk_mb:24 () in
  let r = Engine.run ~config:small inst in
  Alcotest.(check int) "total ops" (4 * 40) r.Engine.total_ops;
  Alcotest.(check int) "per-client ops sum to total" r.Engine.total_ops
    (List.fold_left (fun a c -> a + c.Engine.ops) 0 r.Engine.per_client);
  Alcotest.(check int) "one stat per client" 4
    (List.length r.Engine.per_client);
  Alcotest.(check bool) "p50 <= p99" true (r.Engine.p50_us <= r.Engine.p99_us);
  List.iter
    (fun c ->
      Alcotest.(check bool)
        (Printf.sprintf "client %d percentiles ordered" c.Engine.client)
        true
        (c.Engine.p50_us <= c.Engine.p99_us && c.Engine.p99_us <= c.Engine.max_us))
    r.Engine.per_client;
  Alcotest.(check bool) "time passed" true (r.Engine.elapsed_us > 0);
  Alcotest.(check bool) "throughput positive" true (r.Engine.ops_per_sec > 0.0);
  Alcotest.(check bool) "queue observed under load" true
    (r.Engine.mean_queue_depth > 0.0);
  Alcotest.(check bool) "fcfs label" true (r.Engine.discipline = "fcfs");
  (* The engine must leave the instance fsck-clean and with the
     scheduler uninstalled. *)
  Driver.sanitize inst;
  Alcotest.(check bool) "scheduler removed" true
    (Io.scheduler (Fs_intf.instance_io inst) = None)

let test_immediate_mode () =
  let inst = Setup.lfs ~disk_mb:24 () in
  let r =
    Engine.run
      ~config:{ small with Engine.discipline = None; ops_per_client = 20 }
      inst
  in
  Alcotest.(check bool) "immediate label" true (r.Engine.discipline = "immediate");
  Alcotest.(check bool) "no queue in immediate mode" true
    (r.Engine.mean_queue_depth = 0.0)

let test_config_validation () =
  let inst = Setup.lfs ~disk_mb:24 () in
  List.iter
    (fun config ->
      Alcotest.(check bool) "rejected" true
        (try
           ignore (Engine.run ~config inst);
           false
         with Driver.Benchmark_failure _ -> true))
    [
      { small with Engine.clients = 0 };
      { small with Engine.ops_per_client = 0 };
      { small with Engine.read_fraction = 0.9; overwrite_fraction = 0.3 };
      { small with Engine.think = Engine.Uniform (2_000, 1_000) };
      { small with Engine.max_queue = 0 };
    ]

(* The population against the one it replaced, kept as the model: a
   newest-first array that a create copied with [Array.append] and a
   delete with [Array.sub] twice plus [Array.append].  Picks clamp a
   rank as the Zipf pick does, and cold deletes draw as the engine does;
   the two must name the same path at every rank after every step. *)
type live_op =
  | Push
  | Pick of int
  | Delete_newest
  | Delete_oldest
  | Delete_cold of int

let pp_live_op = function
  | Push -> "push"
  | Pick k -> Printf.sprintf "pick %d" k
  | Delete_newest -> "delete newest"
  | Delete_oldest -> "delete oldest"
  | Delete_cold r -> Printf.sprintf "delete cold %d" r

let live_op_gen =
  QCheck.Gen.(
    frequency
      [
        (6, return Push);
        (2, map (fun k -> Pick k) (int_bound 200));
        (1, return Delete_newest);
        (1, return Delete_oldest);
        (2, map (fun r -> Delete_cold r) (int_bound 1000));
      ])

let model_remove_at live idx =
  let n = Array.length live in
  Array.append (Array.sub live 0 idx) (Array.sub live (idx + 1) (n - idx - 1))

let raises_invalid f =
  match f () with _ -> false | exception Invalid_argument _ -> true

let live_differential =
  QCheck.Test.make ~name:"live population matches the append-copy array"
    ~count:300
    (QCheck.make
       ~print:(fun ops -> String.concat "\n" (List.map pp_live_op ops))
       QCheck.Gen.(list_size (int_range 0 300) live_op_gen))
    (fun ops ->
      let live = Engine.Live.create () in
      let model = ref [||] in
      let next = ref 0 in
      List.iteri
        (fun step op ->
          let n = Array.length !model in
          let fail fmt =
            QCheck.Test.fail_reportf ("after op %d (%s): " ^^ fmt) step
              (pp_live_op op)
          in
          let delete idx =
            if Engine.Live.nth live idx <> !model.(idx) then
              fail "delete of rank %d names a different path" idx;
            Engine.Live.remove live idx;
            model := model_remove_at !model idx
          in
          (if n = 0 && op <> Push then begin
             if
               not
                 (raises_invalid (fun () -> Engine.Live.nth live 0)
                 && raises_invalid (fun () -> Engine.Live.remove live 0))
             then fail "empty population accepted rank 0"
           end
           else
             match op with
             | Push ->
                 let path = Printf.sprintf "/f%06d" !next in
                 incr next;
                 Engine.Live.push live path;
                 model := Array.append [| path |] !model
             | Pick k ->
                 let rank = min (n - 1) k in
                 if Engine.Live.nth live rank <> !model.(rank) then
                   fail "pick of rank %d differs" rank
             | Delete_newest -> delete 0
             | Delete_oldest -> delete (n - 1)
             | Delete_cold r -> delete (n - 1 - min (n - 1) (r mod max 1 (n / 2))));
          if Engine.Live.length live <> Array.length !model then
            fail "length %d, model %d" (Engine.Live.length live)
              (Array.length !model);
          Array.iteri
            (fun i path ->
              if Engine.Live.nth live i <> path then fail "rank %d differs" i)
            !model)
        ops;
      true)

let suite =
  [
    Alcotest.test_case "deterministic on lfs" `Quick test_determinism_lfs;
    Alcotest.test_case "deterministic on ffs" `Quick test_determinism_ffs;
    Alcotest.test_case "seed changes the run" `Quick test_seed_matters;
    Alcotest.test_case "accounting invariants" `Quick test_accounting;
    Alcotest.test_case "immediate mode" `Quick test_immediate_mode;
    Alcotest.test_case "config validation" `Quick test_config_validation;
    Common.qcheck live_differential;
  ]
