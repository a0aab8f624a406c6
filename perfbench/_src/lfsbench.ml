(* lfsbench: run one workload for a host-time budget and print one JSON
   line of results.

     lfsbench.exe --workload smallfile --seed 1 --seconds 12 --trace 0

   A run is a sequence of rounds, each on a fresh stack.  Round inputs
   come from the workload's number of streams: sub-seeds derived from
   [--seed] and used in turn, so one run covers several independent op
   streams of the same shape and the seed-to-seed spread of the
   simulated results shrinks.  Rounds continue until the measured
   windows add up to [--seconds], and at least until every stream has
   run once untraced.

   - Host-time metrics are medians over rounds.
   - Simulated metrics, allocation and GC counts pool the first untraced
     round of every stream, so they repeat exactly for one seed.
   - Every later round of a stream must reproduce its simulated results.

   [--trace 0] reports the end-to-end metrics.  [--trace 1] alternates
   untraced and traced rounds (each stream once of each) and reports the
   per-layer metrics: traced rounds attach [Lfs_obs.Profile] and a span
   subscriber to the stack's bus; the untraced ones give the tracing
   overhead. *)

module J = Lfs_obs.Json
module W = Workloads

let usage () =
  prerr_endline
    "usage: lfsbench.exe --workload smallfile|overwrite|mixed|largefile --seed N \
     --seconds S --trace 0|1";
  exit 2

let parse_args () =
  let workload = ref "" and seed = ref None and seconds = ref 10.0 and trace = ref false in
  let rec go = function
    | "--workload" :: w :: rest -> workload := w; go rest
    | "--seed" :: s :: rest ->
        (match int_of_string_opt s with Some n -> seed := Some n | None -> usage ());
        go rest
    | "--seconds" :: s :: rest ->
        (match float_of_string_opt s with Some f when f > 0.0 -> seconds := f | _ -> usage ());
        go rest
    | "--trace" :: ("0" | "1" as t) :: rest -> trace := t = "1"; go rest
    | [] -> ()
    | _ -> usage ()
  in
  go (List.tl (Array.to_list Sys.argv));
  match (List.assoc_opt !workload W.all, !seed) with
  | Some (streams, run), Some seed -> (!workload, streams, run, seed, !seconds, !trace)
  | _ -> usage ()

let stream_seed seed j = (seed * 16) + j

(* Stop starting rounds past this much wall time, whatever [--seconds]
   asks for, so a run always ends well inside three minutes. *)
let wall_cap_s = 120.0

type rd = { round : W.round; traced : bool; stream : int }

let run_rounds run ~streams ~seed ~seconds ~trace =
  let started = Probe.now_ns () in
  let min_rounds = if trace then 2 * streams else streams in
  let rec loop i measured acc =
    let enough = i >= min_rounds && measured >= seconds in
    if enough || (i > 0 && Probe.seconds_since started > wall_cap_s) then (List.rev acc, None)
    else begin
      let traced = trace && i mod 2 = 1 in
      let stream = (if trace then i / 2 else i) mod streams in
      (* Compaction hands the last round's media back, so every set-up
         builds its media in fresh memory rather than, depending on the
         seed, sometimes in recycled pages. *)
      Gc.compact ();
      match run ~seed:(stream_seed seed stream) ~traced with
      | round -> loop (i + 1) (measured +. round.W.win.Probe.host_s) ({ round; traced; stream } :: acc)
      | exception W.Setup_failed msg -> (List.rev acc, Some ("set-up failed: " ^ msg))
      | exception exn -> (List.rev acc, Some ("round raised " ^ Printexc.to_string exn))
    end
  in
  loop 0 0.0 []

(* ---- metric helpers ----------------------------------------------------- *)

let ratio a b = if b = 0.0 then 0.0 else a /. b
let fi = float_of_int
let mb_of_words w = fi w *. fi (Sys.word_size / 8) /. 1048576.0
let sum f l = List.fold_left (fun acc x -> acc +. f x) 0.0 l
let med f l = Probe.median_float (List.map f l)
let counter name (rd : W.round) = fi (Probe.counter rd.W.win.Probe.delta name)

let hist_mean name rounds =
  let s, n =
    List.fold_left
      (fun (s, n) (rd : W.round) ->
        let s', n' = Probe.hist_parts rd.W.win.Probe.delta name in
        (s + s', n + n'))
      (0, 0) rounds
  in
  ratio (fi s) (fi n)

let self names (rd : W.round) =
  match rd.W.win.Probe.spans_table with Some sp -> Probe.span_self_s sp names | None -> 0.0

(* The simulated outcome of a round: everything but host time must repeat. *)
let signature (rd : W.round) =
  ( rd.W.ops,
    rd.W.win.Probe.sim_us,
    rd.W.lat_p50_us,
    rd.W.lat_p99_us,
    rd.W.r.Probe.fingerprint,
    counter "disk.sectors_written" rd,
    counter "disk.sectors_read" rd,
    rd.W.space_amp )

(* [base]: the first untraced round of every stream, in stream order. *)
let end_to_end ~all ~untraced ~base =
  let sector = fi (List.hd base).W.sector_bytes in
  let ops = sum (fun rd -> fi rd.W.ops) base in
  [
    ("setup_s", med (fun rd -> rd.W.setup_s) all, "s");
    ("host_ops_per_s", med (fun rd -> fi rd.W.ops /. rd.W.win.Probe.host_s) untraced, "ops/s");
    ("alloc_words_per_op", ratio (sum (fun rd -> rd.W.win.Probe.alloc_words) base) ops, "words");
    ("peak_heap_mb", mb_of_words (List.nth base (List.length base - 1)).W.top_heap_words, "MB");
    ("sim_ops_per_s", ratio ops (sum (fun rd -> ratio (fi rd.W.ops) rd.W.sim_ops_per_s) base), "ops/sim_s");
    ("sim_op_p50_us", med (fun rd -> fi rd.W.lat_p50_us) base, "sim_us");
    ("sim_op_p99_us", med (fun rd -> fi rd.W.lat_p99_us) base, "sim_us");
    ( "write_amp",
      ratio (sum (counter "disk.sectors_written") base *. sector)
        (sum (fun rd -> fi rd.W.r.Probe.user_written) base),
      "ratio" );
    ( "read_amp",
      ratio (sum (counter "disk.sectors_read") base *. sector)
        (sum (fun rd -> fi rd.W.r.Probe.user_read) base),
      "ratio" );
    ("space_amp", med (fun rd -> rd.W.space_amp) base, "ratio");
  ]

let op_names = [ "create"; "write"; "read"; "delete"; "sync" ]

let op_rows traced =
  List.concat_map
    (fun op ->
      let stats = List.filter_map (fun rd -> Hashtbl.find_opt rd.W.r.Probe.per_call op) traced in
      let host = Probe.Vec.create 0.0 in
      List.iter (fun s -> Probe.Vec.append host s.Probe.host_us) stats;
      let sorted = Probe.Vec.sorted host in
      let pct q = Option.value ~default:0.0 (Probe.percentile sorted q) in
      let words = ratio (sum (fun s -> s.Probe.call_words) stats) (sum (fun s -> fi s.Probe.calls) stats) in
      let prof =
        List.filter_map
          (fun rd ->
            Option.bind rd.W.win.Probe.profile_report (fun (r : Lfs_obs.Profile.report) ->
                List.find_opt (fun (s : Lfs_obs.Profile.op_stat) -> s.op = op) r.ops))
          traced
      in
      let count = sum (fun (s : Lfs_obs.Profile.op_stat) -> fi s.count) prof in
      let per_op f = ratio (sum (fun s -> fi (f s)) prof) count in
      let med_of f = if prof = [] then 0.0 else med (fun s -> fi (f s)) prof in
      let key k = Printf.sprintf "op.%s.%s" op k in
      [
        (key "host_us_p50", pct 0.50, "us");
        (key "host_us_p99", pct 0.99, "us");
        (key "words", words, "words");
        (key "sim_us_p50", med_of (fun s -> s.Lfs_obs.Profile.p50_us), "sim_us");
        (key "sim_us_p99", med_of (fun s -> s.Lfs_obs.Profile.p99_us), "sim_us");
        (key "cache_us", per_op (fun s -> s.cache_us), "sim_us");
        (key "disk_us", per_op (fun s -> s.disk_us), "sim_us");
        (key "cleaner_us", per_op (fun s -> s.cleaner_us), "sim_us");
        (key "checkpoint_us", per_op (fun s -> s.checkpoint_us), "sim_us");
      ])
    op_names

let per_layer ~all ~untraced ~traced ~base ~attempted ~failed =
  let c name = sum (counter name) base in
  let requests = c "disk.reads" +. c "disk.writes" in
  let sector = fi (List.hd base).W.sector_bytes in
  let members = fi (List.hd base).W.members in
  let ops = sum (fun rd -> fi rd.W.ops) base in
  let recovery f = med (fun rd -> match rd.W.recovery with Some rc -> f rc | None -> 0.0) in
  let seg_bytes = fi Lfs_core.Config.default.Lfs_core.Config.segment_size in
  let window_s = med (fun rd -> rd.W.win.Probe.host_s) in
  op_rows traced
  @ [
      ("disk.reads", c "disk.reads", "count");
      ("disk.writes", c "disk.writes", "count");
      ("disk.seeks", c "disk.seeks", "count");
      ( "disk.kb_per_request",
        ratio ((c "disk.sectors_read" +. c "disk.sectors_written") *. sector /. 1024.0) requests,
        "KB" );
      ( "disk.busy_frac",
        ratio (c "disk.busy_us") (members *. sum (fun rd -> fi rd.W.win.Probe.sim_us) base),
        "fraction" );
      ("disk.positioning_us_mean", ratio (c "disk.positioning_us") requests, "sim_us");
      ("io.queue_depth_mean", hist_mean "io.queue.depth" base, "requests");
      ("io.queue_wait_us_mean", hist_mean "io.queue.wait_us" base, "sim_us");
      ("io.host_s", med (self [ "io_read"; "io_write"; "io_write_async"; "io_drain" ]) traced, "s");
      ("disk.media_build_s", med (fun rd -> rd.W.media_s) all, "s");
      ("cache.hit_ratio", ratio (c "cache.hits") (c "cache.hits" +. c "cache.misses"), "ratio");
      ("cache.misses", c "cache.misses", "count");
      ("cache.evictions", c "cache.evictions", "count");
      ("cache.writebacks", c "cache.writebacks", "count");
      ("readahead.issued", c "io.readahead.issued", "count");
      ("readahead.useful_ratio", ratio (c "io.readahead.hit") (c "io.readahead.issued"), "ratio");
      ("io.clustered_reads", c "io.clustered_reads", "count");
      ("cache.fill_host_s", med (self [ "lfs_read_fill"; "lfs_prefetch" ]) traced, "s");
      ("log.segments_written", c "lfs.segments_written", "count");
      ("log.partial_ratio", ratio (c "lfs.partial_segments") (c "lfs.segments_written"), "ratio");
      ("log.blocks_logged", c "lfs.blocks_logged", "count");
      ("log.flush_host_s", med (self [ "lfs_log_flush" ]) traced, "s");
      ("cleaner.passes", c "lfs.cleaner_passes", "count");
      ("cleaner.segments_cleaned", c "lfs.segments_cleaned", "count");
      ("cleaner.bytes_read", c "lfs.cleaner_bytes_read", "bytes");
      ("cleaner.bytes_moved", c "lfs.cleaner_bytes_moved", "bytes");
      ( "cleaner.yield",
        ratio ((c "lfs.segments_cleaned" *. seg_bytes) -. c "lfs.cleaner_bytes_moved") (c "lfs.cleaner_bytes_read"),
        "ratio" );
      ("cleaner.write_cost", med (fun rd -> rd.W.write_cost) base, "ratio");
      ("cleaner.host_s", med (self [ "cleaner_pass" ]) traced, "s");
      ("checkpoint.count", c "lfs.checkpoints", "count");
      ("checkpoint.host_s", med (self [ "checkpoint" ]) traced, "s");
      ("recovery.host_s", recovery (fun rc -> rc.W.rec_host_s) all, "s");
      ("recovery.sim_us", recovery (fun rc -> fi rc.W.rec_sim_us) base, "sim_us");
      ("recovery.segments_replayed", recovery (fun rc -> fi rc.W.replayed) base, "count");
      ("check.integrity_host_s", med (fun rd -> rd.W.integrity_s) all, "s");
      ("gc.minor_collections", sum (fun rd -> fi rd.W.win.Probe.minor_collections) base, "count");
      ("gc.major_collections", sum (fun rd -> fi rd.W.win.Probe.major_collections) base, "count");
      ("gc.promoted_words_per_op", ratio (sum (fun rd -> rd.W.win.Probe.promoted_words) base) ops, "words");
      ("gc.heap_after_setup_mb", med (fun rd -> mb_of_words rd.W.heap_after_setup_words) base, "MB");
      ("trace.overhead", (window_s traced /. window_s untraced) -. 1.0, "ratio");
      ("op_error_rate", ratio (fi failed) (fi attempted), "fraction");
    ]

(* ---- self-checks ---------------------------------------------------------- *)

(* Each workload must still load the layer it is there for, and leave
   alone the ones it is chosen to bypass. *)
let layer_checks workload base =
  let passes = sum (counter "lfs.cleaner_passes") base in
  let queue = hist_mean "io.queue.depth" base in
  let replayed =
    List.fold_left
      (fun acc rd -> min acc (match rd.W.recovery with Some rc -> rc.W.replayed | None -> 0))
      max_int base
  in
  List.filter_map
    (fun (ok, msg) -> if ok then None else Some msg)
    [
      ( passes > 0.0 = (workload = "overwrite"),
        Printf.sprintf "cleaner.passes = %.0f: the cleaner must run on overwrite only" passes );
      ( workload <> "largefile" || sum (counter "io.readahead.issued") base > 0.0,
        "readahead.issued = 0 on largefile" );
      ( queue > 1.0 = (workload = "mixed"),
        Printf.sprintf "io.queue_depth_mean = %.2f: above 1 on mixed only" queue );
      (workload <> "smallfile" || replayed > 0, "recovery.segments_replayed = 0 on smallfile");
    ]

let problems workload rounds ~streams ~base error =
  Option.to_list error
  @ (if List.length base < streams then
       [ Printf.sprintf "only %d of %d streams completed" (List.length base) streams ]
     else [])
  @ layer_checks workload (List.map (fun b -> b.round) base)
  @ List.concat
      (List.mapi
         (fun i r ->
           let first = List.find (fun b -> b.stream = r.stream) rounds in
           (if signature r.round <> signature first.round then
              [ Printf.sprintf "round %d (%s) did not reproduce stream %d's simulated results" i
                  (if r.traced then "traced" else "untraced") r.stream ]
            else [])
           @ List.map (Printf.sprintf "round %d integrity: %s" i) r.round.W.integrity)
         rounds)

(* ---- output --------------------------------------------------------------- *)

let metrics_json rows =
  J.Obj (List.map (fun (k, v, unit) -> (k, J.Obj [ ("value", J.Float v); ("unit", J.String unit) ])) rows)

let spans_json (rd : W.round) =
  match rd.W.win.Probe.spans_table with
  | None -> []
  | Some sp ->
      Hashtbl.fold
        (fun name (s : Probe.span_stat) acc ->
          ( name,
            J.Obj
              [
                ("count", J.Int s.Probe.n);
                ("self_s", J.Float (Int64.to_float s.Probe.self_ns *. 1e-9));
                ("self_words", J.Float s.Probe.self_words);
              ] )
          :: acc)
        sp.Probe.table []
      |> List.sort compare

let () =
  let workload, streams, run, seed, seconds, trace = parse_args () in
  let rounds, error = run_rounds run ~streams ~seed ~seconds ~trace in
  let all = List.map (fun r -> r.round) rounds in
  let untraced = List.filter_map (fun r -> if r.traced then None else Some r.round) rounds in
  let traced = List.filter_map (fun r -> if r.traced then Some r.round else None) rounds in
  let base =
    List.filter_map
      (fun j -> List.find_opt (fun r -> (not r.traced) && r.stream = j) rounds)
      (List.init streams Fun.id)
  in
  if base = [] || (trace && traced = []) then begin
    prerr_endline ("lfsbench: no complete round: " ^ Option.value ~default:"?" error);
    exit 1
  end;
  let attempted = List.fold_left (fun acc rd -> acc + rd.W.ops) 0 all in
  let failed = List.fold_left (fun acc rd -> acc + rd.W.r.Probe.failed) 0 all in
  let problems = problems workload rounds ~streams ~base error in
  let base = List.map (fun b -> b.round) base in
  let e2e = end_to_end ~all ~untraced ~base in
  let metrics =
    if trace then per_layer ~all ~untraced ~traced ~base ~attempted ~failed else e2e
  in
  let sum_int f = List.fold_left (fun acc rd -> acc + f rd) 0 base in
  let shape =
    List.map (fun (k, _) -> (k, J.Int (sum_int (fun rd -> List.assoc k rd.W.shape)))) (List.hd base).W.shape
  in
  let out =
    J.Obj
      [
        ("workload", J.String workload);
        ("seed", J.Int seed);
        ("trace", J.Bool trace);
        ("correct", J.Bool (problems = [] && failed = 0));
        ("attempted", J.Int attempted);
        ("failed", J.Int failed);
        ("problems", J.List (List.map (fun s -> J.String s) problems));
        ( "failures",
          J.List (List.concat_map (fun rd -> List.rev_map (fun s -> J.String s) rd.W.r.Probe.failures) all) );
        ("metrics", metrics_json metrics);
        ( "detail",
          J.Obj
            [
              ("rounds", J.Int (List.length rounds));
              ("traced_rounds", J.Int (List.length traced));
              ("streams", J.Int (List.length base));
              ("latency_samples", J.Int (sum_int (fun rd -> rd.W.lat_n)));
              ( "latency_tail_sim_us",
                J.Obj (List.map (fun (k, v) -> (k, J.Int v)) (List.hd base).W.lat_tail_us) );
              ("fingerprint", J.Int (Hashtbl.hash (List.map (fun rd -> rd.W.r.Probe.fingerprint) base)));
              ("shape", J.Obj shape);
              ( "gc",
                J.Obj
                  [
                    ("minor_collections", J.Int (sum_int (fun rd -> rd.W.win.Probe.minor_collections)));
                    ("major_collections", J.Int (sum_int (fun rd -> rd.W.win.Probe.major_collections)));
                    ("promoted_words", J.Float (sum (fun rd -> rd.W.win.Probe.promoted_words) base));
                  ] );
              ( "per_stream",
                J.List
                  (List.map
                     (fun rd ->
                       let e = end_to_end ~all:[ rd ] ~untraced:[ rd ] ~base:[ rd ] in
                       J.Obj
                         (List.filter_map
                            (fun (k, v, _) ->
                              if List.mem k [ "sim_op_p99_us"; "write_amp"; "read_amp"; "space_amp" ]
                              then Some (k, J.Float v)
                              else None)
                            e))
                     base) );
              ("window_host_s", J.List (List.map (fun rd -> J.Float rd.W.win.Probe.host_s) all));
              ("setup_host_s", J.List (List.map (fun rd -> J.Float rd.W.setup_s) all));
              ("media_host_s", J.List (List.map (fun rd -> J.Float rd.W.media_s) all));
              ("end_to_end", metrics_json e2e);
              ("spans", J.Obj (match traced with rd :: _ -> spans_json rd | [] -> []));
            ] );
      ]
  in
  print_endline (J.to_string out)
