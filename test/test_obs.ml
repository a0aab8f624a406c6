(* The observability layer: metrics registry, trace bus, JSON codec. *)

module Bus = Lfs_obs.Bus
module Event = Lfs_obs.Event
module Json = Lfs_obs.Json
module Metrics = Lfs_obs.Metrics

let qcheck = Common.qcheck

(* ---------------- metrics ---------------- *)

let test_counter_basics () =
  let m = Metrics.create () in
  let c = Metrics.counter m "t.ops" in
  Metrics.incr c;
  Metrics.add c 41;
  Alcotest.(check int) "value" 42 (Metrics.value c);
  (* Get-or-create: the same name is the same cell. *)
  let c' = Metrics.counter m "t.ops" in
  Metrics.incr c';
  Alcotest.(check int) "shared cell" 43 (Metrics.value c);
  Metrics.reset_counter c;
  Alcotest.(check int) "reset" 0 (Metrics.value c)

let test_kind_conflict () =
  let m = Metrics.create () in
  ignore (Metrics.counter m "t.x");
  try
    ignore (Metrics.histogram m "t.x");
    Alcotest.fail "registering t.x as a histogram did not raise"
  with Invalid_argument _ -> ()

let test_reset_prefix () =
  let m = Metrics.create () in
  let a = Metrics.counter m "lfs.a" in
  let b = Metrics.counter m "disk.b" in
  Metrics.add a 5;
  Metrics.add b 7;
  Metrics.reset_prefix m "lfs.";
  Alcotest.(check int) "prefixed reset" 0 (Metrics.value a);
  Alcotest.(check int) "others kept" 7 (Metrics.value b)

(* Histogram bucketing: bucket k holds [2^(k-1), 2^k); zero and negative
   values land in the zero bucket. *)
let test_histogram_buckets () =
  let m = Metrics.create () in
  let h = Metrics.histogram m "t.h" in
  List.iter (Metrics.observe h) [ 0; -5; 1; 2; 3; 4; 1024; 1025; max_int ];
  let snap =
    match Metrics.find (Metrics.snapshot m) "t.h" with
    | Some (Metrics.Histogram hs) -> hs
    | _ -> Alcotest.fail "histogram snapshot missing"
  in
  Alcotest.(check int) "count" 9 snap.Metrics.count;
  Alcotest.(check int) "min" (-5) snap.Metrics.min_v;
  Alcotest.(check int) "max" max_int snap.Metrics.max_v;
  let bucket_count ub =
    match List.assoc_opt ub snap.Metrics.buckets with Some n -> n | None -> 0
  in
  Alcotest.(check int) "zero bucket" 2 (bucket_count 0);
  Alcotest.(check int) "bucket [1,1]" 1 (bucket_count 1);
  Alcotest.(check int) "bucket [2,3]" 2 (bucket_count 3);
  Alcotest.(check int) "bucket [4,7]" 1 (bucket_count 7);
  (* 1024 and 1025 both fall in [1024, 2047]. *)
  Alcotest.(check int) "bucket [1024,2047]" 2 (bucket_count 2047);
  (* Quantiles walk the cumulative counts. *)
  (match Metrics.quantile snap 0.5 with
  | Some q -> Alcotest.(check bool) "median plausible" true (q <= 7)
  | None -> Alcotest.fail "no median");
  match Metrics.quantile snap 1.0 with
  | Some q -> Alcotest.(check bool) "p100 in top bucket" true (q >= 1024)
  | None -> Alcotest.fail "no p100"

let prop_histogram_bucket_bounds =
  QCheck.Test.make ~name:"histogram buckets bound their samples" ~count:200
    QCheck.(list_of_size Gen.(int_range 1 50) (int_bound 1_000_000))
    (fun samples ->
      let m = Metrics.create () in
      let h = Metrics.histogram m "t.h" in
      List.iter (Metrics.observe h) samples;
      match Metrics.find (Metrics.snapshot m) "t.h" with
      | Some (Metrics.Histogram hs) ->
          hs.Metrics.count = List.length samples
          && hs.Metrics.sum = List.fold_left ( + ) 0 samples
          && List.for_all
               (fun (ub, n) ->
                 n > 0 && List.exists (fun s -> s <= ub) samples)
               hs.Metrics.buckets
      | _ -> false)

(* Interpolation inside the crossing bucket keeps quantization error
   small even though buckets are powers of two.  For uniform 1..1000 the
   exact p50 is 500; the bucket walk alone would answer 511 (the bucket
   upper bound), an off-by-2% artifact that interpolation removes. *)
let test_quantile_interpolation () =
  let h = Metrics.standalone_histogram () in
  for v = 1 to 1000 do
    Metrics.observe h v
  done;
  let snap = Metrics.snapshot_histogram h in
  let q p =
    match Metrics.quantile snap p with
    | Some v -> v
    | None -> Alcotest.failf "no quantile for %g" p
  in
  let p50 = q 0.5 in
  Alcotest.(check bool)
    (Printf.sprintf "p50 %d within 2%% of 500" p50)
    true
    (abs (p50 - 500) <= 10);
  let p99 = q 0.99 in
  (* The top bucket estimate clamps to the observed max. *)
  Alcotest.(check bool)
    (Printf.sprintf "p99 %d within 5%% of 990" p99)
    true
    (abs (p99 - 990) <= 50);
  Alcotest.(check bool) "quantiles monotone" true (p50 <= p99)

let test_diff_and_gauge () =
  let m = Metrics.create () in
  let c = Metrics.counter m "t.c" in
  let g = ref 1.0 in
  Metrics.gauge m "t.g" (fun () -> !g);
  Metrics.add c 10;
  let before = Metrics.snapshot m in
  Metrics.add c 32;
  g := 9.0;
  let after = Metrics.snapshot m in
  let d = Metrics.diff ~before ~after in
  Alcotest.(check (option int)) "counter delta" (Some 32)
    (Metrics.counter_value d "t.c");
  match Metrics.find d "t.g" with
  | Some (Metrics.Gauge v) -> Alcotest.(check (float 0.0)) "gauge is after" 9.0 v
  | _ -> Alcotest.fail "gauge missing from diff"

(* ---------------- bus ---------------- *)

let make_bus () =
  let now = ref 0 in
  (Bus.create ~now:(fun () -> !now) (), now)

let note name = Event.Note { name; fields = [] }

let test_bus_quiet_and_sink () =
  let bus, now = make_bus () in
  Alcotest.(check bool) "quiet" false (Bus.enabled bus);
  Bus.emit bus (note "lost");
  let sink = Bus.attach bus in
  Alcotest.(check bool) "enabled" true (Bus.enabled bus);
  now := 5;
  Bus.emit bus (note "kept");
  (match Bus.records sink with
  | [ { Event.at_us = 5; event = Event.Note { name = "kept"; _ } } ] -> ()
  | rs -> Alcotest.failf "unexpected records (%d)" (List.length rs));
  Bus.detach bus sink;
  Alcotest.(check bool) "quiet again" false (Bus.enabled bus)

let test_ring_sink () =
  let bus, _ = make_bus () in
  let sink = Bus.attach ~capacity:3 bus in
  for i = 1 to 10 do
    Bus.emit bus (note (string_of_int i))
  done;
  let names =
    List.map
      (function
        | { Event.event = Event.Note { name; _ }; _ } -> name | _ -> "?")
      (Bus.records sink)
  in
  Alcotest.(check (list string)) "newest three" [ "8"; "9"; "10" ] names;
  Alcotest.(check int) "dropped" 7 (Bus.dropped sink)

let test_sink_filter () =
  let bus, _ = make_bus () in
  let sink =
    Bus.attach ~filter:(function Event.Checkpoint _ -> true | _ -> false) bus
  in
  Bus.emit bus (note "no");
  Bus.emit bus (Event.Checkpoint { seq = 3; region = 0 });
  Alcotest.(check int) "only the checkpoint" 1 (List.length (Bus.records sink))

let test_subscriber () =
  let bus, _ = make_bus () in
  let seen = ref 0 in
  let sub = Bus.subscribe bus (fun _ -> incr seen) in
  Bus.emit bus (note "x");
  Bus.emit bus (note "y");
  Bus.unsubscribe bus sub;
  Bus.emit bus (note "z");
  Alcotest.(check int) "callback ran while subscribed" 2 !seen

let test_span_nesting () =
  let bus, now = make_bus () in
  let sink = Bus.attach bus in
  Bus.span_begin bus "outer";
  Alcotest.(check int) "depth 1" 1 (Bus.span_depth bus);
  now := 10;
  Bus.with_span bus "inner" (fun () ->
      Alcotest.(check int) "depth 2" 2 (Bus.span_depth bus);
      now := 25);
  Bus.span_end bus "outer";
  Alcotest.(check int) "depth 0" 0 (Bus.span_depth bus);
  let spans =
    List.filter_map
      (function
        | { Event.event = Event.Span_end { name; depth; elapsed_us }; _ } ->
            Some (name, depth, elapsed_us)
        | _ -> None)
      (Bus.records sink)
  in
  Alcotest.(check (list (triple string int int)))
    "span ends"
    [ ("inner", 1, 15); ("outer", 0, 25) ]
    spans

let test_span_mismatch () =
  let bus, _ = make_bus () in
  Bus.span_begin bus "a";
  (try
     Bus.span_end bus "b";
     Alcotest.fail "mismatched span_end did not raise"
   with Invalid_argument _ -> ());
  (* The stack is intact: closing the real innermost still works. *)
  Bus.span_end bus "a";
  Alcotest.(check int) "depth 0" 0 (Bus.span_depth bus)

(* An exception inside [with_span] unwinds every span opened since the
   wrapper's own begin — including bare [span_begin]s the body leaked —
   emitting their [Span_end]s innermost-first, then re-raises the
   original exception with the stack back at its pre-call depth. *)
let test_span_unwind () =
  let bus, now = make_bus () in
  let sink = Bus.attach bus in
  (match
     Bus.with_span bus "outer" (fun () ->
         Bus.span_begin bus "leak_a";
         Bus.span_begin bus "leak_b";
         now := 7;
         raise Exit)
   with
  | () -> Alcotest.fail "exception swallowed"
  | exception Exit -> ()
  | exception e -> Alcotest.failf "wrong exception: %s" (Printexc.to_string e));
  Alcotest.(check int) "depth restored" 0 (Bus.span_depth bus);
  let ends =
    List.filter_map
      (function
        | { Event.event = Event.Span_end { name; _ }; _ } -> Some name
        | _ -> None)
      (Bus.records sink)
  in
  Alcotest.(check (list string))
    "unwound innermost-first"
    [ "leak_b"; "leak_a"; "outer" ]
    ends

(* Span bookkeeping survives quiet periods: attach mid-run and depths are
   still right. *)
let test_span_quiet_bookkeeping () =
  let bus, _ = make_bus () in
  Bus.span_begin bus "quiet";
  let sink = Bus.attach bus in
  Bus.with_span bus "seen" (fun () -> ());
  (match
     List.filter_map
       (function
         | { Event.event = Event.Span_begin { name; depth }; _ } ->
             Some (name, depth)
         | _ -> None)
       (Bus.records sink)
   with
  | [ ("seen", 1) ] -> ()
  | _ -> Alcotest.fail "expected span 'seen' at depth 1");
  Bus.span_end bus "quiet"

(* ---------------- JSON / JSONL ---------------- *)

let test_json_roundtrip () =
  let doc =
    Json.Obj
      [
        ("s", Json.String "a \"quoted\" \\ line\nwith control \x01 bytes");
        ("i", Json.Int (-42));
        ("f", Json.Float 1.5);
        ("b", Json.Bool true);
        ("n", Json.Null);
        ("l", Json.List [ Json.Int 1; Json.List []; Json.Obj [] ]);
      ]
  in
  let reparsed = Json.of_string (Json.to_string doc) in
  Alcotest.(check bool) "compact roundtrip" true (reparsed = doc);
  let reparsed = Json.of_string (Json.to_string_pretty doc) in
  Alcotest.(check bool) "pretty roundtrip" true (reparsed = doc)

let sample_events =
  [
    Event.Disk_request
      {
        kind = Event.Write;
        sync = false;
        sector = 2048;
        sectors = 56;
        service_us = 44_797;
        sequential = true;
      };
    Event.Cache_miss { owner = -3; blkno = 17 };
    Event.Segment_write { seg = 5; seq = 22; blocks = 6; partial = true };
    Event.Cleaner_pass
      { victims = 2; freed = 2; bytes_read = 36_864; bytes_moved = 20_992 };
    Event.Checkpoint { seq = 24; region = 1 };
    Event.Rollforward { seg = 3; seq = 9; entries = 12 };
    Event.Ffs_sync_write { what = "inode"; sector = 96; sectors = 8 };
    Event.Note { name = "note"; fields = [ ("k", Json.String "v") ] };
  ]

(* Every event serializes to one parseable JSONL line carrying its tag
   and timestamp. *)
let test_jsonl_roundtrip () =
  let records =
    List.mapi (fun i event -> { Event.at_us = i * 100; event }) sample_events
  in
  let lines =
    String.split_on_char '\n' (String.trim (Event.to_jsonl records))
  in
  Alcotest.(check int) "one line per record" (List.length records)
    (List.length lines);
  List.iter2
    (fun line record ->
      let j = Json.of_string line in
      (match Json.member "at_us" j with
      | Some (Json.Int t) ->
          Alcotest.(check int) "timestamp" record.Event.at_us t
      | _ -> Alcotest.fail "missing at_us");
      match Json.member "event" j with
      | Some (Json.String tag) ->
          Alcotest.(check string) "tag" (Event.name record.Event.event) tag
      | _ -> Alcotest.fail "missing event tag")
    lines records

(* A ring sink that dropped events announces the truncation as a final
   machine-readable trailer line; a complete trace stays trailer-free. *)
let test_jsonl_dropped_trailer () =
  let records =
    List.mapi (fun i event -> { Event.at_us = i; event }) sample_events
  in
  let lines =
    String.split_on_char '\n' (String.trim (Event.to_jsonl ~dropped:3 records))
  in
  Alcotest.(check int) "records + trailer"
    (List.length records + 1)
    (List.length lines);
  let j = Json.of_string (List.nth lines (List.length lines - 1)) in
  (match Json.member "event" j with
  | Some (Json.String "trace_truncated") -> ()
  | _ -> Alcotest.fail "trailer tag");
  (match Json.member "dropped" j with
  | Some (Json.Int 3) -> ()
  | _ -> Alcotest.fail "dropped count");
  (match Json.member "kept" j with
  | Some (Json.Int n) when n = List.length records -> ()
  | _ -> Alcotest.fail "kept count");
  let plain =
    String.split_on_char '\n' (String.trim (Event.to_jsonl records))
  in
  Alcotest.(check int) "no trailer when complete" (List.length records)
    (List.length plain)

let test_csv_shape () =
  let records =
    List.mapi (fun i event -> { Event.at_us = i; event }) sample_events
  in
  let csv = Event.to_csv records in
  let lines = String.split_on_char '\n' (String.trim csv) in
  Alcotest.(check int) "header + one row each"
    (1 + List.length records)
    (List.length lines);
  Alcotest.(check string) "header" Event.csv_header (List.hd lines)

let test_metrics_json () =
  let m = Metrics.create () in
  Metrics.add (Metrics.counter m "t.c") 3;
  Metrics.observe (Metrics.histogram m "t.h") 100;
  let j = Metrics.to_json (Metrics.snapshot m) in
  (match Json.member "t.c" j with
  | Some (Json.Int 3) -> ()
  | _ -> Alcotest.fail "counter in JSON");
  match Json.path [ "t.h"; "count" ] j with
  | Some (Json.Int 1) -> ()
  | _ -> Alcotest.fail "histogram in JSON"

let suite =
  [
    Alcotest.test_case "counter basics" `Quick test_counter_basics;
    Alcotest.test_case "kind conflict" `Quick test_kind_conflict;
    Alcotest.test_case "reset by prefix" `Quick test_reset_prefix;
    Alcotest.test_case "histogram bucketing" `Quick test_histogram_buckets;
    Alcotest.test_case "quantile interpolation" `Quick
      test_quantile_interpolation;
    qcheck prop_histogram_bucket_bounds;
    Alcotest.test_case "diff and gauges" `Quick test_diff_and_gauge;
    Alcotest.test_case "quiet bus and sink" `Quick test_bus_quiet_and_sink;
    Alcotest.test_case "ring sink" `Quick test_ring_sink;
    Alcotest.test_case "sink filter" `Quick test_sink_filter;
    Alcotest.test_case "subscriber" `Quick test_subscriber;
    Alcotest.test_case "span nesting" `Quick test_span_nesting;
    Alcotest.test_case "span mismatch" `Quick test_span_mismatch;
    Alcotest.test_case "span exception unwinding" `Quick test_span_unwind;
    Alcotest.test_case "span quiet bookkeeping" `Quick
      test_span_quiet_bookkeeping;
    Alcotest.test_case "json roundtrip" `Quick test_json_roundtrip;
    Alcotest.test_case "jsonl roundtrip" `Quick test_jsonl_roundtrip;
    Alcotest.test_case "jsonl dropped trailer" `Quick
      test_jsonl_dropped_trailer;
    Alcotest.test_case "csv shape" `Quick test_csv_shape;
    Alcotest.test_case "metrics to_json" `Quick test_metrics_json;
  ]
