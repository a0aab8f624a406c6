(* The latency-attribution profiler and the benchdiff gate.

   Profile invariants are structural: exclusive times partition inclusive
   time, so the four attribution columns must sum exactly to each
   operation's total, histogram-backed percentiles must be ordered, and
   the aggregate span tree must be self-consistent (children's inclusive
   time accounts for exactly the parent's inclusive minus exclusive
   time).  Benchdiff must pass an identical pair and gate a synthetic
   regression. *)

module P = Lfs_obs.Profile
module B = Lfs_obs.Benchdiff
module Json = Lfs_obs.Json
module W = Lfs_workload

(* ---------------- profile ---------------- *)

let rec check_tree (t : P.tree) =
  Alcotest.(check bool)
    (Printf.sprintf "%s: exclusive time non-negative" t.P.t_name)
    true (t.P.t_excl_us >= 0);
  let child_incl =
    List.fold_left (fun acc c -> acc + c.P.t_incl_us) 0 t.P.t_children
  in
  Alcotest.(check int)
    (Printf.sprintf "%s: children partition inclusive time" t.P.t_name)
    (t.P.t_incl_us - t.P.t_excl_us)
    child_incl;
  List.iter check_tree t.P.t_children

let check_instance inst =
  let profile = P.attach (W.Driver.bus inst) in
  let (_ : W.Smallfile.result) =
    W.Smallfile.run ~nfiles:80 ~file_size:1024 inst
  in
  W.Driver.sanitize inst;
  let rep = P.report profile in
  P.detach profile;
  let label = W.Driver.label inst in
  Alcotest.(check bool)
    (label ^ ": ops recorded")
    true (rep.P.ops <> []);
  List.iter
    (fun (s : P.op_stat) ->
      let name = label ^ " " ^ s.P.op in
      Alcotest.(check bool) (name ^ ": counted") true (s.P.count > 0);
      (* The acceptance bar is 1%; the partition is in fact exact. *)
      Alcotest.(check int)
        (name ^ ": attribution sums to total")
        s.P.total_us
        (s.P.cache_us + s.P.disk_us + s.P.cleaner_us + s.P.checkpoint_us);
      Alcotest.(check bool)
        (name ^ ": percentiles ordered")
        true
        (s.P.p50_us <= s.P.p95_us && s.P.p95_us <= s.P.p99_us);
      Alcotest.(check bool)
        (name ^ ": p99 bounded by total")
        true
        (s.P.p99_us <= s.P.total_us);
      (* The op's histogram saw every completion: the tree root for this
         op carries the same count. *)
      match
        List.find_opt (fun t -> t.P.t_name = "op_" ^ s.P.op) rep.P.spans
      with
      | Some t ->
          Alcotest.(check int)
            (name ^ ": histogram count = op count")
            s.P.count t.P.t_count
      | None -> Alcotest.failf "%s: no span-tree root" name)
    rep.P.ops;
  List.iter check_tree rep.P.spans

let test_profile_invariants () =
  List.iter check_instance (W.Setup.both ~disk_mb:16 ())

(* Attaching mid-run must not corrupt the aggregate: span ends whose
   begins predate the attach are ignored. *)
let test_profile_mid_span_attach () =
  let bus = Lfs_obs.Bus.create ~now:(fun () -> 0) () in
  Lfs_obs.Bus.span_begin bus "orphan";
  let profile = P.attach bus in
  Lfs_obs.Bus.span_end bus "orphan";
  P.with_op bus `Stat (fun () -> ());
  let rep = P.report profile in
  P.detach profile;
  (match rep.P.ops with
  | [ s ] ->
      Alcotest.(check string) "only the post-attach op" "stat" s.P.op;
      Alcotest.(check int) "one completion" 1 s.P.count
  | ops -> Alcotest.failf "expected one op, got %d" (List.length ops));
  Alcotest.(check bool) "orphan span ignored" true
    (not (List.exists (fun t -> t.P.t_name = "orphan") rep.P.spans))

(* ---------------- benchdiff ---------------- *)

let bench_doc ~create_per_sec ~write_cost =
  Json.Obj
    [
      ("schema", Json.String "lfs-bench/1");
      ("quick", Json.Bool true);
      ( "figures",
        Json.Obj
          [
            ( "fig3",
              Json.List
                [
                  Json.Obj
                    [
                      ("label", Json.String "LFS");
                      ("create_per_sec", Json.Float create_per_sec);
                      ("write_cost", Json.Float write_cost);
                    ];
                ] );
          ] );
    ]

let test_benchdiff_identical () =
  let doc = bench_doc ~create_per_sec:400.0 ~write_cost:1.2 in
  let rep = B.compare ~base:doc ~cur:doc () in
  Alcotest.(check bool) "no gate" false (B.gates rep);
  Alcotest.(check int) "no regressions" 0 (List.length (B.regressions rep));
  Alcotest.(check int) "nothing missing" 0 (List.length rep.B.missing)

let test_benchdiff_gates_regression () =
  let base = bench_doc ~create_per_sec:400.0 ~write_cost:1.2 in
  (* Throughput halves: out of tolerance in the bad direction. *)
  let cur = bench_doc ~create_per_sec:200.0 ~write_cost:1.2 in
  let rep = B.compare ~base ~cur () in
  Alcotest.(check bool) "gates" true (B.gates rep);
  (match B.regressions rep with
  | [ d ] ->
      Alcotest.(check string) "metric" "create_per_sec" d.B.metric;
      Alcotest.(check bool) "regressed" true (d.B.status = B.Regressed)
  | ds -> Alcotest.failf "expected one regression, got %d" (List.length ds));
  (* A cost that falls is an improvement, not a regression. *)
  let better = bench_doc ~create_per_sec:400.0 ~write_cost:0.9 in
  let rep = B.compare ~base ~cur:better () in
  Alcotest.(check bool) "improvement passes" false (B.gates rep)

let test_benchdiff_tolerance () =
  let base = bench_doc ~create_per_sec:400.0 ~write_cost:1.2 in
  let cur = bench_doc ~create_per_sec:388.0 ~write_cost:1.2 in
  (* A 3% dip is inside the default 5% band... *)
  Alcotest.(check bool) "within default tolerance" false
    (B.gates (B.compare ~base ~cur ()));
  (* ...and outside a 1% band. *)
  Alcotest.(check bool) "outside tight tolerance" true
    (B.gates (B.compare ~tolerance_pct:1.0 ~base ~cur ()))

(* Host words allocated are a cost held to their own narrow band: half
   a percent more gates under the default 5% tolerance, fewer passes as
   an improvement. *)
let test_benchdiff_host_words () =
  let doc words =
    Json.Obj
      [
        ("schema", Json.String "lfs-bench/1");
        ("quick", Json.Bool true);
        ( "figures",
          Json.Obj
            [
              ( "host",
                Json.List
                  [
                    Json.Obj
                      [
                        ("label", Json.String "fig5");
                        ("alloc_words", Json.Int words);
                      ];
                  ] );
            ] );
      ]
  in
  let status words =
    match (B.compare ~base:(doc 1_000_000) ~cur:(doc words) ()).B.deltas with
    | [ d ] -> d.B.status
    | ds -> Alcotest.failf "expected one delta, got %d" (List.length ds)
  in
  Alcotest.(check bool) "0.5% more words regress" true
    (status 1_005_000 = B.Regressed);
  Alcotest.(check bool) "0.5% fewer words improve" true
    (status 995_000 = B.Improved);
  Alcotest.(check bool) "0.05% more words are within the band" true
    (status 1_000_500 = B.Same)

let test_benchdiff_missing_gates () =
  let base = bench_doc ~create_per_sec:400.0 ~write_cost:1.2 in
  let cur =
    Json.Obj
      [
        ("schema", Json.String "lfs-bench/1");
        ("quick", Json.Bool true);
        ("figures", Json.Obj []);
      ]
  in
  let rep = B.compare ~base ~cur () in
  Alcotest.(check bool) "missing figure gates" true (B.gates rep);
  Alcotest.(check bool) "reported as missing" true (rep.B.missing <> [])

(* A name the baseline never recorded gates, at the top level of an
   entry and inside a nested snapshot, and so do a new entry and a new
   figure. *)
let test_benchdiff_unbaselined_gates () =
  let doc ?(fields = []) ?(phase = []) ?(more = []) ?(figs = []) () =
    let entry =
      Json.Obj
        ([
           ("label", Json.String "LFS");
           ("create_per_sec", Json.Float 400.0);
           ( "phases",
             Json.Obj
               [ ("create", Json.Obj (("disk.reads", Json.Int 3) :: phase)) ]
           );
         ]
        @ fields)
    in
    Json.Obj
      [
        ("schema", Json.String "lfs-bench/1");
        ("quick", Json.Bool true);
        ("figures", Json.Obj (("fig3", Json.List (entry :: more)) :: figs));
      ]
  in
  let base = doc () in
  let check what cur expected =
    let rep = B.compare ~base ~cur () in
    Alcotest.(check (list string)) what expected rep.B.unbaselined;
    Alcotest.(check bool) (what ^ " gates") (expected <> []) (B.gates rep)
  in
  check "identical" base [];
  check "new top-level metric"
    (doc ~fields:[ ("read_per_sec", Json.Float 1.0) ] ())
    [ "fig3/LFS metric read_per_sec" ];
  check "new nested metric, reported once"
    (doc ~phase:[ ("io.queue.depth", Json.Obj [ ("count", Json.Int 0) ]) ] ())
    [ "fig3/LFS metric phases/create/io.queue.depth" ];
  check "new entry and figure"
    (doc
       ~more:[ Json.Obj [ ("label", Json.String "FFS") ] ]
       ~figs:[ ("fig9", Json.List []) ]
       ())
    [ "fig3 entry FFS"; "figure fig9" ]

let test_benchdiff_bad_schema () =
  let doc = bench_doc ~create_per_sec:1.0 ~write_cost:1.0 in
  let bad = Json.Obj [ ("schema", Json.String "something-else") ] in
  try
    ignore (B.compare ~base:bad ~cur:doc ());
    Alcotest.fail "bad schema did not raise"
  with Invalid_argument _ -> ()

let suite =
  [
    Alcotest.test_case "profile invariants (both systems)" `Quick
      test_profile_invariants;
    Alcotest.test_case "mid-span attach" `Quick test_profile_mid_span_attach;
    Alcotest.test_case "benchdiff identical pair" `Quick
      test_benchdiff_identical;
    Alcotest.test_case "benchdiff gates regression" `Quick
      test_benchdiff_gates_regression;
    Alcotest.test_case "benchdiff tolerance band" `Quick
      test_benchdiff_tolerance;
    Alcotest.test_case "benchdiff host words are a cost" `Quick
      test_benchdiff_host_words;
    Alcotest.test_case "benchdiff missing gates" `Quick
      test_benchdiff_missing_gates;
    Alcotest.test_case "benchdiff unbaselined gates" `Quick
      test_benchdiff_unbaselined_gates;
    Alcotest.test_case "benchdiff bad schema" `Quick test_benchdiff_bad_schema;
  ]
