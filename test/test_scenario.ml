(* The scenario DSL itself: deterministic stream compilation, the
   delta-debugging shrinker (pure and end-to-end with a planted
   invariant violation), replay-line stability, spec validation, and
   the engine-mode compilation path. *)

module Scenario = Lfs_scenario.Scenario
module Driver = Lfs_workload.Driver

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let fail_failure = function
  | None -> ()
  | Some f ->
      Alcotest.failf "%s\nreplay: %s" f.Scenario.message f.Scenario.replay

(* ---------- shrinker, pure oracle ---------- *)

let test_shrink_pure () =
  let items = List.init 20 (fun i -> i) in
  let fails l = if List.mem 3 l && List.mem 7 l then Some "pair" else None in
  Alcotest.(check (list int)) "minimal pair" [ 3; 7 ]
    (Scenario.shrink ~fails items);
  Alcotest.(check (list int)) "non-failing input unchanged" items
    (Scenario.shrink ~fails:(fun _ -> None) items);
  let single l = if List.mem 13 l then Some "one" else None in
  Alcotest.(check (list int)) "single cause" [ 13 ]
    (Scenario.shrink ~fails:single items)

(* ---------- stream compilation ---------- *)

let test_steps_deterministic () =
  let render spec = List.map Lfs_workload.Op.pp (Scenario.steps_of spec) in
  let spec = Scenario.(make |> seed 99) in
  Alcotest.(check (list string)) "same spec, same steps" (render spec)
    (render spec);
  if render spec = render Scenario.(make |> seed 100) then
    Alcotest.fail "different seeds produced identical streams";
  Alcotest.(check int) "count honoured" 24
    (List.length (Scenario.steps_of Scenario.(make |> count 24 |> seed 3)))

(* ---------- clean runs ---------- *)

let test_clean_stream () =
  let r =
    Scenario.(make |> seed 7 |> invariant ~name:"fsck" fsck |> run)
  in
  fail_failure r.Scenario.failure;
  Alcotest.(check string) "mode" "stream" r.Scenario.mode;
  Alcotest.(check int) "all ops ran" 48 r.Scenario.stats.Scenario.ops_run

let test_engine_mode () =
  let r =
    Scenario.(
      make |> system `Lfs
      |> ops [ Read 4; Overwrite 3; Create 2; Delete 1 ]
      |> clients 3 |> count 90
      |> think (Uniform (1_000, 10_000))
      |> invariant ~name:"fsck" fsck
      |> seed 11 |> run)
  in
  fail_failure r.Scenario.failure;
  Alcotest.(check string) "mode" "engine" r.Scenario.mode;
  match r.Scenario.engine with
  | None -> Alcotest.fail "engine scenario produced no engine result"
  | Some e ->
      Alcotest.(check int) "clients" 3 e.Lfs_workload.Engine.clients;
      Alcotest.(check int) "total ops" 90 e.Lfs_workload.Engine.total_ops

(* ---------- planted failure: shrink + replay determinism ---------- *)

(* The planted invariant rejects any surviving root entry, so any
   scenario that creates anything fails it — and the minimal
   counterexample is a single root-level create/mkdir. *)
let planted_spec s =
  Scenario.(
    make |> count 24 |> seed s
    |> invariant ~name:"planted-empty-root" (fun inst ->
           match Driver.readdir inst "/" with
           | [] -> []
           | l -> [ Printf.sprintf "root holds %d entries" (List.length l) ]))

let test_shrinker_deterministic () =
  let r1 = Scenario.run (planted_spec 4242) in
  let r2 = Scenario.run (planted_spec 4242) in
  match (r1.Scenario.failure, r2.Scenario.failure) with
  | Some f1, Some f2 ->
      Alcotest.(check (list string)) "same minimal counterexample"
        f1.Scenario.steps f2.Scenario.steps;
      Alcotest.(check int) "shrunk to a single op" 1 f1.Scenario.shrunk_steps;
      Alcotest.(check int) "from the full stream" 24 f1.Scenario.original_steps;
      Alcotest.(check string) "same message" f1.Scenario.message
        f2.Scenario.message;
      Alcotest.(check string) "same replay line" f1.Scenario.replay
        f2.Scenario.replay;
      Alcotest.(check string) "byte-identical reports" (Scenario.render r1)
        (Scenario.render r2);
      if not (contains f1.Scenario.replay "--replay 4242") then
        Alcotest.failf "replay line lacks the seed: %s" f1.Scenario.replay
  | _ -> Alcotest.fail "planted invariant did not fail the scenario"

(* ---------- replay line + validation ---------- *)

let test_replay_line () =
  Alcotest.(check string) "non-default flags rendered"
    "lfstool scenario --system ffs --count 10 --clients 2 --replay 9"
    (Scenario.replay_command
       Scenario.(make |> system `Ffs |> count 10 |> clients 2 |> seed 9));
  Alcotest.(check string) "mix round-trips"
    (Scenario.mix_to_string Scenario.default_mix)
    (Scenario.mix_to_string
       (Scenario.mix_of_string (Scenario.mix_to_string Scenario.default_mix)))

let test_invalid_spec () =
  let rejects what spec =
    match Scenario.run spec with
    | exception Driver.Benchmark_failure _ -> ()
    | _ -> Alcotest.failf "%s accepted" what
  in
  rejects "sweep+clients" Scenario.(make |> crash_sweep |> clients 2);
  rejects "read_back without Transient" Scenario.(make |> read_back);
  rejects "whole-run Bad_sectors"
    Scenario.(make |> faults [ Bad_sectors [ 1 ] ]);
  rejects "zero-weight mix" Scenario.(make |> ops [ Create 0 ]);
  rejects "ffs bad-sector mode"
    Scenario.(make |> system `Ffs |> faults [ Checkpoint_bad_sector ])

let suite =
  [
    Alcotest.test_case "shrink: pure oracle" `Quick test_shrink_pure;
    Alcotest.test_case "steps_of is deterministic" `Quick
      test_steps_deterministic;
    Alcotest.test_case "clean stream run" `Quick test_clean_stream;
    Alcotest.test_case "engine-mode compilation" `Quick test_engine_mode;
    Alcotest.test_case "planted failure shrinks deterministically" `Quick
      test_shrinker_deterministic;
    Alcotest.test_case "replay line + mix round-trip" `Quick test_replay_line;
    Alcotest.test_case "invalid specs are rejected" `Quick test_invalid_spec;
  ]
