(* Unit tests for the whole-program analyzer core: call-graph
   construction (mutual recursion, include, aliased modules, unknown
   callees) and the effect fixpoint reaching a least fixed point on
   cyclic graphs.  Sources are given inline as (path, text) pairs; the
   paths choose the module naming and rule contexts exactly as real
   files would. *)

module A = Analysis

let failures = ref 0

let check name cond =
  if cond then Printf.printf "test %-42s ok\n" name
  else begin
    incr failures;
    Printf.printf "test %-42s FAILED\n" name
  end

let def program dotted =
  match A.def_by_name program dotted with
  | Some d -> d
  | None ->
      incr failures;
      Printf.printf "test: no def named %s\n" dotted;
      exit 1

let has program dotted eff = List.mem eff (A.full_effects (def program dotted))

let rules_of program file =
  List.filter_map
    (fun (v : A.violation) -> if v.A.file = file then Some v.A.rule else None)
    program.A.p_violations

(* --- mutual recursion: both members of the cycle get the effect --- *)

let () =
  let program =
    A.analyze
      [
        ( "lib/core/mut.ml",
          "let rec ping d n = if n = 0 then 0 else pong d (n - 1)\n\
           and pong d n = ignore (Third_party_disk.poke d); ping d n\n" );
      ]
  in
  check "mutual recursion: effect reaches both"
    (has program "Lfs_core.Mut.ping" "DiskIO"
    && has program "Lfs_core.Mut.pong" "DiskIO");
  check "mutual recursion: call edges both ways"
    (A.callee_names (def program "Lfs_core.Mut.ping") = [ "Lfs_core.Mut.pong" ]
    && A.callee_names (def program "Lfs_core.Mut.pong")
       = [ "Lfs_core.Mut.ping" ])

(* --- pure cycle: least fixed point is the empty summary --- *)

let () =
  let program =
    A.analyze
      [
        ( "lib/core/cyc.ml",
          "let rec even n = if n = 0 then true else odd (n - 1)\n\
           and odd n = if n = 0 then false else even (n - 1)\n" );
      ]
  in
  check "pure cycle: least fixpoint has no effects"
    (A.full_effects (def program "Lfs_core.Cyc.even") = []
    && A.full_effects (def program "Lfs_core.Cyc.odd") = [])

(* --- raw disk through two modules; include and alias resolution --- *)

let sources =
  [
    (* the raw site: a module that pokes the disk directly *)
    ( "lib/core/rawpoke.ml",
      "let nudge d = Disk.write d 0 (Bytes.create 512)\n" );
    (* re-export through include: B's callers reach A's bindings *)
    ("lib/core/reexport.ml", "include Rawpoke\n\nlet noop () = ()\n");
    (* alias to the re-export, call through the alias *)
    ( "lib/cache/warm.ml",
      "module R = Lfs_core.Reexport\n\nlet fill d = R.nudge d\n" );
    (* two calls away from the raw site *)
    ("lib/lfs/deep.ml", "let boot d = Lfs_cache.Warm.fill d\n");
  ]

let () =
  let program = A.analyze sources in
  check "raw site flagged syntactically"
    (List.mem "disk-io" (rules_of program "lib/core/rawpoke.ml"));
  check "include: re-export inherits and is flagged"
    (List.mem "transitive-disk-io" (rules_of program "lib/cache/warm.ml"));
  check "alias: call via module alias resolves"
    (has program "Lfs_cache.Warm.fill" "DiskIO");
  check "two calls away: transitive rule fires"
    (List.mem "transitive-disk-io" (rules_of program "lib/lfs/deep.ml"));
  check "two calls away: syntactic rules silent"
    (not (List.mem "disk-io" (rules_of program "lib/lfs/deep.ml")));
  check "witness chain names the raw primitive"
    (List.exists
       (fun (v : A.violation) ->
         v.A.file = "lib/lfs/deep.ml"
         && v.A.rule = "transitive-disk-io"
         && String.length v.A.message > 0)
       program.A.p_violations)

(* --- absorption: the sanctioned layer stops propagation --- *)

let () =
  let program =
    A.analyze
      [
        ( "lib/disk/io.ml",
          "let sync_read d blkno dst = Disk.read_into d blkno dst\n" );
        ( "lib/cache/user.ml",
          "module Io = Lfs_disk.Io\n\nlet load d b = Io.sync_read d b\n" );
      ]
  in
  check "absorption: Io caller stays clean"
    (not
       (List.mem "transitive-disk-io" (rules_of program "lib/cache/user.ml")));
  check "absorption: Io itself still flagged syntactically"
    (List.mem "disk-io" (rules_of program "lib/disk/io.ml"));
  check "absorption: exposure masked, work recorded"
    (A.expose_effects (def program "Lfs_disk.Io.sync_read") = []
    && has program "Lfs_disk.Io.sync_read" "DiskIO")

(* --- the read-into primitive is raw device access too --- *)

let () =
  let program =
    A.analyze
      [
        ( "lib/disk/io.ml",
          "let sync_read_into d s dst = Disk.read_into d ~sector:s dst\n" );
        ( "lib/core/rawpeek.ml",
          "module Disk = Lfs_disk.Disk\n\n\
           let peek d dst = Disk.read_into d ~sector:0 dst\n" );
      ]
  in
  check "read_into: caller outside Io flagged"
    (List.mem "disk-io" (rules_of program "lib/core/rawpeek.ml")
    && has program "Lfs_core.Rawpeek.peek" "DiskIO");
  check "read_into: Io absorbs it for its callers"
    (A.expose_effects (def program "Lfs_disk.Io.sync_read_into") = [])

(* --- unknown callee fails closed to every effect --- *)

let () =
  let program =
    A.analyze
      [ ("lib/core/mystery.ml", "let go x = Third_party.transmogrify x\n") ]
  in
  check "unknown module: every effect assumed"
    (has program "Lfs_core.Mystery.go" "DiskIO"
    && has program "Lfs_core.Mystery.go" "AmbientNondet");
  check "unknown module: transitive rule fires"
    (List.mem "transitive-disk-io" (rules_of program "lib/core/mystery.ml"))

(* --- benign foreign modules carry no effect --- *)

let () =
  let program =
    A.analyze
      [
        ( "lib/core/tidy.ml",
          "let total xs = List.fold_left ( + ) 0 xs\n\
           let pick c = Rng.int c 10\n" );
      ]
  in
  check "benign modules: stdlib and project layers clean"
    (rules_of program "lib/core/tidy.ml" = [])

(* --- transitive clock: only workload/bench context is confined --- *)

let clock_sources tick_path =
  [
    ( "lib/util/ticker.ml",
      "let tick c = Clock.advance_us c 10_000\n" );
    (tick_path, "let run c = Ticker.tick c\n");
  ]

let () =
  let program = A.analyze (clock_sources "lib/workload/pulse.ml") in
  check "transitive clock: workload caller flagged"
    (List.mem "transitive-clock" (rules_of program "lib/workload/pulse.ml"));
  let program = A.analyze (clock_sources "lib/cache/pulse.ml") in
  check "transitive clock: non-workload caller exempt"
    (not (List.mem "transitive-clock" (rules_of program "lib/cache/pulse.ml")))

(* --- scenario-entry: raw fault entry points confined to the DSL --- *)

let entry_source path =
  [
    ( path,
      "let go io ops =\n\
      \  ignore (Lfs_disk.Faulty.attach io s);\n\
      \  Lfs_workload.Crashpoint.sweep `Lfs ops\n" );
  ]

let () =
  let program = A.analyze (entry_source "test/test_faults.ml") in
  check "scenario-entry: test caller flagged"
    (List.mem "scenario-entry" (rules_of program "test/test_faults.ml"));
  let program = A.analyze (entry_source "bin/faultcli.ml") in
  check "scenario-entry: bin caller flagged"
    (List.mem "scenario-entry" (rules_of program "bin/faultcli.ml"));
  let program = A.analyze (entry_source "lib/cache/prober.ml") in
  check "scenario-entry: lib caller flagged"
    (List.mem "scenario-entry" (rules_of program "lib/cache/prober.ml"));
  let program = A.analyze (entry_source "lib/workload/crashpoint.ml") in
  check "scenario-entry: workload tree exempt"
    (not
       (List.mem "scenario-entry"
          (rules_of program "lib/workload/crashpoint.ml")));
  let program = A.analyze (entry_source "lib/scenario/scenario.ml") in
  check "scenario-entry: DSL compiler fires (allowlisted)"
    (List.mem "scenario-entry" (rules_of program "lib/scenario/scenario.ml"))

(* --- op-entry: operation spans open only in the front end --- *)

let op_source path =
  [
    ( path,
      "module P = Lfs_obs.Profile\n\n\
       let stat fs path = P.with_op (bus fs) `Stat (fun () -> find fs path)\n"
    );
  ]

let () =
  let fires path = List.mem "op-entry" (rules_of (A.analyze (op_source path)) path) in
  check "op-entry: file system flagged (alias expanded)" (fires "lib/ffs/fs.ml");
  check "op-entry: bench caller flagged" (fires "bench/main.ml");
  check "op-entry: test exempt" (not (fires "test/test_profile.ml"));
  check "op-entry: front end fires (allowlisted)" (fires "lib/vfs/fs_ops.ml")

(* --- lru-to-list: whole-table walks stay out of lib code --- *)

let walk_source path walk =
  [
    ( path,
      "module Lru = Lfs_util.Lru\n\nlet age t =\n  Lru." ^ walk
      ^ " (fun _ e acc -> max e acc) t.entries 0\n" );
  ]

let () =
  let flagged path walk =
    List.mem "lru-to-list" (rules_of (A.analyze (walk_source path walk)) path)
  in
  check "lru-to-list: aliased Lru.fold in lib flagged"
    (flagged "lib/cache/aged.ml" "fold");
  check "lru-to-list: Lru.iter in lib flagged"
    (flagged "lib/cache/aged.ml" "iter");
  check "lru-to-list: fold_lru in lib allowed"
    (not (flagged "lib/cache/aged.ml" "fold_lru"));
  check "lru-to-list: Lru.fold outside lib allowed"
    (not (flagged "bench/aged.ml" "fold" || flagged "test/aged.ml" "fold"))

(* --- per-byte-rng: buffers are filled, not drawn byte by byte --- *)

let () =
  let flagged path body =
    List.mem "per-byte-rng" (rules_of (A.analyze [ (path, body) ]) path)
  in
  let per_byte init =
    "module R = Lfs_util.Rng\n\nlet content ~seed len =\n\
    \  let rng = R.create seed in\n\
    \  " ^ init ^ " len (fun _ -> Char.chr (R.int rng 256))\n"
  in
  check "per-byte-rng: aliased Rng in Bytes.init flagged"
    (flagged "lib/workload/gen.ml" (per_byte "Bytes.init"));
  check "per-byte-rng: String.init in test flagged"
    (flagged "test/common.ml" (per_byte "String.init"));
  check "per-byte-rng: outside lib and test allowed"
    (not
       (flagged "bench/gen.ml" (per_byte "Bytes.init")
       || flagged "bin/gen.ml" (per_byte "Bytes.init")));
  check "per-byte-rng: Rng.int outside the init allowed"
    (not
       (flagged "test/test_crc.ml"
          "let t rng =\n\
          \  let b = Bytes.init 64 (fun i -> Char.chr i) in\n\
          \  Bytes.get b (Lfs_util.Rng.int rng 64)\n"));
  check "per-byte-rng: Rng.fill_bytes allowed"
    (not
       (flagged "lib/workload/driver.ml"
          "let content ~seed len =\n\
          \  let b = Bytes.create len in\n\
          \  Lfs_util.Rng.fill_bytes (Lfs_util.Rng.create seed) b;\n\
          \  b\n"));
  (* Driver.content as it was before Rng.fill_bytes. *)
  check "per-byte-rng: the old Driver.content flagged"
    (flagged "lib/workload/driver.ml"
       "let content ~seed len =\n\
       \  let rng = Lfs_util.Rng.create seed in\n\
       \  Bytes.init len (fun _ -> Char.chr (Lfs_util.Rng.int rng 256))\n")

(* --- span safety: raw begin flagged, Fun.protect accepted --- *)

let () =
  let program =
    A.analyze
      [
        ( "lib/cache/spans.ml",
          "let bad bus f =\n\
          \  Bus.span_begin bus \"cache_fill\";\n\
          \  let r = f () in\n\
          \  Bus.span_end bus \"cache_fill\";\n\
          \  r\n\n\
           let good bus f =\n\
          \  Fun.protect\n\
          \    ~finally:(fun () -> Bus.span_end bus \"cache_drain\")\n\
          \    (fun () ->\n\
          \      Bus.span_begin bus \"cache_drain\";\n\
          \      f ())\n" );
      ]
  in
  let spans =
    List.filter
      (fun (v : A.violation) -> v.A.rule = "span-unsafe")
      program.A.p_violations
  in
  check "span-unsafe: raw begin flagged once"
    (List.length spans = 1 && (List.hd spans).A.line = 2)

(* --- effect summary export is well-formed --- *)

let () =
  let program = A.analyze sources in
  let json = A.summary_json program in
  check "summary json: schema and module present"
    (let has_sub sub =
       let n = String.length json and m = String.length sub in
       let rec go i =
         i + m <= n && (String.sub json i m = sub || go (i + 1))
       in
       go 0
     in
     has_sub "lfs-lint-effects/1" && has_sub "Lfs_cache.Warm"
     && has_sub "DiskIO")

let () =
  if !failures > 0 then begin
    Printf.printf "%d analyzer test(s) failed\n" !failures;
    exit 1
  end
  else print_endline "analyzer tests: all ok"
