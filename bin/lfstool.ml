(* lfstool: manipulate LFS disk images kept in host files.

   A simulated disk's media image is a flat byte array (chunks never
   written read as zeros), so an LFS file system can live in an ordinary
   file:

     lfstool format img.lfs --size-mb 64
     lfstool put img.lfs /notes.txt README.md
     lfstool ls img.lfs /
     lfstool cat img.lfs /notes.txt
     lfstool segments img.lfs
     lfstool fsck img.lfs
*)

module Clock = Lfs_disk.Clock
module Config = Lfs_core.Config
module Cpu_model = Lfs_disk.Cpu_model
module Fs = Lfs_core.Fs
module Geometry = Lfs_disk.Geometry
module Io = Lfs_disk.Io

(* A host file that cannot be read or written (an image, a file to put,
   a destination for get, a benchdiff input) is a usage error: report it
   as "lfstool: PATH: reason" and exit 1, not die on the exception. *)
let host_file_error path reason =
  Printf.eprintf "lfstool: %s: %s\n" path reason;
  exit 1

let on_host_file path f =
  try f ()
  with Sys_error msg ->
    (* Open errors already read "PATH: reason"; read errors do not. *)
    let prefix = path ^ ": " in
    let skip =
      if String.starts_with ~prefix msg then String.length prefix else 0
    in
    host_file_error path (String.sub msg skip (String.length msg - skip))

(* Whole host files move as one [bytes] buffer each way: a disk image is
   read straight into the buffer [Io.restore_media] takes, and written
   straight from the one [Io.snapshot_media] returns. *)
let read_file path =
  on_host_file path @@ fun () ->
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let buf = Bytes.create (in_channel_length ic) in
      really_input ic buf 0 (Bytes.length buf);
      buf)

let write_file path contents =
  on_host_file path @@ fun () ->
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_bytes oc contents)

let make_io ~size_bytes =
  let geometry = Geometry.wren_iv ~size_bytes in
  Io.of_geometry geometry (Clock.create ()) Cpu_model.free

(* An image whose size is not a whole geometry (a truncated copy, a
   stray file) is a usage error too. *)
let load_image path =
  let media = read_file path in
  let size_bytes = Bytes.length media in
  let whole =
    size_bytes > 0
    && Geometry.size_bytes (Geometry.wren_iv ~size_bytes) = size_bytes
  in
  if not whole then
    host_file_error path
      (Printf.sprintf "%d bytes is not a whole disk image (truncated?)"
         size_bytes);
  let io = make_io ~size_bytes in
  Io.restore_media io media;
  io

let save_image io path = write_file path (Io.snapshot_media io)

let mount_image path =
  let io = load_image path in
  match Fs.mount io with
  | Ok fs -> fs
  | Error e ->
      Printf.eprintf "lfstool: %s: %s\n" path e;
      exit 1

let or_die = function
  | Ok v -> v
  | Error e ->
      Printf.eprintf "lfstool: %s\n" (Lfs_vfs.Errors.to_string e);
      exit 1

(* Commands *)

let cmd_format image size_mb block_size segment_size =
  let io = make_io ~size_bytes:(size_mb * 1024 * 1024) in
  let config = { Config.default with Config.block_size; segment_size } in
  (match Fs.format io config with
  | Ok () -> ()
  | Error e ->
      Printf.eprintf "lfstool: format: %s\n" e;
      exit 1);
  save_image io image;
  Printf.printf "formatted %s (%d MB, %d B blocks, %d KB segments)\n" image
    size_mb block_size (segment_size / 1024)

let cmd_ls image path =
  let fs = mount_image image in
  List.iter
    (fun name ->
      let full = if path = "/" then "/" ^ name else path ^ "/" ^ name in
      let stat = or_die (Fs.stat fs full) in
      Printf.printf "%s %8d  %s\n"
        (match stat.Lfs_vfs.Fs_intf.kind with
        | Lfs_vfs.Fs_intf.Directory -> "d"
        | Lfs_vfs.Fs_intf.Regular -> "-")
        stat.Lfs_vfs.Fs_intf.size name)
    (or_die (Fs.readdir fs path))

let cmd_cat image path =
  let fs = mount_image image in
  let stat = or_die (Fs.stat fs path) in
  let data = or_die (Fs.read fs path ~off:0 ~len:stat.Lfs_vfs.Fs_intf.size) in
  print_string (Bytes.to_string data)

let cmd_put image path hostfile =
  let fs = mount_image image in
  let data = read_file hostfile in
  if not (Fs.exists fs path) then or_die (Fs.create fs path);
  or_die (Fs.truncate fs path ~size:0);
  or_die (Fs.write fs path ~off:0 data);
  Fs.unmount fs;
  save_image (Fs.io fs) image;
  Printf.printf "wrote %d bytes to %s:%s\n" (Bytes.length data) image path

let cmd_mkdir image path =
  let fs = mount_image image in
  or_die (Fs.mkdir fs path);
  Fs.unmount fs;
  save_image (Fs.io fs) image

let cmd_rm image path =
  let fs = mount_image image in
  or_die (Fs.delete fs path);
  Fs.unmount fs;
  save_image (Fs.io fs) image

let cmd_info image =
  let fs = mount_image image in
  let layout = Fs.layout fs in
  Format.printf "%a@." Lfs_core.Layout.pp layout;
  let stats = Fs.stats fs in
  Printf.printf "clean segments : %d / %d\n" (Fs.clean_segment_count fs)
    layout.Lfs_core.Layout.nsegments;
  Printf.printf "live data      : %s\n"
    (Lfs_util.Table.fmt_bytes (Fs.live_bytes fs));
  Printf.printf "checkpoints    : %d, roll-forward segments: %d\n"
    stats.Lfs_core.State.checkpoints
    stats.Lfs_core.State.rollforward_segments

let cmd_segments image =
  let fs = mount_image image in
  List.iter
    (fun (seg, state, util) ->
      Printf.printf "seg %4d  %-6s  %3.0f%%  %s\n" seg
        (match state with
        | Lfs_core.Seg_usage.Clean -> "clean"
        | Lfs_core.Seg_usage.Dirty -> "dirty"
        | Lfs_core.Seg_usage.Active -> "active")
        (util *. 100.0)
        (String.make (int_of_float (util *. 50.0)) '#'))
    (Fs.segment_report fs)

let cmd_clean image =
  let fs = mount_image image in
  let freed = Fs.clean_now ~target:max_int fs in
  Fs.unmount fs;
  save_image (Fs.io fs) image;
  Printf.printf "freed %d segments; %d now clean\n" freed
    (Fs.clean_segment_count fs)

let cmd_get image path hostfile =
  let fs = mount_image image in
  let stat = or_die (Fs.stat fs path) in
  let data = or_die (Fs.read fs path ~off:0 ~len:stat.Lfs_vfs.Fs_intf.size) in
  write_file hostfile data;
  Printf.printf "copied %d bytes from %s:%s to %s\n" (Bytes.length data) image
    path hostfile

let cmd_tree image =
  let fs = mount_image image in
  let rec walk indent path =
    List.iter
      (fun name ->
        let full = if path = "/" then "/" ^ name else path ^ "/" ^ name in
        let stat = or_die (Fs.stat fs full) in
        match stat.Lfs_vfs.Fs_intf.kind with
        | Lfs_vfs.Fs_intf.Directory ->
            Printf.printf "%s%s/\n" indent name;
            walk (indent ^ "  ") full
        | Lfs_vfs.Fs_intf.Regular ->
            Printf.printf "%s%s (%d bytes)\n" indent name
              stat.Lfs_vfs.Fs_intf.size)
      (or_die (Fs.readdir fs path))
  in
  print_endline "/";
  walk "  " "/"

let cmd_df image =
  let fs = mount_image image in
  let s = Fs.space fs in
  Printf.printf "capacity : %s\n" (Lfs_util.Table.fmt_bytes s.Fs.capacity_bytes);
  Printf.printf "live     : %s (%.0f%%)\n"
    (Lfs_util.Table.fmt_bytes s.Fs.live_bytes)
    (100.0 *. float_of_int s.Fs.live_bytes /. float_of_int s.Fs.capacity_bytes);
  Printf.printf "clean    : %s in %d segments\n"
    (Lfs_util.Table.fmt_bytes s.Fs.clean_bytes)
    (Fs.clean_segment_count fs);
  Printf.printf "cleanable: %s (dead bytes in dirty segments)\n"
    (Lfs_util.Table.fmt_bytes s.Fs.cleanable_bytes)

(* A small fsck: walk the namespace, read every file completely, then run
   the deep structural pass (double references, wild addresses, orphans)
   and the segment-usage drift check. *)
let cmd_fsck image json =
  let fs = mount_image image in
  let files = ref 0 and dirs = ref 0 and bytes = ref 0 in
  let problems = ref [] in
  let problem fmt =
    Printf.ksprintf (fun s -> problems := s :: !problems) fmt
  in
  let rec walk path =
    match Fs.readdir fs path with
    | Error e -> problem "readdir %s: %s" path (Lfs_vfs.Errors.to_string e)
    | Ok names ->
        List.iter
          (fun name ->
            let full = if path = "/" then "/" ^ name else path ^ "/" ^ name in
            match Fs.stat fs full with
            | Error e ->
                problem "stat %s: %s" full (Lfs_vfs.Errors.to_string e)
            | Ok stat -> (
                match stat.Lfs_vfs.Fs_intf.kind with
                | Lfs_vfs.Fs_intf.Directory ->
                    incr dirs;
                    walk full
                | Lfs_vfs.Fs_intf.Regular -> (
                    incr files;
                    match
                      Fs.read fs full ~off:0 ~len:stat.Lfs_vfs.Fs_intf.size
                    with
                    | Ok data -> bytes := !bytes + Bytes.length data
                    | Error e ->
                        problem "read %s: %s" full
                          (Lfs_vfs.Errors.to_string e))))
          names
  in
  walk "/";
  List.iter
    (fun issue ->
      problem "%s" (Format.asprintf "%a" Lfs_core.Check.pp_issue issue))
    (Lfs_core.Check.fsck fs);
  (* Segment-usage accounting vs ground truth.  Small drift is expected
     (the usage array cannot count its own blocks exactly while they are
     being rewritten); the tolerance matches the always-on sanitizer. *)
  let layout = Fs.layout fs in
  let tolerance = 2 * layout.Lfs_core.Layout.block_size in
  let drift = Lfs_core.Check.usage_drift fs in
  List.iter
    (fun (seg, recorded, recomputed) ->
      if abs (recorded - recomputed) > tolerance then
        problem "segment %d usage drift: recorded %d live bytes, recomputed %d"
          seg recorded recomputed)
    drift;
  let problems = List.rev !problems in
  if json then begin
    let module J = Lfs_obs.Json in
    print_string
      (J.to_string_pretty
         (J.Obj
            [
              ("image", J.String image);
              ("directories", J.Int !dirs);
              ("files", J.Int !files);
              ("bytes", J.Int !bytes);
              ("problems", J.List (List.map (fun s -> J.String s) problems));
              ( "usage_drift",
                J.List
                  (List.map
                     (fun (seg, recorded, recomputed) ->
                       J.Obj
                         [
                           ("segment", J.Int seg);
                           ("recorded", J.Int recorded);
                           ("recomputed", J.Int recomputed);
                         ])
                     drift) );
              ("clean", J.Bool (problems = []));
            ]))
  end
  else begin
    List.iter (fun s -> Printf.printf "fsck: %s\n" s) problems;
    Printf.printf "fsck: %d directories, %d files, %s of data, %d problems\n"
      !dirs !files
      (Lfs_util.Table.fmt_bytes !bytes)
      (List.length problems)
  end;
  if problems <> [] then exit 1

let cmd_dump_segment image seg =
  let fs = mount_image image in
  print_string (Lfs_core.Inspect.describe_segment fs (int_of_string seg))

let cmd_checkpoints image =
  let fs = mount_image image in
  print_string (Lfs_core.Inspect.describe_checkpoints fs)

(* Observability surfaces *)

module Bus = Lfs_obs.Bus
module Event = Lfs_obs.Event
module Json = Lfs_obs.Json
module Metrics = Lfs_obs.Metrics
module Profile = Lfs_obs.Profile
module Benchdiff = Lfs_obs.Benchdiff
module Driver = Lfs_workload.Driver
module Setup = Lfs_workload.Setup

let cmd_stats image json =
  let fs = mount_image image in
  let snap = Metrics.snapshot (Io.metrics (Fs.io fs)) in
  if json then print_endline (Json.to_string_pretty (Metrics.to_json snap))
  else print_string (Metrics.render snap)

(* Trace ops are colon-separated tokens so a whole scenario fits on one
   command line: mkdir:/d create:/d/f write:/d/f:8192 read:/d/f
   delete:/d/f sync *)
let parse_op tok =
  match String.split_on_char ':' tok with
  | [ "mkdir"; p ] -> `Mkdir p
  | [ "create"; p ] -> `Create p
  | [ "write"; p; n ] -> (
      match int_of_string_opt n with
      | Some n when n >= 0 -> `Write (p, n)
      | _ ->
          Printf.eprintf "lfstool: trace: bad write size in %S\n" tok;
          exit 2)
  | [ "read"; p ] -> `Read p
  | [ "delete"; p ] -> `Delete p
  | [ "sync" ] -> `Sync
  | _ ->
      Printf.eprintf
        "lfstool: trace: bad op %S (want mkdir:P create:P write:P:N read:P \
         delete:P sync)\n"
        tok;
      exit 2

let apply_op inst = function
  | `Mkdir p -> Driver.mkdir inst p
  | `Create p -> Driver.create inst p
  | `Write (p, n) -> Driver.write inst p ~off:0 (Driver.content ~seed:7 n)
  | `Read p ->
      let stat = Driver.stat inst p in
      ignore (Driver.read inst p ~off:0 ~len:stat.Lfs_vfs.Fs_intf.size)
  | `Delete p -> Driver.delete inst p
  | `Sync -> Driver.sync inst

(* Replay [ops] on [inst] with a sink attached (a ring of [limit]
   records when given, unbounded otherwise), and emit the captured
   events as JSONL (one object per line, on stdout).  A truncated
   capture is never silent: the JSONL stream ends in a
   [trace_truncated] trailer and the stderr footer reports the drop
   count. *)
let trace_instance ?limit inst ops =
  let bus = Driver.bus inst in
  let sink = Bus.attach ?capacity:limit bus in
  Bus.emit bus
    (Event.Note
       { name = "trace_begin"; fields = [ ("system", Json.String (Driver.label inst)) ] });
  List.iter (apply_op inst) ops;
  Bus.emit bus
    (Event.Note
       { name = "trace_end"; fields = [ ("system", Json.String (Driver.label inst)) ] });
  let records = Bus.records sink in
  let dropped = Bus.dropped sink in
  Bus.detach bus sink;
  print_string (Event.to_jsonl ~dropped records);
  if dropped > 0 then
    Printf.eprintf "trace: %s: kept newest %d events, dropped %d oldest\n"
      (Driver.label inst) (List.length records) dropped
  else
    Printf.eprintf "trace: %s: %d events\n" (Driver.label inst)
      (List.length records)

(* The paper's Figure 1 scenario as a default: create two small files
   and sync.  On LFS the trace ends in one sequential segment write; on
   FFS (with --ffs) the same ops show synchronous inode and directory
   writes scattered over the disk. *)
let default_trace_ops =
  [
    `Create "/trace0"; `Write ("/trace0", 1024);
    `Create "/trace1"; `Write ("/trace1", 1024); `Sync;
  ]

let cmd_trace image with_ffs limit ops =
  (match limit with
  | Some n when n <= 0 ->
      Printf.eprintf "lfstool: trace: --limit must be positive\n";
      exit 2
  | Some _ | None -> ());
  let ops =
    match ops with [] -> default_trace_ops | toks -> List.map parse_op toks
  in
  let fs = mount_image image in
  (* Tracing replays the ops in memory only; the image file is left
     untouched. *)
  trace_instance ?limit (Lfs_vfs.Fs_intf.Instance ((module Fs), fs)) ops;
  if with_ffs then begin
    let size_bytes =
      let g = Io.geometry (Fs.io fs) in
      g.Geometry.sectors * g.Geometry.sector_size
    in
    let io = make_io ~size_bytes in
    (match Lfs_ffs.Fs.format io Lfs_ffs.Config.default with
    | Ok () -> ()
    | Error e ->
        Printf.eprintf "lfstool: trace: FFS format: %s\n" e;
        exit 1);
    match Lfs_ffs.Fs.mount io with
    | Error e ->
        Printf.eprintf "lfstool: trace: FFS mount: %s\n" e;
        exit 1
    | Ok ffs ->
        trace_instance ?limit
          (Lfs_vfs.Fs_intf.Instance ((module Lfs_ffs.Fs), ffs))
          ops
  end

(* Latency-attribution profiler: run a scratch workload on both systems
   with a {!Lfs_obs.Profile} aggregator subscribed, and render the
   per-operation attribution table (and span tree).  No image argument —
   everything runs on fresh in-memory stacks.  Exits non-zero if any
   operation's attribution columns fail to sum to its total within 1%
   (they sum exactly by construction; the check guards the
   instrumentation). *)

let check_attribution label (rep : Profile.report) =
  List.concat_map
    (fun (s : Profile.op_stat) ->
      let parts = s.cache_us + s.disk_us + s.cleaner_us + s.checkpoint_us in
      let slack = max 1 (abs s.total_us / 100) in
      if abs (parts - s.total_us) > slack then
        [
          Printf.sprintf
            "%s %s: attribution %d us does not sum to total %d us" label s.op
            parts s.total_us;
        ]
      else [])
    rep.Profile.ops

let cmd_profile workload files file_size file_mb tree json =
  let run inst =
    let prof = Profile.attach (Driver.bus inst) in
    (match workload with
    | "smallfile" ->
        ignore (Lfs_workload.Smallfile.run ~nfiles:files ~file_size inst)
    | "largefile" -> ignore (Lfs_workload.Largefile.run ~file_mb inst)
    | "trace" ->
        ignore
          (Lfs_workload.Trace.replay inst (Lfs_workload.Trace.generate ()))
    | w ->
        Printf.eprintf
          "lfstool: profile: unknown workload %S (want smallfile, largefile \
           or trace)\n"
          w;
        exit 2);
    Driver.sanitize inst;
    Profile.detach prof;
    (Driver.label inst, Profile.report prof)
  in
  let reports = List.map run (Setup.both ()) in
  let violations =
    List.concat_map (fun (label, rep) -> check_attribution label rep) reports
  in
  if json then
    print_endline
      (Json.to_string_pretty
         (Json.Obj
            [
              ("schema", Json.String "lfs-profile/1");
              ("workload", Json.String workload);
              ( "systems",
                Json.List
                  (List.map
                     (fun (label, rep) ->
                       match Profile.to_json rep with
                       | Json.Obj fields ->
                           Json.Obj (("system", Json.String label) :: fields)
                       | j -> j)
                     reports) );
              ("clean", Json.Bool (violations = []));
            ]))
  else
    List.iter
      (fun (label, rep) ->
        Printf.printf "%s %s profile (simulated us)\n" label workload;
        print_string (Profile.render_ops rep);
        if tree then begin
          print_newline ();
          print_string (Profile.render_tree rep)
        end;
        print_newline ())
      reports;
  List.iter (fun v -> Printf.eprintf "profile: %s\n" v) violations;
  if violations <> [] then exit 1

(* Regression gate over lfs-bench/1 files. *)
let cmd_benchdiff base_file cur_file tolerance gate json =
  let load file =
    match Json.of_string_opt (Bytes.to_string (read_file file)) with
    | Some j -> j
    | None ->
        Printf.eprintf "lfstool: benchdiff: %s is not valid JSON\n" file;
        exit 2
  in
  let base = load base_file and cur = load cur_file in
  match Benchdiff.compare ~tolerance_pct:tolerance ~base ~cur () with
  | exception Invalid_argument msg ->
      Printf.eprintf "lfstool: %s\n" msg;
      exit 2
  | rep ->
      if json then print_endline (Json.to_string_pretty (Benchdiff.to_json rep))
      else print_string (Benchdiff.render rep);
      if gate && Benchdiff.gates rep then begin
        Printf.eprintf "benchdiff: %s fails the gate against %s\n" cur_file
          base_file;
        exit 1
      end

(* Declarative scenario runner: one builder over op streams, engine
   runs, crash sweeps and read-back fault scenarios, with seed-managed
   replay.  `--replay SEED` re-runs a printed replay line; `--plant`
   installs a deliberately failing invariant so the shrink/replay loop
   can be exercised (and smoke-tested) end to end. *)

module Scenario = Lfs_scenario.Scenario

let planted_invariant inst =
  match Lfs_workload.Driver.readdir inst "/" with
  | [] -> []
  | l -> [ Printf.sprintf "planted: root holds %d entries" (List.length l) ]

let cmd_scenario sys mix count payload clients think sweep boundaries torn
    transient burst read_back bad_sector volume fault_member plant json seed
    replay =
  let parse_volume s =
    let bad () =
      Printf.eprintf
        "lfstool: scenario: bad volume %S (want \
         stripe:MEMBERS:CHUNK | log_stripe:MEMBERS:STRIPE | mirror:MEMBERS)\n"
        s;
      exit 2
    in
    match String.split_on_char ':' s with
    | [ "mirror"; n ] -> (
        match int_of_string_opt n with
        | Some n -> (Lfs_disk.Volume.Mirror, n)
        | None -> bad ())
    | [ "stripe"; n; c ] -> (
        match (int_of_string_opt n, int_of_string_opt c) with
        | Some n, Some c -> (Lfs_disk.Volume.Stripe { chunk_sectors = c }, n)
        | _ -> bad ())
    | [ "log_stripe"; n; sc ] -> (
        match (int_of_string_opt n, int_of_string_opt sc) with
        | Some n, Some sc ->
            (Lfs_disk.Volume.Log_stripe { stripe_sectors = sc }, n)
        | _ -> bad ())
    | _ -> bad ()
  in
  let parse_think s =
    match String.split_on_char ':' s with
    | [ lo; hi ] -> (
        match (int_of_string_opt lo, int_of_string_opt hi) with
        | Some lo, Some hi when lo = hi -> Scenario.Constant lo
        | Some lo, Some hi -> Scenario.Uniform (lo, hi)
        | _ ->
            Printf.eprintf "lfstool: scenario: bad think time %S\n" s;
            exit 2)
    | _ ->
        Printf.eprintf "lfstool: scenario: bad think time %S (want LO:HI)\n" s;
        exit 2
  in
  let run () =
    let spec = Scenario.make in
    let spec =
      match sys with
      | "lfs" -> spec
      | "ffs" -> Scenario.system `Ffs spec
      | other ->
          Printf.eprintf "lfstool: scenario: unknown system %S\n" other;
          exit 2
    in
    let spec =
      match mix with
      | None -> spec
      | Some m -> Scenario.ops (Scenario.mix_of_string m) spec
    in
    let spec = Scenario.count count spec in
    let spec = Scenario.payload payload spec in
    let spec =
      match clients with None -> spec | Some n -> Scenario.clients n spec
    in
    let spec =
      match think with
      | None -> spec
      | Some s -> Scenario.think (parse_think s) spec
    in
    let spec = if sweep then Scenario.crash_sweep spec else spec in
    let spec = Scenario.boundaries boundaries spec in
    let faults =
      (if torn then [ Scenario.Torn ] else [])
      @ (match transient with
        | Some rate -> [ Scenario.Transient { rate; burst } ]
        | None -> [])
      @ if bad_sector then [ Scenario.Checkpoint_bad_sector ] else []
    in
    let spec = if faults = [] then spec else Scenario.faults faults spec in
    let spec = if read_back then Scenario.read_back spec else spec in
    let spec =
      match volume with
      | None -> spec
      | Some v ->
          let policy, members = parse_volume v in
          Scenario.volume policy members spec
    in
    let spec =
      match fault_member with
      | None -> spec
      | Some m -> Scenario.fault_member m spec
    in
    let spec =
      if plant then
        Scenario.(
          spec
          |> invariant ~name:"planted-empty-root" planted_invariant
          |> cli_flags [ "--plant" ])
      else spec
    in
    let spec =
      Scenario.seed (match replay with Some s -> s | None -> seed) spec
    in
    Scenario.run spec
  in
  match run () with
  | exception Lfs_workload.Driver.Benchmark_failure m ->
      Printf.eprintf "lfstool: scenario: %s\n" m;
      exit 2
  | r ->
      if json then print_endline (Json.to_string_pretty (Scenario.to_json r))
      else print_string (Scenario.render r);
      if r.Scenario.failure <> None then exit 1

(* Cmdliner plumbing *)

open Cmdliner

let image = Arg.(required & pos 0 (some string) None & info [] ~docv:"IMAGE")

let path n =
  Arg.(required & pos n (some string) None & info [] ~docv:"PATH")

let format_cmd =
  let size_mb =
    Arg.(value & opt int 64 & info [ "size-mb" ] ~doc:"Image size in MB.")
  in
  let block_size =
    Arg.(value & opt int 4096 & info [ "block-size" ] ~doc:"Block size in bytes.")
  in
  let segment_size =
    Arg.(
      value
      & opt int (1 lsl 20)
      & info [ "segment-size" ] ~doc:"Segment size in bytes.")
  in
  Cmd.v
    (Cmd.info "format" ~doc:"Create and format a new LFS image.")
    Term.(const cmd_format $ image $ size_mb $ block_size $ segment_size)

let simple name doc f extra =
  Cmd.v (Cmd.info name ~doc) Term.(const f $ image $ extra)

let noarg name doc f = Cmd.v (Cmd.info name ~doc) Term.(const f $ image)

let () =
  let cmds =
    [
      format_cmd;
      simple "ls" "List a directory." cmd_ls (path 1);
      simple "cat" "Print a file's contents." cmd_cat (path 1);
      Cmd.v
        (Cmd.info "put" ~doc:"Copy a host file into the image.")
        Term.(const cmd_put $ image $ path 1 $ path 2);
      Cmd.v
        (Cmd.info "get" ~doc:"Copy a file out of the image to the host.")
        Term.(const cmd_get $ image $ path 1 $ path 2);
      simple "mkdir" "Create a directory." cmd_mkdir (path 1);
      noarg "tree" "Print the whole namespace." cmd_tree;
      noarg "df" "Show space usage." cmd_df;
      simple "rm" "Remove a file or empty directory." cmd_rm (path 1);
      noarg "info" "Show superblock and log statistics." cmd_info;
      noarg "segments" "Show the segment map." cmd_segments;
      Cmd.v
        (Cmd.info "dump-segment" ~doc:"Decode one segment's summary.")
        Term.(const cmd_dump_segment $ image $ path 1);
      noarg "checkpoints" "Decode both checkpoint regions." cmd_checkpoints;
      noarg "clean" "Run the segment cleaner." cmd_clean;
      (let json =
         Arg.(
           value & flag
           & info [ "json" ]
               ~doc:"Emit the fsck report as JSON instead of text.")
       in
       Cmd.v
         (Cmd.info "fsck"
            ~doc:
              "Walk and verify the whole namespace, run the deep \
               structural checks (double references, wild addresses, \
               orphans, link counts) and report segment-usage drift \
               against recomputed ground truth.  Exits non-zero on any \
               problem.")
         Term.(const cmd_fsck $ image $ json));
      (let json =
         Arg.(
           value & flag
           & info [ "json" ] ~doc:"Emit the registry snapshot as JSON.")
       in
       Cmd.v
         (Cmd.info "stats"
            ~doc:"Mount the image and print its metrics registry.")
         Term.(const cmd_stats $ image $ json));
      (let with_ffs =
         Arg.(
           value & flag
           & info [ "ffs" ]
               ~doc:
                 "Also replay the ops on a scratch FFS of the same size, \
                  for comparison.")
       in
       let ops =
         Arg.(value & pos_right 0 string [] & info [] ~docv:"OP")
       in
       let limit =
         Arg.(
           value
           & opt (some int) None
           & info [ "limit" ]
               ~doc:
                 "Keep only the newest $(docv) events (ring capture).  A \
                  truncated stream ends in a trace_truncated trailer and \
                  the footer reports the drop count."
               ~docv:"N")
       in
       Cmd.v
         (Cmd.info "trace"
            ~doc:
              "Replay ops (mkdir:P create:P write:P:N read:P delete:P \
               sync; default: two small file creations plus sync) against \
               the image in memory and emit the trace-bus events as \
               JSONL.  The image file is not modified.")
         Term.(const cmd_trace $ image $ with_ffs $ limit $ ops));
      (let workload =
         Arg.(
           required
           & pos 0 (some string) None
           & info [] ~docv:"WORKLOAD"
               ~doc:"One of smallfile, largefile or trace.")
       in
       let files =
         Arg.(
           value & opt int 400
           & info [ "files" ] ~doc:"smallfile: number of files.")
       in
       let file_size =
         Arg.(
           value & opt int 1024
           & info [ "file-size" ] ~doc:"smallfile: file size in bytes.")
       in
       let file_mb =
         Arg.(
           value & opt int 4
           & info [ "file-mb" ] ~doc:"largefile: file size in MB.")
       in
       let tree =
         Arg.(
           value & flag
           & info [ "tree" ] ~doc:"Also print the aggregate span tree.")
       in
       let json =
         Arg.(
           value & flag & info [ "json" ] ~doc:"Emit the report as JSON.")
       in
       Cmd.v
         (Cmd.info "profile"
            ~doc:
              "Run a scratch workload on both LFS and FFS with the \
               latency-attribution profiler subscribed, and print \
               per-operation latency percentiles (simulated us) plus the \
               exclusive-time split across cache/CPU, disk, cleaner \
               interference and checkpoints.  The four attribution \
               columns sum to the operation's total; the tool exits \
               non-zero if they do not (within 1%).  No image needed.")
         Term.(
           const cmd_profile $ workload $ files $ file_size $ file_mb $ tree
           $ json));
      (let base =
         Arg.(
           required & pos 0 (some string) None & info [] ~docv:"BASELINE")
       in
       let cur =
         Arg.(
           required & pos 1 (some string) None & info [] ~docv:"CURRENT")
       in
       let tolerance =
         Arg.(
           value & opt float 5.0
           & info [ "tolerance" ]
               ~doc:"Allowed change per metric, in percent." ~docv:"PCT")
       in
       let gate =
         Arg.(
           value & flag
           & info [ "gate" ]
               ~doc:
                 "Exit non-zero if any metric regressed or vanished — the \
                  regression gate for committed baselines.")
       in
       let json =
         Arg.(
           value & flag & info [ "json" ] ~doc:"Emit the report as JSON.")
       in
       Cmd.v
         (Cmd.info "benchdiff"
            ~doc:
              "Compare two lfs-bench/1 result files metric by metric: \
               throughputs and ratios must not fall, times and I/O \
               volumes must not rise, and metrics with no known \
               direction must not drift, each beyond the tolerance.")
         Term.(const cmd_benchdiff $ base $ cur $ tolerance $ gate $ json));
      (let sys =
         Arg.(
           value & opt string "lfs"
           & info [ "system" ] ~doc:"System under test: lfs or ffs."
               ~docv:"SYS")
       in
       let mix =
         Arg.(
           value
           & opt (some string) None
           & info [ "mix" ]
               ~doc:
                 "Weighted op mix, e.g. create=3,read=4,overwrite=2 \
                  (kinds: create, mkdir, read, overwrite, append, \
                  truncate, rename, delete, sync)."
               ~docv:"MIX")
       in
       let count =
         Arg.(
           value & opt int 48
           & info [ "count" ] ~doc:"Total operations generated.")
       in
       let payload =
         Arg.(
           value & opt int 2500
           & info [ "payload" ] ~doc:"Payload scale in bytes.")
       in
       let clients =
         Arg.(
           value
           & opt (some int) None
           & info [ "clients" ]
               ~doc:"Run through the multi-client engine with N clients.")
       in
       let think =
         Arg.(
           value
           & opt (some string) None
           & info [ "think" ]
               ~doc:"Client think time LO:HI in microseconds (engine mode)."
               ~docv:"LO:HI")
       in
       let sweep =
         Arg.(
           value & flag
           & info [ "sweep" ]
               ~doc:"Crash-point sweep: recovery at every write boundary.")
       in
       let boundaries =
         Arg.(
           value & opt int 48
           & info [ "boundaries" ] ~doc:"Sweep boundary cap.")
       in
       let torn =
         Arg.(
           value & flag
           & info [ "torn" ] ~doc:"Tear the crashing write (sweep mode).")
       in
       let transient =
         Arg.(
           value
           & opt (some float) None
           & info [ "transient" ]
               ~doc:"Transient read-fault probability per request."
               ~docv:"RATE")
       in
       let burst =
         Arg.(
           value & opt int 1
           & info [ "burst" ]
               ~doc:"Consecutive failures per transient fault.")
       in
       let read_back =
         Arg.(
           value & flag
           & info [ "read-back" ]
               ~doc:
                 "Read-back run: write, drop caches and read everything \
                  back under the transient faults.")
       in
       let bad_sector =
         Arg.(
           value & flag
           & info [ "bad-sector" ]
               ~doc:
                 "Sticky bad sector over LFS checkpoint region A; \
                  recovery must fall back to region B.")
       in
       let volume =
         Arg.(
           value
           & opt (some string) None
           & info [ "volume" ]
               ~doc:
                 "Run on a multi-disk volume instead of a single disk: \
                  stripe:MEMBERS:CHUNK, log_stripe:MEMBERS:STRIPE or \
                  mirror:MEMBERS (chunk and stripe in sectors)."
               ~docv:"SPEC")
       in
       let fault_member =
         Arg.(
           value
           & opt (some int) None
           & info [ "fault-member" ]
               ~doc:
                 "Confine injected faults to one volume member \
                  (stream/engine modes; requires --volume)."
               ~docv:"I")
       in
       let plant =
         Arg.(
           value & flag
           & info [ "plant" ]
               ~doc:
                 "Install a deliberately failing invariant to exercise \
                  the shrink and replay loop.")
       in
       let json =
         Arg.(
           value & flag & info [ "json" ] ~doc:"Emit the report as JSON.")
       in
       let seed =
         Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Scenario seed.")
       in
       let replay =
         Arg.(
           value
           & opt (some int) None
           & info [ "replay" ]
               ~doc:
                 "Replay a failing scenario from the seed printed in its \
                  replay line (overrides --seed)."
               ~docv:"SEED")
       in
       Cmd.v
         (Cmd.info "scenario"
            ~doc:
              "Run a declarative scenario on scratch in-memory stacks \
               (no image needed): a seeded op stream checked against the \
               pure reference model by default; --clients for a \
               multi-client engine run, --sweep for a crash-point \
               recovery sweep, --read-back with --transient for a \
               fault-absorption run.  A failing scenario is minimized \
               by delta-debugging and printed with a one-line --replay \
               invocation; exits non-zero on failure.")
         Term.(
           const cmd_scenario $ sys $ mix $ count $ payload $ clients
           $ think $ sweep $ boundaries $ torn $ transient $ burst
           $ read_back $ bad_sector $ volume $ fault_member $ plant $ json
           $ seed $ replay));
    ]
  in
  exit
    (Cmd.eval
       (Cmd.group
          (Cmd.info "lfstool" ~version:"1.0"
             ~doc:"Inspect and modify LFS disk images.")
          cmds))
