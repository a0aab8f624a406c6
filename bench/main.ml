(* Benchmark harness: regenerates every figure of the paper's evaluation
   (Figures 1-5) plus the ablations listed in DESIGN.md.

   Usage:
     main.exe                 run all paper figures at paper scale
     main.exe fig3 fig5       run selected experiments
     main.exe --quick         reduced sizes (used by the test suite)

   All rates are in *simulated* time on the paper's hardware model
   (WREN IV disk, Sun-4/260 CPU); see EXPERIMENTS.md for paper-vs-measured
   commentary. *)

module Config = Lfs_core.Config
module W = Lfs_workload
module J = Lfs_obs.Json

let quick = ref false
let selected = ref []

(* Machine-readable output: each experiment contributes its figure's
   numbers here; [--json FILE] writes the collection as
   {"schema":"lfs-bench/1", ...} for plotting and regression tracking. *)
let json_out = ref None
let check_json = ref None
let figures : (string * J.t) list ref = ref []

let add_figure name j =
  figures := (name, j) :: List.remove_assoc name !figures

let say fmt = Printf.printf (fmt ^^ "\n%!")

let header title =
  say "";
  say "==================================================================";
  say "%s" title;
  say "=================================================================="

(* ------------------------------------------------------------------ *)
(* Figures 1 & 2: the two-file creation trace                          *)
(* ------------------------------------------------------------------ *)

let run_fig12 () =
  header "Figures 1 & 2: disk writes for the two-file creation example";
  let results =
    List.map W.Creation_trace.run (W.Setup.both ~disk_mb:(if !quick then 16 else 64) ())
  in
  add_figure "fig12"
    (J.List
       (List.map
          (fun (r : W.Creation_trace.summary) ->
            J.Obj
              [
                ("label", J.String r.W.Creation_trace.label);
                ("writes", J.Int r.W.Creation_trace.writes);
                ("sync_writes", J.Int r.W.Creation_trace.sync_writes);
                ( "sequential_writes",
                  J.Int r.W.Creation_trace.sequential_writes );
                ("sectors_written", J.Int r.W.Creation_trace.sectors_written);
              ])
          results));
  print_string (W.Report.fig12 results)

(* ------------------------------------------------------------------ *)
(* Figure 3: small-file I/O                                            *)
(* ------------------------------------------------------------------ *)

let run_fig3 () =
  header "Figure 3: small-file create/read/delete rates";
  let cases =
    if !quick then [ (1024, 1000); (10 * 1024, 200) ]
    else [ (1024, 10_000); (10 * 1024, 1_000) ]
  in
  let disk_mb = if !quick then 64 else 300 in
  let results =
    List.concat_map
      (fun (file_size, nfiles) ->
        List.map
          (fun inst -> W.Smallfile.run ~nfiles ~file_size inst)
          (W.Setup.both ~disk_mb ()))
      cases
  in
  add_figure "fig3"
    (J.List
       (List.map
          (fun (r : W.Smallfile.result) ->
            J.Obj
              [
                ("label", J.String r.W.Smallfile.label);
                ("nfiles", J.Int r.W.Smallfile.nfiles);
                ("file_size", J.Int r.W.Smallfile.file_size);
                ("create_per_sec", J.Float r.W.Smallfile.create_per_sec);
                ("read_per_sec", J.Float r.W.Smallfile.read_per_sec);
                ("delete_per_sec", J.Float r.W.Smallfile.delete_per_sec);
                ( "phases",
                  J.Obj
                    (List.map
                       (fun (name, snap) ->
                         (name, Lfs_obs.Metrics.to_json snap))
                       r.W.Smallfile.phases) );
              ])
          results));
  print_string (W.Report.fig3 results)

(* ------------------------------------------------------------------ *)
(* Figure 4: large-file I/O                                            *)
(* ------------------------------------------------------------------ *)

let run_fig4 () =
  header "Figure 4: large-file transfer rates (8 KB requests)";
  let file_mb = if !quick then 8 else 100 in
  let disk_mb = if !quick then 64 else 300 in
  let results =
    List.map (fun i -> W.Largefile.run ~file_mb i) (W.Setup.both ~disk_mb ())
  in
  add_figure "fig4"
    (J.List
       (List.map
          (fun (r : W.Largefile.result) ->
            J.Obj
              [
                ("label", J.String r.W.Largefile.label);
                ("file_mb", J.Int r.W.Largefile.file_mb);
                ("seq_write_kbs", J.Float r.W.Largefile.seq_write_kbs);
                ("seq_read_kbs", J.Float r.W.Largefile.seq_read_kbs);
                ("rand_write_kbs", J.Float r.W.Largefile.rand_write_kbs);
                ("rand_read_kbs", J.Float r.W.Largefile.rand_read_kbs);
                ("seq_reread_kbs", J.Float r.W.Largefile.seq_reread_kbs);
                ( "phases",
                  J.Obj
                    (List.map
                       (fun (name, snap) ->
                         (name, Lfs_obs.Metrics.to_json snap))
                       r.W.Largefile.phases) );
              ])
          results));
  print_string (W.Report.fig4 results)

(* ------------------------------------------------------------------ *)
(* Figure 5: cleaning rate vs segment utilization                      *)
(* ------------------------------------------------------------------ *)

let run_fig5 () =
  header "Figure 5: segment cleaning rate vs utilization";
  let disk_mb = if !quick then 24 else 48 in
  let utilizations = [ 0.0; 0.1; 0.2; 0.3; 0.4; 0.5; 0.6; 0.7; 0.8; 0.9 ] in
  (* A right-sized inode map: the default 65536-file map would put a
     fixed ~1.5 MB of metadata into the log and distort small-disk
     utilization measurements. *)
  let config = { Config.default with Config.max_files = 16384 } in
  let make () =
    let io = W.Setup.make_io ~disk_mb () in
    (match Lfs_core.Fs.format io config with
    | Ok () -> ()
    | Error e -> failwith e);
    match Lfs_core.Fs.mount ~config io with Ok fs -> fs | Error e -> failwith e
  in
  let points = W.Cleaning.sweep ~utilizations make in
  add_figure "fig5"
    (J.List
       (List.map
          (fun (p : W.Cleaning.point) ->
            J.Obj
              [
                ("utilization", J.Float p.W.Cleaning.utilization);
                ("clean_kb_per_sec", J.Float p.W.Cleaning.clean_kb_per_sec);
                ("net_kb_per_sec", J.Float p.W.Cleaning.net_kb_per_sec);
                ("segments_cleaned", J.Int p.W.Cleaning.segments_cleaned);
                ("write_cost", J.Float p.W.Cleaning.write_cost);
              ])
          points));
  print_string (W.Report.fig5 points)

(* ------------------------------------------------------------------ *)
(* Ablations                                                           *)
(* ------------------------------------------------------------------ *)

let run_ablation_segsize () =
  header "Ablation: segment size vs small-write bandwidth (the seek\n\
          amortization argument of section 4.3)";
  let disk_mb = 64 in
  let sizes = [ 64 * 1024; 256 * 1024; 1 lsl 20; 4 lsl 20 ] in
  let rows =
    List.map
      (fun segment_size ->
        (* Cleaning thresholds are segment counts: scale them so every
           configuration reserves about the same bytes. *)
        let reserve = max 2 (4 * (1 lsl 20) / segment_size) in
        let config =
          {
            Config.default with
            Config.segment_size;
            reserve_segments = reserve;
            clean_threshold_segments = 2 * reserve;
            clean_target_segments = 3 * reserve;
          }
        in
        let io = W.Setup.make_io ~disk_mb () in
        (match Lfs_core.Fs.format io config with
        | Ok () -> ()
        | Error e -> failwith e);
        let fs =
          match Lfs_core.Fs.mount ~config io with
          | Ok fs -> fs
          | Error e -> failwith e
        in
        let inst = Lfs_vfs.Fs_intf.Instance ((module Lfs_core.Fs), fs) in
        (* The effect of segment size is on the *disk*, not the (CPU-bound)
           application: measure effective write bandwidth — bytes reaching
           the media per second of device busy time.  Small segments pay a
           seek per few blocks and cannot amortize it. *)
        let nfiles = if !quick then 2_000 else 8_000 in
        W.Driver.mkdir inst "/d";
        for i = 0 to nfiles - 1 do
          let path = Printf.sprintf "/d/f%05d" i in
          W.Driver.create inst path;
          W.Driver.write inst path ~off:0 (W.Driver.content ~seed:i 1024);
          if i mod 200 = 199 then W.Driver.sync inst
        done;
        W.Driver.sync inst;
        let stats = Lfs_disk.Io.disk_stats io in
        W.Driver.sanitize inst;
        let bandwidth =
          float_of_int (stats.Lfs_disk.Disk.sectors_written * 512)
          /. (float_of_int stats.Lfs_disk.Disk.busy_us /. 1e6)
          /. 1024.0
        in
        [
          Lfs_util.Table.fmt_bytes segment_size;
          Lfs_util.Table.fmt_float ~decimals:0 bandwidth;
          string_of_int stats.Lfs_disk.Disk.seeks;
        ])
      sizes
  in
  print_string
    (Lfs_util.Table.render
       ~headers:[ "segment size"; "disk write KB/s"; "seeks" ]
       rows)

let hotcold_config = { Config.default with Config.max_files = 16384 }

let hotcold_fs ~disk_mb () =
  let io = W.Setup.make_io ~disk_mb () in
  (match Lfs_core.Fs.format io hotcold_config with
  | Ok () -> ()
  | Error e -> failwith e);
  match Lfs_core.Fs.mount ~config:hotcold_config io with
  | Ok fs -> fs
  | Error e -> failwith e

let run_ablation_policy () =
  header "Ablation: cleaning policy under uniform vs hot/cold overwrites";
  let disk_mb = if !quick then 24 else 48 in
  let ops = if !quick then 4_000 else 20_000 in
  let rows =
    List.concat_map
      (fun theta ->
        List.map
          (fun policy ->
            (* A policy that cannot regenerate free space fast enough
               collapses with ENOSPC — that is a result, not a crash. *)
            match
              W.Hotcold.run ~theta ~ops ~disk_utilization:0.7 ~policy
                (hotcold_fs ~disk_mb ())
            with
            | r ->
                [
                  Config.policy_name policy;
                  Lfs_util.Table.fmt_float ~decimals:2 theta;
                  Lfs_util.Table.fmt_float ~decimals:2 r.W.Hotcold.write_cost;
                  Lfs_util.Table.fmt_float ~decimals:0 r.W.Hotcold.write_kbs;
                  string_of_int r.W.Hotcold.segments_cleaned;
                ]
            | exception W.Driver.Benchmark_failure _ ->
                [
                  Config.policy_name policy;
                  Lfs_util.Table.fmt_float ~decimals:2 theta;
                  "collapsed";
                  "-";
                  "-";
                ])
          [ Config.Greedy; Config.Cost_benefit; Config.Oldest ])
      [ 0.0; 0.99 ]
  in
  print_string
    (Lfs_util.Table.render
       ~headers:[ "policy"; "theta"; "write cost"; "KB/s"; "cleaned" ]
       rows)

let run_ablation_util () =
  header "Ablation: disk utilization vs cleaning write cost";
  let disk_mb = if !quick then 24 else 48 in
  let ops = if !quick then 4_000 else 15_000 in
  let rows =
    List.map
      (fun u ->
        let r =
          W.Hotcold.run ~theta:0.0 ~ops ~disk_utilization:u
            ~policy:Config.Greedy (hotcold_fs ~disk_mb ())
        in
        [
          Lfs_util.Table.fmt_float ~decimals:2 u;
          Lfs_util.Table.fmt_float ~decimals:2 r.W.Hotcold.write_cost;
          Lfs_util.Table.fmt_float ~decimals:0 r.W.Hotcold.write_kbs;
        ])
      [ 0.2; 0.35; 0.5; 0.65; 0.8 ]
  in
  print_string
    (Lfs_util.Table.render
       ~headers:[ "disk utilization"; "write cost"; "write KB/s" ]
       rows)

let run_ablation_checkpoint () =
  header "Ablation: checkpoint interval vs recovery cost and data loss";
  let disk_mb = if !quick then 16 else 32 in
  let rows =
    List.map
      (fun (interval_s, roll_forward) ->
        let config =
          {
            Config.default with
            Config.checkpoint_interval_us = interval_s * 1_000_000;
            roll_forward;
          }
        in
        let io = W.Setup.make_io ~disk_mb () in
        (match Lfs_core.Fs.format io config with
        | Ok () -> ()
        | Error e -> failwith e);
        let fs =
          match Lfs_core.Fs.mount ~config io with
          | Ok fs -> fs
          | Error e -> failwith e
        in
        let inst = Lfs_vfs.Fs_intf.Instance ((module Lfs_core.Fs), fs) in
        (* Write files for ~90 simulated seconds (capped at ~60% of the
           disk), syncing every few files but never checkpointing
           explicitly — periodic checkpoints happen only at the
           configured interval.  Then crash (no unmount) and measure
           recovery. *)
        let layout = Lfs_core.Fs.layout fs in
        let max_files =
          layout.Lfs_core.Layout.nsegments
          * layout.Lfs_core.Layout.payload_blocks
          * layout.Lfs_core.Layout.block_size * 6 / 10
          / (4096 + Lfs_core.Layout.inode_bytes)
        in
        let i = ref 0 in
        while Lfs_disk.Io.now_us io < 90_000_000 && !i < max_files do
          let path = Printf.sprintf "/f%06d" !i in
          W.Driver.create inst path;
          W.Driver.write inst path ~off:0 (W.Driver.content ~seed:!i 4096);
          if !i mod 10 = 9 then W.Driver.sync inst;
          incr i
        done;
        (* Everything synced so far is in the log; whether recovery sees
           it depends on roll-forward vs the last periodic checkpoint. *)
        let written = !i in
        let t0 = Lfs_disk.Io.now_us io in
        let fs2 =
          match Lfs_core.Fs.mount ~config io with
          | Ok fs -> fs
          | Error e -> failwith e
        in
        let recovery_us = Lfs_disk.Io.now_us io - t0 in
        let survived =
          match Lfs_core.Fs.readdir fs2 "/" with
          | Ok names -> List.length names
          | Error _ -> 0
        in
        (match Lfs_core.Fs.integrity fs2 with
        | [] -> ()
        | issues ->
            failwith
              (Printf.sprintf
                 "post-recovery integrity (interval %ds, roll-forward %b): %s"
                 interval_s roll_forward
                 (String.concat "; " issues)));
        [
          string_of_int interval_s;
          (if roll_forward then "yes" else "no");
          Format.asprintf "%a" Lfs_disk.Clock.pp_duration_us recovery_us;
          Printf.sprintf "%d/%d" survived written;
          string_of_int
            (Lfs_core.Fs.stats fs2).Lfs_core.State.rollforward_segments;
        ])
      [ (5, true); (30, true); (120, true); (5, false); (30, false); (120, false) ]
  in
  print_string
    (Lfs_util.Table.render
       ~headers:
         [ "interval (s)"; "roll-forward"; "recovery time"; "files survived"; "segs replayed" ]
       rows)

let run_scaling () =
  header "Ablation: CPU scaling (the section 3.1 argument - a 10x faster\n\
          CPU speeds file creation by only ~20% on FFS; LFS scales)";
  let nfiles = if !quick then 500 else 2_000 in
  let disk_mb = 64 in
  let rows =
    List.map
      (fun speedup ->
        let cpu =
          Lfs_disk.Cpu_model.scale Lfs_disk.Cpu_model.sun4_260
            (1.0 /. float_of_int speedup)
        in
        let rates =
          List.map
            (fun inst ->
              (W.Smallfile.run ~nfiles ~file_size:1024 inst).W.Smallfile
              .create_per_sec)
            (W.Setup.both ~disk_mb ~cpu ())
        in
        match rates with
        | [ lfs; ffs ] ->
            [
              Printf.sprintf "%dx" speedup;
              Lfs_util.Table.fmt_float ~decimals:0 lfs;
              Lfs_util.Table.fmt_float ~decimals:0 ffs;
            ]
        | _ -> assert false)
      [ 1; 2; 5; 10 ]
  in
  print_string
    (Lfs_util.Table.render
       ~headers:[ "CPU speed"; "LFS create/s"; "FFS create/s" ]
       rows);
  print_endline
    "\nLFS creation rate scales with the CPU; FFS stays pinned to disk\n\
     latency - the paper's MicroVAX-to-DecStation observation.";
  ()

let run_ablation_cache () =
  header "Ablation: file-cache size (section 2.2 - large caches absorb\n\
          reads, so disk traffic becomes write-dominated)";
  let events =
    W.Trace.generate
      ~config:
        {
          W.Trace.default_gen with
          W.Trace.events = (if !quick then 3_000 else 10_000);
          target_live = 800;
        }
      ()
  in
  let rows =
    List.map
      (fun cache_mb ->
        let lfs_config =
          {
            Config.default with
            Config.cache_blocks = cache_mb * 1024 * 1024 / 4096;
          }
        in
        let ffs_config =
          {
            Lfs_ffs.Config.default with
            Lfs_ffs.Config.cache_blocks = cache_mb * 1024 * 1024 / 8192;
          }
        in
        let measure inst =
          let r = W.Trace.replay inst events in
          let stats = Lfs_disk.Io.disk_stats (W.Driver.io inst) in
          (r.W.Trace.ops_per_sec, stats.Lfs_disk.Disk.sectors_read * 512)
        in
        let lfs_ops, lfs_read =
          measure (W.Setup.lfs ~disk_mb:128 ~config:lfs_config ())
        in
        let ffs_ops, ffs_read =
          measure (W.Setup.ffs ~disk_mb:128 ~config:ffs_config ())
        in
        [
          Printf.sprintf "%d MB" cache_mb;
          Lfs_util.Table.fmt_float ~decimals:0 lfs_ops;
          Lfs_util.Table.fmt_bytes lfs_read;
          Lfs_util.Table.fmt_float ~decimals:0 ffs_ops;
          Lfs_util.Table.fmt_bytes ffs_read;
          Lfs_util.Table.fmt_ratio (lfs_ops /. ffs_ops);
        ])
      [ 1; 4; 16 ]
  in
  print_string
    (Lfs_util.Table.render
       ~headers:
         [ "cache"; "LFS ops/s"; "LFS disk reads"; "FFS ops/s"; "FFS disk reads"; "speedup" ]
       rows);
  print_endline
    "\nBigger caches soak up reads on both systems; what remains is write\n\
     traffic, which is exactly where the log wins - the paper's premise."

let run_trace () =
  header "Trace replay: synthetic office/engineering workload (mixed\n\
          create/read/overwrite/delete, Zipf-skewed, short lifetimes)";
  let events =
    W.Trace.generate
      ~config:
        {
          W.Trace.default_gen with
          W.Trace.events = (if !quick then 4_000 else 20_000);
          target_live = (if !quick then 500 else 2_000);
        }
      ()
  in
  let results =
    List.map (fun inst -> W.Trace.replay inst events) (W.Setup.both ~disk_mb:128 ())
  in
  let rows =
    List.map
      (fun (r : W.Trace.result) ->
        [
          r.W.Trace.label;
          string_of_int r.W.Trace.events;
          Lfs_util.Table.fmt_float ~decimals:0 r.W.Trace.ops_per_sec;
          Lfs_util.Table.fmt_bytes r.W.Trace.bytes_written;
          Lfs_util.Table.fmt_bytes r.W.Trace.bytes_read;
        ])
      results
  in
  print_string
    (Lfs_util.Table.render
       ~headers:[ "system"; "events"; "ops/s"; "written"; "read" ]
       rows);
  match results with
  | [ lfs; ffs ] ->
      Printf.printf "\nLFS end-to-end speedup on the mixed workload: %s\n"
        (Lfs_util.Table.fmt_ratio (lfs.W.Trace.ops_per_sec /. ffs.W.Trace.ops_per_sec))
  | _ -> ()

(* ------------------------------------------------------------------ *)
(* Clustered reads + sequential read-ahead                             *)
(* ------------------------------------------------------------------ *)

(* Cold sequential re-read of one large file with 8 KB requests, with
   the read optimizations disabled and enabled.  The interesting numbers
   are disk read *requests* (clustering and read-ahead turn many
   single-block reads into few multi-block ones) and simulated read
   bandwidth (per-request CPU and missed-rotation costs disappear when
   the data arrives in large transfers). *)
let run_readahead () =
  header "Clustered reads + read-ahead: cold sequential re-read";
  let file_mb = if !quick then 4 else 32 in
  let disk_mb = if !quick then 64 else 128 in
  let request = 8192 in
  let size = file_mb * 1024 * 1024 in
  let nreq = size / request in
  let measure inst =
    let path = "/bigfile" in
    W.Driver.create inst path;
    for i = 0 to nreq - 1 do
      W.Driver.write inst path ~off:(i * request)
        (W.Driver.content ~seed:i request)
    done;
    W.Driver.sync inst;
    W.Driver.flush_caches inst;
    let io = W.Driver.io inst in
    let m = Lfs_disk.Io.metrics io in
    let cval name = Lfs_obs.Metrics.value (Lfs_obs.Metrics.counter m name) in
    let snap () =
      let s = Lfs_disk.Io.disk_stats io in
      ( s.Lfs_disk.Disk.reads,
        s.Lfs_disk.Disk.sectors_read,
        cval "io.readahead.issued",
        cval "io.readahead.hit",
        cval "io.readahead.wasted",
        cval "io.clustered_reads",
        cval "io.clustered_read_blocks" )
    in
    let r0, s0, i0, h0, w0, cr0, cb0 = snap () in
    let t0 = Lfs_disk.Io.now_us io in
    for i = 0 to nreq - 1 do
      ignore (W.Driver.read inst path ~off:(i * request) ~len:request)
    done;
    let elapsed_us = Lfs_disk.Io.now_us io - t0 in
    let r1, s1, i1, h1, w1, cr1, cb1 = snap () in
    let result =
      ( r1 - r0,
        s1 - s0,
        float_of_int size /. 1024.0 /. (float_of_int elapsed_us /. 1e6),
        i1 - i0,
        h1 - h0,
        w1 - w0,
        cr1 - cr0,
        cb1 - cb0 )
    in
    W.Driver.sanitize inst;
    result
  in
  let lfs_off =
    {
      Config.default with
      Config.read_clustering = false;
      readahead_blocks = 0;
    }
  in
  let ffs_off =
    {
      Lfs_ffs.Config.default with
      Lfs_ffs.Config.read_clustering = false;
      readahead_blocks = 0;
    }
  in
  let systems =
    [
      ( "LFS",
        measure (W.Setup.lfs ~disk_mb ~config:lfs_off ()),
        measure (W.Setup.lfs ~disk_mb ()) );
      ( "FFS",
        measure (W.Setup.ffs ~disk_mb ~config:ffs_off ()),
        measure (W.Setup.ffs ~disk_mb ()) );
    ]
  in
  let entries =
    List.map
      (fun ( label,
             (b_reads, b_sectors, b_kbs, _, _, _, _, _),
             (c_reads, c_sectors, c_kbs, issued, hit, wasted, creq, cblocks) ) ->
        J.Obj
          [
            ("label", J.String label);
            ("file_mb", J.Int file_mb);
            ("base_reads", J.Int b_reads);
            ("base_sectors", J.Int b_sectors);
            ("base_kbs", J.Float b_kbs);
            ("clustered_reads", J.Int c_reads);
            ("clustered_sectors", J.Int c_sectors);
            ("clustered_kbs", J.Float c_kbs);
            ( "read_ratio",
              J.Float (float_of_int b_reads /. float_of_int (max 1 c_reads)) );
            ("bandwidth_ratio", J.Float (c_kbs /. b_kbs));
            ("readahead_issued", J.Int issued);
            ("readahead_hit", J.Int hit);
            ("readahead_wasted", J.Int wasted);
            ("clustered_read_requests", J.Int creq);
            ("clustered_read_blocks", J.Int cblocks);
          ])
      systems
  in
  add_figure "readahead" (J.List entries);
  let rows =
    List.map
      (fun ( label,
             (b_reads, _, b_kbs, _, _, _, _, _),
             (c_reads, _, c_kbs, issued, hit, wasted, _, _) ) ->
        [
          label;
          string_of_int b_reads;
          string_of_int c_reads;
          Lfs_util.Table.fmt_ratio
            (float_of_int b_reads /. float_of_int (max 1 c_reads));
          Lfs_util.Table.fmt_float ~decimals:0 b_kbs;
          Lfs_util.Table.fmt_float ~decimals:0 c_kbs;
          Lfs_util.Table.fmt_ratio (c_kbs /. b_kbs);
          Printf.sprintf "%d/%d/%d" issued hit wasted;
        ])
      systems
  in
  print_string
    (Lfs_util.Table.render
       ~headers:
         [
           "system"; "reads (off)"; "reads (on)"; "fewer"; "KB/s (off)";
           "KB/s (on)"; "speedup"; "ra issued/hit/wasted";
         ]
       rows)

(* ------------------------------------------------------------------ *)
(* Profile: per-operation latency attribution                          *)
(* ------------------------------------------------------------------ *)

(* The small-file workload (Figure 3's shape) on a deliberately small
   disk, so the log wraps and cleaner/checkpoint interference shows up
   in the attribution columns.  Per op: latency percentiles plus the
   exclusive-time split across cache/CPU, disk, cleaner and checkpoint
   work — the four columns sum to the op's total by construction. *)
let run_profile () =
  header "Profile: per-operation latency attribution (small-file workload)";
  let nfiles = if !quick then 1000 else 5000 in
  let disk_mb = if !quick then 16 else 48 in
  let entries =
    List.concat_map
      (fun inst ->
        let prof = Lfs_obs.Profile.attach (W.Driver.bus inst) in
        ignore (W.Smallfile.run ~nfiles ~file_size:1024 inst);
        Lfs_obs.Profile.detach prof;
        let rep = Lfs_obs.Profile.report prof in
        let label = W.Driver.label inst in
        say "%s (%d files of 1 KB, %d MB disk, simulated us):" label nfiles
          disk_mb;
        print_string (Lfs_obs.Profile.render_ops rep);
        say "";
        List.map
          (fun s ->
            match Lfs_obs.Profile.json_of_op s with
            | J.Obj fields -> J.Obj (("label", J.String label) :: fields)
            | j -> j)
          rep.Lfs_obs.Profile.ops)
      (W.Setup.both ~disk_mb ())
  in
  add_figure "profile" (J.List entries)

(* ------------------------------------------------------------------ *)
(* Concurrency: multi-client engine under a real request scheduler     *)
(* ------------------------------------------------------------------ *)

(* The concurrent-engine measurement: aggregate throughput and latency
   percentiles vs client count, LFS vs FFS, under FCFS vs C-SCAN.
   LFS's asynchronous log absorbs added clients — throughput keeps
   scaling with offered load — while FFS's synchronous metadata writes
   convoy every client behind the disk; C-SCAN buys back positioning
   time exactly where the device queue runs deep (FFS's scattered
   write-back), and changes nothing where the log is already
   sequential. *)
let run_concurrency () =
  header "Concurrency: N clients over one instance, FCFS vs C-SCAN";
  let client_counts = [ 1; 2; 4; 8; 16 ] in
  let ops = if !quick then 80 else 250 in
  let disk_mb = if !quick then 48 else 96 in
  let entries =
    List.concat_map
      (fun disc ->
        List.concat_map
          (fun clients ->
            List.map
              (fun inst ->
                let config =
                  {
                    W.Engine.default with
                    W.Engine.clients;
                    ops_per_client = ops;
                    discipline = Some disc;
                  }
                in
                let r = W.Engine.run ~config inst in
                say
                  "%-4s %-5s %2d clients: %7.1f ops/s  p50 %6d us  p99 %7d \
                   us  qdepth %4.1f  pos %5.0f us"
                  r.W.Engine.label r.W.Engine.discipline clients
                  r.W.Engine.ops_per_sec r.W.Engine.p50_us r.W.Engine.p99_us
                  r.W.Engine.mean_queue_depth r.W.Engine.mean_positioning_us;
                W.Engine.to_json r)
              (W.Setup.both ~disk_mb ()))
          client_counts)
      [ Lfs_disk.Sched.Fcfs; Lfs_disk.Sched.Cscan ]
  in
  add_figure "concurrency" (J.List entries)

let run_ablation_recovery () =
  header "Ablation: crash-recovery time - LFS checkpoint+roll-forward vs\n\
          FFS full-disk scan (fsck)";
  let cases = if !quick then [ 500; 2_000 ] else [ 1_000; 5_000; 20_000 ] in
  let rows =
    List.concat_map
      (fun nfiles ->
        let disk_mb = max 32 (nfiles * 12 / 1024) in
        (* Identical populations on both systems.  LFS checkpoints at 90%
           (a periodic checkpoint would have happened anyway), writes the
           final 10%, syncs — then the machine "crashes".  FFS syncs and
           crashes the same way. *)
        let lfs_fs =
          let io = W.Setup.make_io ~disk_mb () in
          (match Lfs_core.Fs.format io Config.default with
          | Ok () -> ()
          | Error e -> failwith e);
          match Lfs_core.Fs.mount io with
          | Ok fs -> fs
          | Error e -> failwith e
        in
        let lfs_inst = Lfs_vfs.Fs_intf.Instance ((module Lfs_core.Fs), lfs_fs) in
        let ffs_inst = W.Setup.ffs ~disk_mb () in
        let populate ?checkpoint_at inst =
          let ndirs = (nfiles + 99) / 100 in
          for d = 0 to ndirs - 1 do
            W.Driver.mkdir inst (Printf.sprintf "/d%04d" d)
          done;
          for i = 0 to nfiles - 1 do
            let path = Printf.sprintf "/d%04d/f%05d" (i / 100) i in
            W.Driver.create inst path;
            W.Driver.write inst path ~off:0 (W.Driver.content ~seed:i 2048);
            if i mod 200 = 199 then W.Driver.sync inst;
            match checkpoint_at with
            | Some n when i = n -> Lfs_core.Fs.checkpoint_now lfs_fs
            | Some _ | None -> ()
          done;
          W.Driver.sync inst
        in
        populate ~checkpoint_at:(nfiles * 9 / 10) lfs_inst;
        populate ffs_inst;
        let lfs_io = W.Driver.io lfs_inst in
        let media = Lfs_disk.Io.snapshot_media lfs_io in
        (* Recovery with roll-forward: replays the synced 10% tail. *)
        let audit what fs =
          (* After the timer stops — the scan must not count as recovery
             time. *)
          match Lfs_core.Fs.integrity fs with
          | [] -> ()
          | issues ->
              failwith (what ^ " integrity: " ^ String.concat "; " issues)
        in
        let cval name =
          Lfs_obs.Metrics.value
            (Lfs_obs.Metrics.counter (Lfs_disk.Io.metrics lfs_io) name)
        in
        let seg0 = cval "lfs.rollforward_segments" in
        let t0 = Lfs_disk.Io.now_us lfs_io in
        let rf_fs =
          match Lfs_core.Fs.mount lfs_io with
          | Ok fs -> fs
          | Error e -> failwith ("LFS recovery: " ^ e)
        in
        let rf_us = Lfs_disk.Io.now_us lfs_io - t0 in
        let segments_replayed = cval "lfs.rollforward_segments" - seg0 in
        audit "post-roll-forward" rf_fs;
        (* The paper's 1990 configuration: checkpoint only, no
           roll-forward — recovery is just the mount code. *)
        Lfs_disk.Io.restore_media lfs_io media;
        let config = { Config.default with Config.roll_forward = false } in
        let t0 = Lfs_disk.Io.now_us lfs_io in
        let cp_fs =
          match Lfs_core.Fs.mount ~config lfs_io with
          | Ok fs -> fs
          | Error e -> failwith ("LFS cp-only recovery: " ^ e)
        in
        let cp_us = Lfs_disk.Io.now_us lfs_io - t0 in
        audit "post-checkpoint-only" cp_fs;
        let ffs_io = W.Driver.io ffs_inst in
        let report =
          match Lfs_ffs.Fsck.run ffs_io with
          | Ok r -> r
          | Error e -> failwith ("fsck: " ^ e)
        in
        W.Driver.sanitize ffs_inst;
        let dur us = Format.asprintf "%a" Lfs_disk.Clock.pp_duration_us us in
        let entry =
          J.Obj
            [
              ("files", J.Int nfiles);
              ("lfs_checkpoint_us", J.Int cp_us);
              ("lfs_rollforward_us", J.Int rf_us);
              ("segments_replayed", J.Int segments_replayed);
              ("ffs_fsck_us", J.Int report.Lfs_ffs.Fsck.elapsed_us);
              ( "fsck_over_rollforward",
                J.Float
                  (float_of_int report.Lfs_ffs.Fsck.elapsed_us
                  /. float_of_int (max 1 rf_us)) );
            ]
        in
        [
          ( entry,
            [
              string_of_int nfiles;
              dur cp_us;
              dur rf_us;
              string_of_int segments_replayed;
              dur report.Lfs_ffs.Fsck.elapsed_us;
              Lfs_util.Table.fmt_ratio
                (float_of_int report.Lfs_ffs.Fsck.elapsed_us
                /. float_of_int (max 1 rf_us));
            ] );
        ])
      cases
  in
  add_figure "recovery" (J.List (List.map fst rows));
  print_string
    (Lfs_util.Table.render
       ~headers:
         [
           "files"; "LFS (checkpoint only)"; "LFS (roll-forward)";
           "segments replayed"; "FFS fsck"; "fsck / LFS-rf";
         ]
       (List.map snd rows))


(* ------------------------------------------------------------------ *)
(* Scale-out: multi-disk volumes - log bandwidth vs spindle count      *)
(* ------------------------------------------------------------------ *)

(* The paper's closing argument (section 6): because LFS turns all
   writes into large sequential log transfers, its write bandwidth
   should scale with the number of spindles when the log is striped -
   each whole-segment write splits into one contiguous run per member
   and completes in roughly segment/N media time.  FFS issues small
   update-in-place writes that land on one member each and serialize on
   completion, so extra spindles buy it little.  [Log_stripe] aligns the
   stripe with the segment (via [Config.segment_align_sectors]) so every
   member stream stays sequential; plain [Stripe] with a small chunk
   gets the same parallelism but chops each member's stream into
   scattered chunks - the per-member seek counts tell the two apart. *)
let run_scaleout () =
  header "Scale-out: write bandwidth vs volume members (striped log)";
  let member_mb = if !quick then 16 else 48 in
  let nfiles = if !quick then 256 else 1024 in
  let file_size = 8 * 1024 in
  let member_counts = [ 1; 2; 4; 8 ] in
  let config = Config.default in
  let stripe = config.Config.segment_size / 512 in
  let entries =
    List.concat_map
      (fun (policy_name, policy_of, align) ->
        List.concat_map
          (fun members ->
            let run label mk =
              let io =
                W.Setup.make_volume_io ~disk_mb:member_mb
                  ~cpu:Lfs_disk.Cpu_model.free ~policy:(policy_of members)
                  ~members ()
              in
              let inst = mk io in
              (* Seeks are measured as a delta over the timed window:
                 format and mount scan per-segment metadata (all of
                 which lands on member 0 under a stripe) and would
                 otherwise swamp the steady-state log behaviour this
                 figure is about. *)
              let seeks_at_start =
                List.init members (fun i ->
                    (Lfs_disk.Io.member_stats io i).Lfs_disk.Disk.seeks)
              in
              let t0 = Lfs_disk.Io.now_us io in
              for i = 0 to nfiles - 1 do
                let path = Printf.sprintf "/f%05d" i in
                W.Driver.create inst path;
                W.Driver.write inst path ~off:0
                  (W.Driver.content ~seed:i file_size);
                (* Sync once per segment's worth of data: frequent enough
                   that FFS cannot hide in its cache, rare enough that
                   the log still ships (mostly) whole segments. *)
                if (i + 1) * file_size mod config.Config.segment_size = 0 then
                  W.Driver.sync inst
              done;
              W.Driver.sync inst;
              let elapsed_us = max 1 (Lfs_disk.Io.now_us io - t0) in
              let member_seeks =
                List.map2 (fun s0 s -> s - s0) seeks_at_start
                  (List.init members (fun i ->
                       (Lfs_disk.Io.member_stats io i).Lfs_disk.Disk.seeks))
              in
              let stats = Lfs_disk.Io.disk_stats io in
              W.Driver.sanitize inst;
              let mbs =
                float_of_int (nfiles * file_size)
                /. 1024.0 /. 1024.0
                /. (float_of_int elapsed_us /. 1e6)
              in
              say "%-4s %-10s %d member%s: %6.2f MB/s  seeks/member max %5d"
                label policy_name members
                (if members = 1 then " " else "s")
                mbs
                (List.fold_left max 0 member_seeks);
              J.Obj
                [
                  ("label", J.String label);
                  ("policy", J.String policy_name);
                  ("members", J.Int members);
                  ("files", J.Int nfiles);
                  ("file_size", J.Int file_size);
                  ("elapsed_us", J.Int elapsed_us);
                  ("write_mb_per_sec", J.Float mbs);
                  ("sectors_written", J.Int stats.Lfs_disk.Disk.sectors_written);
                  ( "seeks_per_member_max",
                    J.Int (List.fold_left max 0 member_seeks) );
                  ( "seeks_per_member_min",
                    J.Int (List.fold_left min max_int member_seeks) );
                ]
            in
            let lfs_config = { config with Config.segment_align_sectors = align } in
            [
              run "LFS" (fun io -> W.Setup.lfs_on io ~config:lfs_config ());
              run "FFS" (fun io -> W.Setup.ffs_on io ());
            ])
          member_counts)
      [
        ( "log_stripe",
          (fun _ -> Lfs_disk.Volume.Log_stripe { stripe_sectors = stripe }),
          stripe );
        ("stripe", (fun _ -> Lfs_disk.Volume.Stripe { chunk_sectors = 64 }), 0);
      ]
  in
  add_figure "scaleout" (J.List entries);
  print_endline
    "\nLFS write bandwidth grows with the member count because every\n\
     segment write splits into one contiguous run per spindle; FFS\n\
     serializes small writes and stays pinned to one-disk latency."

(* ------------------------------------------------------------------ *)

let experiments =
  [
    ("fig1", run_fig12);
    ("fig2", run_fig12);
    ("fig12", run_fig12);
    ("fig3", run_fig3);
    ("fig4", run_fig4);
    ("fig5", run_fig5);
    ("segsize", run_ablation_segsize);
    ("policy", run_ablation_policy);
    ("util", run_ablation_util);
    ("checkpoint", run_ablation_checkpoint);
    ("recovery", run_ablation_recovery);
    ("scaling", run_scaling);
    ("cache", run_ablation_cache);
    ("trace", run_trace);
    ("readahead", run_readahead);
    ("profile", run_profile);
    ("concurrency", run_concurrency);
    ("scaleout", run_scaleout);
  ]

let default_order =
  [
    "fig12"; "fig3"; "fig4"; "fig5"; "readahead"; "profile"; "concurrency";
    "scaleout"; "segsize"; "policy"; "util"; "checkpoint"; "recovery";
    "scaling"; "cache"; "trace";
  ]

(* ------------------------------------------------------------------ *)
(* Machine-readable output                                             *)
(* ------------------------------------------------------------------ *)

let bench_schema = "lfs-bench/1"

(* Host words each experiment allocated, in run order: minor plus major
   less promoted, so a word promoted out of the minor heap counts once.
   OCaml allocation is deterministic, so the "host" figure gates host
   cost as tightly as the simulated figures gate theirs.  The minor count
   is [Gc.minor_words]: on OCaml 5.1 the one in [Gc.counters] leaves out
   the current minor heap, which would make the figure move with the
   collector's timing. *)
let host_words = ref []

let allocated_words () =
  let _, promoted, major = Gc.counters () in
  Gc.minor_words () +. major -. promoted

let run_experiment name =
  let before = allocated_words () in
  (List.assoc name experiments) ();
  let words = allocated_words () -. before in
  say "host allocation (%s): %.0f words" name words;
  host_words := (name, words) :: !host_words

let host_figure () =
  J.List
    (List.rev_map
       (fun (name, words) ->
         J.Obj
           [
             ("label", J.String name);
             ("alloc_words", J.Int (int_of_float words));
           ])
       !host_words)

let write_json file =
  let doc =
    J.Obj
      [
        ("schema", J.String bench_schema);
        ("quick", J.Bool !quick);
        ("figures", J.Obj (List.rev (("host", host_figure ()) :: !figures)));
      ]
  in
  let oc = open_out file in
  output_string oc (J.to_string_pretty doc);
  output_char oc '\n';
  close_out oc;
  say "wrote %s" file

(* Validate a [--json] file: the schema marker plus, for each figure
   present, the fields a plotting script would reach for.  Exits
   non-zero on the first problem. *)
let run_check_json file =
  let fail fmt =
    Printf.ksprintf
      (fun s ->
        Printf.eprintf "%s: %s\n" file s;
        exit 1)
      fmt
  in
  let doc =
    let ic = open_in_bin file in
    let len = in_channel_length ic in
    let raw = really_input_string ic len in
    close_in ic;
    match J.of_string_opt raw with
    | Some j -> j
    | None -> fail "not valid JSON"
  in
  (match J.member "schema" doc with
  | Some (J.String s) when s = bench_schema -> ()
  | Some (J.String s) -> fail "schema %S, expected %S" s bench_schema
  | _ -> fail "missing \"schema\"");
  let figs =
    match J.member "figures" doc with
    | Some (J.Obj kvs) -> kvs
    | _ -> fail "missing \"figures\" object"
  in
  if figs = [] then fail "\"figures\" is empty";
  let num entry field =
    match J.member field entry with
    | Some v -> (
        match J.to_float_opt v with
        | Some f -> f
        | None -> fail "field %S is not a number" field)
    | None -> fail "missing field %S" field
  in
  let check_entries name fields =
    match List.assoc_opt name figs with
    | None -> ()
    | Some (J.List entries) ->
        if entries = [] then fail "figure %S has no entries" name;
        List.iter
          (fun entry -> List.iter (fun f -> ignore (num entry f)) fields)
          entries;
        say "%s: %s ok (%d entries)" file name (List.length entries)
    | Some _ -> fail "figure %S is not a list" name
  in
  check_entries "fig12" [ "writes"; "sync_writes"; "sectors_written" ];
  check_entries "fig3" [ "create_per_sec"; "read_per_sec"; "delete_per_sec" ];
  check_entries "fig4"
    [
      "seq_write_kbs"; "seq_read_kbs"; "rand_write_kbs"; "rand_read_kbs";
      "seq_reread_kbs";
    ];
  check_entries "fig5" [ "utilization"; "clean_kb_per_sec"; "write_cost" ];
  check_entries "host" [ "alloc_words" ];
  check_entries "recovery"
    [
      "files"; "lfs_checkpoint_us"; "lfs_rollforward_us"; "segments_replayed";
      "ffs_fsck_us"; "fsck_over_rollforward";
    ];
  check_entries "readahead"
    [
      "base_reads"; "base_kbs"; "clustered_reads"; "clustered_kbs";
      "read_ratio"; "bandwidth_ratio"; "readahead_issued"; "readahead_hit";
      "readahead_wasted";
    ];
  check_entries "profile"
    [
      "count"; "total_us"; "mean_us"; "p50_us"; "p95_us"; "p99_us";
      "cache_us"; "disk_us"; "cleaner_us"; "checkpoint_us";
    ];
  check_entries "concurrency"
    [
      "clients"; "total_ops"; "elapsed_us"; "ops_per_sec"; "mean_us";
      "p50_us"; "p99_us"; "mean_queue_depth"; "mean_queue_wait_us";
      "mean_positioning_us";
    ];
  check_entries "scaleout"
    [
      "members"; "files"; "file_size"; "elapsed_us"; "write_mb_per_sec";
      "sectors_written"; "seeks_per_member_max"; "seeks_per_member_min";
    ];
  (* Entry lookup for the sweep figures (scaleout, concurrency): an
     entry is named by its label, a string key (policy or discipline)
     and an integer axis (members or clients). *)
  let str fig entry field =
    match J.member field entry with
    | Some (J.String s) -> s
    | _ -> fail "%s: missing string field %S" fig field
  in
  let find fig entries ~key ~axis label k n field =
    match
      List.find_opt
        (fun e ->
          str fig e "label" = label
          && str fig e key = k
          && int_of_float (num e axis) = n)
        entries
    with
    | Some e -> num e field
    | None -> fail "%s: missing entry %s/%s/%d" fig label k n
  in
  (* The scale-out invariants.  (a) Striping the log works: LFS write
     bandwidth under [log_stripe] grows at least 3x from 1 to 4 members
     while FFS gains under 1.5x from the same spindles.  (b) The
     segment-aligned stripe keeps every member's stream sequential: the
     busiest member of a 4-way log stripe seeks at most twice as often
     as the single-disk log does. *)
  (match List.assoc_opt "scaleout" figs with
  | Some (J.List entries) ->
      let find = find "scaleout" entries ~key:"policy" ~axis:"members" in
      let scaling label =
        find label "log_stripe" 4 "write_mb_per_sec"
        /. find label "log_stripe" 1 "write_mb_per_sec"
      in
      if scaling "LFS" < 3.0 then
        fail "scaleout: LFS log_stripe 1->4 members scales %gx, want >= 3x"
          (scaling "LFS");
      if scaling "FFS" >= 1.5 then
        fail "scaleout: FFS 1->4 members scales %gx, expected < 1.5x"
          (scaling "FFS");
      let single = find "LFS" "log_stripe" 1 "seeks_per_member_max" in
      let striped = find "LFS" "log_stripe" 4 "seeks_per_member_max" in
      if striped > 2.0 *. single then
        fail
          "scaleout: per-member seeks under log_stripe (%g) exceed 2x the \
           single-disk log (%g)"
          striped single
  | Some _ -> fail "figure \"scaleout\" is not a list"
  | None -> ());
  (* The concurrency invariants.  (a) LFS aggregate throughput degrades
     more gracefully than FFS as clients grow: the ratio of throughput
     at the highest client count to the lowest must be strictly better
     for LFS under every discipline.  (b) Reordering is a real
     optimisation, not an accounting fiction: wherever the FCFS run
     reaches mean queue depth >= 4, the matching C-SCAN run must show
     strictly lower mean positioning time — and at least one such deep
     pair must exist, or the figure measured nothing. *)
  (match List.assoc_opt "concurrency" figs with
  | Some (J.List entries) ->
      let str = str "concurrency" in
      let find = find "concurrency" entries ~key:"discipline" ~axis:"clients" in
      let clients_of label disc =
        List.filter_map
          (fun e ->
            if str e "label" = label && str e "discipline" = disc then
              Some (int_of_float (num e "clients"))
            else None)
          entries
      in
      List.iter
        (fun disc ->
          let cs = clients_of "LFS" disc in
          if cs = [] then fail "concurrency: no LFS entries for %s" disc;
          let lo = List.fold_left min (List.hd cs) cs in
          let hi = List.fold_left max (List.hd cs) cs in
          if hi <= lo then
            fail "concurrency: need more than one client count for %s" disc;
          let ratio label =
            find label disc hi "ops_per_sec" /. find label disc lo "ops_per_sec"
          in
          if ratio "LFS" <= ratio "FFS" then
            fail
              "concurrency: LFS throughput ratio %dx->%dx clients (%g) does \
               not beat FFS (%g) under %s"
              lo hi (ratio "LFS") (ratio "FFS") disc)
        [ "fcfs"; "cscan" ];
      let deep_pairs = ref 0 in
      List.iter
        (fun e ->
          if str e "discipline" = "fcfs" && num e "mean_queue_depth" >= 4.0
          then begin
            incr deep_pairs;
            let label = str e "label" in
            let clients = int_of_float (num e "clients") in
            let fcfs_pos = num e "mean_positioning_us" in
            let cscan_pos = find label "cscan" clients "mean_positioning_us" in
            if cscan_pos >= fcfs_pos then
              fail
                "concurrency: C-SCAN positioning (%g us) not below FCFS (%g \
                 us) for %s at %d clients (queue depth %g)"
                cscan_pos fcfs_pos label clients
                (num e "mean_queue_depth")
          end)
        entries;
      if !deep_pairs = 0 then
        fail "concurrency: no FCFS run reached mean queue depth >= 4"
  | Some _ -> fail "figure \"concurrency\" is not a list"
  | None -> ());
  (* The read-ahead accounting invariant: every prefetched block is
     eventually either consumed (hit) or written off (wasted), never
     both, so the served total cannot exceed what was issued. *)
  (match List.assoc_opt "readahead" figs with
  | Some (J.List entries) ->
      List.iter
        (fun entry ->
          let issued = num entry "readahead_issued" in
          let hit = num entry "readahead_hit" in
          let wasted = num entry "readahead_wasted" in
          if hit +. wasted > issued then
            fail "readahead: hit (%g) + wasted (%g) > issued (%g)" hit wasted
              issued)
        entries
  | Some _ | None -> ());
  (* The attribution invariant: the four exclusive-time columns must sum
     to the op's total (within 1% — they sum exactly by construction, so
     any drift is an instrumentation bug), and quantiles must be
     ordered. *)
  match List.assoc_opt "profile" figs with
  | Some (J.List entries) ->
      List.iter
        (fun entry ->
          let total = num entry "total_us" in
          let parts =
            num entry "cache_us" +. num entry "disk_us"
            +. num entry "cleaner_us"
            +. num entry "checkpoint_us"
          in
          if Float.abs (parts -. total) > Float.max 1.0 (total /. 100.0) then
            fail "profile: attribution %g does not sum to total %g" parts
              total;
          let p50 = num entry "p50_us" and p99 = num entry "p99_us" in
          if p50 > p99 then fail "profile: p50 (%g) > p99 (%g)" p50 p99)
        entries
  | Some _ | None -> ()

let usage () =
  Printf.eprintf
    "usage: main.exe [--quick] [--json FILE] [--check-json FILE] \
     [experiment...]\nknown experiments: %s\n"
    (String.concat ", " (List.map fst experiments));
  exit 2

let () =
  let argc = Array.length Sys.argv in
  let i = ref 1 in
  while !i < argc do
    (match Sys.argv.(!i) with
    | "--quick" -> quick := true
    | "--json" when !i + 1 < argc ->
        incr i;
        json_out := Some Sys.argv.(!i)
    | "--check-json" when !i + 1 < argc ->
        incr i;
        check_json := Some Sys.argv.(!i)
    | name when List.mem_assoc name experiments ->
        selected := name :: !selected
    | other ->
        Printf.eprintf "unknown argument %S\n" other;
        usage ());
    incr i
  done;
  match !check_json with
  | Some file -> run_check_json file
  | None ->
      let todo =
        match List.rev !selected with
        | [] -> default_order
        | l -> List.sort_uniq compare l
      in
      (* Host-side only: every figure is in simulated time, so the
         kernels move no number and stay out of the JSON. *)
      say "CRC-32 kernel: %s" (Lfs_util.Crc32.kernel ());
      say "byte-fill kernel: %s" (Lfs_util.Rng.kernel ());
      List.iter run_experiment todo;
      Option.iter write_json !json_out
