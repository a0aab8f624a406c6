(** Rendering benchmark results as the paper's figures (text form). *)

module Table = Lfs_util.Table

let bar value ~max ~width =
  if max <= 0.0 || value <= 0.0 then ""
  else begin
    let n = int_of_float (value /. max *. float_of_int width) in
    String.make (min width (Stdlib.max 1 n)) '#'
  end


let f0 = Table.fmt_float ~decimals:0

(* Per-phase metric tables: one row per selected instrument, one column
   per phase.  Gauges and empty histograms are elided — the interesting
   quantities across a benchmark phase are the deltas. *)
let phase_metrics ~label ?(prefixes = [ "disk."; "cache."; "lfs." ])
    (phases : (string * Lfs_obs.Metrics.snapshot) list) =
  let interesting name =
    List.exists (fun p -> String.starts_with ~prefix:p name) prefixes
  in
  let names =
    List.sort_uniq compare
      (List.concat_map
         (fun (_, snap) ->
           List.filter_map
             (fun (name, v) ->
               match v with
               | Lfs_obs.Metrics.Counter n when n <> 0 && interesting name ->
                   Some name
               | _ -> None)
             snap)
         phases)
  in
  if names = [] then ""
  else begin
    let cell snap name =
      match Lfs_obs.Metrics.find snap name with
      | Some (Lfs_obs.Metrics.Counter n) -> string_of_int n
      | _ -> "0"
    in
    let rows =
      List.map
        (fun name -> name :: List.map (fun (_, snap) -> cell snap name) phases)
        names
    in
    Printf.sprintf "%s metrics per phase:\n%s" label
      (Table.render
         ~headers:("metric" :: List.map fst phases)
         rows)
  end

let fig12 (results : Creation_trace.summary list) =
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    "Figures 1 & 2 - disk writes caused by creating two one-block files\n";
  Buffer.add_string buf
    "(paper: FFS makes ~8 small random writes, half synchronous;\n\
    \ LFS makes one large sequential asynchronous transfer)\n\n";
  let rows =
    List.map
      (fun (r : Creation_trace.summary) ->
        [
          r.Creation_trace.label;
          string_of_int r.Creation_trace.writes;
          string_of_int r.Creation_trace.sync_writes;
          string_of_int (r.Creation_trace.writes - r.Creation_trace.sequential_writes);
          string_of_int r.Creation_trace.sectors_written;
        ])
      results
  in
  Buffer.add_string buf
    (Table.render
       ~headers:[ "system"; "writes"; "sync"; "seeks"; "sectors" ]
       rows);
  List.iter
    (fun (r : Creation_trace.summary) ->
      Buffer.add_string buf (Printf.sprintf "\n%s write trace:\n" r.Creation_trace.label);
      List.iter
        (fun (req : Creation_trace.write) ->
          Buffer.add_string buf
            (Printf.sprintf "  sector %7d  %4d sectors  %s %s\n"
               req.Creation_trace.sector req.Creation_trace.sectors
               (if req.Creation_trace.sync then "sync " else "async")
               (if req.Creation_trace.sequential then "sequential" else "seek")))
        r.Creation_trace.requests)
    results;
  Buffer.contents buf

let fig3 (results : Smallfile.result list) =
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    "Figure 3 - small-file I/O (files per second, higher is better)\n\n";
  let groups =
    List.sort_uniq compare
      (List.map (fun (r : Smallfile.result) -> (r.Smallfile.file_size, r.Smallfile.nfiles)) results)
  in
  List.iter
    (fun (file_size, nfiles) ->
      Buffer.add_string buf
        (Printf.sprintf "%d files of %d bytes:\n" nfiles file_size);
      let rows =
        List.filter_map
          (fun (r : Smallfile.result) ->
            if r.Smallfile.file_size = file_size && r.Smallfile.nfiles = nfiles
            then
              Some
                [
                  r.Smallfile.label;
                  f0 r.Smallfile.create_per_sec;
                  f0 r.Smallfile.read_per_sec;
                  f0 r.Smallfile.delete_per_sec;
                ]
            else None)
          results
      in
      Buffer.add_string buf
        (Table.render ~headers:[ "system"; "create/s"; "read/s"; "delete/s" ] rows);
      Buffer.add_char buf '\n')
    groups;
  List.iter
    (fun (r : Smallfile.result) ->
      match phase_metrics ~label:r.Smallfile.label r.Smallfile.phases with
      | "" -> ()
      | tbl ->
          Buffer.add_string buf tbl;
          Buffer.add_char buf '\n')
    results;
  Buffer.contents buf

let fig4 (results : Largefile.result list) =
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    "Figure 4 - large-file I/O (KB/s, 8 KB requests)\n\n";
  let rows =
    List.map
      (fun (r : Largefile.result) ->
        [
          r.Largefile.label;
          f0 r.Largefile.seq_write_kbs;
          f0 r.Largefile.seq_read_kbs;
          f0 r.Largefile.rand_write_kbs;
          f0 r.Largefile.rand_read_kbs;
          f0 r.Largefile.seq_reread_kbs;
        ])
      results
  in
  Buffer.add_string buf
    (Table.render
       ~headers:
         [ "system"; "seq write"; "seq read"; "rand write"; "rand read"; "seq reread" ]
       rows);
  List.iter
    (fun (r : Largefile.result) ->
      match phase_metrics ~label:r.Largefile.label r.Largefile.phases with
      | "" -> ()
      | tbl ->
          Buffer.add_char buf '\n';
          Buffer.add_string buf tbl)
    results;
  Buffer.contents buf

let fig5 (points : Cleaning.point list) =
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    "Figure 5 - segment cleaning rate vs segment utilization\n\n";
  let maxrate =
    List.fold_left
      (fun m (p : Cleaning.point) ->
        if p.Cleaning.clean_kb_per_sec = infinity then m
        else Stdlib.max m p.Cleaning.clean_kb_per_sec)
      1.0 points
  in
  let rows =
    List.map
      (fun (p : Cleaning.point) ->
        [
          Table.fmt_float ~decimals:2 p.Cleaning.utilization;
          f0 p.Cleaning.clean_kb_per_sec;
          f0 p.Cleaning.net_kb_per_sec;
          string_of_int p.Cleaning.segments_cleaned;
          Table.fmt_float ~decimals:2 p.Cleaning.write_cost;
          bar p.Cleaning.clean_kb_per_sec ~max:maxrate ~width:40;
        ])
      points
  in
  Buffer.add_string buf
    (Table.render
       ~align:
         [
           Table.Right; Table.Right; Table.Right; Table.Right; Table.Right;
           Table.Left;
         ]
       ~headers:[ "utilization"; "KB/s"; "net KB/s"; "segments"; "cost"; "" ]
       rows);
  Buffer.contents buf

let policy_ablation (results : Hotcold.result list) =
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    "Ablation - cleaning policy vs overwrite locality (write cost: lower is better)\n\n";
  let rows =
    List.map
      (fun (r : Hotcold.result) ->
        [
          Lfs_core.Config.policy_name r.Hotcold.policy;
          Table.fmt_float ~decimals:2 r.Hotcold.theta;
          Table.fmt_float ~decimals:2 r.Hotcold.disk_utilization;
          Table.fmt_float ~decimals:2 r.Hotcold.write_cost;
          f0 r.Hotcold.write_kbs;
          string_of_int r.Hotcold.segments_cleaned;
        ])
      results
  in
  Buffer.add_string buf
    (Table.render
       ~headers:[ "policy"; "theta"; "disk util"; "write cost"; "KB/s"; "cleaned" ]
       rows);
  Buffer.contents buf


