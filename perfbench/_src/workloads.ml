(* The four workloads.  Each round builds a fresh stack, times its set-up,
   runs the measured window through [Probe], then checks integrity
   outside the window.  Inputs come from the seed alone: the program
   sees only the generated paths, sizes and contents. *)

module Fs = Lfs_core.Fs
module Config = Lfs_core.Config
module Layout = Lfs_core.Layout
module Io = Lfs_disk.Io
module Rng = Lfs_util.Rng
module Setup = Lfs_workload.Setup
module Driver = Lfs_workload.Driver
module Engine = Lfs_workload.Engine
module Errors = Lfs_vfs.Errors
module Fs_intf = Lfs_vfs.Fs_intf

type recovery = { rec_host_s : float; rec_sim_us : int; replayed : int }

type round = {
  setup_s : float;
  media_s : float;
  heap_after_setup_words : int;
  top_heap_words : int;  (** at the end of the round *)
  r : Probe.recorder;
  win : Probe.closed;
  ops : int;
  lat_n : int;  (** simulated-latency samples behind p50/p99 *)
  lat_p50_us : int;
  lat_p99_us : int;
  lat_tail_us : (string * int) list;  (** more quantiles, for the report *)
  sim_ops_per_s : float;
  space_amp : float;
  write_cost : float;
  recovery : recovery option;
  integrity_s : float;
  integrity : string list;
  sector_bytes : int;
  members : int;
  shape : (string * int) list;  (** what a different seed must keep *)
}

(* Set-up failures are not op failures: the run cannot start. *)
exception Setup_failed of string

let setup_ok what = function
  | Ok v -> v
  | Error e -> raise (Setup_failed (what ^ ": " ^ e))

let setup_errors what = function
  | Ok v -> v
  | Error e -> raise (Setup_failed (what ^ ": " ^ Errors.to_string e))

let format_mount ~config io =
  setup_ok "format" (Fs.format io config);
  setup_ok "mount" (Fs.mount ~config io)

(* Seeded content pool: a file block's expected bytes are a pool entry,
   so every read can be checked without keeping a copy of the data. *)
let pool ~seed ~size n = Array.init n (fun k -> Driver.content ~seed:((seed * 7919) + k) size)

let space_amp fs ~live_user_bytes =
  let s = Fs.space fs in
  float_of_int (s.Fs.capacity_bytes - s.Fs.clean_bytes)
  /. float_of_int (max 1 live_user_bytes)

let heap_words () = (Gc.quick_stat ()).Gc.heap_words

(* Shared tail of a single-client round: latency statistics from the
   recorder, integrity outside the window. *)
let finish ~setup_s ~media_s ~heap ~r ~win ~space ~fs ~recovery ~io =
  let sorted = Probe.Vec.sorted r.Probe.lat_us in
  let pct q = Option.value ~default:0 (Probe.percentile sorted q) in
  let integrity, integrity_s = Probe.timed (fun () -> Fs.integrity fs) in
  {
    setup_s;
    media_s;
    heap_after_setup_words = heap;
    top_heap_words = (Gc.quick_stat ()).Gc.top_heap_words;
    r;
    win;
    ops = r.Probe.ops;
    lat_n = Array.length sorted;
    lat_p50_us = pct 0.50;
    lat_p99_us = pct 0.99;
    lat_tail_us = List.map (fun q -> (Printf.sprintf "p%g" (q *. 100.0), pct q)) [ 0.9; 0.95; 0.98; 0.995; 0.999 ];
    sim_ops_per_s =
      float_of_int r.Probe.ops /. (float_of_int (max 1 win.Probe.sim_us) /. 1e6);
    space_amp = space;
    write_cost = Fs.write_cost fs;
    recovery;
    integrity_s;
    integrity;
    sector_bytes = (Io.geometry io).Lfs_disk.Geometry.sector_size;
    members = Io.members io;
    shape =
      [ ("ops", r.Probe.ops); ("user_bytes_written", r.Probe.user_written);
        ("user_bytes_read", r.Probe.user_read) ];
  }

(* ---- smallfile: Fig 3 on the paper's 300 MB disk ------------------------ *)

let small_dirs = 10
let small_per_dir = 1000
let small_size = 1024

(* A seeded name of 1-8 letters plus a unique index: the seed moves entry
   sizes, and so directory block packing, without changing the shape. *)
let file_name rng i =
  let len = 1 + Rng.int rng 8 in
  String.init len (fun _ -> Char.chr (97 + Rng.int rng 26)) ^ Printf.sprintf "%05d" i

let paper_disk () = Setup.make_io ~disk_mb:300 ()

let smallfile ~seed ~traced =
  let config = Config.default in
  let t0 = Probe.now_ns () in
  let io, media_s = Probe.timed paper_disk in
  let fs = format_mount ~config io in
  let rng = Rng.create seed in
  let contents = pool ~seed ~size:small_size 256 in
  for d = 0 to small_dirs - 1 do
    setup_errors "mkdir" (Fs.mkdir fs (Printf.sprintf "/d%02d" d))
  done;
  let files =
    Array.init (small_dirs * small_per_dir) (fun i ->
        (Printf.sprintf "/d%02d/%s" (i / small_per_dir) (file_name rng i), Rng.int rng 256))
  in
  let setup_s = Probe.seconds_since t0 in
  let heap = heap_words () in
  let r = Probe.recorder ~traced io in
  let w = Probe.start_window ~traced io in
  Array.iter
    (fun (path, k) ->
      ignore (Probe.call r "create" path (fun () -> Fs.create fs path));
      let data = contents.(k) in
      r.Probe.user_written <- r.Probe.user_written + small_size;
      ignore (Probe.call r "write" path ~arg:small_size (fun () -> Fs.write fs path ~off:0 data)))
    files;
  ignore (Probe.call r "sync" "/" (fun () -> Ok (Fs.sync fs)));
  let space = space_amp fs ~live_user_bytes:(Array.length files * small_size) in
  (* Crash: remount without unmounting; mount runs roll-forward recovery
     from the last checkpoint. *)
  Probe.before_remount w;
  let sim0 = Io.now_us io in
  let mounted, rec_host_s = Probe.timed (fun () -> Fs.mount ~config io) in
  let rec_sim_us = Io.now_us io - sim0 in
  let fs = setup_ok "remount" mounted in
  let replayed =
    Probe.counter (Lfs_obs.Metrics.snapshot (Io.metrics io)) "lfs.rollforward_segments"
  in
  Array.iter
    (fun (path, k) ->
      Probe.check_read r path ~expected:contents.(k)
        (Probe.ok (Probe.call r "read" path ~arg:small_size (fun () ->
             Fs.read fs path ~off:0 ~len:small_size))))
    files;
  Array.iter (fun (path, _) -> ignore (Probe.call r "delete" path (fun () -> Fs.delete fs path))) files;
  ignore (Probe.call r "sync" "/" (fun () -> Ok (Fs.sync fs)));
  let win = Probe.close_window w in
  finish ~setup_s ~media_s ~heap ~r ~win ~space ~fs ~io
    ~recovery:(Some { rec_host_s; rec_sim_us; replayed })

(* ---- overwrite: the §5.3 / Fig 5 worst case on a 64 MB disk ------------- *)

let over_size = 4096
let over_per_dir = 50
let over_fill = 0.70
let over_sync_every = 256

let overwrite ~seed ~traced =
  let config = Config.default in
  let t0 = Probe.now_ns () in
  let io, media_s = Probe.timed (fun () -> Setup.make_io ~disk_mb:64 ()) in
  let fs = format_mount ~config io in
  let layout = Fs.layout fs in
  let bs = layout.Layout.block_size in
  let capacity = layout.Layout.nsegments * layout.Layout.payload_blocks * bs in
  let nfiles =
    int_of_float (over_fill *. float_of_int capacity) / (over_size + Layout.inode_bytes)
  in
  let rng = Rng.create seed in
  let contents = pool ~seed ~size:over_size 64 in
  let path i = Printf.sprintf "/d%03d/f%05d" (i / over_per_dir) i in
  for d = 0 to (nfiles - 1) / over_per_dir do
    setup_errors "mkdir" (Fs.mkdir fs (Printf.sprintf "/d%03d" d))
  done;
  let current = Array.init nfiles (fun _ -> Rng.int rng 64) in
  Array.iteri
    (fun i k ->
      setup_errors "create" (Fs.create fs (path i));
      setup_errors "write" (Fs.write fs (path i) ~off:0 contents.(k)))
    current;
  Fs.sync fs;
  let setup_s = Probe.seconds_since t0 in
  let heap = heap_words () in
  let r = Probe.recorder ~traced io in
  let w = Probe.start_window ~traced io in
  (* Space use swings with the cleaner's threshold/target cycle, so
     space_amp is the mean over the samples taken after every sync. *)
  let space_sum = ref 0.0 and space_n = ref 0 in
  let sync () =
    ignore (Probe.call r "sync" "/" (fun () -> Ok (Fs.sync fs)));
    space_sum := !space_sum +. space_amp fs ~live_user_bytes:(nfiles * over_size);
    incr space_n
  in
  for n = 1 to 3 * nfiles / 2 do
    let i = Rng.int rng nfiles and k = Rng.int rng 64 in
    let p = path i in
    r.Probe.user_written <- r.Probe.user_written + over_size;
    ignore (Probe.call r "write" p ~arg:over_size (fun () -> Fs.write fs p ~off:0 contents.(k)));
    current.(i) <- k;
    if n mod over_sync_every = 0 then sync ()
  done;
  sync ();
  let space = !space_sum /. float_of_int !space_n in
  (* Cold read-back of every file, in seeded random order: verifies what
     the cleaner moved, and every read pays a random seek. *)
  ignore (Probe.call ~count:false r "flush" "/" (fun () -> Ok (Fs.flush_caches fs)));
  let order = Array.init nfiles Fun.id in
  Rng.shuffle rng order;
  Array.iter
    (fun i ->
      let p = path i in
      Probe.check_read r p ~expected:contents.(current.(i))
        (Probe.ok (Probe.call r "read" p ~arg:over_size (fun () -> Fs.read fs p ~off:0 ~len:over_size))))
    order;
  let win = Probe.close_window w in
  finish ~setup_s ~media_s ~heap ~r ~win ~space ~fs ~io ~recovery:None

(* ---- largefile: Fig 4 phases on one 64 MB file, 4x the cache ------------ *)

let large_request = 8192
let large_mb = 64

let largefile ~seed ~traced =
  let config = Config.default in
  let t0 = Probe.now_ns () in
  let io, media_s = Probe.timed paper_disk in
  let fs = format_mount ~config io in
  let rng = Rng.create seed in
  let contents = pool ~seed ~size:large_request 64 in
  let nreq = large_mb * 1024 * 1024 / large_request in
  let current = Array.make nreq 0 in
  let setup_s = Probe.seconds_since t0 in
  let heap = heap_words () in
  let r = Probe.recorder ~traced io in
  let w = Probe.start_window ~traced io in
  let p = "/bigfile" in
  ignore (Probe.call r "create" p (fun () -> Fs.create fs p));
  let write i =
    let k = Rng.int rng 64 in
    current.(i) <- k;
    r.Probe.user_written <- r.Probe.user_written + large_request;
    ignore
      (Probe.call r "write" p ~arg:(i * large_request) (fun () ->
           Fs.write fs p ~off:(i * large_request) contents.(k)))
  in
  let read i =
    Probe.check_read r p ~expected:contents.(current.(i))
      (Probe.ok
         (Probe.call r "read" p ~arg:(i * large_request) (fun () ->
              Fs.read fs p ~off:(i * large_request) ~len:large_request)))
  in
  let sync () = ignore (Probe.call r "sync" p (fun () -> Ok (Fs.sync fs))) in
  let flush () = ignore (Probe.call ~count:false r "flush" p (fun () -> Ok (Fs.flush_caches fs))) in
  for i = 0 to nreq - 1 do write i done;
  sync ();
  flush ();
  for i = 0 to nreq - 1 do read i done;
  flush ();
  for _ = 1 to nreq do write (Rng.int rng nreq) done;
  sync ();
  let space = space_amp fs ~live_user_bytes:(nreq * large_request) in
  flush ();
  for _ = 1 to nreq do read (Rng.int rng nreq) done;
  flush ();
  for i = 0 to nreq - 1 do read i done;
  let win = Probe.close_window w in
  finish ~setup_s ~media_s ~heap ~r ~win ~space ~fs ~io ~recovery:None

(* ---- mixed: Engine's 8 closed-loop clients on a 2-member log stripe ----- *)

(* The engine drives an instance; this one forwards to LFS through the
   recorder, keeps a shadow copy of every file to check reads, and marks
   the window: it opens when Engine's unmeasured set-up ends with its
   first sync, and closes when Engine's final sanitizer asks for
   integrity. *)
type shim = {
  fs : Fs.t;
  rec_ : Probe.recorder;
  shadow : (string, Bytes.t) Hashtbl.t;
  mutable window : Probe.window option;
  mutable closed : Probe.closed option;
  mutable setup_end : int64 option;
  mutable heap_at_setup : int;
  mutable space_at_end : float;
  mutable check_s : float;
  mutable check_violations : string list;
}

module Checked = struct
  type t = shim

  let name = Fs.name
  let io t = Fs.io t.fs
  let call ?arg t name path f = Probe.call ~count:false ?arg t.rec_ name path f

  let create t p =
    let res = call t "create" p (fun () -> Fs.create t.fs p) in
    if Result.is_ok res then Hashtbl.replace t.shadow p Bytes.empty;
    res

  let mkdir t p = call t "mkdir" p (fun () -> Fs.mkdir t.fs p)

  let delete t p =
    let res = call t "delete" p (fun () -> Fs.delete t.fs p) in
    if Result.is_ok res then Hashtbl.remove t.shadow p;
    res

  (* Renames and links are outside Engine's mix; their paths simply stop
     being checked. *)
  let rename t a b =
    Hashtbl.remove t.shadow a;
    call t "rename" a (fun () -> Fs.rename t.fs a b)

  let link t a b =
    Hashtbl.remove t.shadow a;
    call t "link" a (fun () -> Fs.link t.fs a b)

  let readdir t p = call t "readdir" p (fun () -> Fs.readdir t.fs p)
  let stat t p = call t "stat" p (fun () -> Fs.stat t.fs p)
  let exists t p = Fs.exists t.fs p

  let write t p ~off data =
    let len = Bytes.length data in
    t.rec_.Probe.user_written <- t.rec_.Probe.user_written + len;
    let res = call ~arg:len t "write" p (fun () -> Fs.write t.fs p ~off data) in
    (if Result.is_ok res then
       match Hashtbl.find_opt t.shadow p with
       | None -> ()
       | Some old ->
           let cur =
             if off + len <= Bytes.length old then old
             else begin
               let b = Bytes.make (off + len) '\000' in
               Bytes.blit old 0 b 0 (Bytes.length old);
               b
             end
           in
           Bytes.blit data 0 cur off len;
           Hashtbl.replace t.shadow p cur);
    res

  let read t p ~off ~len =
    let res = call ~arg:len t "read" p (fun () -> Fs.read t.fs p ~off ~len) in
    (match (res, Hashtbl.find_opt t.shadow p) with
    | Ok data, Some whole ->
        let n = max 0 (min len (Bytes.length whole - off)) in
        Probe.check_read t.rec_ p ~expected:(Bytes.sub whole off n) (Some data)
    | _ -> ());
    res

  let truncate t p ~size =
    let res = call t "truncate" p (fun () -> Fs.truncate t.fs p ~size) in
    (if Result.is_ok res then
       match Hashtbl.find_opt t.shadow p with
       | Some old when size <= Bytes.length old -> Hashtbl.replace t.shadow p (Bytes.sub old 0 size)
       | Some old -> Hashtbl.replace t.shadow p (Bytes.cat old (Bytes.make (size - Bytes.length old) '\000'))
       | None -> ());
    res

  let sync t =
    ignore (call t "sync" "/" (fun () -> Ok (Fs.sync t.fs)));
    if t.setup_end = None then begin
      t.setup_end <- Some (Probe.now_ns ());
      t.heap_at_setup <- heap_words ();
      Probe.reset_counts t.rec_;
      (* The window starts with a cold cache, so the first touch of each
         pre-populated file reaches the disk. *)
      Fs.flush_caches t.fs;
      t.window <- Some (Probe.start_window ~traced:t.rec_.Probe.traced (Fs.io t.fs))
    end

  let fsync t p = call t "fsync" p (fun () -> Fs.fsync t.fs p)
  let flush_caches t = ignore (call t "flush" "/" (fun () -> Ok (Fs.flush_caches t.fs)))

  let integrity t =
    (match (t.window, t.closed) with
    | Some w, None ->
        t.closed <- Some (Probe.close_window w);
        let live = Hashtbl.fold (fun _ b acc -> acc + Bytes.length b) t.shadow 0 in
        t.space_at_end <- space_amp t.fs ~live_user_bytes:live
    | _ -> ());
    let violations, s = Probe.timed (fun () -> Fs.integrity t.fs) in
    t.check_s <- s;
    t.check_violations <- violations;
    violations
end

let mixed_clients = 8
let mixed_ops_per_client = 2500
let mixed_member_mb = 64

let mixed_stripe = Config.default.Config.segment_size / 512

let mixed ~seed ~traced =
  let config = { Config.default with Config.segment_align_sectors = mixed_stripe } in
  let t0 = Probe.now_ns () in
  let io, media_s =
    Probe.timed (fun () ->
        Setup.make_volume_io ~disk_mb:mixed_member_mb
          ~policy:(Lfs_disk.Volume.Log_stripe { stripe_sectors = mixed_stripe })
          ~members:2 ())
  in
  let fs = format_mount ~config io in
  let r = Probe.recorder ~traced io in
  let t =
    {
      fs;
      rec_ = r;
      shadow = Hashtbl.create 1024;
      window = None;
      closed = None;
      setup_end = None;
      heap_at_setup = 0;
      space_at_end = 0.0;
      check_s = 0.0;
      check_violations = [];
    }
  in
  let engine =
    {
      Engine.default with
      Engine.clients = mixed_clients;
      ops_per_client = mixed_ops_per_client;
      seed;
      working_set = 600;
      zipf_theta = 0.9;
      discipline = Some Lfs_disk.Sched.Cscan;
    }
  in
  let result =
    match Engine.run ~config:engine (Fs_intf.Instance ((module Checked), t)) with
    | res -> Some res
    | exception exn ->
        Probe.fail r ("engine: " ^ Printexc.to_string exn);
        None
  in
  let win =
    match t.closed with
    | Some c -> c
    | None -> raise (Setup_failed "engine stopped before its measured window closed")
  in
  let setup_s =
    match t.setup_end with
    | Some t1 -> Int64.to_float (Int64.sub t1 t0) *. 1e-9
    | None -> nan
  in
  let ops, p50, p99, rate =
    match result with
    | Some res -> (res.Engine.total_ops, res.Engine.p50_us, res.Engine.p99_us, res.Engine.ops_per_sec)
    | None -> (0, 0, 0, 0.0)
  in
  r.Probe.ops <- ops;
  {
    setup_s;
    media_s;
    heap_after_setup_words = t.heap_at_setup;
    top_heap_words = (Gc.quick_stat ()).Gc.top_heap_words;
    r;
    win;
    ops;
    lat_n = ops;
    lat_p50_us = p50;
    lat_p99_us = p99;
    lat_tail_us = [];
    sim_ops_per_s = rate;
    space_amp = t.space_at_end;
    write_cost = Fs.write_cost fs;
    recovery = None;
    integrity_s = t.check_s;
    integrity = t.check_violations;
    sector_bytes = (Io.geometry io).Lfs_disk.Geometry.sector_size;
    members = Io.members io;
    shape = [ ("ops", ops) ];
  }

(* Each workload with its number of streams (seeded sub-runs pooled per
   run).  [mixed] needs more than the others: its few disk reads are cold
   misses of files with heavy-tailed sizes, so read_amp varies most from
   one stream to the next. *)
let all =
  [
    ("smallfile", (5, smallfile));
    ("overwrite", (5, overwrite));
    ("mixed", (16, mixed));
    ("largefile", (5, largefile));
  ]
