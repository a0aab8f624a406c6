(* Concurrent multi-client engine over simulated time.

   A discrete-event loop: each client is a closed-loop job source with
   its own deterministic RNG, op mix and think-time model, all
   multiplexed over one FS instance.  The loop repeatedly picks the
   client whose next operation is due earliest, advances the simulated
   clock to that instant, and runs the operation to completion — this is
   the ONLY place in lib/workload that moves the clock (the
   workload-clock lint rule enforces it).

   Latency is measured from the instant the client became ready to the
   instant its operation completed, so it includes time spent blocked
   behind other clients' operations and behind the device queue: the
   convoy a synchronous write path inflicts on everyone is visible in
   the per-client p99, which is the paper's §4 claim made measurable. *)

module Io = Lfs_disk.Io
module Clock = Lfs_disk.Clock
module Sched = Lfs_disk.Sched
module Metrics = Lfs_obs.Metrics
module Bus = Lfs_obs.Bus
module Event = Lfs_obs.Event
module Json = Lfs_obs.Json
module Rng = Lfs_util.Rng
module Zipf = Lfs_util.Zipf

type think = Constant of int | Uniform of int * int

type config = {
  clients : int;
  ops_per_client : int;
  think : think;
  seed : int;
  dirs : int;
  working_set : int;  (* target live-file population *)
  zipf_theta : float;
  read_fraction : float;
  overwrite_fraction : float;
  delete_fraction : float;  (* the remainder creates files *)
  discipline : Sched.discipline option;
  max_queue : int;
}

let default =
  {
    clients = 4;
    ops_per_client = 200;
    think = Uniform (1_000, 20_000);
    seed = 11;
    dirs = 8;
    working_set = 150;
    zipf_theta = 0.9;
    read_fraction = 0.40;
    overwrite_fraction = 0.30;
    delete_fraction = 0.10;
    discipline = Some Sched.Fcfs;
    max_queue = 32;
  }

type client_stat = {
  client : int;
  ops : int;
  mean_us : float;
  p50_us : int;
  p99_us : int;
  max_us : int;
}

type result = {
  label : string;
  discipline : string;
  clients : int;
  total_ops : int;
  elapsed_us : int;
  ops_per_sec : float;
  mean_us : float;
  p50_us : int;
  p99_us : int;
  per_client : client_stat list;
  mean_queue_depth : float;
  mean_queue_wait_us : float;
  mean_positioning_us : float;
}

let validate (c : config) =
  if c.clients < 1 then Driver.fail "Engine: clients < 1";
  if c.ops_per_client < 1 then Driver.fail "Engine: ops_per_client < 1";
  if c.dirs < 1 then Driver.fail "Engine: dirs < 1";
  if c.working_set < 1 then Driver.fail "Engine: working_set < 1";
  if c.read_fraction < 0.0 || c.overwrite_fraction < 0.0
     || c.delete_fraction < 0.0
     || c.read_fraction +. c.overwrite_fraction +. c.delete_fraction > 1.0
  then Driver.fail "Engine: op-mix fractions out of range";
  (match c.think with
  | Constant us -> if us < 0 then Driver.fail "Engine: negative think time"
  | Uniform (lo, hi) ->
      if lo < 0 || hi < lo then Driver.fail "Engine: bad think-time range");
  if c.max_queue < 1 then Driver.fail "Engine: max_queue < 1"

let sample_think think rng =
  match think with
  | Constant us -> us
  | Uniform (lo, hi) -> if hi = lo then lo else lo + Rng.int rng (hi - lo)

(* Small-file sizes, skewed toward the office/engineering profile. *)
let sample_size rng =
  let r = Rng.float rng 1.0 in
  if r < 0.5 then 512 + Rng.int rng 3_584
  else if r < 0.85 then 4_096 + Rng.int rng 8_192
  else 12_288 + Rng.int rng 53_248

type client = {
  id : int;
  rng : Rng.t;
  hist : Metrics.histogram;  (* standalone: per-client latencies *)
  mutable ready_us : int;
  mutable remaining : int;
}

(* Paths oldest first in [paths.(0 .. n-1)]: a create appends (the
   capacity doubles when full) and a delete shifts the younger tail down
   one slot, so neither copies the population.  Newest-first rank [i]
   is [paths.(n - 1 - i)]. *)
module Live = struct
  type t = { mutable paths : string array; mutable n : int }

  let create () = { paths = [||]; n = 0 }
  let length t = t.n

  let slot t i =
    if i < 0 || i >= t.n then invalid_arg "Engine.Live: rank out of range";
    t.n - 1 - i

  let nth t i = t.paths.(slot t i)

  let push t path =
    if t.n = Array.length t.paths then begin
      let grown = Array.make (max 16 (2 * t.n)) "" in
      Array.blit t.paths 0 grown 0 t.n;
      t.paths <- grown
    end;
    t.paths.(t.n) <- path;
    t.n <- t.n + 1

  let remove t i =
    let p = slot t i in
    Array.blit t.paths (p + 1) t.paths p (t.n - 1 - p);
    t.n <- t.n - 1;
    t.paths.(t.n) <- ""
end

(* Shared file population, ranked newest first (Zipf rank 0 = youngest
   = hot, as in the Berkeley trace study). *)
type population = {
  zipf : Zipf.t;
  live : Live.t;
  mutable next_id : int;
  dirs : int;
}

let fresh_path pop =
  let id = pop.next_id in
  pop.next_id <- id + 1;
  Printf.sprintf "/eng%03d/f%06d" (id mod pop.dirs) id

(* Only called on a non-empty population. *)
let pick_live pop rng =
  Live.nth pop.live (min (Live.length pop.live - 1) (Zipf.sample pop.zipf rng))

let do_create inst pop rng =
  let path = fresh_path pop in
  let size = sample_size rng in
  Driver.create inst path;
  Driver.write inst path ~off:0 (Driver.content ~seed:(Rng.int rng 1_000_000) size);
  Live.push pop.live path

let do_delete_cold inst pop rng =
  let n = Live.length pop.live in
  let idx = n - 1 - min (n - 1) (Rng.int rng (max 1 (n / 2))) in
  Driver.delete inst (Live.nth pop.live idx);
  Live.remove pop.live idx

(* One operation of client [c]: name + effect.  The mix degrades to
   [create] while the population is empty, and caps the population at
   twice the working set so the image reaches a steady state. *)
let run_op cfg inst pop (c : client) =
  let r = Rng.float c.rng 1.0 in
  let live_n = Live.length pop.live in
  if r < cfg.read_fraction && live_n > 0 then begin
    let path = pick_live pop c.rng in
    let stat = Driver.stat inst path in
    ignore (Driver.read inst path ~off:0 ~len:stat.Lfs_vfs.Fs_intf.size : bytes);
    "read"
  end
  else if r < cfg.read_fraction +. cfg.overwrite_fraction && live_n > 0 then begin
    let path = pick_live pop c.rng in
    let size = sample_size c.rng in
    Driver.write inst path ~off:0
      (Driver.content ~seed:(Rng.int c.rng 1_000_000) size);
    "overwrite"
  end
  else if
    r < cfg.read_fraction +. cfg.overwrite_fraction +. cfg.delete_fraction
    && live_n > 0
  then begin
    do_delete_cold inst pop c.rng;
    "delete"
  end
  else if live_n >= 2 * cfg.working_set then begin
    do_delete_cold inst pop c.rng;
    "delete"
  end
  else begin
    do_create inst pop c.rng;
    "create"
  end

(* The next event: the client with the earliest ready time (ties break
   toward the lower client id) that still has operations left. *)
let next_client clients =
  Array.fold_left
    (fun best c ->
      if c.remaining = 0 then best
      else
        match best with
        | None -> Some c
        | Some b ->
            if c.ready_us < b.ready_us then Some c
            else best (* equal ready: earlier id wins, array order *))
    None clients

let hist_of snap name =
  match Metrics.find snap name with
  | Some (Metrics.Histogram h) -> Some h
  | _ -> None

let counter_of snap name =
  Option.value ~default:0 (Metrics.counter_value snap name)

let run ?(config = default) inst =
  validate config;
  let io = Driver.io inst in
  let metrics = Driver.metrics inst in
  let bus = Driver.bus inst in
  let root_rng = Rng.create config.seed in

  (* Unmeasured setup: directory fan-out and half the working set, so
     reads have targets from the first event on. *)
  let pop =
    {
      zipf = Zipf.create ~n:(max 1 config.working_set) ~theta:config.zipf_theta;
      live = Live.create ();
      next_id = 0;
      dirs = config.dirs;
    }
  in
  for d = 0 to config.dirs - 1 do
    Driver.mkdir inst (Printf.sprintf "/eng%03d" d)
  done;
  let setup_rng = Rng.split root_rng in
  for _ = 1 to config.working_set / 2 do
    do_create inst pop setup_rng
  done;
  Driver.sync inst;

  (* Clients start after setup, staggered by one think time each. *)
  let t_setup_done = Driver.now_us inst in
  let clients =
    Array.init config.clients (fun i ->
        let rng = Rng.split root_rng in
        {
          id = i;
          rng;
          hist = Metrics.standalone_histogram ();
          ready_us = t_setup_done + sample_think config.think rng;
          remaining = config.ops_per_client;
        })
  in

  Io.set_scheduler io ~max_queue:config.max_queue config.discipline;
  Metrics.reset_prefix metrics "engine.";
  let h_agg = Metrics.histogram metrics "engine.op_us" in
  let before = Metrics.snapshot metrics in
  let t0 = Driver.now_us inst in

  let rec loop () =
    match next_client clients with
    | None -> ()
    | Some c ->
        (* Time moves only here: jump to the next event. *)
        Clock.advance_to_us (Io.clock io) c.ready_us;
        let op = run_op config inst pop c in
        let now = Driver.now_us inst in
        let latency_us = now - c.ready_us in
        Metrics.observe c.hist latency_us;
        Metrics.observe h_agg latency_us;
        if Bus.enabled bus then
          Bus.emit bus (Event.Client_op { client = c.id; op; latency_us });
        c.remaining <- c.remaining - 1;
        c.ready_us <- now + sample_think config.think c.rng;
        loop ()
  in
  loop ();
  Driver.sync inst;

  let elapsed_us = Driver.now_us inst - t0 in
  let window = Metrics.diff ~before ~after:(Metrics.snapshot metrics) in
  Io.set_scheduler io None;
  Driver.sanitize inst;

  let total_ops = config.clients * config.ops_per_client in
  let q = Option.value ~default:0 in
  let per_client =
    Array.to_list
      (Array.map
         (fun c ->
           let h = Metrics.snapshot_histogram c.hist in
           {
             client = c.id;
             ops = h.Metrics.count;
             mean_us = Metrics.mean h;
             p50_us = q (Metrics.quantile h 0.5);
             p99_us = q (Metrics.quantile h 0.99);
             max_us = (if h.Metrics.count = 0 then 0 else h.Metrics.max_v);
           })
         clients)
  in
  let agg = Metrics.snapshot_histogram h_agg in
  let requests =
    counter_of window "disk.reads" + counter_of window "disk.writes"
  in
  {
    label = Driver.label inst;
    discipline =
      (match config.discipline with
      | Some d -> Sched.discipline_name d
      | None -> "immediate");
    clients = config.clients;
    total_ops;
    elapsed_us;
    ops_per_sec =
      (if elapsed_us <= 0 then infinity
       else float_of_int total_ops /. (float_of_int elapsed_us /. 1e6));
    mean_us = Metrics.mean agg;
    p50_us = q (Metrics.quantile agg 0.5);
    p99_us = q (Metrics.quantile agg 0.99);
    per_client;
    mean_queue_depth =
      (match hist_of window "io.queue.depth" with
      | Some h when h.Metrics.count > 0 -> Metrics.mean h
      | _ -> 0.0);
    mean_queue_wait_us =
      (match hist_of window "io.queue.wait_us" with
      | Some h when h.Metrics.count > 0 -> Metrics.mean h
      | _ -> 0.0);
    mean_positioning_us =
      (if requests = 0 then 0.0
       else
         float_of_int (counter_of window "disk.positioning_us")
         /. float_of_int requests);
  }

let json_of_client_stat s =
  Json.Obj
    [
      ("client", Json.Int s.client);
      ("ops", Json.Int s.ops);
      ("mean_us", Json.Float s.mean_us);
      ("p50_us", Json.Int s.p50_us);
      ("p99_us", Json.Int s.p99_us);
      ("max_us", Json.Int s.max_us);
    ]

let to_json r =
  Json.Obj
    [
      ("label", Json.String r.label);
      ("discipline", Json.String r.discipline);
      ("clients", Json.Int r.clients);
      ("total_ops", Json.Int r.total_ops);
      ("elapsed_us", Json.Int r.elapsed_us);
      ("ops_per_sec", Json.Float r.ops_per_sec);
      ("mean_us", Json.Float r.mean_us);
      ("p50_us", Json.Int r.p50_us);
      ("p99_us", Json.Int r.p99_us);
      ("mean_queue_depth", Json.Float r.mean_queue_depth);
      ("mean_queue_wait_us", Json.Float r.mean_queue_wait_us);
      ("mean_positioning_us", Json.Float r.mean_positioning_us);
      ("per_client", Json.List (List.map json_of_client_stat r.per_client));
    ]
