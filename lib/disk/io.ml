module Bus = Lfs_obs.Bus
module Event = Lfs_obs.Event
module Metrics = Lfs_obs.Metrics

type request = {
  issued_at_us : int;
  kind : [ `Read | `Write ];
  sync : bool;
  sector : int;
  sectors : int;
  service_us : int;
  sequential : bool;
}

exception Read_failed of { sector : int; attempts : int }

let () =
  Printexc.register_printer (function
    | Read_failed { sector; attempts } ->
        Some
          (Printf.sprintf "Io.Read_failed (sector %d, %d attempts)" sector
             attempts)
    | _ -> None)

(* The device behind the scheduler: one disk, or a multi-member volume.
   Either way, every member ("lane") has its own busy horizon and request
   queue — a single disk is simply the one-lane case, running the exact
   same code paths. *)
type device = Single of Disk.t | Vol of Volume.t

type lane = {
  l_member : int;
  mutable l_busy_until_us : int;
  mutable l_sched : Sched.t option;
      (* None = immediate issue-order service *)
}

type t = {
  device : device;
  lanes : lane array;
  clock : Clock.t;
  cpu : Cpu_model.t;
  bus : Bus.t;
  metrics : Metrics.t;
  h_read_us : Metrics.histogram;
  h_write_us : Metrics.histogram;
  h_request_sectors : Metrics.histogram;
  h_queue_depth : Metrics.histogram;
  h_queue_wait : Metrics.histogram;
  c_clustered_reads : Metrics.counter;
  c_clustered_read_blocks : Metrics.counter;
  c_clustered_writes : Metrics.counter;
  c_clustered_write_blocks : Metrics.counter;
  c_retries : Metrics.counter;
  c_backoff_us : Metrics.counter;
  c_degraded_reads : Metrics.counter;
  max_backlog_us : int;
  read_attempts : int;
  retry_backoff_us : int;
  mutable max_queue : int;
  mutable audit : Bus.sink option;  (* the legacy request log, as a sink *)
}

let is_disk_request = function Event.Disk_request _ -> true | _ -> false

let make ?(max_backlog_us = 2_000_000) ?(read_attempts = 4)
    ?(retry_backoff_us = 1_000) device metrics nlanes clock cpu =
  if max_backlog_us < 0 then invalid_arg "Io.create: negative backlog";
  if read_attempts < 1 then invalid_arg "Io.create: read_attempts < 1";
  if retry_backoff_us < 0 then invalid_arg "Io.create: negative backoff";
  {
    device;
    lanes =
      Array.init nlanes (fun i ->
          { l_member = i; l_busy_until_us = 0; l_sched = None });
    clock;
    cpu;
    bus = Bus.create ~now:(fun () -> Clock.now_us clock) ();
    metrics;
    h_read_us = Metrics.histogram metrics "io.read_us";
    h_write_us = Metrics.histogram metrics "io.write_us";
    h_request_sectors = Metrics.histogram metrics "io.request_sectors";
    h_queue_depth = Metrics.histogram metrics "io.queue.depth";
    h_queue_wait = Metrics.histogram metrics "io.queue.wait_us";
    c_clustered_reads = Metrics.counter metrics "io.clustered_reads";
    c_clustered_read_blocks = Metrics.counter metrics "io.clustered_read_blocks";
    c_clustered_writes = Metrics.counter metrics "io.clustered_writes";
    c_clustered_write_blocks =
      Metrics.counter metrics "io.clustered_write_blocks";
    c_retries = Metrics.counter metrics "io.retries";
    c_backoff_us = Metrics.counter metrics "io.backoff_us";
    c_degraded_reads = Metrics.counter metrics "io.degraded_reads";
    max_backlog_us;
    read_attempts;
    retry_backoff_us;
    max_queue = 32;
    audit = None;
  }

let create ?max_backlog_us ?read_attempts ?retry_backoff_us disk clock cpu =
  make ?max_backlog_us ?read_attempts ?retry_backoff_us (Single disk)
    (Disk.metrics disk) 1 clock cpu

let of_geometry ?max_backlog_us ?read_attempts ?retry_backoff_us geometry clock
    cpu =
  create ?max_backlog_us ?read_attempts ?retry_backoff_us
    (Disk.create geometry) clock cpu

let of_volume ?max_backlog_us ?read_attempts ?retry_backoff_us volume clock cpu
    =
  make ?max_backlog_us ?read_attempts ?retry_backoff_us (Vol volume)
    (Volume.metrics volume)
    (Volume.members volume)
    clock cpu

let disk t =
  match t.device with Single d -> d | Vol v -> Volume.member_disk v 0

let volume t = match t.device with Single _ -> None | Vol v -> Some v
let members t = Array.length t.lanes

let member_disk t i =
  match t.device with
  | Single d ->
      if i <> 0 then invalid_arg "Io.member_disk: single-disk stack";
      d
  | Vol v -> Volume.member_disk v i

let geometry t =
  match t.device with Single d -> Disk.geometry d | Vol v -> Volume.geometry v

let clock t = t.clock
let cpu t = t.cpu
let bus t = t.bus
let metrics t = t.metrics
let now_us t = Clock.now_us t.clock

let charge_cpu t us = Clock.advance_us t.clock us
let charge_syscall t = charge_cpu t t.cpu.Cpu_model.syscall_us
let charge_copy t ~bytes = charge_cpu t (Cpu_model.copy_us t.cpu ~bytes)
let charge_lookup t = charge_cpu t t.cpu.Cpu_model.lookup_us

let record t ~kind ~sync ~sector ~sectors ~service_us ~sequential =
  Metrics.observe
    (match kind with `Read -> t.h_read_us | `Write -> t.h_write_us)
    service_us;
  Metrics.observe t.h_request_sectors sectors;
  if Bus.enabled t.bus then
    Bus.emit t.bus
      (Event.Disk_request
         {
           kind = (match kind with `Read -> Event.Read | `Write -> Event.Write);
           sync;
           sector;
           sectors;
           service_us;
           sequential;
         })

let sector_size t = (geometry t).Geometry.sector_size

let lane_disk t lane =
  match t.device with
  | Single d -> d
  | Vol v -> Volume.member_disk v lane.l_member

(* The member data path: a single disk is addressed directly, volume
   members only through [Volume] (whose wrappers are the one sanctioned
   raw-device surface besides this module). *)
let dev_read_into t lane ~start_us ~sector dst =
  match t.device with
  | Single d -> Disk.read_into ~start_us d ~sector dst
  | Vol v -> Volume.read_into ~start_us v ~member:lane.l_member ~sector dst

let dev_write ?len t lane ~start_us ~sector data =
  match t.device with
  | Single d -> Disk.write ~start_us ?len d ~sector data
  | Vol v -> Volume.write ~start_us ?len v ~member:lane.l_member ~sector data

(* Without a scheduler the lane serves requests in issue order; a request
   begins when both the caller and the member device are ready. *)
let start_time t lane = max (now_us t) lane.l_busy_until_us

let max_busy t =
  Array.fold_left (fun acc l -> max acc l.l_busy_until_us) 0 t.lanes

let emit_queue t ~action ~kind ~sector ~sectors ~depth ~wait_us =
  if Bus.enabled t.bus then
    Bus.emit t.bus
      (Event.Disk_queue
         {
           action;
           kind = (match kind with `Read -> Event.Read | `Write -> Event.Write);
           sector;
           sectors;
           depth;
           wait_us;
         })

let emit_volume_op t ~op ~sector ~sectors ~runs =
  if Bus.enabled t.bus then
    Bus.emit t.bus (Event.Volume_op { op; sector; sectors; runs })

(* The one retry loop, shared by the immediate and queued read paths;
   the data lands in the caller's slices [dst].  A failed attempt costs
   only the retry backoff: the fault hook rejects the request before the
   device computes a service time, so the head never moves and the clock
   advances by the (exponentially growing) wait between attempts. *)
let read_with_retries t lane ~start ~sector ~count ~dst ~sync =
  let rec attempt n =
    match dev_read_into t lane ~start_us:(start ()) ~sector dst with
    | service_us ->
        let sequential = Disk.last_was_streamed (lane_disk t lane) in
        record t ~kind:`Read ~sync ~sector ~sectors:count ~service_us
          ~sequential;
        lane.l_busy_until_us <- start () + service_us
    | exception Disk.Read_fault _ ->
        if n >= t.read_attempts then raise (Read_failed { sector; attempts = n })
        else begin
          Metrics.incr t.c_retries;
          let backoff = t.retry_backoff_us * (1 lsl (n - 1)) in
          Metrics.add t.c_backoff_us backoff;
          Clock.advance_us t.clock backoff;
          attempt (n + 1)
        end
  in
  attempt 1

(* Service one queued request.  The member worked through its queue in
   the background: the request starts when the member is free and the
   request has arrived — time that may already lie in the past by the
   moment the dispatch order is decided (lazy dispatch still charges the
   device as if it ran continuously).  A read lands in [dst]: a queued
   read is only ever dispatched by its own synchronous caller
   ({!dispatch_until}), which supplies its destination. *)
let dispatch_entry ?dst t lane q (e : Sched.entry) =
  let start () = max lane.l_busy_until_us e.Sched.arrival_us in
  let wait_us = start () - e.Sched.arrival_us in
  let depth = Sched.length q in
  (match e.Sched.kind with
  | `Write ->
      let data = Option.get e.Sched.data in
      let service_us =
        dev_write t lane ~start_us:(start ()) ~sector:e.Sched.sector
          ~len:(e.Sched.count * sector_size t) data
      in
      record t ~kind:`Write ~sync:e.Sched.sync ~sector:e.Sched.sector
        ~sectors:e.Sched.count ~service_us
        ~sequential:(Disk.last_was_streamed (lane_disk t lane));
      lane.l_busy_until_us <- start () + service_us
  | `Read ->
      read_with_retries t lane ~start ~sector:e.Sched.sector
        ~count:e.Sched.count ~dst:(Option.get dst) ~sync:e.Sched.sync);
  Metrics.observe t.h_queue_wait wait_us;
  emit_queue t ~action:`Dispatch ~kind:e.Sched.kind ~sector:e.Sched.sector
    ~sectors:e.Sched.count ~depth ~wait_us

(* The oldest entry is always eligible, so a non-empty queue always
   dispatches: no livelock.  Returns the serviced entry. *)
let dispatch_next ?dst t lane q =
  match Sched.select q ~head:(Disk.head_sector (lane_disk t lane)) with
  | None -> None
  | Some e ->
      dispatch_entry ?dst t lane q e;
      Some e

let dispatch_lane t lane =
  match lane.l_sched with
  | None -> ()
  | Some q ->
      let rec go () = if dispatch_next t lane q <> None then go () in
      go ()

let dispatch_all t = Array.iter (dispatch_lane t) t.lanes

(* Dispatch in discipline order until the entry [id] has been serviced
   (a read into [dst]).  Requests the discipline ranks ahead of the
   target are serviced first — this is the convoy a synchronous caller
   pays behind a deep queue. *)
let dispatch_until ?dst t lane q ~id =
  let rec go () =
    match dispatch_next ?dst t lane q with
    | None -> ()
    | Some e -> if e.Sched.id <> id then go ()
  in
  go ()

let enqueue t lane q ~kind ~sync ~sector ~count ~data =
  let e =
    Sched.enqueue q ~kind ~sync ~sector ~count ~data ~arrival_us:(now_us t)
  in
  ignore lane;
  Metrics.observe t.h_queue_depth (Sched.length q);
  emit_queue t ~action:`Enqueue ~kind ~sector ~sectors:count
    ~depth:(Sched.length q) ~wait_us:0;
  e

(* ---- scatter/gather over a volume run's piece map ---- *)

(* Assemble the member-contiguous payload of one write run from the
   logical request, the first [len] bytes of [data].  When the run covers
   the whole request in order (single disk, mirror replica) the original
   buffer is returned as-is — callers that enqueue must copy it then.
   Either way the payload is the first [run.count] sectors of the
   result. *)
let gather ~ss ~len data run =
  match run.Volume.pieces with
  | [ (0, n) ] when n * ss = len -> data
  | pieces ->
      let out = Bytes.create (run.Volume.count * ss) in
      let pos = ref 0 in
      List.iter
        (fun (off, len) ->
          Bytes.blit data (off * ss) out (!pos * ss) (len * ss);
          pos := !pos + len)
        pieces;
      out

(* The destination slices covering bytes [pos, pos + len) of a logical
   request whose consecutive buffers all have length [blen]. *)
let slices bufs ~blen ~pos ~len =
  let rec go pos len acc =
    if len = 0 then List.rev acc
    else
      let i = pos / blen and off = pos mod blen in
      let n = min len (blen - off) in
      go (pos + n) (len - n) ({ Disk.buf = bufs.(i); off; len = n } :: acc)
  in
  go pos len []

(* ---- per-run service, shared by every request path ---- *)

(* One read run on one lane into [dst], honouring that lane's queue if
   present. *)
let lane_read_run t lane ~sector ~count ~dst ~sync =
  match lane.l_sched with
  | None ->
      read_with_retries t lane ~start:(fun () -> start_time t lane) ~sector
        ~count ~dst ~sync
  | Some q ->
      let e = enqueue t lane q ~kind:`Read ~sync ~sector ~count ~data:None in
      dispatch_until ~dst t lane q ~id:e.Sched.id

(* One synchronous write run on one lane: the first [len] bytes of
   [data], already gathered and owned by the caller. *)
let lane_sync_write_run t lane ~sector ~len data =
  let count = len / sector_size t in
  match lane.l_sched with
  | None ->
      let start = start_time t lane in
      let service_us = dev_write ~len t lane ~start_us:start ~sector data in
      let sequential = Disk.last_was_streamed (lane_disk t lane) in
      record t ~kind:`Write ~sync:true ~sector ~sectors:count ~service_us
        ~sequential;
      lane.l_busy_until_us <- start + service_us
  | Some q ->
      let e =
        enqueue t lane q ~kind:`Write ~sync:true ~sector ~count
          ~data:(Some data)
      in
      dispatch_until t lane q ~id:e.Sched.id

(* One asynchronous write run on one lane: the first [len] bytes of
   [data].  [owned] says whether [data] may be handed to the queue
   without copying. *)
let lane_async_write_run t lane ~sector ~len ~owned data =
  let count = len / sector_size t in
  match lane.l_sched with
  | None ->
      let start = start_time t lane in
      let service_us = dev_write ~len t lane ~start_us:start ~sector data in
      let sequential = Disk.last_was_streamed (lane_disk t lane) in
      record t ~kind:`Write ~sync:false ~sector ~sectors:count ~service_us
        ~sequential;
      lane.l_busy_until_us <- start + service_us
  | Some q ->
      (* The queue owns the payload from here: copy so a caller reusing
         its buffer cannot retroactively change a pending write. *)
      let payload = if owned then data else Bytes.sub data 0 len in
      let (_ : Sched.entry) =
        enqueue t lane q ~kind:`Write ~sync:false ~sector ~count
          ~data:(Some payload)
      in
      (* Bounded queue: past [max_queue] pending requests the member must
         make room before the caller may continue. *)
      while Sched.length q > t.max_queue do
        ignore (dispatch_next t lane q : Sched.entry option)
      done

(* ---- mirror read load balancing ---- *)

(* Replicas ranked by how soon they could serve the request: shallowest
   queue first, then earliest busy horizon, then closest head, then
   member index (deterministic tie-break). *)
let mirror_order t ~sector =
  let score lane =
    let qlen = match lane.l_sched with None -> 0 | Some q -> Sched.length q in
    let head = Disk.head_sector (lane_disk t lane) in
    (qlen, max 0 (lane.l_busy_until_us - now_us t), abs (head - sector),
     lane.l_member)
  in
  List.sort
    (fun a b -> compare (score a) (score b))
    (Array.to_list t.lanes)

(* A failed replica is transparently retried on the next-best member;
   only when every replica exhausts its retry budget does the failure
   surface.  Each fail-over is counted in [io.degraded_reads]. *)
let mirror_read t ~sector ~count ~dst ~sync =
  let rec go last = function
    | [] -> (
        match last with Some e -> raise e | None -> assert false)
    | lane :: rest -> (
        match lane_read_run t lane ~sector ~count ~dst ~sync with
        | () -> lane
        | exception (Read_failed _ as e) ->
            if rest <> [] then Metrics.incr t.c_degraded_reads;
            go (Some e) rest)
  in
  go None (mirror_order t ~sector)

(* ---- public request paths ---- *)

let sync_read_into ?len t ~sector bufs =
  let ss = sector_size t in
  let blen = if Array.length bufs = 0 then 0 else Bytes.length bufs.(0) in
  if
    blen = 0 || blen mod ss <> 0
    || Array.exists (fun b -> Bytes.length b <> blen) bufs
  then
    invalid_arg
      "Io.sync_read_into: buffers must share one positive multiple of the \
       sector size";
  let total = Array.length bufs * blen in
  let len = Option.value len ~default:total in
  if len <= 0 || len mod ss <> 0 || len > total then
    invalid_arg
      "Io.sync_read_into: len must be a positive multiple of the sector \
       size within the buffers";
  let count = len / ss in
  let go () =
    match t.device with
    | Single _ ->
        let lane = t.lanes.(0) in
        let dst = slices bufs ~blen ~pos:0 ~len:(count * ss) in
        lane_read_run t lane ~sector ~count ~dst ~sync:true;
        Clock.advance_to_us t.clock lane.l_busy_until_us
    | Vol v -> (
        match Volume.policy v with
        | Volume.Mirror ->
            emit_volume_op t ~op:"read" ~sector ~sectors:count ~runs:1;
            let dst = slices bufs ~blen ~pos:0 ~len:(count * ss) in
            let lane = mirror_read t ~sector ~count ~dst ~sync:true in
            Clock.advance_to_us t.clock lane.l_busy_until_us
        | Volume.Stripe _ | Volume.Log_stripe _ ->
            let runs = Volume.map_read v ~sector ~count in
            emit_volume_op t ~op:"read" ~sector ~sectors:count
              ~runs:(List.length runs);
            let finish = ref 0 in
            List.iter
              (fun (r : Volume.run) ->
                let lane = t.lanes.(r.Volume.member) in
                (* Each member run fills its pieces of the destination
                   directly: no member-contiguous buffer to scatter. *)
                let dst =
                  List.concat_map
                    (fun (off, n) ->
                      slices bufs ~blen ~pos:(off * ss) ~len:(n * ss))
                    r.Volume.pieces
                in
                lane_read_run t lane ~sector:r.Volume.sector
                  ~count:r.Volume.count ~dst ~sync:true;
                finish := max !finish lane.l_busy_until_us)
              runs;
            (* The runs were issued together and serviced in parallel:
               the caller resumes when the slowest member finishes. *)
            Clock.advance_to_us t.clock !finish)
  in
  (* The span covers the retry loop too: backoff waits are disk time. *)
  if Bus.enabled t.bus then Bus.with_span t.bus "io_read" go else go ()

let sync_read t ~sector ~count =
  let buf = Bytes.create (count * sector_size t) in
  sync_read_into t ~sector [| buf |];
  buf

let sync_write ?len t ~sector data =
  let len = Option.value len ~default:(Bytes.length data) in
  let go () =
    match t.device with
    | Single _ ->
        let lane = t.lanes.(0) in
        lane_sync_write_run t lane ~sector ~len data;
        Clock.advance_to_us t.clock lane.l_busy_until_us
    | Vol v ->
        let ss = sector_size t in
        let count = len / ss in
        let runs = Volume.map_write v ~sector ~count in
        emit_volume_op t ~op:"write" ~sector ~sectors:count
          ~runs:(List.length runs);
        let finish = ref 0 in
        List.iter
          (fun (r : Volume.run) ->
            let lane = t.lanes.(r.Volume.member) in
            lane_sync_write_run t lane ~sector:r.Volume.sector
              ~len:(r.Volume.count * ss) (gather ~ss ~len data r);
            finish := max !finish lane.l_busy_until_us)
          runs;
        Clock.advance_to_us t.clock !finish
  in
  if Bus.enabled t.bus then Bus.with_span t.bus "io_write" go else go ()

let async_write ?len t ~sector data =
  let len = Option.value len ~default:(Bytes.length data) in
  let go () =
    (match t.device with
    | Single _ ->
        lane_async_write_run t t.lanes.(0) ~sector ~len ~owned:false data
    | Vol v ->
        let ss = sector_size t in
        let count = len / ss in
        let runs = Volume.map_write v ~sector ~count in
        emit_volume_op t ~op:"write_async" ~sector ~sectors:count
          ~runs:(List.length runs);
        List.iter
          (fun (r : Volume.run) ->
            let payload = gather ~ss ~len data r in
            lane_async_write_run t
              t.lanes.(r.Volume.member)
              ~sector:r.Volume.sector ~len:(r.Volume.count * ss)
              ~owned:(payload != data) payload)
          runs);
    (* Writer throttling: the application may run ahead of the disk only
       by the write-buffer depth — measured against the slowest member. *)
    if max_busy t - Clock.now_us t.clock > t.max_backlog_us then
      Clock.advance_to_us t.clock (max_busy t - t.max_backlog_us)
  in
  (* The async span's elapsed time is only the throttle wait (if any):
     the op does not block on the device itself. *)
  if Bus.enabled t.bus then Bus.with_span t.bus "io_write_async" go else go ()

let note_clustered_read t ~blocks =
  Metrics.incr t.c_clustered_reads;
  Metrics.add t.c_clustered_read_blocks blocks

let note_clustered_write t ~blocks =
  Metrics.incr t.c_clustered_writes;
  Metrics.add t.c_clustered_write_blocks blocks

let queue_depth t =
  Array.fold_left
    (fun acc lane ->
      acc + match lane.l_sched with None -> 0 | Some q -> Sched.length q)
    0 t.lanes

let drain t =
  let pending = queue_depth t > 0 || max_busy t > Clock.now_us t.clock in
  let go () =
    dispatch_all t;
    Clock.advance_to_us t.clock (max_busy t)
  in
  (* Only span an actual wait — a no-op drain would add zero-length spans
     to every sync. *)
  if Bus.enabled t.bus && pending then Bus.with_span t.bus "io_drain" go
  else go ()

let scheduler t = Option.map Sched.discipline t.lanes.(0).l_sched

let set_scheduler ?(max_queue = 32) t d =
  if max_queue < 1 then invalid_arg "Io.set_scheduler: max_queue < 1";
  (* Flush any pending queues under the old policy before switching, so a
     policy change can never reorder requests issued before it. *)
  dispatch_all t;
  t.max_queue <- max_queue;
  Array.iter
    (fun lane ->
      lane.l_sched <-
        (match d with None -> None | Some disc -> Some (Sched.create disc)))
    t.lanes

let disk_stats t =
  match t.device with
  | Single d -> Disk.stats d
  | Vol v ->
      (* Aggregate member view, matching the shared disk.* counters. *)
      let acc =
        {
          Disk.reads = 0;
          writes = 0;
          sectors_read = 0;
          sectors_written = 0;
          seeks = 0;
          busy_us = 0;
        }
      in
      for i = 0 to Volume.members v - 1 do
        let s = Disk.stats (Volume.member_disk v i) in
        acc.Disk.reads <- acc.Disk.reads + s.Disk.reads;
        acc.Disk.writes <- acc.Disk.writes + s.Disk.writes;
        acc.Disk.sectors_read <- acc.Disk.sectors_read + s.Disk.sectors_read;
        acc.Disk.sectors_written <-
          acc.Disk.sectors_written + s.Disk.sectors_written;
        acc.Disk.seeks <- acc.Disk.seeks + s.Disk.seeks;
        acc.Disk.busy_us <- acc.Disk.busy_us + s.Disk.busy_us
      done;
      acc

let member_stats t i = Disk.stats (member_disk t i)

let snapshot_media t =
  (* Pending queued writes belong on the snapshot: flush them to every
     member (extending its busy horizon) without advancing the clock. *)
  dispatch_all t;
  match t.device with
  | Single d -> Disk.snapshot d
  | Vol v -> Volume.snapshot v

let restore_media t media =
  Array.iter
    (fun lane -> match lane.l_sched with Some q -> Sched.clear q | None -> ())
    t.lanes;
  match t.device with
  | Single d -> Disk.restore d media
  | Vol v -> Volume.restore v media

let backlog_us t = max 0 (max_busy t - Clock.now_us t.clock)

let recording t = t.audit <> None

let set_recording t on =
  match (t.audit, on) with
  | None, true ->
      t.audit <- Some (Bus.attach ~filter:is_disk_request t.bus)
  | Some _, true ->
      (* Already recording: keep the prefix.  (Historically this cleared
         the log — a footgun that silently dropped the Figure 1/2 audit
         when tracing was enabled mid-run.) *)
      ()
  | Some sink, false ->
      Bus.detach t.bus sink;
      t.audit <- None
  | None, false -> ()

let request_of_record (r : Event.record) =
  match r.Event.event with
  | Event.Disk_request { kind; sync; sector; sectors; service_us; sequential }
    ->
      Some
        {
          issued_at_us = r.Event.at_us;
          kind = (match kind with Event.Read -> `Read | Event.Write -> `Write);
          sync;
          sector;
          sectors;
          service_us;
          sequential;
        }
  | _ -> None

let requests t =
  match t.audit with
  | None -> []
  | Some sink -> List.filter_map request_of_record (Bus.records sink)
