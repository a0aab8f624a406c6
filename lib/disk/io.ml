module Bus = Lfs_obs.Bus
module Event = Lfs_obs.Event
module Metrics = Lfs_obs.Metrics

exception Read_failed of { sector : int; attempts : int }

let () =
  Printexc.register_printer (function
    | Read_failed { sector; attempts } ->
        Some
          (Printf.sprintf "Io.Read_failed (sector %d, %d attempts)" sector
             attempts)
    | _ -> None)

(* The device behind the scheduler is always a {!Volume}: a bare disk is
   the one-member mirror ({!Volume.of_disk}).  Every member ("lane") has
   its own busy horizon and request queue. *)
type lane = {
  l_disk : Disk.t;
  mutable l_busy_until_us : int;
  mutable l_sched : Sched.t option;
      (* None = immediate issue-order service *)
  mutable l_tried : bool;  (* already attempted by the current mirror read *)
}

type t = {
  volume : Volume.t;
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
  c_retries : Metrics.counter;
  c_backoff_us : Metrics.counter;
  c_degraded_reads : Metrics.counter;
  max_backlog_us : int;
  read_attempts : int;
  retry_backoff_us : int;
  mutable max_queue : int;
}

let of_volume ?(max_backlog_us = 2_000_000) ?(read_attempts = 4)
    ?(retry_backoff_us = 1_000) volume clock cpu =
  if max_backlog_us < 0 then invalid_arg "Io.create: negative backlog";
  if read_attempts < 1 then invalid_arg "Io.create: read_attempts < 1";
  if retry_backoff_us < 0 then invalid_arg "Io.create: negative backoff";
  let metrics = Volume.metrics volume in
  {
    volume;
    lanes =
      Array.init (Volume.members volume) (fun i ->
          {
            l_disk = Volume.member_disk volume i;
            l_busy_until_us = 0;
            l_sched = None;
            l_tried = false;
          });
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
    c_retries = Metrics.counter metrics "io.retries";
    c_backoff_us = Metrics.counter metrics "io.backoff_us";
    c_degraded_reads = Metrics.counter metrics "io.degraded_reads";
    max_backlog_us;
    read_attempts;
    retry_backoff_us;
    max_queue = 32;
  }

let create ?max_backlog_us ?read_attempts ?retry_backoff_us disk =
  of_volume ?max_backlog_us ?read_attempts ?retry_backoff_us
    (Volume.of_disk disk)

let of_geometry ?max_backlog_us ?read_attempts ?retry_backoff_us geometry =
  create ?max_backlog_us ?read_attempts ?retry_backoff_us
    (Disk.create geometry)

let volume t = t.volume
let members t = Array.length t.lanes
let member_disk t i = Volume.member_disk t.volume i
let geometry t = Volume.geometry t.volume
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

(* A logical request on a multi-member volume.  On one member the event
   would only repeat the [Disk_request] that follows it. *)
let emit_volume_op t ~op ~sector ~sectors ~runs =
  if Bus.enabled t.bus && members t > 1 then
    Bus.emit t.bus (Event.Volume_op { op; sector; sectors; runs })

(* Write the first [len] bytes of [data] to [lane] at [sector], the
   device starting at [start]: the one service path for every write,
   queued or immediate. *)
let serve_write t lane ~start ~sync ~sector ~len data =
  let service_us = Disk.write ~start_us:start ~len lane.l_disk ~sector data in
  record t ~kind:`Write ~sync ~sector ~sectors:(len / sector_size t)
    ~service_us ~sequential:(Disk.last_was_streamed lane.l_disk);
  lane.l_busy_until_us <- start + service_us

(* When a request may start on [lane]: once the member is free and the
   request has arrived.  A queued request arrived when it was enqueued;
   an immediate one ([arrival < 0]) arrives now, so a retried read
   arrives again after its backoff. *)
let request_start t lane ~arrival =
  if arrival < 0 then start_time t lane
  else max lane.l_busy_until_us arrival

(* The one retry loop, shared by the immediate and queued read paths;
   the data lands in the caller's slices [dst].  A failed attempt costs
   only the retry backoff: the fault hook rejects the request before the
   device computes a service time, so the head never moves and the clock
   advances by the (exponentially growing) wait between attempts.
   [attempt] counts from 1. *)
let rec read_with_retries t lane ~arrival ~sector ~count ~dst ~sync attempt =
  let start = request_start t lane ~arrival in
  match Disk.read_into ~start_us:start lane.l_disk ~sector dst with
  | service_us ->
      let sequential = Disk.last_was_streamed lane.l_disk in
      record t ~kind:`Read ~sync ~sector ~sectors:count ~service_us ~sequential;
      lane.l_busy_until_us <- start + service_us
  | exception Disk.Read_fault _ ->
      if attempt >= t.read_attempts then
        raise (Read_failed { sector; attempts = attempt })
      else begin
        Metrics.incr t.c_retries;
        let backoff = t.retry_backoff_us * (1 lsl (attempt - 1)) in
        Metrics.add t.c_backoff_us backoff;
        Clock.advance_us t.clock backoff;
        read_with_retries t lane ~arrival ~sector ~count ~dst ~sync
          (attempt + 1)
      end

(* Service one queued request.  The member worked through its queue in
   the background: the request starts when the member is free and the
   request has arrived — time that may already lie in the past by the
   moment the dispatch order is decided (lazy dispatch still charges the
   device as if it ran continuously).  A read lands in [dst]: a queued
   read is only ever dispatched by its own synchronous caller
   ({!dispatch_until}), which supplies its destination. *)
let dispatch_entry ?dst t lane q (e : Sched.entry) =
  let start = request_start t lane ~arrival:e.Sched.arrival_us in
  let wait_us = start - e.Sched.arrival_us in
  let depth = Sched.length q in
  (match e.Sched.kind with
  | `Write ->
      serve_write t lane ~start ~sync:e.Sched.sync
        ~sector:e.Sched.sector
        ~len:(e.Sched.count * sector_size t)
        (Option.get e.Sched.data)
  | `Read ->
      read_with_retries t lane ~arrival:e.Sched.arrival_us
        ~sector:e.Sched.sector ~count:e.Sched.count ~dst:(Option.get dst)
        ~sync:e.Sched.sync 1);
  Metrics.observe t.h_queue_wait wait_us;
  emit_queue t ~action:`Dispatch ~kind:e.Sched.kind ~sector:e.Sched.sector
    ~sectors:e.Sched.count ~depth ~wait_us

(* The oldest entry is always eligible, so a non-empty queue always
   dispatches: no livelock.  Returns the serviced entry. *)
let dispatch_next ?dst t lane q =
  match Sched.select q ~head:(Disk.head_sector lane.l_disk) with
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

let enqueue t q ~kind ~sync ~sector ~count ~data =
  let e =
    Sched.enqueue q ~kind ~sync ~sector ~count ~data ~arrival_us:(now_us t)
  in
  Metrics.observe t.h_queue_depth (Sched.length q);
  emit_queue t ~action:`Enqueue ~kind ~sector ~sectors:count
    ~depth:(Sched.length q) ~wait_us:0;
  e

(* ---- scatter/gather over a striped run's piece map ---- *)

(* Assemble the member-contiguous payload of one write run from the
   logical request, the first [len] bytes of [data].  When the run covers
   the whole request in order the original buffer is returned as-is —
   callers that enqueue must copy it then.  Either way the payload is the
   first [run.count] sectors of the result. *)
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

(* The destination slices covering bytes [pos, stop) of a logical
   request whose consecutive buffers all have length [blen], buffer [i]
   and those before it consed onto [acc]: built back to front, so in
   order without a reversal. *)
let rec slices_down bufs ~blen ~pos ~stop i acc =
  if i < pos / blen then acc
  else
    let lo = max pos (i * blen) and hi = min stop ((i + 1) * blen) in
    slices_down bufs ~blen ~pos ~stop (i - 1)
      ({ Disk.buf = bufs.(i); off = lo - (i * blen); len = hi - lo } :: acc)

(* The slices covering bytes [pos, pos + len). *)
let slices bufs ~blen ~pos ~len =
  if len = 0 then []
  else slices_down bufs ~blen ~pos ~stop:(pos + len) ((pos + len - 1) / blen) []

(* ---- per-run service, shared by every request path ---- *)

(* One read run on one lane into [dst], honouring that lane's queue if
   present. *)
let lane_read_run t lane ~sector ~count ~dst ~sync =
  match lane.l_sched with
  | None ->
      read_with_retries t lane ~arrival:(-1) ~sector ~count ~dst ~sync 1
  | Some q ->
      let e = enqueue t q ~kind:`Read ~sync ~sector ~count ~data:None in
      dispatch_until ~dst t lane q ~id:e.Sched.id

(* One synchronous write run on one lane: the first [len] bytes of
   [data], already gathered and owned by the caller. *)
let lane_sync_write_run t lane ~sector ~len data =
  match lane.l_sched with
  | None ->
      serve_write t lane ~start:(start_time t lane) ~sync:true ~sector ~len
        data
  | Some q ->
      let e =
        enqueue t q ~kind:`Write ~sync:true ~sector
          ~count:(len / sector_size t) ~data:(Some data)
      in
      dispatch_until t lane q ~id:e.Sched.id

(* One asynchronous write run on one lane: the first [len] bytes of
   [data].  [owned] says whether [data] may be handed to the queue
   without copying. *)
let lane_async_write_run t lane ~sector ~len ~owned data =
  match lane.l_sched with
  | None ->
      serve_write t lane ~start:(start_time t lane) ~sync:false ~sector ~len
        data
  | Some q ->
      (* The queue owns the payload from here: copy so a caller reusing
         its buffer cannot retroactively change a pending write. *)
      let payload = if owned then data else Bytes.sub data 0 len in
      let (_ : Sched.entry) =
        enqueue t q ~kind:`Write ~sync:false ~sector
          ~count:(len / sector_size t) ~data:(Some payload)
      in
      (* Bounded queue: past [max_queue] pending requests the member must
         make room before the caller may continue. *)
      while Sched.length q > t.max_queue do
        ignore (dispatch_next t lane q : Sched.entry option)
      done

(* ---- mirror read load balancing ---- *)

let queue_length lane =
  match lane.l_sched with None -> 0 | Some q -> Sched.length q

(* Whether replica [a] could serve a read of [sector] sooner than [b],
   judged at time [now]: shallower queue first, then earlier busy
   horizon, then closer head.  A full tie is not sooner, so a scan in
   member order breaks it toward the lower member index. *)
let sooner ~now ~sector a b =
  let qa = queue_length a and qb = queue_length b in
  if qa <> qb then qa < qb
  else
    let ha = max 0 (a.l_busy_until_us - now)
    and hb = max 0 (b.l_busy_until_us - now) in
    if ha <> hb then ha < hb
    else
      abs (Disk.head_sector a.l_disk - sector)
      < abs (Disk.head_sector b.l_disk - sector)

(* The best replica not yet tried, or -1 when every one has been. *)
let best_untried t ~now ~sector =
  let best = ref (-1) in
  for i = 0 to Array.length t.lanes - 1 do
    let l = t.lanes.(i) in
    if
      (not l.l_tried)
      && (!best < 0 || sooner ~now ~sector l t.lanes.(!best))
    then best := i
  done;
  !best

(* A failed replica is transparently retried on the next-best member;
   only when every replica exhausts its retry budget does the failure
   surface.  Each fail-over is counted in [io.degraded_reads].  Replicas
   are ranked as of the read's start ([now]): a failed attempt's backoff
   does not reorder the rest. *)
let rec mirror_read_from t ~now ~sector ~count ~dst ~sync i =
  let lane = t.lanes.(i) in
  lane.l_tried <- true;
  match lane_read_run t lane ~sector ~count ~dst ~sync with
  | () -> lane
  | exception (Read_failed _ as e) ->
      let next = best_untried t ~now ~sector in
      if next < 0 then raise e
      else begin
        Metrics.incr t.c_degraded_reads;
        mirror_read_from t ~now ~sector ~count ~dst ~sync next
      end

let mirror_read t ~sector ~count ~dst ~sync =
  for i = 0 to Array.length t.lanes - 1 do
    t.lanes.(i).l_tried <- false
  done;
  let now = now_us t in
  mirror_read_from t ~now ~sector ~count ~dst ~sync
    (best_untried t ~now ~sector)

(* ---- public request paths ---- *)

(* One read of [count] sectors into [bufs], each [blen] bytes. *)
let read_request t ~sector ~count ~blen bufs =
  let ss = sector_size t in
  match Volume.policy t.volume with
  | Volume.Mirror ->
      emit_volume_op t ~op:"read" ~sector ~sectors:count ~runs:1;
      let dst = slices bufs ~blen ~pos:0 ~len:(count * ss) in
      let lane = mirror_read t ~sector ~count ~dst ~sync:true in
      Clock.advance_to_us t.clock lane.l_busy_until_us
  | Volume.Stripe _ | Volume.Log_stripe _ ->
      let runs = Volume.map_read t.volume ~sector ~count in
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
              (fun (off, n) -> slices bufs ~blen ~pos:(off * ss) ~len:(n * ss))
              r.Volume.pieces
          in
          lane_read_run t lane ~sector:r.Volume.sector ~count:r.Volume.count
            ~dst ~sync:true;
          finish := max !finish lane.l_busy_until_us)
        runs;
      (* The runs were issued together and serviced in parallel: the
         caller resumes when the slowest member finishes. *)
      Clock.advance_to_us t.clock !finish

let rec all_length bufs blen i =
  i >= Array.length bufs
  || (Bytes.length bufs.(i) = blen && all_length bufs blen (i + 1))

let sync_read_into ?len t ~sector bufs =
  let ss = sector_size t in
  let blen = if Array.length bufs = 0 then 0 else Bytes.length bufs.(0) in
  if blen = 0 || blen mod ss <> 0 || not (all_length bufs blen 1) then
    invalid_arg
      "Io.sync_read_into: buffers must share one positive multiple of the \
       sector size";
  let total = Array.length bufs * blen in
  let len = match len with Some len -> len | None -> total in
  if len <= 0 || len mod ss <> 0 || len > total then
    invalid_arg
      "Io.sync_read_into: len must be a positive multiple of the sector \
       size within the buffers";
  let count = len / ss in
  (* The span covers the retry loop too: backoff waits are disk time. *)
  if Bus.enabled t.bus then
    Bus.with_span t.bus "io_read" (fun () ->
        read_request t ~sector ~count ~blen bufs)
  else read_request t ~sector ~count ~blen bufs

let sync_read t ~sector ~count =
  let buf = Bytes.create (count * sector_size t) in
  sync_read_into t ~sector [| buf |];
  buf

let sync_write ?len t ~sector data =
  let len = Option.value len ~default:(Bytes.length data) in
  let go () =
    let ss = sector_size t in
    let count = len / ss in
    match Volume.policy t.volume with
    | Volume.Mirror ->
        (* Every replica takes the whole request; the caller resumes when
           the slowest one finishes. *)
        emit_volume_op t ~op:"write" ~sector ~sectors:count ~runs:(members t);
        for i = 0 to Array.length t.lanes - 1 do
          lane_sync_write_run t t.lanes.(i) ~sector ~len data
        done;
        Clock.advance_to_us t.clock (max_busy t)
    | Volume.Stripe _ | Volume.Log_stripe _ ->
        let runs = Volume.map_write t.volume ~sector ~count in
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
    let ss = sector_size t in
    let count = len / ss in
    (match Volume.policy t.volume with
    | Volume.Mirror ->
        emit_volume_op t ~op:"write_async" ~sector ~sectors:count
          ~runs:(members t);
        for i = 0 to Array.length t.lanes - 1 do
          lane_async_write_run t t.lanes.(i) ~sector ~len ~owned:false data
        done
    | Volume.Stripe _ | Volume.Log_stripe _ ->
        let runs = Volume.map_write t.volume ~sector ~count in
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

let queue_depth t =
  Array.fold_left (fun acc lane -> acc + queue_length lane) 0 t.lanes

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

(* Every member adds to the shared aggregate [disk.*] cells, so they are
   the whole-device view. *)
let disk_stats t =
  let v name = Metrics.value (Metrics.counter t.metrics name) in
  {
    Disk.reads = v "disk.reads";
    writes = v "disk.writes";
    sectors_read = v "disk.sectors_read";
    sectors_written = v "disk.sectors_written";
    seeks = v "disk.seeks";
    busy_us = v "disk.busy_us";
  }

let member_stats t i = Disk.stats (member_disk t i)

let snapshot_media t =
  (* Pending queued writes belong on the snapshot: flush them to every
     member (extending its busy horizon) without advancing the clock. *)
  dispatch_all t;
  Volume.snapshot t.volume

let restore_media t media =
  Array.iter
    (fun lane -> match lane.l_sched with Some q -> Sched.clear q | None -> ())
    t.lanes;
  Volume.restore t.volume media

let backlog_us t = max 0 (max_busy t - Clock.now_us t.clock)
