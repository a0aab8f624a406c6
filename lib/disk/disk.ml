module Metrics = Lfs_obs.Metrics

exception Crash
exception Read_fault of { sector : int; transient : bool }

let () =
  Printexc.register_printer (function
    | Crash -> Some "Faulty.Crash (simulated power cut)"
    | Read_fault { sector; transient } ->
        Some
          (Printf.sprintf "Disk.Read_fault (sector %d, %s)" sector
             (if transient then "transient" else "sticky"))
    | _ -> None)

type fault_hook = {
  on_read : sector:int -> count:int -> unit;
  on_write : sector:int -> count:int -> int option;
}

type stats = {
  mutable reads : int;
  mutable writes : int;
  mutable sectors_read : int;
  mutable sectors_written : int;
  mutable seeks : int;
  mutable busy_us : int;
}

(* A member disk of a shared registry updates two counters per fact: the
   aggregate [disk.*] cell (shared by every member, so name-based
   consumers — crash harnesses, bench reports — keep working on volumes)
   and its own [disk.<i>.*] cell (the per-spindle view the scale-out
   figure asserts on).  A standalone disk has a private registry, where
   the aggregate cell IS the per-disk view and [own] stays [None]. *)
type cell = { agg : Metrics.counter; own : Metrics.counter option }

let cell_incr c =
  Metrics.incr c.agg;
  Option.iter Metrics.incr c.own

let cell_add c n =
  Metrics.add c.agg n;
  Option.iter (fun o -> Metrics.add o n) c.own

let cell_value c =
  match c.own with Some o -> Metrics.value o | None -> Metrics.value c.agg

(* The medium is a table of fixed-size chunks, each allocated by the
   first write that reaches it: a log-structured disk is sparse for most
   of its life, so the host pays only for what the log has touched.  An
   absent chunk reads as zeros. *)
let chunk_bytes = 65536

type slice = { buf : bytes; off : int; len : int }

type t = {
  geometry : Geometry.t;
  size : int;  (* medium size in bytes *)
  chunks : Bytes.t option array;
  metrics : Metrics.t;
  c_reads : cell;
  c_writes : cell;
  c_sectors_read : cell;
  c_sectors_written : cell;
  c_seeks : cell;
  c_busy_us : cell;
  c_positioning_us : cell;
  mutable head_cyl : int;
  mutable next_sector : int;  (* sector following the last transfer *)
  mutable last_end_us : int;  (* simulated time the last transfer finished *)
  mutable last_streamed : bool;  (* last request continued the previous one *)
  mutable crash_countdown : int option;
  mutable crashed : bool;
  mutable fault_hook : fault_hook option;
}

let create ?metrics ?member geometry =
  let metrics =
    match metrics with Some m -> m | None -> Metrics.create ()
  in
  let ( own_reads,
        own_writes,
        own_sectors_read,
        own_sectors_written,
        own_seeks,
        own_busy_us,
        own_positioning_us ) =
    match member with
    | None -> (None, None, None, None, None, None, None)
    | Some i ->
        if i < 0 then invalid_arg "Disk.create: negative member index";
        ( Some (Metrics.member_counter metrics ~member:i "reads"),
          Some (Metrics.member_counter metrics ~member:i "writes"),
          Some (Metrics.member_counter metrics ~member:i "sectors_read"),
          Some (Metrics.member_counter metrics ~member:i "sectors_written"),
          Some (Metrics.member_counter metrics ~member:i "seeks"),
          Some (Metrics.member_counter metrics ~member:i "busy_us"),
          Some (Metrics.member_counter metrics ~member:i "positioning_us") )
  in
  {
    geometry;
    size = Geometry.size_bytes geometry;
    chunks =
      Array.make
        ((Geometry.size_bytes geometry + chunk_bytes - 1) / chunk_bytes)
        None;
    metrics;
    c_reads = { agg = Metrics.counter metrics "disk.reads"; own = own_reads };
    c_writes = { agg = Metrics.counter metrics "disk.writes"; own = own_writes };
    c_sectors_read =
      {
        agg = Metrics.counter metrics "disk.sectors_read";
        own = own_sectors_read;
      };
    c_sectors_written =
      {
        agg = Metrics.counter metrics "disk.sectors_written";
        own = own_sectors_written;
      };
    c_seeks = { agg = Metrics.counter metrics "disk.seeks"; own = own_seeks };
    c_busy_us =
      { agg = Metrics.counter metrics "disk.busy_us"; own = own_busy_us };
    c_positioning_us =
      {
        agg = Metrics.counter metrics "disk.positioning_us";
        own = own_positioning_us;
      };
    head_cyl = 0;
    next_sector = 0;
    last_end_us = 0;
    last_streamed = false;
    crash_countdown = None;
    crashed = false;
    fault_hook = None;
  }

let set_fault_hook t hook = t.fault_hook <- hook

let geometry t = t.geometry
let metrics t = t.metrics

(* Compatibility view: the record is rebuilt from the registry counters
   on every call.  Readers see the same numbers as before the registry
   existed; writes to the returned record go nowhere. *)
let stats t =
  {
    reads = cell_value t.c_reads;
    writes = cell_value t.c_writes;
    sectors_read = cell_value t.c_sectors_read;
    sectors_written = cell_value t.c_sectors_written;
    seeks = cell_value t.c_seeks;
    busy_us = cell_value t.c_busy_us;
  }

let busy_us t = cell_value t.c_busy_us
let positioning_us t = cell_value t.c_positioning_us
let last_was_streamed t = t.last_streamed
let head_sector t = t.next_sector

let reset_stats t = Metrics.reset_prefix t.metrics "disk."

let check_range t sector count =
  if sector < 0 || count <= 0 || sector + count > t.geometry.Geometry.sectors then
    invalid_arg
      (Printf.sprintf "Disk: request [%d, +%d) out of range (%d sectors)"
         sector count t.geometry.Geometry.sectors)

(* Service time for a request starting at [sector] spanning [count]
   sectors, updating head state.  A request that continues exactly where
   the previous transfer ended streams with no positioning delay — but
   only if it is issued back to back.  When [start_us] shows the device
   sat idle after the previous transfer, the platter has kept spinning:
   the head must wait out the rest of the current rotation to see that
   sector again.  This missed-rotation cost is what clustering and
   read-ahead amortize: per-block sequential reads with think time
   between them pay it on every request, a multi-block transfer once.
   Callers that do not supply [start_us] get the old back-to-back
   behaviour. *)
let service ?start_us t ~sector ~count =
  let g = t.geometry in
  let cyl = Geometry.cylinder_of_sector g sector in
  t.last_streamed <- sector = t.next_sector;
  let positioning =
    if t.last_streamed then
      match start_us with
      | None -> 0
      | Some start ->
          let idle_us = max 0 (start - t.last_end_us) in
          if idle_us = 0 then 0
          else
            let rot = Geometry.rotation_us g in
            let lag = idle_us mod rot in
            if lag = 0 then 0 else rot - lag
    else begin
      let seek = Geometry.seek_us g ~from_cyl:t.head_cyl ~to_cyl:cyl in
      if seek > 0 then cell_incr t.c_seeks;
      seek + Geometry.avg_rotational_latency_us g
    end
  in
  cell_add t.c_positioning_us positioning;
  let total = positioning + Geometry.transfer_us g ~sectors:count in
  t.head_cyl <- Geometry.cylinder_of_sector g (sector + count - 1);
  t.next_sector <- sector + count;
  t.last_end_us <-
    (match start_us with Some s -> s | None -> t.last_end_us) + total;
  total

(* ---- the chunk store ---- *)

let chunk_len t i = min chunk_bytes (t.size - (i * chunk_bytes))

(* Copy [len] bytes of the medium at byte [pos] into [dst] at [off]. *)
let rec load t ~pos dst ~off ~len =
  if len > 0 then begin
    let i = pos / chunk_bytes and o = pos mod chunk_bytes in
    let n = min len (chunk_bytes - o) in
    (match t.chunks.(i) with
    | Some c -> Bytes.blit c o dst off n
    | None -> Bytes.fill dst off n '\000');
    load t ~pos:(pos + n) dst ~off:(off + n) ~len:(len - n)
  end

(* Copy [len] bytes of [src] at [off] onto the medium at byte [pos]. *)
let rec store t ~pos src ~off ~len =
  if len > 0 then begin
    let i = pos / chunk_bytes and o = pos mod chunk_bytes in
    let n = min len (chunk_bytes - o) in
    let c =
      match t.chunks.(i) with
      | Some c -> c
      | None ->
          (* A write covering the whole chunk leaves no byte to zero. *)
          let clen = chunk_len t i in
          let c =
            if o = 0 && n = clen then Bytes.create clen
            else Bytes.make clen '\000'
          in
          t.chunks.(i) <- Some c;
          c
    in
    Bytes.blit src off c o n;
    store t ~pos:(pos + n) src ~off:(off + n) ~len:(len - n)
  end

let resident_bytes t =
  Array.fold_left
    (fun acc -> function Some c -> acc + Bytes.length c | None -> acc)
    0 t.chunks

let read_into ?start_us t ~sector dst =
  let bytes =
    List.fold_left
      (fun acc s ->
        if s.off < 0 || s.len < 0 || s.off + s.len > Bytes.length s.buf then
          invalid_arg "Disk.read_into: slice outside its buffer";
        acc + s.len)
      0 dst
  in
  let ss = t.geometry.Geometry.sector_size in
  if bytes = 0 || bytes mod ss <> 0 then
    invalid_arg "Disk.read_into: slices must total a positive multiple of \
                 sector size";
  let count = bytes / ss in
  check_range t sector count;
  (match t.fault_hook with
  | Some h -> h.on_read ~sector ~count
  | None -> ());
  let us = service ?start_us t ~sector ~count in
  cell_incr t.c_reads;
  cell_add t.c_sectors_read count;
  cell_add t.c_busy_us us;
  let rec fill pos = function
    | [] -> ()
    | s :: rest ->
        load t ~pos s.buf ~off:s.off ~len:s.len;
        fill (pos + s.len) rest
  in
  fill (sector * ss) dst;
  us

let write ?start_us ?len t ~sector data =
  if t.crashed then raise Crash;
  let ss = t.geometry.Geometry.sector_size in
  let len = match len with Some l -> l | None -> Bytes.length data in
  if len <= 0 || len mod ss <> 0 || len > Bytes.length data then
    invalid_arg
      "Disk.write: length must be a positive multiple of sector size, \
       within the buffer";
  let count = len / ss in
  check_range t sector count;
  (match t.fault_hook with
  | Some h -> (
      match h.on_write ~sector ~count with
      | Some persisted ->
          (* Scenario-driven torn write: a prefix of the request reaches
             the platter, then power is cut. *)
          let p = max 0 (min persisted count) in
          store t ~pos:(sector * ss) data ~off:0 ~len:(p * ss);
          t.crashed <- true;
          raise Crash
      | None -> ())
  | None -> ());
  let persisted =
    match t.crash_countdown with
    | None -> count
    | Some remaining ->
        let p = min remaining count in
        t.crash_countdown <- Some (remaining - p);
        if remaining <= count then t.crashed <- true;
        p
  in
  store t ~pos:(sector * ss) data ~off:0 ~len:(persisted * ss);
  if t.crashed then raise Crash;
  let us = service ?start_us t ~sector ~count in
  cell_incr t.c_writes;
  cell_add t.c_sectors_written count;
  cell_add t.c_busy_us us;
  us

let set_crash_after t ~sectors =
  if sectors < 0 then invalid_arg "Disk.set_crash_after";
  t.crash_countdown <- Some sectors

let clear_crash t =
  t.crash_countdown <- None;
  t.crashed <- false

let crashed t = t.crashed

let snapshot_into t out ~off =
  if off < 0 || off + t.size > Bytes.length out then
    invalid_arg "Disk.snapshot_into: image does not fit";
  load t ~pos:0 out ~off ~len:t.size

let snapshot t =
  let out = Bytes.create t.size in
  snapshot_into t out ~off:0;
  out

let is_zero b ~off ~len =
  let rec words i =
    if i + 8 <= len then Bytes.get_int64_ne b (off + i) = 0L && words (i + 8)
    else tail i
  and tail i =
    i >= len || (Bytes.get b (off + i) = '\000' && tail (i + 1))
  in
  words 0

(* All-zero chunks of the image stay (or become) unallocated, so a
   restored image costs only what it holds. *)
let restore_from t media ~off =
  if off < 0 || off + t.size > Bytes.length media then
    invalid_arg "Disk.restore: snapshot size mismatch";
  Array.iteri
    (fun i prev ->
      let src = off + (i * chunk_bytes) and n = chunk_len t i in
      t.chunks.(i) <-
        (if is_zero media ~off:src ~len:n then None
         else begin
           let c = match prev with Some c -> c | None -> Bytes.create n in
           Bytes.blit media src c 0 n;
           Some c
         end))
    t.chunks;
  t.head_cyl <- 0;
  t.next_sector <- 0;
  t.last_end_us <- 0;
  t.last_streamed <- false

let restore t media =
  if Bytes.length media <> t.size then
    invalid_arg "Disk.restore: snapshot size mismatch";
  restore_from t media ~off:0
