module Metrics = Lfs_obs.Metrics
module Bus = Lfs_obs.Bus
module Event = Lfs_obs.Event
module Rng = Lfs_util.Rng

exception Crash = Disk.Crash

type scenario = {
  seed : int;
  crash_after_writes : int option;
  torn_write : bool;
  read_error_rate : float;
  read_error_burst : int;
  bad_sectors : int list;
  member : int option;
}

let quiet =
  {
    seed = 0;
    crash_after_writes = None;
    torn_write = false;
    read_error_rate = 0.;
    read_error_burst = 1;
    bad_sectors = [];
    member = None;
  }

type t = {
  io : Io.t;
  scenario : scenario;
  rng : Rng.t;
  c_crashes : Metrics.counter;
  c_torn_writes : Metrics.counter;
  c_read_errors : Metrics.counter;
  c_bad_sector_reads : Metrics.counter;
  mutable writes : int;
  mutable faults : int;
  (* Transient-error state: a retry of the last faulted request is
     recognised by address, so a burst fails a bounded number of times
     and then lets the retry through. *)
  mutable last_read : (int * int) option;
  mutable pending_failures : int;
}

let emit t kind ~sector ~sectors =
  t.faults <- t.faults + 1;
  let bus = Io.bus t.io in
  if Bus.enabled bus then
    Bus.emit bus (Event.Fault_injected { kind; sector; sectors })

let on_write t ~sector ~count =
  let idx = t.writes in
  t.writes <- idx + 1;
  match t.scenario.crash_after_writes with
  | Some k when idx >= k ->
      let persisted =
        if t.scenario.torn_write && count > 1 then 1 + Rng.int t.rng (count - 1)
        else 0
      in
      Metrics.incr t.c_crashes;
      if persisted > 0 then Metrics.incr t.c_torn_writes;
      emit t (if persisted > 0 then "torn_write" else "crash") ~sector
        ~sectors:count;
      Some persisted
  | Some _ | None -> None

let covers_bad_sector t ~sector ~count =
  List.exists
    (fun s -> s >= sector && s < sector + count)
    t.scenario.bad_sectors

let on_read t ~sector ~count =
  if covers_bad_sector t ~sector ~count then begin
    Metrics.incr t.c_bad_sector_reads;
    emit t "bad_sector" ~sector ~sectors:count;
    raise (Disk.Read_fault { sector; transient = false })
  end
  else if t.last_read = Some (sector, count) then begin
    (* Retry (or repeat) of the previous request: fail the remainder of
       the burst, then succeed deterministically. *)
    if t.pending_failures > 0 then begin
      t.pending_failures <- t.pending_failures - 1;
      Metrics.incr t.c_read_errors;
      emit t "read_error" ~sector ~sectors:count;
      raise (Disk.Read_fault { sector; transient = true })
    end
  end
  else begin
    t.last_read <- Some (sector, count);
    t.pending_failures <- 0;
    if
      t.scenario.read_error_rate > 0.
      && Rng.float t.rng 1.0 < t.scenario.read_error_rate
    then begin
      t.pending_failures <- max 0 (t.scenario.read_error_burst - 1);
      Metrics.incr t.c_read_errors;
      emit t "read_error" ~sector ~sectors:count;
      raise (Disk.Read_fault { sector; transient = true })
    end
  end

(* The member disks the scenario targets: all of them by default, one
   spindle when [scenario.member] is set (how a mirror-degraded test
   fails exactly one replica).  On a single-disk stack the only valid
   member is 0. *)
let target_disks io scenario =
  match scenario.member with
  | None -> List.init (Io.members io) (Io.member_disk io)
  | Some m ->
      if m < 0 || m >= Io.members io then
        invalid_arg
          (Printf.sprintf "Faulty.attach: member %d of %d" m (Io.members io));
      [ Io.member_disk io m ]

let attach io scenario =
  if scenario.read_error_rate < 0. || scenario.read_error_rate > 1. then
    invalid_arg "Faulty.attach: read_error_rate outside [0, 1]";
  if scenario.read_error_burst < 1 then
    invalid_arg "Faulty.attach: read_error_burst < 1";
  let targets = target_disks io scenario in
  let metrics = Io.metrics io in
  let t =
    {
      io;
      scenario;
      rng = Rng.create scenario.seed;
      c_crashes = Metrics.counter metrics "disk.faults.crashes";
      c_torn_writes = Metrics.counter metrics "disk.faults.torn_writes";
      c_read_errors = Metrics.counter metrics "disk.faults.read_errors";
      c_bad_sector_reads =
        Metrics.counter metrics "disk.faults.bad_sector_reads";
      writes = 0;
      faults = 0;
      last_read = None;
      pending_failures = 0;
    }
  in
  List.iter
    (fun d ->
      Disk.set_fault_hook d
        (Some
           {
             Disk.on_read = (fun ~sector ~count -> on_read t ~sector ~count);
             on_write = (fun ~sector ~count -> on_write t ~sector ~count);
           }))
    targets;
  t

let detach t =
  List.iter (fun d -> Disk.set_fault_hook d None) (target_disks t.io t.scenario)

let writes_seen t = t.writes
let faults_injected t = t.faults

let crashed t =
  List.exists Disk.crashed (List.init (Io.members t.io) (Io.member_disk t.io))

let clear_crash t =
  List.iter Disk.clear_crash (List.init (Io.members t.io) (Io.member_disk t.io))
