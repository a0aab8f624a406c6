(** Exhaustive crash-point recovery sweeps (see crashpoint.mli). *)

module Clock = Lfs_disk.Clock
module Cpu_model = Lfs_disk.Cpu_model
module Faulty = Lfs_disk.Faulty
module Geometry = Lfs_disk.Geometry
module Io = Lfs_disk.Io
module Fs_intf = Lfs_vfs.Fs_intf
module Metrics = Lfs_obs.Metrics
module Rng = Lfs_util.Rng

(* Workloads are restricted to an op vocabulary with two properties the
   durable model depends on: every file is written at most once (so
   "what content did the last completed sync make durable" has a single
   answer) and paths are never reused after a delete. *)
type op =
  | Mkdir of string
  | Create of string
  | Write of { path : string; seed : int; len : int }
  | Delete of string
  | Sync

type system = [ `Lfs | `Ffs ]

let system_name = function `Lfs -> "LFS" | `Ffs -> "FFS"

let smallfile () =
  let path i = Printf.sprintf "/d%d/f%d" (i mod 2) i in
  let ops = ref [ Mkdir "/d1"; Mkdir "/d0" ] in
  let push o = ops := o :: !ops in
  for i = 0 to 5 do
    push (Create (path i));
    push (Write { path = path i; seed = 1000 + i; len = 2048 + (173 * i) });
    if i mod 2 = 1 then push Sync
  done;
  push (Delete (path 0));
  push Sync;
  List.rev !ops

(* Fresh stacks.  Small disk, small config, free CPU: the sweep replays
   the whole workload once per boundary, so each run must be cheap. *)

type sys_state = L of Lfs_core.Fs.t | F of Lfs_ffs.Fs.t

let make_io ?volume () =
  let geometry = Geometry.wren_iv ~size_bytes:(16 * 1024 * 1024) in
  match volume with
  | None -> Io.of_geometry geometry (Clock.create ()) Cpu_model.free
  | Some (policy, members) ->
      Io.of_volume
        (Lfs_disk.Volume.create policy ~members geometry)
        (Clock.create ()) Cpu_model.free

let start ?volume (sys : system) =
  let io = make_io ?volume () in
  match sys with
  | `Lfs -> (
      let config = Lfs_core.Config.small in
      (match Lfs_core.Fs.format io config with
      | Ok () -> ()
      | Error e -> Driver.fail "LFS format: %s" e);
      match Lfs_core.Fs.mount ~config io with
      | Ok fs -> (io, L fs)
      | Error e -> Driver.fail "LFS mount: %s" e)
  | `Ffs -> (
      let config = Lfs_ffs.Config.small in
      (match Lfs_ffs.Fs.format io config with
      | Ok () -> ()
      | Error e -> Driver.fail "FFS format: %s" e);
      match Lfs_ffs.Fs.mount ~config io with
      | Ok fs -> (io, F fs)
      | Error e -> Driver.fail "FFS mount: %s" e)

let instance_of = function
  | L fs -> Fs_intf.Instance ((module Lfs_core.Fs), fs)
  | F fs -> Fs_intf.Instance ((module Lfs_ffs.Fs), fs)

(* Remount the (crashed) media under a fresh in-memory state.  LFS goes
   through [Recovery.recover] and reports how the recovered tree diverges
   from the crashed in-memory one; FFS needs its fsck-style [repair]
   pass first — the full-disk scan the paper contrasts with bounded
   roll-forward. *)
let remount io = function
  | L crashed -> (
      match Lfs_core.Fs.mount ~config:Lfs_core.Config.small io with
      | Ok fs ->
          let divergence =
            (* The crashed state can be mid-operation, so walking it is
               best-effort; the durable-model assertions are the real
               check. *)
            try
              Lfs_core.Check.recovery_divergence ~expected:crashed
                ~recovered:fs
            with _ -> []
          in
          Ok (L fs, divergence)
      | Error e -> Error e)
  | F _ -> (
      match Lfs_ffs.Fs.mount ~config:Lfs_ffs.Config.small io with
      | Ok fs ->
          ignore (Lfs_ffs.Fs.repair fs);
          Ok (F fs, [])
      | Error e -> Error e)

let apply inst op =
  match op with
  | Mkdir p -> Driver.mkdir inst p
  | Create p -> Driver.create inst p
  | Write { path; seed; len } ->
      Driver.write inst path ~off:0 (Driver.content ~seed len)
  | Delete p -> Driver.delete inst p
  | Sync -> Driver.sync inst

let counter io name =
  Option.value ~default:0
    (Metrics.counter_value (Metrics.snapshot (Io.metrics io)) name)

(* Probe run: same workload on a fault-free stack, recording the
   cumulative write-request count after each op.  Replays crash at write
   boundary [k]; the probe tells us which ops completed before it. *)
let probe ?volume sys ops =
  let io, st = start ?volume sys in
  let f = Faulty.attach io Faulty.quiet in
  let cum = Array.make (List.length ops) 0 in
  List.iteri
    (fun i op ->
      apply (instance_of st) op;
      cum.(i) <- Faulty.writes_seen f)
    ops;
  Faulty.detach f;
  Driver.sanitize (instance_of st);
  ignore io;
  (Faulty.writes_seen f, cum)

(* What the crash at boundary [k] is allowed to lose.

   Write request [k] is the one lost (or torn); requests [0..k-1]
   completed.  [cum] is non-decreasing, so the ops that fully completed
   are exactly those before the first op whose cumulative count exceeds
   [k]; that op itself is in flight and everything about it is
   ambiguous.  Guarantees are anchored at the last *completed* [Sync]:

   - a file live at that sync and not touched by any later issued op
     must survive with exactly its synced content;
   - a file deleted strictly before that sync must stay gone;
   - a directory made before that sync must survive.

   Everything else — created, written or deleted after the last
   completed sync — is legitimately ambiguous: it may have made it (LFS
   roll-forward often recovers past the checkpoint; FFS persists
   namespace ops synchronously) or not, but whatever is present must be
   readable and structurally sound. *)

type spec = { seed : int; len : int }

type durable = {
  files_durable : (string * spec option) list;
      (** must exist; [Some spec] pins content, [None] (rewritten after
          the sync) only existence *)
  gone_durable : string list;  (** must not exist *)
  dirs_durable : string list;  (** must exist *)
}

let durable_model ops ~cum ~k =
  let arr = Array.of_list ops in
  let n = Array.length arr in
  let crash_op =
    let rec go i = if i >= n then n else if cum.(i) > k then i else go (i + 1) in
    go 0
  in
  let last_sync =
    let rec go i best =
      if i >= crash_op then best
      else go (i + 1) (match arr.(i) with Sync -> Some i | _ -> best)
    in
    go 0 None
  in
  match last_sync with
  | None -> { files_durable = []; gone_durable = []; dirs_durable = [] }
  | Some s ->
      let files = Hashtbl.create 16 in
      let dirs = ref [] in
      for i = 0 to s do
        match arr.(i) with
        | Mkdir p -> dirs := p :: !dirs
        | Create p -> Hashtbl.replace files p { seed = 0; len = 0 }
        | Write { path; seed; len } -> Hashtbl.replace files path { seed; len }
        | Delete p -> Hashtbl.remove files p
        | Sync -> ()
      done;
      (* Ops issued after the sync (including the in-flight one) make
         their targets ambiguous. *)
      let touched_after = ref [] and deleted_after = ref [] in
      for i = s + 1 to min crash_op (n - 1) do
        match arr.(i) with
        | Write { path; _ } -> touched_after := path :: !touched_after
        | Delete p -> deleted_after := p :: !deleted_after
        | Mkdir _ | Create _ | Sync -> ()
      done;
      let gone_durable = ref [] in
      for i = 0 to s - 1 do
        match arr.(i) with
        | Delete p -> gone_durable := p :: !gone_durable
        | _ -> ()
      done;
      let files_durable =
        Hashtbl.fold
          (fun p spec acc ->
            if List.mem p !deleted_after then acc
            else
              (p, if List.mem p !touched_after then None else Some spec)
              :: acc)
          files []
      in
      { files_durable; gone_durable = !gone_durable; dirs_durable = !dirs }

(* Recovered-state verdict. *)

let walk inst =
  let files = ref [] and dirs = ref [] in
  let rec go path =
    let st = Driver.stat inst path in
    match st.Fs_intf.kind with
    | Fs_intf.Regular -> files := (path, st.Fs_intf.size) :: !files
    | Fs_intf.Directory ->
        dirs := path :: !dirs;
        List.iter
          (fun name -> go (if path = "/" then "/" ^ name else path ^ "/" ^ name))
          (Driver.readdir inst path)
  in
  go "/";
  (!files, !dirs)

let check_recovered inst ~durable ~ever_files ~ever_dirs ~divergence =
  let v = ref [] in
  let add fmt = Printf.ksprintf (fun s -> v := s :: !v) fmt in
  List.iter (fun i -> add "integrity: %s" i) (Driver.integrity inst);
  (match walk inst with
  | exception e -> add "tree walk failed: %s" (Printexc.to_string e)
  | files, dirs ->
      (* Recovery must not invent names the workload never created. *)
      List.iter
        (fun (p, _) ->
          if not (List.mem p ever_files) then add "phantom file %s" p)
        files;
      List.iter
        (fun p ->
          if p <> "/" && not (List.mem p ever_dirs) then add "phantom dir %s" p)
        dirs;
      (* Whatever survived must be readable end to end. *)
      List.iter
        (fun (p, size) ->
          match Driver.read inst p ~off:0 ~len:size with
          | data ->
              if Bytes.length data <> size then
                add "%s: short read (%d of %d)" p (Bytes.length data) size
          | exception e -> add "%s: unreadable: %s" p (Printexc.to_string e))
        files;
      List.iter
        (fun (p, spec) ->
          match (List.assoc_opt p files, spec) with
          | None, _ -> add "%s: lost despite completed sync" p
          | Some _, None -> ()
          | Some size, Some { seed; len } ->
              if size <> len then add "%s: size %d, synced %d" p size len
              else if
                not
                  (Bytes.equal
                     (Driver.read inst p ~off:0 ~len)
                     (Driver.content ~seed len))
              then add "%s: content differs from synced data" p)
        durable.files_durable;
      List.iter
        (fun p ->
          if List.mem_assoc p files then
            add "%s: present despite delete before sync" p)
        durable.gone_durable;
      List.iter
        (fun p ->
          if not (List.mem p dirs) then
            add "%s: directory lost despite completed sync" p)
        durable.dirs_durable);
  (* Cross-check: the recovery-divergence report may only name data the
     model says was legitimately at risk. *)
  List.iter
    (fun line ->
      List.iter
        (fun (p, spec) ->
          if spec <> None && String.starts_with ~prefix:(p ^ ":") line then
            add "divergence on synced file: %s" line)
        durable.files_durable)
    divergence;
  List.rev !v

(* One crash replay. *)

type point = { boundary : int; crashed : bool }

type outcome = {
  label : string;
  torn : bool;
  total_writes : int;
  boundaries_tested : int;
  faults : int;
  violations : string list;
  points : point list;
}

let replay ?volume sys ops ~k ~torn ~seed =
  let io, st0 = start ?volume sys in
  let scenario =
    { Faulty.quiet with seed; crash_after_writes = Some k; torn_write = torn }
  in
  let f = Faulty.attach io scenario in
  let inst0 = instance_of st0 in
  let crashed =
    try
      List.iter (apply inst0) ops;
      false
    with Faulty.Crash -> true
  in
  Faulty.clear_crash f;
  let faults = Faulty.faults_injected f in
  Faulty.detach f;
  match remount io st0 with
  | Error e -> Error (Printf.sprintf "remount failed: %s" e)
  | Ok (st, divergence) -> Ok (st, divergence, { boundary = k; crashed }, faults)

let choose_boundaries ~total ~cap ~seed =
  if total <= cap then List.init total Fun.id
  else begin
    let all = Array.init total Fun.id in
    Rng.shuffle (Rng.create seed) all;
    List.sort compare (Array.to_list (Array.sub all 0 cap))
  end

let sweep ?volume ?(torn = false) ?(max_boundaries = 48) ?(seed = 7) sys ops =
  (match volume with
  | Some (Lfs_disk.Volume.Mirror, _) ->
      (* A mid-fan-out crash leaves the replicas divergent — which copy a
         later mirror read load-balances onto is then semantically
         unspecified, so the durable model cannot assert anything.
         Striped policies have exactly one copy and stay sound. *)
      invalid_arg "Crashpoint.sweep: crash sweeps on mirrors are unsound"
  | Some _ | None -> ());
  let total, cum = probe ?volume sys ops in
  let boundaries = choose_boundaries ~total ~cap:max_boundaries ~seed in
  let ever_files =
    List.filter_map (function Create p -> Some p | _ -> None) ops
  in
  let ever_dirs =
    List.filter_map (function Mkdir p -> Some p | _ -> None) ops
  in
  let violations = ref [] and points = ref [] and faults = ref 0 in
  List.iter
    (fun k ->
      let tag fmt =
        Printf.ksprintf
          (fun s ->
            violations :=
              Printf.sprintf "%s%s k=%d: %s" (system_name sys)
                (if torn then " torn" else "")
                k s
              :: !violations)
          fmt
      in
      match replay ?volume sys ops ~k ~torn ~seed:(seed + (1000 * (k + 1))) with
      | Error e -> tag "%s" e
      | Ok (st, divergence, point, injected) ->
          faults := !faults + injected;
          points := point :: !points;
          let durable = durable_model ops ~cum ~k in
          List.iter
            (fun v -> tag "%s" v)
            (check_recovered (instance_of st) ~durable ~ever_files ~ever_dirs
               ~divergence))
    boundaries;
  {
    label = system_name sys;
    torn;
    total_writes = total;
    boundaries_tested = List.length boundaries;
    faults = !faults;
    violations = List.rev !violations;
    points = List.rev !points;
  }

(* Transient read errors: the whole workload plus a full read-back and
   integrity pass must succeed through the retry/backoff path, with no
   fault ever surfacing to the file system. *)

type read_fault_outcome = {
  retries : int;
  backoff_us : int;
  read_errors : int;
  rf_violations : string list;
}

let read_fault_run ?volume ?(rate = 0.08) ?(burst = 1) ?(seed = 11) sys ops =
  let io, st = start ?volume sys in
  let f =
    Faulty.attach io
      { Faulty.quiet with seed; read_error_rate = rate; read_error_burst = burst }
  in
  let inst = instance_of st in
  let v = ref [] in
  (try
     List.iter (apply inst) ops;
     Driver.flush_caches inst;
     let files, _ = walk inst in
     List.iter
       (fun (p, size) -> ignore (Driver.read inst p ~off:0 ~len:size))
       files;
     List.iter
       (fun i -> v := Printf.sprintf "integrity: %s" i :: !v)
       (Driver.integrity inst)
   with e -> v := Printf.sprintf "run failed: %s" (Printexc.to_string e) :: !v);
  let read_errors = counter io "disk.faults.read_errors" in
  if Faulty.faults_injected f = 0 then
    v := "no transient read faults were injected" :: !v;
  Faulty.detach f;
  {
    retries = counter io "io.retries";
    backoff_us = counter io "io.backoff_us";
    read_errors;
    rf_violations = List.rev !v;
  }

(* Sticky bad sector over checkpoint region A: recovery must fall back
   to region B and mount a sound file system. *)

type bad_sector_outcome = { bad_sector_reads : int; bs_violations : string list }

let bad_sector_run ?(seed = 13) () =
  let ops = smallfile () in
  let io, st = start `Lfs in
  let inst = instance_of st in
  List.iter (apply inst) ops;
  let fs = match st with L fs -> fs | F _ -> assert false in
  let layout = Lfs_core.Fs.layout fs in
  let bad =
    Lfs_core.Layout.sector_of_block layout
      (fst layout.Lfs_core.Layout.cp_region)
  in
  let f = Faulty.attach io { Faulty.quiet with seed; bad_sectors = [ bad ] } in
  let v = ref [] in
  (match Lfs_core.Fs.mount ~config:Lfs_core.Config.small io with
  | Ok fs2 ->
      (* The workload completed (every op before a final sync), so with
         a zero cum array and k = 0 the durable model covers all of it:
         the mount via region B must recover everything. *)
      let durable = durable_model ops ~cum:(Array.make (List.length ops) 0) ~k:0 in
      let ever_files =
        List.filter_map (function Create p -> Some p | _ -> None) ops
      in
      let ever_dirs =
        List.filter_map (function Mkdir p -> Some p | _ -> None) ops
      in
      List.iter
        (fun s -> v := s :: !v)
        (check_recovered
           (Fs_intf.Instance ((module Lfs_core.Fs), fs2))
           ~durable ~ever_files ~ever_dirs ~divergence:[])
  | Error e -> v := Printf.sprintf "mount with bad sector failed: %s" e :: !v);
  let injected = Faulty.faults_injected f in
  if injected = 0 then
    v := "bad-sector fault never exercised (checkpoint region not read)" :: !v;
  Faulty.detach f;
  {
    bad_sector_reads = counter io "disk.faults.bad_sector_reads";
    bs_violations = List.rev !v;
  }
