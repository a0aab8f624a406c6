(** Exhaustive crash-point recovery sweeps (see crashpoint.mli). *)

module Cpu_model = Lfs_disk.Cpu_model
module Faulty = Lfs_disk.Faulty
module Io = Lfs_disk.Io
module Fs_intf = Lfs_vfs.Fs_intf
module Metrics = Lfs_obs.Metrics
module Rng = Lfs_util.Rng

type system = [ `Lfs | `Ffs ]

let system_name = function `Lfs -> "LFS" | `Ffs -> "FFS"

(* A fresh 16 MB stack (striped when [volume] is given), small config,
   free CPU: the sweep replays the whole workload once per boundary, so
   each run must be cheap. *)
let small_stack ?volume (sys : system) =
  let cpu = Cpu_model.free in
  let io =
    match volume with
    | None -> Setup.make_io ~disk_mb:16 ~cpu ()
    | Some (policy, members) ->
        Setup.make_volume_io ~disk_mb:16 ~cpu ~policy ~members ()
  in
  ( io,
    match sys with
    | `Lfs -> Setup.lfs_on io ~config:Lfs_core.Config.small ()
    | `Ffs -> Setup.ffs_on io ~config:Lfs_ffs.Config.small () )

let block_size = function
  | `Lfs -> Lfs_core.Config.small.Lfs_core.Config.block_size
  | `Ffs -> Lfs_ffs.Config.small.Lfs_ffs.Config.block_size

(* Remount the (crashed) media under a fresh in-memory state: LFS
   through [Recovery.recover], FFS through its fsck-style [repair] pass
   first — the full-disk scan the paper contrasts with bounded
   roll-forward. *)
let remount io = function
  | `Lfs ->
      Result.map
        (fun fs -> Fs_intf.Instance ((module Lfs_core.Fs), fs))
        (Lfs_core.Fs.mount ~config:Lfs_core.Config.small io)
  | `Ffs ->
      Result.map
        (fun fs ->
          ignore (Lfs_ffs.Fs.repair fs);
          Fs_intf.Instance ((module Lfs_ffs.Fs), fs))
        (Lfs_ffs.Fs.mount ~config:Lfs_ffs.Config.small io)

let counter io name =
  Option.value ~default:0
    (Metrics.counter_value (Metrics.snapshot (Io.metrics io)) name)

(* Run [ops] in lockstep with a fresh model, calling [after i model]
   after op [i]; the first disagreement raises
   [Driver.Benchmark_failure]. *)
let lockstep inst ops ~after =
  let model = Model_fs.create () in
  List.iteri
    (fun i op ->
      (match Model_fs.lockstep model inst op with
      | Some why -> Driver.fail "op %d (%s): %s" i (Op.pp op) why
      | None -> ());
      after i model)
    ops;
  model

(* Probe run: the workload on a fault-free stack, in lockstep with the
   model.  It records the cumulative write-request count after each op
   ([cum.(i)]) and the model state after each op ([states.(i + 1)];
   [states.(0)] is the empty tree).  Replays crash at write boundary
   [k]; the probe tells which ops completed before it and what each
   state since then holds. *)
let probe ?volume sys ops =
  let io, inst = small_stack ?volume sys in
  let f = Faulty.attach io Faulty.quiet in
  let n = List.length ops in
  let cum = Array.make n 0 in
  let states = Array.make (n + 1) (Model_fs.create ()) in
  ignore
    (lockstep inst ops ~after:(fun i model ->
         cum.(i) <- Faulty.writes_seen f;
         states.(i + 1) <- Model_fs.copy model));
  Faulty.detach f;
  Driver.sanitize inst;
  (Faulty.writes_seen f, cum, states)

(* The states recovery at boundary [k] may show.  Write request [k] is
   the one lost (or torn); requests [0..k-1] completed.  [cum] is
   non-decreasing, so the ops that completed are those before the first
   op whose cumulative count exceeds [k]; that op was in flight.  The
   window runs from the state after the last completed [Sync] (the empty
   tree if none completed) through the state after the op in flight. *)
let window ops ~cum ~states ~k =
  let n = Array.length ops in
  let rec in_flight i = if i >= n || cum.(i) > k then i else in_flight (i + 1) in
  let c = in_flight 0 in
  let rec last_sync i =
    if i < 0 then -1 else match ops.(i) with Op.Sync -> i | _ -> last_sync (i - 1)
  in
  let from = last_sync (c - 1) + 1 in
  Array.to_list (Array.sub states from (min (c + 1) n - from + 1))

(* The recovered tree, read back whole, a block per request: each
   regular file's path, inode number, size and bytes, and each
   directory's path.  A directory inode met a second time is not walked
   again; its second name goes in the last list. *)
let walk ~block inst =
  let files = ref [] and dirs = ref [] and aliases = ref [] in
  let seen = Hashtbl.create 16 in
  let rec go path =
    let st = Driver.stat inst path in
    match st.Fs_intf.kind with
    | Fs_intf.Regular ->
        let size = st.Fs_intf.size in
        let data =
          Bytes.concat Bytes.empty
            (List.init ((size + block - 1) / block) (fun j ->
                 Driver.read inst path ~off:(j * block) ~len:block))
        in
        files := (path, st.Fs_intf.inum, size, data) :: !files
    | Fs_intf.Directory -> (
        match Hashtbl.find_opt seen st.Fs_intf.inum with
        | Some first -> aliases := (first, path) :: !aliases
        | None ->
            Hashtbl.replace seen st.Fs_intf.inum path;
            dirs := path :: !dirs;
            List.iter
              (fun name ->
                go (if path = "/" then "/" ^ name else path ^ "/" ^ name))
              (Driver.readdir inst path))
  in
  go "/";
  (List.rev !files, List.rev !dirs, List.rev !aliases)

(* [len] bytes of [c] from [off], zeros past its end. *)
let slice c ~off ~len =
  let b = Bytes.make len '\000' in
  if off < Bytes.length c then
    Bytes.blit c off b 0 (min len (Bytes.length c - off));
  b

(* Hold the recovered tree to the window (see crashpoint.mli).  Files
   are followed by model id, so a rename of the file or of a directory
   above it, or a hard link, cannot hide a loss. *)
let check_window sys window inst =
  let v = ref [] in
  let add fmt = Printf.ksprintf (fun s -> v := s :: !v) fmt in
  let block = block_size sys in
  List.iter (add "integrity: %s") (Driver.integrity inst);
  (match walk ~block inst with
  | exception e -> add "tree walk failed: %s" (Printexc.to_string e)
  | files, dirs, aliases ->
      let states = List.map Model_fs.files window in
      (* A file's names and bytes in each state; [None] where it is
         absent. *)
      let history id =
        List.map
          (List.find_map (fun (i, n, d) -> if i = id then Some (n, d) else None))
          states
      in
      let ids =
        List.sort_uniq compare
          (List.concat_map (List.map (fun (id, _, _) -> id)) states)
      in
      let names id =
        List.sort_uniq compare
          (List.concat_map
             (function Some (n, _) -> n | None -> [])
             (history id))
      in
      (* Recovered bytes fit file [id] when their size, and each block,
         are those of some state in the window. *)
      let fits id data =
        let versions = List.filter_map (Option.map snd) (history id) in
        let n = Bytes.length data in
        let block_fits j =
          let off = j * block in
          let len = min block (n - off) in
          let want = Bytes.sub data off len in
          List.exists (fun c -> Bytes.equal want (slice c ~off ~len)) versions
        in
        List.exists (fun c -> Bytes.length c = n) versions
        && List.for_all block_fits (List.init ((n + block - 1) / block) Fun.id)
      in
      let recovered p = List.find_opt (fun (q, _, _, _) -> q = p) files in
      List.iter
        (fun (p, _, size, data) ->
          if Bytes.length data <> size then
            add "%s: short read (%d of %d)" p (Bytes.length data) size
          else
            match List.filter (fun id -> List.mem p (names id)) ids with
            | [] -> add "phantom file %s: no state since the last sync has it" p
            | cands ->
                if not (List.exists (fun id -> fits id data) cands) then
                  add "%s: its %d bytes match no state since the last sync" p
                    size)
        files;
      List.iter
        (fun id ->
          let h = history id in
          match h with
          | Some ((synced_names, synced) as first) :: _
            when List.for_all (( = ) (Some first)) h ->
              (* Untouched since the sync: exactly as synced. *)
              List.iter
                (fun p ->
                  match recovered p with
                  | None -> add "%s: lost despite completed sync" p
                  | Some (_, _, _, data) ->
                      if not (Bytes.equal data synced) then
                        add "%s: content differs from synced data (%d bytes, \
                             synced %d)"
                          p (Bytes.length data) (Bytes.length synced))
                synced_names
          | _ when List.mem None h -> (* some state lacks it *) ()
          | _ ->
              if
                not
                  (List.exists
                     (fun p ->
                       match recovered p with
                       | Some (_, _, _, data) -> fits id data
                       | None -> false)
                     (names id))
              then
                add "file %s lost: under none of its names since the last sync"
                  (String.concat " | " (names id)))
        ids;
      (* Names that share an inode must be names of one file; on LFS
         only of a file that had several at once. *)
      let inums = List.sort_uniq compare (List.map (fun (_, i, _, _) -> i) files) in
      List.iter
        (fun inum ->
          let group =
            List.filter_map
              (fun (p, i, _, _) -> if i = inum then Some p else None)
              files
          in
          let owners =
            List.filter
              (fun id -> List.for_all (fun p -> List.mem p (names id)) group)
              ids
          in
          let linked id =
            List.exists
              (function Some (n, _) -> List.length n > 1 | None -> false)
              (history id)
          in
          if List.length group > 1 then
            if owners = [] then
              add "%s share an inode, as no file since the last sync does"
                (String.concat ", " group)
            else if sys = `Lfs && not (List.exists linked owners) then
              add "%s: one file under %d names, though its link count stays 1"
                (String.concat ", " group) (List.length group))
        inums;
      (* Directories, followed by id like files: each recovered one is
         under a name some state has, and one that every state has is
         under at least one of its names. *)
      List.iter
        (fun (p, q) -> add "one directory under two names: %s and %s" p q)
        aliases;
      let dir_states = List.map Model_fs.dirs window in
      List.iter
        (fun p ->
          if not (List.exists (List.exists (fun (_, q) -> q = p)) dir_states)
          then add "phantom dir %s: no state since the last sync has it" p)
        dirs;
      List.iter
        (fun (id, _) ->
          match List.map (List.assoc_opt id) dir_states with
          | names when List.mem None names -> (* some state lacks it *) ()
          | names ->
              let names = List.sort_uniq compare (List.filter_map Fun.id names) in
              if not (List.exists (fun p -> List.mem p dirs) names) then
                add
                  "directory %s lost: under none of its names since the last \
                   sync"
                  (String.concat " | " names))
        (List.hd dir_states));
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
  let io, inst = small_stack ?volume sys in
  let scenario =
    { Faulty.quiet with seed; crash_after_writes = Some k; torn_write = torn }
  in
  let f = Faulty.attach io scenario in
  let crashed =
    try
      List.iter (fun op -> ignore (Op.apply inst op)) ops;
      false
    with Faulty.Crash -> true
  in
  Faulty.clear_crash f;
  let faults = Faulty.faults_injected f in
  Faulty.detach f;
  match remount io sys with
  | Error e -> Error (Printf.sprintf "remount failed: %s" e)
  | Ok st -> Ok (st, { boundary = k; crashed }, faults)

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
  let label = system_name sys in
  let violations = ref [] and points = ref [] and faults = ref 0 in
  let tag k fmt =
    Printf.ksprintf
      (fun s ->
        violations :=
          Printf.sprintf "%s%s k=%d: %s" label (if torn then " torn" else "") k s
          :: !violations)
      fmt
  in
  let total, boundaries =
    match probe ?volume sys ops with
    | exception Driver.Benchmark_failure m ->
        violations := [ Printf.sprintf "%s probe run: %s" label m ];
        (0, [])
    | total, cum, states ->
        let ops = Array.of_list ops in
        let boundaries = choose_boundaries ~total ~cap:max_boundaries ~seed in
        List.iter
          (fun k ->
            match
              replay ?volume sys (Array.to_list ops) ~k ~torn
                ~seed:(seed + (1000 * (k + 1)))
            with
            | Error e -> tag k "%s" e
            | Ok (st, point, injected) ->
                faults := !faults + injected;
                points := point :: !points;
                List.iter (tag k "%s")
                  (check_window sys (window ops ~cum ~states ~k) st))
          boundaries;
        (total, boundaries)
  in
  {
    label;
    torn;
    total_writes = total;
    boundaries_tested = List.length boundaries;
    faults = !faults;
    violations = List.rev !violations;
    points = List.rev !points;
  }

(* Transient read errors: the whole workload, then a cold read-back of
   every file compared with the model and an integrity pass, must
   succeed through the retry/backoff path, with no fault ever surfacing
   to the file system. *)

type read_fault_outcome = {
  retries : int;
  backoff_us : int;
  read_errors : int;
  rf_violations : string list;
}

let read_fault_run ?volume ?(rate = 0.08) ?(burst = 1) ?(seed = 11) sys ops =
  let io, inst = small_stack ?volume sys in
  let f =
    Faulty.attach io
      { Faulty.quiet with seed; read_error_rate = rate; read_error_burst = burst }
  in
  let v =
    try
      (* Synced, so that the read-back after the cache drop goes to the
         disk: LFS serves blocks of its unwritten segment from memory.
         The whole tree must then read back as the model has it. *)
      let model = lockstep inst (ops @ [ Op.Sync ]) ~after:(fun _ _ -> ()) in
      Driver.flush_caches inst;
      check_window sys [ model ] inst
    with
    | Driver.Benchmark_failure m -> [ m ]
    | e -> [ "run failed: " ^ Printexc.to_string e ]
  in
  Faulty.detach f;
  {
    retries = counter io "io.retries";
    backoff_us = counter io "io.backoff_us";
    read_errors = counter io "disk.faults.read_errors";
    rf_violations = v;
  }

(* Sticky bad sector over checkpoint region A: recovery must fall back
   to region B and mount a sound file system. *)

type bad_sector_outcome = { bad_sector_reads : int; bs_violations : string list }

let bad_sector_run ?(seed = 13) ops =
  let io, inst = small_stack `Lfs in
  (* A final sync makes the whole end state durable: the mount via
     region B must recover exactly that. *)
  let synced = lockstep inst (ops @ [ Op.Sync ]) ~after:(fun _ _ -> ()) in
  let bad =
    match Lfs_core.Layout.compute Lfs_core.Config.small (Io.geometry io) with
    | Ok l -> Lfs_core.Layout.sector_of_block l (fst l.Lfs_core.Layout.cp_region)
    | Error e -> Driver.fail "LFS layout: %s" e
  in
  let f = Faulty.attach io { Faulty.quiet with seed; bad_sectors = [ bad ] } in
  let v =
    match remount io `Lfs with
    | Ok recovered -> check_window `Lfs [ synced ] recovered
    | Error e -> [ Printf.sprintf "mount with bad sector failed: %s" e ]
  in
  let v =
    if Faulty.faults_injected f = 0 then
      v @ [ "bad-sector fault never exercised (checkpoint region not read)" ]
    else v
  in
  Faulty.detach f;
  { bad_sector_reads = counter io "disk.faults.bad_sector_reads"; bs_violations = v }
