(* Model-based testing: random operation sequences run simultaneously
   against a file system and the pure reference model; every result and
   the final tree must agree.  Run on both LFS and FFS.

   A second property crashes LFS at random points and checks recovery
   invariants. *)

module E = Lfs_vfs.Errors
module Fs_intf = Lfs_vfs.Fs_intf
module Model_fs = Lfs_scenario.Model_fs

let qcheck = Common.qcheck

(* Deep-fuzz sessions can crank the case counts without recompiling:
   MODEL_COUNT=500 dune exec test/test_main.exe -- test model *)
let count default =
  match Sys.getenv_opt "MODEL_COUNT" with
  | Some s -> (try int_of_string s with _ -> default)
  | None -> default

(* Operations over a namespace: either a tiny one, so that collisions,
   nesting and errors all get exercised, or a wide one whose directories
   span several blocks. *)

type op =
  | Create of string list
  | Mkdir of string list
  | Delete of string list
  | Write of string list * int * int  (* path, offset, length *)
  | Read of string list * int * int
  | Truncate of string list * int
  | Rename of string list * string list
  | Link of string list * string list
  | Readdir of string list
  | Sync
  | Flush_caches

let path_to_string components = "/" ^ String.concat "/" components

type namespace = {
  path : string list QCheck.Gen.t;
  dir_path : string list QCheck.Gen.t;  (* for mkdir and some deletes *)
  creates : int;  (* weights of Create and Delete *)
  deletes : int;
}

let narrow =
  let open QCheck.Gen in
  let path = list_size (int_range 1 3) (oneofl [ "a"; "b"; "c"; "d"; "e" ]) in
  { path; dir_path = path; creates = 4; deletes = 3 }

(* 120 names of 21-40 bytes: on 1 KB blocks about 25 entries fill a
   block, so the root spans two or more.  Three of them double as
   subdirectories holding a few names each, so directories empty out,
   get deleted and their inums come back. *)
let wide =
  let open QCheck.Gen in
  let names =
    List.init 120 (fun i ->
        Printf.sprintf "%03d-%s" i (String.make (17 + (i * 7 mod 20)) 'n'))
  in
  let subdir = oneofl (List.filteri (fun i _ -> i < 3) names) in
  let child = oneofl (List.filteri (fun i _ -> i >= 3 && i < 5) names) in
  let path =
    frequency
      [ (3, map (fun n -> [ n ]) (oneofl names)); (2, map2 (fun d c -> [ d; c ]) subdir child) ]
  in
  let dir_path = frequency [ (2, map (fun d -> [ d ]) subdir); (1, path) ] in
  { path; dir_path; creates = 10; deletes = 8 }

let op_gen ns =
  let open QCheck.Gen in
  let path = ns.path in
  frequency
    [
      (ns.creates, map (fun p -> Create p) path);
      (2, map (fun p -> Mkdir p) ns.dir_path);
      (ns.deletes, map (fun p -> Delete p) (frequency [ (3, path); (1, ns.dir_path) ]));
      (6, map3 (fun p off len -> Write (p, off, len)) path (int_bound 6000) (int_bound 4000));
      (4, map3 (fun p off len -> Read (p, off, len)) path (int_bound 8000) (int_bound 4000));
      (2, map2 (fun p s -> Truncate (p, s)) path (int_bound 6000));
      (2, map2 (fun a b -> Rename (a, b)) path path);
      (2, map2 (fun a b -> Link (a, b)) path path);
      (2, map (fun p -> Readdir p) path);
      (1, pure Sync);
      (1, pure Flush_caches);
    ]

let pp_op op =
  match op with
  | Create p -> "create " ^ path_to_string p
  | Mkdir p -> "mkdir " ^ path_to_string p
  | Delete p -> "delete " ^ path_to_string p
  | Write (p, off, len) -> Printf.sprintf "write %s %d+%d" (path_to_string p) off len
  | Read (p, off, len) -> Printf.sprintf "read %s %d+%d" (path_to_string p) off len
  | Truncate (p, s) -> Printf.sprintf "truncate %s %d" (path_to_string p) s
  | Rename (a, b) -> Printf.sprintf "rename %s %s" (path_to_string a) (path_to_string b)
  | Link (a, b) -> Printf.sprintf "link %s %s" (path_to_string a) (path_to_string b)
  | Readdir p -> "readdir " ^ path_to_string p
  | Sync -> "sync"
  | Flush_caches -> "flush"

module Run (F : Fs_intf.S) = struct
  let outcome_of_result = function
    | Ok () -> Model_fs.Done
    | Error _ -> Model_fs.Failed

  (* Inodes in use: every directory (the root included) and every file,
     counted once however many names it has. *)
  let inodes model =
    List.length (Model_fs.all_dirs model)
    + List.length
        (List.sort_uniq compare
           (List.filter_map
              (fun (p, _) -> Model_fs.file_id model p)
              (Model_fs.all_files model)))

  (* With [capacity] inodes in use a create fails whatever else holds
     (ENOSPC at the latest) and leaves the model alone. *)
  let apply ?(capacity = max_int) fs model step op =
    let expect = ref Model_fs.Failed in
    let got = ref Model_fs.Failed in
    let unless_full f = if inodes model >= capacity then Model_fs.Failed else f () in
    (match op with
    | Create p ->
        expect := unless_full (fun () -> Model_fs.create_file model p);
        got := outcome_of_result (F.create fs (path_to_string p))
    | Mkdir p ->
        expect := unless_full (fun () -> Model_fs.mkdir model p);
        got := outcome_of_result (F.mkdir fs (path_to_string p))
    | Delete p ->
        expect := Model_fs.delete model p;
        got := outcome_of_result (F.delete fs (path_to_string p))
    | Write (p, off, len) ->
        let data = Lfs_workload.Driver.content ~seed:step len in
        expect := Model_fs.write model p ~off data;
        got := outcome_of_result (F.write fs (path_to_string p) ~off data)
    | Read (p, off, len) ->
        expect := Model_fs.read model p ~off ~len;
        got :=
          (match F.read fs (path_to_string p) ~off ~len with
          | Ok b -> Model_fs.Data b
          | Error _ -> Model_fs.Failed)
    | Truncate (p, s) ->
        expect := Model_fs.truncate model p ~size:s;
        got := outcome_of_result (F.truncate fs (path_to_string p) ~size:s)
    | Rename (a, b) ->
        expect := Model_fs.rename model a b;
        got := outcome_of_result (F.rename fs (path_to_string a) (path_to_string b))
    | Link (a, b) ->
        expect := Model_fs.link model a b;
        got := outcome_of_result (F.link fs (path_to_string a) (path_to_string b))
    | Readdir p ->
        expect := Model_fs.readdir model p;
        got :=
          (match F.readdir fs (path_to_string p) with
          | Ok names -> Model_fs.Names names
          | Error _ -> Model_fs.Failed)
    | Sync ->
        F.sync fs;
        expect := Model_fs.Done;
        got := Model_fs.Done
    | Flush_caches ->
        F.flush_caches fs;
        expect := Model_fs.Done;
        got := Model_fs.Done);
    (* After a mutating op, immediately compare the touched file's full
       content — divergences then point at the guilty operation. *)
    (match op with
    | Write (p, _, _) | Truncate (p, _) | Create p -> (
        match Model_fs.read model p ~off:0 ~len:max_int with
        | Model_fs.Data expected -> (
            match F.read fs (path_to_string p) ~off:0 ~len:(Bytes.length expected + 16) with
            | Ok b when Bytes.equal b expected -> ()
            | Ok b ->
                QCheck.Test.fail_reportf
                  "step %d (%s): content diverged (%d vs %d bytes)" step
                  (pp_op op) (Bytes.length b) (Bytes.length expected)
            | Error e ->
                QCheck.Test.fail_reportf "step %d (%s): readback failed: %s"
                  step (pp_op op) (E.to_string e))
        | Model_fs.Failed | Model_fs.Done | Model_fs.Names _ -> ())
    | Link (_, b) -> (
        (* Both names must now read identically, and nlink must match. *)
        match Model_fs.read model b ~off:0 ~len:max_int with
        | Model_fs.Data expected -> (
            (match F.read fs (path_to_string b) ~off:0 ~len:(Bytes.length expected + 16) with
            | Ok got when Bytes.equal got expected -> ()
            | Ok _ ->
                QCheck.Test.fail_reportf "step %d (%s): link content diverged"
                  step (pp_op op)
            | Error e ->
                QCheck.Test.fail_reportf "step %d (%s): link readback: %s" step
                  (pp_op op) (E.to_string e));
            match F.stat fs (path_to_string b) with
            | Ok st ->
                let expected_nlink = Model_fs.nlink_of_path model b in
                if st.Fs_intf.nlink <> expected_nlink then
                  QCheck.Test.fail_reportf "step %d (%s): nlink %d, expected %d"
                    step (pp_op op) st.Fs_intf.nlink expected_nlink
            | Error _ -> ())
        | Model_fs.Failed | Model_fs.Done | Model_fs.Names _ -> ())
    | Mkdir _ | Delete _ | Rename _ | Read _ | Readdir _ | Sync
    | Flush_caches ->
        ());
    if !expect <> !got then
      QCheck.Test.fail_reportf "step %d (%s): model %s, fs %s" step (pp_op op)
        (match !expect with
        | Model_fs.Done -> "succeeded"
        | Model_fs.Failed -> "failed"
        | Model_fs.Data b -> Printf.sprintf "read %d bytes" (Bytes.length b)
        | Model_fs.Names n -> Printf.sprintf "listed %d" (List.length n))
        (match !got with
        | Model_fs.Done -> "succeeded"
        | Model_fs.Failed -> "failed"
        | Model_fs.Data b -> Printf.sprintf "read %d bytes" (Bytes.length b)
        | Model_fs.Names n -> Printf.sprintf "listed %d" (List.length n))

  let final_check fs model =
    List.iter
      (fun (p, content) ->
        match F.read fs (path_to_string p) ~off:0 ~len:(Bytes.length content + 16) with
        | Ok b ->
            if not (Bytes.equal b content) then
              QCheck.Test.fail_reportf "final content mismatch at %s"
                (path_to_string p)
        | Error e ->
            QCheck.Test.fail_reportf "final read %s: %s" (path_to_string p)
              (E.to_string e))
      (Model_fs.all_files model);
    List.iter
      (fun p ->
        match (F.readdir fs (path_to_string p), Model_fs.readdir model p) with
        | Ok names, Model_fs.Names expected ->
            if names <> expected then
              QCheck.Test.fail_reportf "final readdir mismatch at %s"
                (path_to_string p)
        | Error e, _ ->
            QCheck.Test.fail_reportf "final readdir %s: %s" (path_to_string p)
              (E.to_string e)
        | Ok _, _ -> QCheck.Test.fail_reportf "model lost a directory")
      (Model_fs.all_dirs model)

  (* Views of a deleted directory must die with its inode. *)
  let views_only_of_live_dirs views fs model =
    let live =
      List.filter_map
        (fun p ->
          match F.stat fs (path_to_string p) with
          | Ok st -> Some st.Fs_intf.inum
          | Error _ -> None)
        (Model_fs.all_dirs model)
    in
    List.iter
      (fun inum ->
        if not (List.mem inum live) then
          QCheck.Test.fail_reportf "views held for inum %d, not a live directory" inum)
      (Lfs_vfs.Dir.held (views fs))

  let run ?(extra_check = fun _ -> ()) ?capacity ~views make ops =
    let fs = make () in
    let model = Model_fs.create () in
    List.iteri
      (fun step op ->
        apply ?capacity fs model step op;
        match op with
        | Delete _ -> views_only_of_live_dirs views fs model
        | _ -> ())
      ops;
    final_check fs model;
    (* Once more after pushing everything to disk and dropping caches. *)
    F.flush_caches fs;
    final_check fs model;
    extra_check fs;
    true
end

module Lfs_run = Run (Lfs_core.Fs)
module Ffs_run = Run (Lfs_ffs.Fs)

(* Half the cases run the tiny namespace on the stock small stacks; the
   other half run the wide one on stacks with an 8-block cache (so
   directory blocks are evicted and re-read) and 48 inodes (so freed
   inums, directories' included, are handed out again). *)
let model_arb =
  let open QCheck.Gen in
  QCheck.make
    ~print:(fun (w, ops) ->
      String.concat "; " ((if w then "wide" else "narrow") :: List.map pp_op ops))
    (bool >>= fun w ->
     map
       (fun ops -> (w, ops))
       (if w then list_size (int_range 150 400) (op_gen wide)
        else list_size (int_range 20 120) (op_gen narrow)))

let wide_inodes = 48

let prop_lfs_model =
  QCheck.Test.make ~name:"LFS matches reference model" ~count:(count 60) model_arb
    (fun (w, ops) ->
      let structurally_sound fs =
        (match Lfs_core.Check.fsck fs with
        | [] -> ()
        | issues ->
            QCheck.Test.fail_reportf "structural issues: %s"
              (String.concat "; "
                 (List.map
                    (Format.asprintf "%a" Lfs_core.Check.pp_issue)
                    issues)));
        (* Live-byte accounting must track ground truth (± the usage
           array's self-reference slack). *)
        let tolerance =
          2 * (Lfs_core.Fs.layout fs).Lfs_core.Layout.block_size
        in
        List.iter
          (fun (seg, recorded, truth) ->
            if abs (recorded - truth) > tolerance then
              QCheck.Test.fail_reportf
                "segment %d usage drift: recorded %d, truth %d" seg recorded
                truth)
          (Lfs_core.Check.usage_drift fs)
      in
      let config =
        if w then
          { Common.small_config with Lfs_core.Config.max_files = wide_inodes; cache_blocks = 8 }
        else Common.small_config
      in
      (* inum 0 is the null inum. *)
      Lfs_run.run ~extra_check:structurally_sound
        ~views:(fun fs -> fs.Lfs_core.State.dirs)
        ~capacity:(config.Lfs_core.Config.max_files - 1)
        (fun () -> Common.make_lfs ~config ())
        ops)

let prop_ffs_model =
  QCheck.Test.make ~name:"FFS matches reference model" ~count:(count 60) model_arb
    (fun (w, ops) ->
      let config =
        if w then
          (* Three groups of the 16-inode minimum. *)
          { Lfs_ffs.Config.small with ngroups = 3; inode_bytes_per_inode = 1 lsl 30; cache_blocks = 8 }
        else Lfs_ffs.Config.small
      in
      let make () =
        let io = Common.make_io () in
        (match Lfs_ffs.Fs.format io config with
        | Ok () -> ()
        | Error e -> failwith ("ffs format: " ^ e));
        match Lfs_ffs.Fs.mount ~config io with
        | Ok fs -> fs
        | Error e -> failwith ("ffs mount: " ^ e)
      in
      let capacity = if w then wide_inodes - 1 else max_int in
      Ffs_run.run ~capacity ~views:Lfs_ffs.Fs.dir_views make ops)

(* Crash-recovery property: run operations with periodic checkpoints,
   arm a crash at a random write countdown, keep operating until the
   crash fires, then remount and check
   (1) the recovered tree is fully readable (no corruption), and
   (2) every file unchanged since the last checkpoint survives with its
       checkpointed content. *)

let prop_lfs_crash_recovery =
  QCheck.Test.make ~name:"LFS crash recovery invariants" ~count:(count 40)
    (QCheck.make
       ~print:(fun (ops, crash_after) ->
         Printf.sprintf "crash_after=%d; %s" crash_after
           (String.concat "; " (List.map pp_op ops)))
       QCheck.Gen.(
         pair (list_size (int_range 30 100) (op_gen narrow)) (int_range 1 2000)))
    (fun (ops, crash_after) ->
      let fs = Common.make_lfs () in
      let io = Lfs_core.Fs.io fs in
      let disk = Lfs_disk.Io.member_disk io 0 in
      let model = Model_fs.create () in
      (* Stable state: everything up to a checkpoint.  Touched paths are
         tracked as *prefixes*: renaming a directory moves its whole
         subtree, so everything under either endpoint counts as touched. *)
      let stable = ref [] in
      let dirty_prefixes = ref [] in
      (* With hard links a path can alias a file modified through another
         name; track content identity as well as paths. *)
      let touched_ids = Hashtbl.create 16 in
      let touch_id p =
        match Model_fs.file_id model p with
        | Some id -> Hashtbl.replace touched_ids id ()
        | None -> ()
      in
      let touch p =
        dirty_prefixes := p :: !dirty_prefixes;
        touch_id p
      in
      let rec is_prefix a b =
        match (a, b) with
        | [], _ -> true
        | x :: a', y :: b' -> x = y && is_prefix a' b'
        | _ :: _, [] -> false
      in
      let touched p = List.exists (fun pre -> is_prefix pre p) !dirty_prefixes in
      let module R = Run (Lfs_core.Fs) in
      let step_count = ref 0 in
      let crashed = ref false in
      (try
         List.iteri
           (fun step op ->
             if not !crashed then begin
               incr step_count;
               (match op with
               | Create p | Mkdir p | Delete p | Truncate (p, _) | Write (p, _, _)
                 ->
                   touch p
               | Rename (a, b) | Link (a, b) ->
                   touch a;
                   touch b
               | Read _ | Readdir _ | Sync | Flush_caches -> ());
               R.apply fs model step op;
               if step = List.length ops / 2 then begin
                 (* Checkpoint mid-run and arm the crash after it. *)
                 Lfs_core.Fs.checkpoint_now fs;
                 stable :=
                   List.filter_map
                     (fun (p, content) ->
                       Option.map
                         (fun id -> (p, id, content))
                         (Model_fs.file_id model p))
                     (Model_fs.all_files model);
                 dirty_prefixes := [];
                 Hashtbl.reset touched_ids;
                 Lfs_disk.Disk.set_crash_after disk ~sectors:crash_after
               end
             end)
           ops
       with Lfs_disk.Disk.Crash -> crashed := true);
      Lfs_disk.Disk.clear_crash disk;
      let fs2 =
        match Lfs_core.Fs.mount ~config:Common.small_config io with
        | Ok fs -> fs
        | Error e -> QCheck.Test.fail_reportf "remount failed: %s" e
      in
      (* (1) Whole tree readable. *)
      let rec walk path =
        match Lfs_core.Fs.readdir fs2 path with
        | Error e -> QCheck.Test.fail_reportf "walk %s: %s" path (E.to_string e)
        | Ok names ->
            List.iter
              (fun n ->
                let full = if path = "/" then "/" ^ n else path ^ "/" ^ n in
                match Lfs_core.Fs.stat fs2 full with
                | Error e ->
                    QCheck.Test.fail_reportf "stat %s: %s" full (E.to_string e)
                | Ok st ->
                    if st.Fs_intf.kind = Fs_intf.Directory then walk full
                    else begin
                      match
                        Lfs_core.Fs.read fs2 full ~off:0 ~len:st.Fs_intf.size
                      with
                      | Ok _ -> ()
                      | Error e ->
                          QCheck.Test.fail_reportf "read %s: %s" full
                            (E.to_string e)
                    end)
              names
      in
      walk "/";
      (* Structural soundness; roll-forward may resurrect orphan inodes
         for post-checkpoint deletes (documented 1990 limitation). *)
      (match
         List.filter
           (function Lfs_core.Check.Orphan_inode _ -> false | _ -> true)
           (Lfs_core.Check.fsck fs2)
       with
      | [] -> ()
      | issues ->
          QCheck.Test.fail_reportf "post-crash structural issues: %s"
            (String.concat "; "
               (List.map (Format.asprintf "%a" Lfs_core.Check.pp_issue) issues)));
      (* (2) Checkpointed-and-untouched files intact. *)
      List.iter
        (fun (p, id, content) ->
          if not (touched p || Hashtbl.mem touched_ids id) then begin
            match
              Lfs_core.Fs.read fs2 (path_to_string p) ~off:0
                ~len:(Bytes.length content + 16)
            with
            | Ok b ->
                if not (Bytes.equal b content) then
                  QCheck.Test.fail_reportf
                    "checkpointed file %s corrupted after crash"
                    (path_to_string p)
            | Error e ->
                QCheck.Test.fail_reportf "checkpointed file %s lost: %s"
                  (path_to_string p) (E.to_string e)
          end)
        !stable;
      true)

let suite =
  [
    qcheck prop_lfs_model;
    qcheck prop_ffs_model;
    qcheck prop_lfs_crash_recovery;
  ]
