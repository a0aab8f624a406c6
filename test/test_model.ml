(* Model-based testing: random operation sequences run simultaneously
   against a file system and the pure reference model; every result and
   the final tree must agree.  Run on both LFS and FFS.

   A third property crashes LFS at every write boundary of seeded
   scenario streams and holds recovery to the crash oracle. *)

module E = Lfs_vfs.Errors
module Fs_intf = Lfs_vfs.Fs_intf
module Model_fs = Lfs_workload.Model_fs
module Op = Lfs_workload.Op
module Scenario = Lfs_scenario.Scenario

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

type namespace = {
  path : string QCheck.Gen.t;
  dir_path : string QCheck.Gen.t;  (* for mkdir and some deletes *)
  creates : int;  (* weights of Create and Delete *)
  deletes : int;
}

let absolute components = "/" ^ String.concat "/" components

let narrow =
  let open QCheck.Gen in
  let path =
    map absolute (list_size (int_range 1 3) (oneofl [ "a"; "b"; "c"; "d"; "e" ]))
  in
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
      [ (3, map (fun n -> absolute [ n ]) (oneofl names)); (2, map2 (fun d c -> absolute [ d; c ]) subdir child) ]
  in
  let dir_path = frequency [ (2, map (fun d -> absolute [ d ]) subdir); (1, path) ] in
  { path; dir_path; creates = 10; deletes = 8 }

(* Write contents are seeded by the op's position in the list (see
   [model_arb]). *)
let op_gen ns =
  let open QCheck.Gen in
  let path = ns.path in
  frequency
    [
      (ns.creates, map (fun p -> Op.Create p) path);
      (2, map (fun p -> Op.Mkdir p) ns.dir_path);
      (ns.deletes, map (fun p -> Op.Delete p) (frequency [ (3, path); (1, ns.dir_path) ]));
      (6, map3 (fun path off len -> Op.Write { path; off; seed = 0; len }) path (int_bound 6000) (int_bound 4000));
      (4, map3 (fun path off len -> Op.Read { path; off; len }) path (int_bound 8000) (int_bound 4000));
      (2, map2 (fun path size -> Op.Truncate { path; size }) path (int_bound 6000));
      (2, map2 (fun src dst -> Op.Rename { src; dst }) path path);
      (2, map2 (fun src dst -> Op.Link { src; dst }) path path);
      (2, map (fun p -> Op.Readdir p) path);
      (1, pure Op.Sync);
      (1, pure Op.Flush_caches);
    ]

module Run (F : Fs_intf.S) = struct
  (* Inodes in use: every directory (the root included) and every file,
     counted once however many names it has. *)
  let inodes model =
    List.length (Model_fs.all_dirs model) + List.length (Model_fs.files model)

  (* After a mutating op, compare the file's full content at once, so a
     divergence points at the guilty operation. *)
  let check_content fs model step op p =
    match List.assoc_opt p (Model_fs.all_files model) with
    | None -> ()
    | Some expected -> (
        match F.read fs p ~off:0 ~len:(Bytes.length expected + 16) with
        | Ok b when Bytes.equal b expected -> ()
        | Ok b ->
            QCheck.Test.fail_reportf
              "step %d (%s): content diverged (%d vs %d bytes)" step (Op.pp op)
              (Bytes.length b) (Bytes.length expected)
        | Error e ->
            QCheck.Test.fail_reportf "step %d (%s): readback failed: %s" step
              (Op.pp op) (E.to_string e))

  (* With [capacity] inodes in use a create fails whatever else holds
     (ENOSPC at the latest) and leaves the model alone. *)
  let step ?(capacity = max_int) fs model i op =
    let inst = Fs_intf.Instance ((module F), fs) in
    (match op with
    | (Op.Create _ | Op.Mkdir _) when inodes model >= capacity ->
        if Op.apply inst op <> Op.Failed then
          QCheck.Test.fail_reportf "step %d (%s): succeeded with %d inodes in use"
            i (Op.pp op) capacity
    | _ -> (
        match Model_fs.lockstep model inst op with
        | Some why -> QCheck.Test.fail_reportf "step %d (%s): %s" i (Op.pp op) why
        | None -> ()));
    match op with
    | Op.Write { path; _ } | Op.Truncate { path; _ } | Op.Create path ->
        check_content fs model i op path
    | Op.Link { dst; _ } -> (
        (* Both names must now read identically, and nlink must match. *)
        check_content fs model i op dst;
        match
          ( List.find_opt (fun (_, names, _) -> List.mem dst names) (Model_fs.files model),
            F.stat fs dst )
        with
        | Some (_, names, _), Ok st ->
            if st.Fs_intf.nlink <> List.length names then
              QCheck.Test.fail_reportf "step %d (%s): nlink %d, expected %d" i
                (Op.pp op) st.Fs_intf.nlink (List.length names)
        | _ -> ())
    | _ -> ()

  let final_check fs model =
    List.iter
      (fun (p, content) ->
        match F.read fs p ~off:0 ~len:(Bytes.length content + 16) with
        | Ok b ->
            if not (Bytes.equal b content) then
              QCheck.Test.fail_reportf "final content mismatch at %s" p
        | Error e -> QCheck.Test.fail_reportf "final read %s: %s" p (E.to_string e))
      (Model_fs.all_files model);
    List.iter
      (fun p ->
        match (F.readdir fs p, Model_fs.apply model (Op.Readdir p)) with
        | Ok names, Model_fs.Names expected ->
            if names <> expected then
              QCheck.Test.fail_reportf "final readdir mismatch at %s" p
        | Error e, _ -> QCheck.Test.fail_reportf "final readdir %s: %s" p (E.to_string e)
        | Ok _, _ -> QCheck.Test.fail_reportf "model lost a directory")
      (Model_fs.all_dirs model)

  (* Views of a deleted directory must die with its inode. *)
  let views_only_of_live_dirs views fs model =
    let live =
      List.filter_map
        (fun p ->
          match F.stat fs p with
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
      (fun i op ->
        step ?capacity fs model i op;
        match op with
        | Op.Delete _ -> views_only_of_live_dirs views fs model
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
  let seeded = List.mapi (fun i -> function
      | Op.Write w -> Op.Write { w with seed = i }
      | op -> op)
  in
  QCheck.make
    ~print:(fun (w, ops) ->
      String.concat "; " ((if w then "wide" else "narrow") :: List.map Op.pp ops))
    (bool >>= fun w ->
     map
       (fun ops -> (w, seeded ops))
       (if w then list_size (int_range 150 400) (op_gen wide)
        else list_size (int_range 20 120) (op_gen narrow)))

let wide_inodes = 48

let prop_lfs_model =
  QCheck.Test.make ~name:"LFS matches reference model" ~count:(count 60) model_arb
    (fun (w, ops) ->
      let integrity fs =
        match Lfs_core.Fs.integrity fs with
        | [] -> ()
        | issues ->
            QCheck.Test.fail_reportf "integrity: %s" (String.concat "; " issues)
      in
      let config =
        if w then
          { Common.small_config with Lfs_core.Config.max_files = wide_inodes; cache_blocks = 8 }
        else Common.small_config
      in
      (* inum 0 is the null inum. *)
      Lfs_run.run ~extra_check:integrity
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

(* Crash-recovery property: seeded crash sweeps of the default mix
   through the scenario DSL, plain and torn.  Every write boundary of
   the stream is a crash point, and the recovered tree must satisfy the
   crash oracle of Crashpoint there. *)
let prop_lfs_crash_recovery =
  QCheck.Test.make ~name:"LFS crash recovery invariants" ~count:(count 5)
    (QCheck.make
       ~print:(fun (s, torn) -> Printf.sprintf "seed %d%s" s (if torn then " torn" else ""))
       QCheck.Gen.(pair (int_bound 1_000_000) bool))
    (fun (s, torn) ->
      let r =
        Scenario.(
          make |> count 200 |> boundaries 256 |> crash_sweep
          |> faults (if torn then [ Torn ] else [])
          |> seed s |> run)
      in
      match r.Scenario.failure with
      | None -> true
      | Some f ->
          QCheck.Test.fail_reportf "%s\nminimal counterexample:\n  %s\nreplay: %s"
            f.Scenario.message
            (String.concat "\n  " f.Scenario.steps)
            f.Scenario.replay)

let suite =
  [
    qcheck prop_lfs_model;
    qcheck prop_ffs_model;
    qcheck prop_lfs_crash_recovery;
  ]
