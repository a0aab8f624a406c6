(* Shared helpers for the test suites. *)

module Clock = Lfs_disk.Clock
module Cpu_model = Lfs_disk.Cpu_model
module Disk = Lfs_disk.Disk
module Geometry = Lfs_disk.Geometry
module Io = Lfs_disk.Io

(* Property tests draw from a fixed seed so two runs test the same
   cases; set QCHECK_SEED to explore others.  Each property gets a fresh
   state from the seed, as qcheck-alcotest's own default does. *)
let qcheck_seed =
  lazy
    (let seed =
       match Option.bind (Sys.getenv_opt "QCHECK_SEED") int_of_string_opt with
       | Some s -> s
       | None -> 1990
     in
     Printf.printf "qcheck random seed: %d\n%!" seed;
     seed)

let qcheck t =
  QCheck_alcotest.to_alcotest
    ~rand:(Random.State.make [| Lazy.force qcheck_seed |])
    t

let small_geometry ?(size_bytes = 8 * 1024 * 1024) () =
  Geometry.wren_iv ~size_bytes

let make_io ?(size_bytes = 8 * 1024 * 1024) ?(cpu = Cpu_model.free) () =
  let disk = Disk.create (small_geometry ~size_bytes ()) in
  let clock = Clock.create () in
  Io.create disk clock cpu

(* A disk request as its [Disk_request] trace event describes it. *)
type request = {
  kind : Lfs_obs.Event.disk_kind;
  sync : bool;
  sector : int;
  sectors : int;
  sequential : bool;
}

(* The disk requests [f ()] issues on [io], oldest first, from a sink on
   the io's trace bus that is attached only while [f] runs. *)
let requests_during io f =
  let bus = Io.bus io in
  let sink =
    Lfs_obs.Bus.attach
      ~filter:(function Lfs_obs.Event.Disk_request _ -> true | _ -> false)
      bus
  in
  Fun.protect ~finally:(fun () -> Lfs_obs.Bus.detach bus sink) f;
  List.filter_map
    (fun (r : Lfs_obs.Event.record) ->
      match r.Lfs_obs.Event.event with
      | Lfs_obs.Event.Disk_request { kind; sync; sector; sectors; sequential; _ }
        ->
          Some { kind; sync; sector; sectors; sequential }
      | _ -> None)
    (Lfs_obs.Bus.records sink)

let writes_during io f =
  List.filter (fun r -> r.kind = Lfs_obs.Event.Write) (requests_during io f)

let small_config = Lfs_core.Config.small

(* A formatted, mounted small LFS. *)
let make_lfs ?(size_bytes = 8 * 1024 * 1024) ?(config = small_config) () =
  let io = make_io ~size_bytes () in
  (match Lfs_core.Fs.format io config with
  | Ok () -> ()
  | Error e -> failwith ("format: " ^ e));
  match Lfs_core.Fs.mount ~config io with
  | Ok fs -> fs
  | Error e -> failwith ("mount: " ^ e)

let check_ok what = function
  | Ok v -> v
  | Error e -> Alcotest.failf "%s: %s" what (Lfs_vfs.Errors.to_string e)

let check_err what expected = function
  | Ok _ -> Alcotest.failf "%s: expected error, got Ok" what
  | Error e ->
      if not (Lfs_vfs.Errors.equal e expected) then
        Alcotest.failf "%s: expected %s, got %s" what
          (Lfs_vfs.Errors.to_string expected)
          (Lfs_vfs.Errors.to_string e)

let bytes_of_string = Bytes.of_string

(* Deterministic pseudo-random file content: the workloads' generator. *)
let pattern = Lfs_workload.Driver.content

let read_all fs path =
  let stat = check_ok "stat" (Lfs_core.Fs.stat fs path) in
  check_ok "read" (Lfs_core.Fs.read fs path ~off:0 ~len:stat.Lfs_vfs.Fs_intf.size)

let write_file fs path data =
  check_ok "create" (Lfs_core.Fs.create fs path);
  check_ok "write" (Lfs_core.Fs.write fs path ~off:0 data)

let check_bytes what expected actual =
  if not (Bytes.equal expected actual) then
    Alcotest.failf "%s: content mismatch (%d vs %d bytes)" what
      (Bytes.length expected) (Bytes.length actual)
