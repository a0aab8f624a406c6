(* Crash recovery (§4.4): checkpoints, roll-forward, and torn writes.

   Simulates a power cut at three different moments and shows what the
   recovered file system contains each time.

   Run with:  dune exec examples/crash_recovery.exe *)

module Clock = Lfs_disk.Clock
module Config = Lfs_core.Config
module Cpu_model = Lfs_disk.Cpu_model
module Disk = Lfs_disk.Disk
module Fs = Lfs_core.Fs
module Geometry = Lfs_disk.Geometry
module Io = Lfs_disk.Io

let ok = function
  | Ok v -> v
  | Error e -> failwith (Lfs_vfs.Errors.to_string e)

let fresh_fs () =
  let geometry = Geometry.wren_iv ~size_bytes:(32 * 1024 * 1024) in
  let disk = Disk.create geometry in
  let io = Io.create disk (Clock.create ()) Cpu_model.sun4_260 in
  (match Fs.format io Config.default with
  | Ok () -> ()
  | Error e -> failwith e);
  match Fs.mount io with Ok fs -> fs | Error e -> failwith e

let show_root banner fs =
  let names = ok (Fs.readdir fs "/") in
  Printf.printf "%-42s root: [%s]\n" banner (String.concat "; " names)

let recover fs =
  Disk.clear_crash (Io.member_disk (Fs.io fs) 0);
  let t0 = Io.now_us (Fs.io fs) in
  let fs' = match Fs.mount (Fs.io fs) with Ok f -> f | Error e -> failwith e in
  let us = Io.now_us (Fs.io fs) - t0 in
  Printf.printf "  (recovery took %.2f ms of simulated time, %d segments replayed)\n"
    (float_of_int us /. 1000.0)
    (Fs.stats fs').Lfs_core.State.rollforward_segments;
  fs'

let () =
  print_endline "Scenario 1: crash with dirty data only in the cache";
  print_endline "----------------------------------------------------";
  let fs = fresh_fs () in
  ok (Fs.create fs "/checkpointed");
  ok (Fs.write fs "/checkpointed" ~off:0 (Bytes.of_string "safe"));
  Fs.checkpoint_now fs;
  ok (Fs.create fs "/in-cache-only");
  show_root "before crash:" fs;
  (* No sync: the second file exists only in memory.  Crash = remount. *)
  let fs = recover fs in
  show_root "after recovery:" fs;
  print_endline "  -> the un-synced file is gone; the checkpointed one survives.\n";

  print_endline "Scenario 2: crash after sync, before any checkpoint";
  print_endline "----------------------------------------------------";
  let fs = fresh_fs () in
  ok (Fs.create fs "/checkpointed");
  Fs.checkpoint_now fs;
  ok (Fs.create fs "/synced");
  ok (Fs.write fs "/synced" ~off:0 (Bytes.of_string "on disk, in the log"));
  Fs.sync fs;
  show_root "before crash:" fs;
  let fs = recover fs in
  show_root "after recovery:" fs;
  Printf.printf "  -> roll-forward replayed the log: %S\n\n"
    (Bytes.to_string (ok (Fs.read fs "/synced" ~off:0 ~len:64)));

  print_endline "Scenario 3: power cut tears a segment write in half";
  print_endline "----------------------------------------------------";
  let fs = fresh_fs () in
  ok (Fs.create fs "/checkpointed");
  ok (Fs.write fs "/checkpointed" ~off:0 (Bytes.of_string "intact"));
  Fs.checkpoint_now fs;
  ok (Fs.create fs "/torn");
  ok (Fs.write fs "/torn" ~off:0 (Bytes.make 100_000 'x'));
  Disk.set_crash_after (Io.member_disk (Fs.io fs) 0) ~sectors:37;
  (try Fs.sync fs with Disk.Crash -> print_endline "  ** power cut mid-write **");
  let fs = recover fs in
  show_root "after recovery:" fs;
  Printf.printf "  -> checkpointed file still reads %S; the torn segment was\n"
    (Bytes.to_string (ok (Fs.read fs "/checkpointed" ~off:0 ~len:64)));
  print_endline "     rejected by its CRC and never replayed."
