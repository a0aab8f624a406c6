(* expect: workload-disk *)
(* A harness peeking at the raw device: even a "harmless" stats read
   must go through Io so fault scenarios see every access. *)

let sectors_written io =
  let stats = Lfs_disk.Disk.stats (Lfs_disk.Io.member_disk io 0) in
  stats.Lfs_disk.Disk.sectors_written
