(* The office/engineering workload of §5.1: thousands of small files
   created, read and deleted — run side by side on LFS and the FFS
   baseline, on identical simulated hardware.

   Run with:  dune exec examples/small_files.exe [nfiles] *)

module W = Lfs_workload

let () =
  let nfiles =
    if Array.length Sys.argv > 1 then int_of_string Sys.argv.(1) else 2_000
  in
  Printf.printf
    "Creating, reading and deleting %d one-kilobyte files on both file\n\
     systems (WREN IV disk, Sun-4/260 CPU; all rates in simulated time).\n\n"
    nfiles;
  let results =
    List.map
      (fun inst ->
        let r = W.Smallfile.run ~nfiles ~file_size:1024 inst in
        (* Show what the disk actually did. *)
        let io = W.Driver.io inst in
        let stats = Lfs_disk.Io.disk_stats io in
        Printf.printf
          "%s: %d disk writes, %d disk reads, %d seeks, disk busy %.1f s\n"
          (W.Driver.label inst) stats.Lfs_disk.Disk.writes
          stats.Lfs_disk.Disk.reads stats.Lfs_disk.Disk.seeks
          (float_of_int stats.Lfs_disk.Disk.busy_us /. 1e6);
        r)
      (W.Setup.both ~disk_mb:128 ())
  in
  print_newline ();
  print_string (W.Report.fig3 results);
  match results with
  | [ lfs; ffs ] ->
      Printf.printf
        "\nLFS speedup: create %.1fx, read %.1fx, delete %.1fx\n"
        (lfs.W.Smallfile.create_per_sec /. ffs.W.Smallfile.create_per_sec)
        (lfs.W.Smallfile.read_per_sec /. ffs.W.Smallfile.read_per_sec)
        (lfs.W.Smallfile.delete_per_sec /. ffs.W.Smallfile.delete_per_sec)
  | _ -> ()
