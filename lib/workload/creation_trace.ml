(** The §3.1 two-file creation example (Figures 1 and 2).

    Runs
    {v
    creat("dir1/file1"); write(1 block); close
    creat("dir2/file2"); write(1 block); close
    v}
    against a file system with a disk-request sink on its trace bus,
    flushes the delayed writes, and reports every disk write that
    resulted — enough to show FFS's small random writes (half
    synchronous) versus LFS's single large sequential transfer. *)

type write = {
  sector : int;
  sectors : int;
  sync : bool;
  sequential : bool;  (** paid no positioning delay *)
}
(** One disk write request, from its [Disk_request] event. *)

type summary = {
  label : string;
  writes : int;
  sync_writes : int;
  sequential_writes : int;
  sectors_written : int;
  requests : write list;  (** write requests, in order *)
}

let run inst =
  let block =
    match Driver.label inst with
    | "LFS" -> 4096
    | _ -> 8192
  in
  (* Directories exist beforehand, as in the paper's example. *)
  Driver.mkdir inst "/dir1";
  Driver.mkdir inst "/dir2";
  Driver.sync inst;
  let bus = Driver.bus inst in
  let sink =
    Lfs_obs.Bus.attach
      ~filter:(function Lfs_obs.Event.Disk_request _ -> true | _ -> false)
      bus
  in
  Driver.create inst "/dir1/file1";
  Driver.write inst "/dir1/file1" ~off:0 (Driver.content ~seed:1 block);
  Driver.create inst "/dir2/file2";
  Driver.write inst "/dir2/file2" ~off:0 (Driver.content ~seed:2 block);
  (* The delayed write-back of Figure 1. *)
  Driver.sync inst;
  Lfs_obs.Bus.detach bus sink;
  let requests =
    List.filter_map
      (fun (r : Lfs_obs.Event.record) ->
        match r.Lfs_obs.Event.event with
        | Lfs_obs.Event.Disk_request
            { kind = Lfs_obs.Event.Write; sync; sector; sectors; sequential; _ }
          ->
            Some { sector; sectors; sync; sequential }
        | _ -> None)
      (Lfs_obs.Bus.records sink)
  in
  let result =
    {
      label = Driver.label inst;
      writes = List.length requests;
      sync_writes =
        List.length (List.filter (fun (r : write) -> r.sync) requests);
      sequential_writes =
        List.length (List.filter (fun (r : write) -> r.sequential) requests);
      sectors_written =
        List.fold_left (fun acc (r : write) -> acc + r.sectors) 0 requests;
      requests;
    }
  in
  Driver.sanitize inst;
  result
