(** The §3.1 two-file creation example (Figures 1 and 2).

    Runs the paper's creat/write/close pair against a file system with
    a disk-request sink on its trace bus, flushes the delayed writes,
    and reports every disk write that resulted — enough to show FFS's
    small random writes (half synchronous) versus LFS's single large
    sequential transfer. *)

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

val run : Lfs_vfs.Fs_intf.instance -> summary
