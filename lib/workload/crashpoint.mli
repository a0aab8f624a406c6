(** Exhaustive crash-point recovery sweeps.

    The harness runs an {!Op.t} list once on a fault-free stack, in
    lockstep with {!Model_fs} (any outcome mismatch is a violation),
    counting its write-request boundaries and keeping the model state
    after every op.  Then for each boundary [k] it replays the ops on a
    fresh stack whose disk loses power at exactly the [k]-th write
    (optionally tearing that write to a seeded sector prefix), remounts
    — LFS through checkpoint + roll-forward, FFS through its fsck-style
    {!Lfs_ffs.Fs.repair} full-disk scan — and holds the recovered tree
    to the window of model states recovery may show: from the state
    after the last [Sync] that completed before the crash through the
    state after the op in flight (§4.4 of the paper: crash recovery loses
    only the tail of the log).  Files are tracked by
    {!Model_fs.file_id}, so renames of a file or of its parent
    directory, and hard links, follow the file; directories are
    followed by id the same way:

    - a file no op touched since the sync keeps its synced names and
      bytes;
    - a touched file, or a directory, may be absent only if some state
      in the window lacks it; otherwise it is under at least one of the
      names it has in the window;
    - a recovered file's size, and each of its blocks, match some state
      in the window of a file that had its name;
    - no recovered name, of a file or a directory, may be one that no
      state in the window has, and no directory is under two names;
    - names that share an inode are names of one file; on LFS a file
      whose link count stays 1 is under exactly one name (FFS may show
      both names of a file renamed across the crash, as BSD does;
      [repair] sets its link count to 2).

    Two further scenarios exercise the remaining fault kinds:
    {!read_fault_run} (transient read errors absorbed by the {!Lfs_disk.Io}
    retry/backoff path, then every file read back and compared with the
    model) and {!bad_sector_run} (a sticky bad sector over LFS checkpoint
    region A, forcing recovery onto region B). *)

type system = [ `Lfs | `Ffs ]

val system_name : system -> string

val small_stack :
  ?volume:Lfs_disk.Volume.policy * int ->
  system ->
  Lfs_disk.Io.t * Lfs_vfs.Fs_intf.instance
(** The fresh stack every run here starts from: a 16 MB WREN IV disk
    (or a volume of [members] of them), the small config of the system,
    a free CPU. *)

(** {1 Crash-point sweep} *)

type point = {
  boundary : int;  (** the write request the disk died on *)
  crashed : bool;  (** whether the workload actually reached it *)
}

type outcome = {
  label : string;
  torn : bool;
  total_writes : int;  (** write boundaries in the fault-free run *)
  boundaries_tested : int;
  faults : int;  (** faults injected across all replays *)
  violations : string list;  (** empty means recovery held everywhere *)
  points : point list;
}

val sweep :
  ?volume:Lfs_disk.Volume.policy * int ->
  ?torn:bool ->
  ?max_boundaries:int ->
  ?seed:int ->
  system ->
  Op.t list ->
  outcome
(** Exhaustive when the workload issues at most [max_boundaries]
    (default 48) writes; above that, a seeded sample of boundaries.
    [torn] tears the crashing write instead of dropping it — meaningful
    for LFS, whose log never overwrites live data; FFS update-in-place
    can legitimately lose durable directory entries to a torn overwrite
    (that being fsck's classic lost+found case), so torn sweeps assert
    only on LFS.

    [volume] runs every stack on a volume of [(policy, members)] 16 MB
    member disks instead of a single disk ({!Io.snapshot_media} keeps
    replays deterministic on volumes).
    @raise Invalid_argument for mirror volumes: a mid-fan-out crash
    leaves replicas divergent, making later load-balanced reads
    semantically unspecified — only striped policies can be swept. *)

(** {1 Read-fault scenarios} *)

type read_fault_outcome = {
  retries : int;  (** [io.retries] after the run *)
  backoff_us : int;  (** [io.backoff_us] after the run *)
  read_errors : int;  (** transient faults injected *)
  rf_violations : string list;
}

val read_fault_run :
  ?volume:Lfs_disk.Volume.policy * int ->
  ?rate:float ->
  ?burst:int ->
  ?seed:int ->
  system ->
  Op.t list ->
  read_fault_outcome
(** Run the workload and a final sync in lockstep with the model, drop
    caches, and read the whole tree back a block per request: it must be
    the model's tree, byte for byte, and sound, while every read may
    transiently fail — all faults must be absorbed by retry/backoff
    ([burst] must stay below the retry budget). *)

type bad_sector_outcome = {
  bad_sector_reads : int;
  bs_violations : string list;
}

val bad_sector_run : ?seed:int -> Op.t list -> bad_sector_outcome
(** Run the ops and a final sync on LFS, mark the first sector of
    checkpoint region A sticky-bad, remount: recovery must fall back to
    region B and the full durable state must survive. *)
