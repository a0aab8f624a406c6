(** Benchmark environments: a simulated WREN IV disk, a Sun-4/260 CPU
    model, and a freshly formatted file system — the §5 test setup. *)

val make_io :
  ?disk_mb:int -> ?cpu:Lfs_disk.Cpu_model.t -> unit -> Lfs_disk.Io.t

val make_volume_io :
  ?disk_mb:int ->
  ?cpu:Lfs_disk.Cpu_model.t ->
  policy:Lfs_disk.Volume.policy ->
  members:int ->
  unit ->
  Lfs_disk.Io.t
(** Like {!make_io}, but over a {!Lfs_disk.Volume} of [members] WREN IV
    disks of [disk_mb] each (so striped logical capacity scales with the
    member count — the §5 setup per spindle). *)

val lfs_on :
  Lfs_disk.Io.t ->
  ?config:Lfs_core.Config.t ->
  unit ->
  Lfs_vfs.Fs_intf.instance
(** Format and mount LFS on an existing I/O stack — how volume-backed
    instances are built ({!make_volume_io}).  The file system sees only
    [Io.geometry], so it runs unmodified on a volume. *)

val ffs_on :
  Lfs_disk.Io.t ->
  ?config:Lfs_ffs.Config.t ->
  unit ->
  Lfs_vfs.Fs_intf.instance

val lfs :
  ?disk_mb:int ->
  ?cpu:Lfs_disk.Cpu_model.t ->
  ?config:Lfs_core.Config.t ->
  unit ->
  Lfs_vfs.Fs_intf.instance
(** A formatted, mounted LFS on fresh simulated hardware. *)

val ffs :
  ?disk_mb:int ->
  ?cpu:Lfs_disk.Cpu_model.t ->
  ?config:Lfs_ffs.Config.t ->
  unit ->
  Lfs_vfs.Fs_intf.instance

val both :
  ?disk_mb:int ->
  ?cpu:Lfs_disk.Cpu_model.t ->
  unit ->
  Lfs_vfs.Fs_intf.instance list
(** Both systems on identical hardware, LFS first — the comparison pair
    of every figure in §5. *)
