(** LFS directories.

    Directory files hold [(inum, name)] entries packed into self-contained
    blocks (an entry never spans blocks, as in BSD).  Directory updates
    are ordinary cached file writes — in LFS they reach the disk inside
    segment writes, never synchronously (§4.1).

    The scans are {!Lfs_vfs.Dir}'s, over decoded views of the cached
    blocks; each block examined charges one CPU lookup cost, modelling
    the namei scan.  Path resolution and the namespace operations are
    {!Lfs_vfs.Fs_ops}'s, over {!backing}. *)

val backing : (State.t, State.itable_entry) Lfs_vfs.Dir.backing

val remove : State.t -> dir:int -> string -> unit
(** @raise Errors.Error [Enoent] if absent, [Enotdir] if [dir] is not a
    directory. *)

val entries : State.t -> dir:int -> (string * int) list
(** All entries, unsorted. *)
