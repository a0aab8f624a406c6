(** Directories and path resolution.

    Directory files hold [(inum, name)] entries packed into self-contained
    blocks (an entry never spans blocks, as in BSD).  Directory updates
    are ordinary cached file writes — in LFS they reach the disk inside
    segment writes, never synchronously (§4.1).

    The scans are {!Lfs_vfs.Dir}'s, over decoded views of the cached
    blocks; each block examined charges one CPU lookup cost, modelling
    the namei scan. *)

val lookup : State.t -> dir:int -> string -> int option
(** Find [name] in directory [dir].
    @raise Errors.Error [Enotdir] if [dir] is not a directory. *)

val add : State.t -> dir:int -> string -> int -> unit
(** Add an entry; the caller has checked for duplicates.
    @raise Errors.Error [Einval] on an invalid name. *)

val remove : State.t -> dir:int -> string -> unit
(** @raise Errors.Error [Enoent] if absent. *)

val entries : State.t -> dir:int -> (string * int) list
(** All entries, unsorted. *)

val is_empty : State.t -> dir:int -> bool

val resolve : State.t -> string list -> int
(** Walk components from the root.
    @raise Errors.Error [Enoent]/[Enotdir] as appropriate. *)

val resolve_dir : State.t -> string list -> int
(** Like {!resolve} but additionally requires the result to be a
    directory. *)
