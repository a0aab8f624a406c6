(* A pure reference file system: the specification both LFS and FFS are
   tested against.  Regular files are ids into a content table, so hard
   links alias naturally and a file keeps its id across renames of
   itself or of any directory above it.  No I/O, no clock: every
   operation is a total function over the in-memory tree, which is what
   lets scenario runs compare a real file system against it op by op,
   and crash sweeps keep a copy of every state the disk may recover
   to. *)

type t
type file_id = int
type outcome = Op.outcome = Done | Data of bytes | Names of string list | Failed

val create : unit -> t
(** An empty tree: the root directory alone. *)

val copy : t -> t
(** An independent snapshot: later ops on either leave the other alone. *)

val apply : t -> Op.t -> outcome
(** The outcome a correct file system gives for the op, with the op's
    effect applied.  A path {!Lfs_vfs.Path.split} rejects fails. *)

(* Oracle views for whole-tree checks.  Paths are absolute strings, as
   in {!Op.t}; the root is ["/"]. *)
val files : t -> (file_id * string list * bytes) list
(** Every regular file once: its id, all its names (sorted) and its
    contents. *)

val all_files : t -> (string * bytes) list
(** Every name of a regular file, with the file's contents. *)

val dirs : t -> (file_id * string) list
(** Every directory, the root included, with its id: a directory keeps
    its id across renames of itself or of any directory above it.  File
    and directory ids come from one counter. *)

val all_dirs : t -> string list

val lockstep : t -> Lfs_vfs.Fs_intf.instance -> Op.t -> string option
(** Run the op on the file system ({!Op.apply}), then on the model;
    [Some why] when the outcomes differ. *)
