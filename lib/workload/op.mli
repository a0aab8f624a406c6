(** The file-system operation vocabulary shared by every correctness run.

    One op stream drives the scenario DSL's lockstep runs, the crash
    sweeps of {!Crashpoint}, the read-back runs and the model-based
    property tests.  {!apply} runs an op on a real file system;
    {!Model_fs.apply} runs the same op on the pure reference model, and
    the two outcomes must agree.  Write contents are named by a seed
    ({!Driver.content}), so an op list is plain data: it replays, shrinks
    and prints the same every time. *)

type t =
  | Create of string
  | Mkdir of string
  | Write of { path : string; off : int; seed : int; len : int }
      (** [len] bytes of [Driver.content ~seed len] at [off] *)
  | Append of { path : string; seed : int; len : int }
      (** a [Write] at the file's current size *)
  | Truncate of { path : string; size : int }
  | Rename of { src : string; dst : string }
  | Link of { src : string; dst : string }
  | Delete of string
  | Read of { path : string; off : int; len : int }
  | Readdir of string
  | Sync
  | Flush_caches

(** What an op returned: success, the bytes read, the names listed, or
    any error (the error kind is not compared). *)
type outcome = Done | Data of bytes | Names of string list | Failed

val apply : Lfs_vfs.Fs_intf.instance -> t -> outcome
(** Run one op.  Exceptions from below the file system (a simulated
    crash, an exhausted retry budget) propagate. *)

val pp : t -> string
(** One line, e.g. ["write /a/b off=0 seed=7 len=100"]. *)
