(** Synthetic office/engineering traces.

    The paper characterizes its target workload via the Berkeley
    trace-driven analysis (reference [5]): many small files (mostly under
    8 KB), read sequentially and in their entirety, lifetimes often under
    a day, highly skewed access.  {!generate} produces an event stream
    with those properties; {!replay} runs it against any file system.
    Traces serialize to plain text, one event per line. *)

type event =
  | Create of { path : string; size : int }  (** create + whole-file write *)
  | Read of { path : string }  (** whole-file sequential read *)
  | Overwrite of { path : string; size : int }  (** rewrite in full *)
  | Delete of { path : string }
  | Mkdir of { path : string }

val pp_event : Format.formatter -> event -> unit

(** {1 Serialization} *)

val to_lines : event list -> string
val of_lines : string -> event list
(** One event per non-blank line.  @raise Invalid_argument on garbage. *)

(** {1 Generation} *)

type gen_config = {
  events : int;
  dirs : int;  (** directory fan-out *)
  target_live : int;  (** steady-state live-file population *)
  read_fraction : float;
  overwrite_fraction : float;
  zipf_theta : float;  (** skew of read/overwrite targets *)
}

val default_gen : gen_config

val generate : ?seed:int -> ?config:gen_config -> unit -> event list
(** A well-formed trace: every event succeeds when replayed in order on
    an empty file system. *)

(** {1 Replay} *)

type result = {
  label : string;
  events : int;
  elapsed_us : int;
  ops_per_sec : float;
  bytes_written : int;
  bytes_read : int;
}

val replay : Lfs_vfs.Fs_intf.instance -> event list -> result
