(** A minimal JSON tree: enough to render metrics, trace events and
    benchmark results, and to parse them back for validation.  The repo
    deliberately avoids external JSON dependencies; everything emitted by
    {!Lfs_obs} is plain ASCII and round-trips through this module. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

val to_string : t -> string
(** Compact, single-line rendering (what JSONL wants). Non-finite floats
    become [null] — JSON has no literal for them. *)

val to_string_pretty : t -> string
(** Indented rendering, trailing newline included. *)

exception Parse_error of string

val of_string : string -> t
(** @raise Parse_error on malformed input. *)

val of_string_opt : string -> t option

(** {1 Accessors} *)

val member : string -> t -> t option
val path : string list -> t -> t option
val to_float_opt : t -> float option
