(** Errors shared by every file system in the repository. *)

type t =
  | Enoent of string  (** no such file or directory *)
  | Eexist of string  (** name already exists *)
  | Enotdir of string  (** path component is not a directory *)
  | Eisdir of string  (** operation needs a file, got a directory *)
  | Enotempty of string  (** directory not empty *)
  | Enospc  (** device full *)
  | Efbig  (** file exceeds maximum representable size *)
  | Einval of string  (** malformed argument (bad name, bad offset...) *)
  | Ecorrupt of string
      (** on-disk structure does not decode (names what and where) *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string
val equal : t -> t -> bool

exception Error of t
(** Internal modules raise this; public APIs catch it and return
    [(_, t) result]. *)

val raise_ : t -> 'a
val wrap : (unit -> 'a) -> ('a, t) result
(** Run a thunk, converting {!Error} into [Error _]. *)
