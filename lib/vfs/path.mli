(** Absolute slash-separated paths.

    Both file systems resolve paths component by component through their
    directory files, exactly as the UNIX namei loop the paper's CPU cost
    model charges for. *)

val split : string -> (string list, Errors.t) result
(** [split "/a/b/c"] is [Ok ["a"; "b"; "c"]]; [split "/"] is [Ok []].
    Rejects relative paths, empty components, ["."]/[".."] components and
    components longer than 255 bytes (BSD's limit). *)

val split_exn : string -> string list
(** @raise Errors.Error on invalid paths. *)

val parent_and_name : string -> (string list * string, Errors.t) result
(** [parent_and_name "/a/b/c"] is [Ok (["a"; "b"], "c")].  Fails on
    ["/"]. *)

val valid_name : string -> bool
