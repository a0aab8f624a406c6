(** The structural audit both systems' checkers share: one issue type,
    block ownership and the namespace walk.  Each [fsck] adds its own
    (LFS: the inode map and metadata blocks; FFS: the group bitmaps). *)

type issue =
  | Double_reference of { addr : int; owners : string list }
  | Leaked_block of { addr : int }  (** allocated, referenced by nothing *)
  | Lost_block of { owner : string; addr : int }  (** referenced, free *)
  | Bad_dir_entry of { dir : int; name : string; inum : int }
  | Bad_nlink of { inum : int; nlink : int; entries : int }
  | Directory_names of { inum : int; entries : int }
      (** a directory under more than one name (a second parent, or a
          cycle; the root counts its implicit one) *)
  | Orphan_inode of { inum : int }
  | Unreadable of { inum : int; reason : string }
  | Address_out_of_range of { owner : string; addr : int }

val pp_issue : Format.formatter -> issue -> unit

type owners = (int, string list) Hashtbl.t
(** Each referenced block's owners, latest first. *)

val reference :
  owners -> in_range:(int -> bool) -> (issue -> unit) -> owner:string -> int -> unit
(** Add an owner of a block: nothing for address 0,
    [Address_out_of_range] outside [in_range]. *)

val files :
  ('fs, 'file, 'p) Bmap.store -> 'fs -> max_files:int -> allocated:(int -> bool) ->
  find:(int -> 'file) -> (owner:string -> int -> unit) -> (issue -> unit) -> unit
(** Pass every allocated file's mapped and pointer blocks ({!Bmap.iter})
    to a {!reference} function, named ["inum N block B"], ["inum N
    indirect"] and so on; [Unreadable] where [find] raises. *)

val double_references : owners -> (issue -> unit) -> unit

val namespace :
  root:int ->
  max_files:int ->
  allocated:(int -> bool) ->
  entries:(int -> (string * int) list) ->
  inode:(int -> Inode.t) ->
  (issue -> unit) ->
  unit
(** Walk the tree from [root], each directory once (so a cycle ends the
    walk): entries name allocated, readable inodes ([inode] raises
    [Errors.Error] for an unreadable one), link counts match entries, a
    directory has one name, every allocated inode is reachable.  Issues
    are reported in that order: entries as the walk meets them, then
    link counts, then orphans by inum. *)
