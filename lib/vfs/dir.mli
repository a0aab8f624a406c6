(** The directory layer shared by both file systems: decoded,
    name-indexed views of directory blocks, and the namei scans over
    them.

    A view is the buffer of one block, its used byte count and a
    name -> inum table (first occurrence wins, as with [List.assoc]); it
    keeps no entry list.  Removal finds an entry's bytes by scanning the
    buffer, and {!entries} and {!block_entries} parse the buffer when
    asked, in block order.  Each mount owns one table of views keyed by
    [(directory inum, block index)], and every view records the exact
    buffer it decoded.  A view is reused only while the block cache
    still hands back that same buffer ([==]); any other buffer (a block
    evicted and re-read, or never seen) is decoded once and its view
    stored.  This relies on one invariant: directory blocks are never
    mutated in place — every change writes a fresh block, patched from
    the view's buffer and byte for byte what {!Dir_block.encode} gives
    for the new entries — so the buffer always parses to the entries the
    table indexes.

    The scans keep the paper's cost model (§5.1): one
    {!Lfs_disk.Io.charge_lookup} per block examined, in block order, so
    simulated time is the linear namei scan whatever the host does. *)

type t
(** One mount's table of views, with the [io] its scans charge. *)

val create : io:Lfs_disk.Io.t -> block_size:int -> t

val forget : t -> int -> unit
(** Drop a directory's views; called when its inode is freed, so a
    reused inum never inherits them. *)

val clear : t -> unit
(** Drop every view ([flush_caches]). *)

val held : t -> int list
(** Directories some of whose views are held, for checks. *)

(** What a file system supplies: where its views live, and how to read
    and write one block of a directory.  A file system defines one
    constant record of its own functions. *)
type ('fs, 'dir) backing = {
  views : 'fs -> t;
  inum : 'dir -> int;
  nblocks : 'fs -> 'dir -> int;
  read : 'fs -> 'dir -> int -> bytes option;
      (** The block's current buffer: the cache's, else read from disk
          (and cached).  [None] for a hole. *)
  write : 'fs -> 'dir -> int -> bytes -> unit;
      (** Store a fresh block (extending the directory when the index
          is [nblocks]). *)
}

(** Every scan below may raise [Errors.Error (Ecorrupt _)], naming the
    directory and block, when a block does not decode. *)

val lookup : ('fs, 'dir) backing -> 'fs -> 'dir -> string -> int option
(** Scan blocks in order until the name is found. *)

val add : ('fs, 'dir) backing -> 'fs -> 'dir -> string -> int -> unit
(** Put the entry at the head of the first block with room, or in a new
    block after the last.  @raise Errors.Error [Einval] for a bad name. *)

val remove : ('fs, 'dir) backing -> 'fs -> 'dir -> string -> unit
(** Drop the name's first entry, keeping the order of the rest.
    @raise Errors.Error [Enoent] if absent. *)

val entries : ('fs, 'dir) backing -> 'fs -> 'dir -> (string * int) list
(** Every entry, block by block (charges every block). *)

val block_entries :
  ('fs, 'dir) backing -> 'fs -> 'dir -> int -> (string * int) list
(** One block's entries, without a lookup charge (repair walks). *)
