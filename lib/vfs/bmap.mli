(** Block maps, one walk for both file systems.

    Logical block [b] of a file is direct pointer [b] of its {!Inode}
    while [b < Inode.ndirect], then a slot of the single-indirect
    pointer block, then a slot of a double-indirect child; [p] pointers
    fit in a block.  A pointer block is [p] little-endian u32 addresses,
    0 for a hole.  This module owns that arithmetic and that format;
    each system's {!store} says how it finds, creates and updates a
    pointer block.  LFS keeps decoded pointer arrays per inode, since a
    log-placed block has no address until the log is flushed; FFS reads
    and writes the blocks in place through the cache, and allocates a
    missing one when a write claims its first block.

    The walks make exactly the store calls they need, in walk order, so
    each system's disk requests, clock charges and cache lookups are its
    store's.  {!read}, {!write} and {!fill} allocate nothing. *)

val ptrs_per_block : block_size:int -> int
val max_blocks : block_size:int -> int
val max_size : block_size:int -> int

(** {1 Pointer blocks} *)

val get : bytes -> int -> int
val set : bytes -> int -> int -> unit
val decode : bytes -> int -> int array
(** The first [n] slots. *)

val encode : block_size:int -> int array -> bytes

(** {1 Walks} *)

(** A system's pointer blocks as handles of type ['p]; a handle for a
    block that does not exist fails [present].  One constant record of
    functions of full arity per system. *)
type ('fs, 'file, 'p) store = {
  inode : 'file -> Inode.t;
  block_size : 'fs -> int;
  present : 'p -> bool;
  get : 'fs -> 'p -> int -> int;  (** slot [i] of a present block *)
  single : 'fs -> 'file -> 'p;
  top : 'fs -> 'file -> 'p;
  child : 'fs -> 'file -> 'p -> int -> 'p;  (** [child fs file top c] *)
  make_single : 'fs -> 'file -> int -> 'p;
      (** the single-indirect block, created if missing for a write to
          the given block *)
  make_child : 'fs -> 'file -> int -> int -> 'p;
      (** [make_child fs file c b]: child [c] (and the top block),
          created if missing for a write to block [b] *)
  put : 'fs -> 'file -> 'p -> int -> int -> int -> int;
      (** [put fs file blk c i addr]: slot [i] of [blk] (child [c], or
          the single-indirect block when [c < 0]) becomes [addr]; returns
          the old address *)
  touch : 'fs -> 'file -> unit;  (** a direct pointer changed *)
}

val read : ('fs, 'file, 'p) store -> 'fs -> 'file -> int -> int
(** Block [b]'s address, 0 for a hole.
    @raise Errors.Error [Efbig] past {!max_blocks}. *)

val write : ('fs, 'file, 'p) store -> 'fs -> 'file -> int -> int -> int
(** [write s fs file b addr] maps [b] to [addr], creating the pointer
    blocks on its path; returns the old address. *)

val fill :
  ('fs, 'file, 'p) store -> 'fs -> 'file -> int -> ('fs -> 'file -> int -> int) -> int
(** [fill s fs file b fresh]: [b]'s address, after creating the pointer
    blocks on its path and mapping a hole to [fresh fs file b] (an
    update-in-place write's allocation, pointer blocks first). *)

type pointer = Single | Top | Child of int

val pointer_name : pointer -> string
(** ["indirect"], ["dindirect"], ["dind child N"]. *)

val iter :
  ?past_end:bool ->
  ('fs, 'file, 'p) store ->
  'fs ->
  'file ->
  pointer:(pointer -> int -> unit) ->
  data:(int -> int -> unit) ->
  unit
(** The checkers' walk, in tree order: [pointer kind addr] for the
    single-indirect block, the top block and each child, each before its
    slots; [data b addr] for every block [b] below the size (0 for a
    hole), and with [~past_end:true] also for the slots past the size in
    the inode and in present pointer blocks.  Each pointer block is found
    once, when its slots are first needed, and after [pointer] (which
    may clear it).  The size is capped at {!max_blocks}. *)

val pointers : ('fs, 'file, 'p) store -> 'fs -> 'file -> ('fs -> int -> unit) -> unit
(** [pointers s fs file f]: [f fs addr] for the single-indirect block,
    the double-indirect children, then the top block. *)

val release :
  ('fs, 'file, 'p) store ->
  'fs ->
  'file ->
  data:('fs -> 'file -> int -> int -> unit) ->
  pointer:('fs -> int -> unit) ->
  unit
(** Free a file's blocks: [data fs file b addr] for every block below
    the size, in order, as {!read} maps it; then {!pointers}. *)
