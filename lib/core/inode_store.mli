(** The in-memory inode table and block maps.

    Inodes enter the table when created or first read from the log (via
    the inode map); their direct and indirect pointer structures are
    loaded lazily.  The table is a write-back cache: dirty inodes and
    dirty pointer maps are serialized into log blocks by {!Write_path}.

    Block addresses use {!Layout.null_addr} for holes. *)

val add_new : State.t -> Inode.t -> State.itable_entry
(** Register a freshly created inode (dirty, never yet on disk). *)

val find : State.t -> int -> State.itable_entry
(** Get a file's entry, reading its inode block from the log if needed.
    @raise Errors.Error [Enoent] if the inum is not allocated,
    [Ecorrupt] (naming inum, block and slot) if its slot does not
    decode. *)

val find_loaded : State.t -> int -> State.itable_entry option
(** Only consult the in-memory table: one array load, no allocation;
    [None] for an inum outside [0, max_files). *)

val materialize : State.t -> Inode.t -> State.itable_entry
(** Insert a decoded inode into the table if absent (used by the cleaner
    when it proves liveness from an inode block it is moving). *)

val note_dirty : State.t -> State.itable_entry -> unit
(** Record that one of [e]'s dirty flags ([ino_dirty], [ind_dirty],
    [dind_top_dirty] or a [dind_child_dirty] bit) has just been raised.
    Every site that raises one calls this (or {!mark_dirty}), so
    {!dirty_inodes} walks [st.dirty_inums] rather than the table. *)

val mark_dirty : State.t -> State.itable_entry -> unit
(** Raise [ino_dirty] and {!note_dirty}. *)

val bmap_read : State.t -> State.itable_entry -> int -> int
(** Address of logical block [blkno] ({!Layout.null_addr} for a hole).
    May read indirect blocks from the log. *)

val bmap_write : State.t -> State.itable_entry -> int -> int -> int
(** [bmap_write st e blkno addr] points logical block [blkno] at [addr],
    dirtying whichever pointer structures changed; returns the previous
    address ({!Layout.null_addr} if none).
    @raise Errors.Error [Efbig] past the double-indirect range. *)

val dind_child_addr : State.t -> State.itable_entry -> int -> int
(** Current address of double-indirect child [child]
    ({!Layout.null_addr} if absent).  May read the top block. *)

val cleaner_touch_ind : State.t -> State.itable_entry -> unit
(** Mark the single-indirect pointer block for rewrite (segment cleaning
    is evacuating its current copy). *)

val cleaner_touch_dind_top : State.t -> State.itable_entry -> unit
val cleaner_touch_dind_child : State.t -> State.itable_entry -> int -> unit

val dirty_inodes : State.t -> State.itable_entry array
(** Entries whose inode or pointer maps need writing, sorted by inum.
    Costs the set bits of [st.dirty_inums], not the table size. *)

val clear_clean : State.t -> unit
(** Drop every entry with no dirty state (benchmark cache flush).
    @raise Invalid_argument if dirty entries remain. *)

val delete : State.t -> int -> unit
(** Free a file: releases all its blocks' live-byte accounting, drops its
    cache entries and inum.  The file must be in the table or on disk. *)

val loaded_count : State.t -> int
