(** The in-memory inode table and block maps.

    Inodes enter the table when created or first read from the log (via
    the inode map); their direct and indirect pointer structures are
    loaded lazily.  The table is a write-back cache: dirty inodes and
    dirty pointer maps are serialized into log blocks by {!Write_path}. *)

val add_new : State.t -> Lfs_vfs.Inode.t -> State.itable_entry
(** Register a freshly created inode (dirty, never yet on disk). *)

val find : State.t -> int -> State.itable_entry
(** Get a file's entry, reading its inode block from the log if needed.
    @raise Errors.Error [Enoent] if the inum is not allocated,
    [Ecorrupt] (naming inum, block and slot) if its slot does not
    decode. *)

val find_loaded : State.t -> int -> State.itable_entry option
(** Only consult the in-memory table: one array load, no allocation;
    [None] for an inum outside [0, max_files). *)

val materialize : State.t -> Lfs_vfs.Inode.t -> State.itable_entry
(** Insert a decoded inode into the table if absent (used by the cleaner
    when it proves liveness from an inode block it is moving). *)

val note_dirty : State.t -> State.itable_entry -> unit
(** Record that one of [e]'s dirty flags ([ino_dirty], [ind_dirty],
    [dind_top_dirty] or a [dind_child_dirty] bit) has just been raised.
    Every site that raises one calls this (or {!mark_dirty}), so
    {!dirty_inodes} walks [st.dirty_inums] rather than the table. *)

val mark_dirty : State.t -> State.itable_entry -> unit
(** Raise [ino_dirty] and {!note_dirty}. *)

val map : (State.t, State.itable_entry, int array) Lfs_vfs.Bmap.store
(** The file's block map for {!Lfs_vfs.Bmap}: pointer arrays decoded on
    first use (reads of pointer blocks go through the cache), created as
    all holes for a write, and marked dirty for the write path to
    append to the log.  Block addresses use {!Layout.null_addr} for
    holes. *)

val dind_child_addr : State.t -> State.itable_entry -> int -> int
(** Current address of double-indirect child [child]
    ({!Layout.null_addr} if absent).  May read the top block. *)

val cleaner_touch : State.t -> State.itable_entry -> int -> unit
(** Mark a file's pointer block for rewrite, if it has it (segment
    cleaning is evacuating its current copy): the single-indirect block
    for [-1], the double-indirect top for [-2], else that child. *)

val dirty_inodes : State.t -> State.itable_entry array
(** Entries whose inode or pointer maps need writing, sorted by inum.
    Costs the set bits of [st.dirty_inums], not the table size. *)

val clear_clean : State.t -> unit
(** Drop every entry with no dirty state (benchmark cache flush).
    @raise Invalid_argument if dirty entries remain. *)

val free_pointer : State.t -> int -> unit
(** A pointer block died: release its live bytes and drop it from the
    cache. *)

val delete : State.t -> int -> unit
(** Free a file: releases all its blocks' live-byte accounting, drops its
    cache entries and inum.  The file must be in the table or on disk. *)

val loaded_count : State.t -> int
