(** Segment assembly and log append (§4.1, §4.3.5).

    Blocks are appended to an in-memory segment buffer; when the segment
    fills (or a sync/checkpoint forces a partial segment) the summary
    block and payload go to disk in a single large asynchronous write.
    Reads of not-yet-flushed blocks are served from the buffer by
    {!Block_io}.

    [`User] appends refuse to consume the reserve segments so the cleaner
    can always regenerate free space; the cleaner and checkpoint use
    [`System]. *)

val append :
  State.t ->
  privilege:State.privilege ->
  entry:Summary.entry ->
  live_bytes:int ->
  bytes ->
  int
(** Append one block to the log; returns its disk block address.  The
    block is [data], which must be exactly [block_size] bytes.  The
    bytes are copied into the segment buffer before [append] returns;
    [data] is not retained.  Accounts [live_bytes] of live data to the
    segment.  Flushes the active segment and claims a clean one as
    needed.
    @raise Errors.Error [Enospc] when no segment is available at this
    privilege.
    @raise Invalid_argument when [data] is not one block long. *)

val append_moved :
  State.t -> summary:bytes -> entry:int -> live_bytes:int -> off:int -> bytes -> int
(** The cleaner's {!append} at [`System] privilege: the block is the
    [block_size] bytes of [data] at [off] (so a caller holding a
    multi-block buffer need not copy the block out), and its summary
    entry is entry [entry] of the summary region [summary], copied byte
    for byte — a moved block keeps the entry it had in its victim.
    @raise Invalid_argument when the block does not lie within [data]. *)

val flush_active : ?continues:bool -> State.t -> unit
(** Write out the active segment (possibly partial) and close it; no-op
    when the buffer is empty.  The write is asynchronous.  [continues]
    marks the summary ({!Summary.continues}). *)

val active_blocks : State.t -> int
(** Payload blocks currently buffered. *)

val room : State.t -> int
(** Payload blocks still free in the active segment (0 when none is
    active). *)
