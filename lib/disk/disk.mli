(** A simulated sector-addressable disk.

    Stores data in memory and computes a service time for every request
    from the {!Geometry} model.  The medium is a table of fixed-size
    chunks ({!chunk_bytes}), each allocated by the first write that
    reaches it; sectors never written read as zeros.  A log-structured
    disk is sparse for most of its life, so the host pays only for the
    segments the log has reached.  The disk itself never advances the clock;
    the {!Io} scheduler decides whether the caller waits (synchronous I/O)
    or the time is absorbed by the device queue (asynchronous I/O).

    Crash injection: [set_crash_after] arms a countdown of sectors that may
    still be persisted.  A write that exhausts the countdown is applied
    only partially (a torn write) and raises {!Crash}, simulating a power
    cut mid-transfer.  Subsequent writes also raise {!Crash} until the
    countdown is cleared, modelling a machine that is down. *)

exception Crash
(** Raised by a write when the armed crash point is reached. *)

exception Read_fault of { sector : int; transient : bool }
(** Raised by a read when an installed fault hook fails the request:
    [transient] faults may succeed on retry (media hiccup), sticky ones
    never do (bad sector).  The {!Io} scheduler owns the retry/backoff
    policy and converts budget exhaustion into its own typed error. *)

type fault_hook = {
  on_read : sector:int -> count:int -> unit;
      (** Called before a read is serviced; raise {!Read_fault} to fail
          the request. *)
  on_write : sector:int -> count:int -> int option;
      (** Called before a write is serviced.  [Some persisted] tears the
          request — only the first [persisted] sectors reach the media —
          marks the disk crashed and raises {!Crash}; [None] lets the
          write proceed. *)
}
(** Scenario-driven fault injection, installed by {!Faulty}.  The hook
    sees every request after range validation and before any service-time
    accounting, so failed attempts cost nothing at the device level. *)

type t

type stats = {
  mutable reads : int;
  mutable writes : int;
  mutable sectors_read : int;
  mutable sectors_written : int;
  mutable seeks : int;  (** requests that required head movement *)
  mutable busy_us : int;  (** total service time of all requests *)
}

val create : ?metrics:Lfs_obs.Metrics.t -> ?member:int -> Geometry.t -> t
(** [create geometry] makes a standalone disk with a private metrics
    registry.  A {!Volume} passes [~metrics] (the registry shared by the
    whole multi-member stack) and [~member:i]: the disk then updates both
    the shared aggregate [disk.*] counters (get-or-create on the common
    registry, so they sum over members) and its own [disk.<i>.*] family —
    the per-spindle view.  Per-disk accessors below ({!stats},
    {!busy_us}, …) always report this disk alone. *)

val geometry : t -> Geometry.t

val set_fault_hook : t -> fault_hook option -> unit
(** Install (or clear) the fault hook.  At most one hook is active. *)

val metrics : t -> Lfs_obs.Metrics.t
(** The metrics registry owned by this disk's I/O stack.  The disk
    registers its own instruments under [disk.*]; higher layers sharing
    the stack (the {!Io} scheduler, caches, file systems) add theirs
    here, so one registry describes the whole instance. *)

val stats : t -> stats
(** Compatibility view over the [disk.*] registry counters: a fresh
    record per call.  Mutating the returned record has no effect. *)

val busy_us : t -> int

val positioning_us : t -> int
(** Cheap accessor for [disk.positioning_us]: total time spent seeking
    and waiting for rotation across all requests (service time minus
    pure transfer).  The quantity a reordering scheduler minimizes. *)

val head_sector : t -> int
(** Current head position as a sector number — the sector following the
    last transfer.  A request starting exactly here streams with no
    positioning delay; a request scheduler uses this as the sweep
    position for SCAN/C-SCAN. *)

val last_was_streamed : t -> bool
(** Whether the most recent request started exactly where the previous
    transfer ended (an exact continuation of the access pattern).  This
    is the correct "sequential" classification for the request audit: a
    request that merely lands on the same cylinder skips the seek (so
    [disk.seeks] is unchanged) but still pays rotational latency and is
    not sequential. *)

val reset_stats : t -> unit
(** Zero the [disk.*] counters (other registry entries are untouched). *)

type slice = { buf : bytes; off : int; len : int }
(** A destination range: [len] bytes of [buf] starting at [off]. *)

val read_into : ?start_us:int -> t -> sector:int -> slice list -> int
(** [read_into t ~sector dst] fills the slices [dst], in order, with
    consecutive sectors starting at [sector], and returns the service
    time in microseconds.  The slices must total a positive multiple of
    the sector size; that total fixes the request's sector count.  This
    is the device's one read path: the caller owns the destination, so
    a block read lands in the buffer that will hold the block.

    [start_us] is the simulated time the request reaches the device.
    With it, a request that continues the previous transfer but arrives
    after the device went idle pays the missed-rotation cost: the platter
    kept spinning, so the head waits out the remainder of the current
    rotation.  Without it the request is treated as issued back to back
    (zero positioning on exact continuation — the historical model).
    @raise Invalid_argument if out of range or a slice lies outside its
    buffer. *)

val write : ?start_us:int -> ?len:int -> t -> sector:int -> bytes -> int
(** [write t ~sector data] writes the first [len] bytes of [data]
    (default: all of it; a positive multiple of the sector size) and
    returns the service time.  [start_us] as in {!read_into}.
    @raise Crash if a crash point is reached (the write may be torn).
    @raise Invalid_argument if out of range or misaligned. *)

val set_crash_after : t -> sectors:int -> unit
(** Arm a crash after [sectors] more sectors have been persisted. *)

val clear_crash : t -> unit
(** Disarm the crash and bring the "machine" back up (after this, reads
    and writes succeed again; the torn state remains on disk). *)

val crashed : t -> bool

val chunk_bytes : int
(** Size of one media chunk (64 KB), the unit the medium is allocated
    in.  An internal constant, exposed so tests can aim at chunk edges. *)

val resident_bytes : t -> int
(** Bytes of medium currently allocated: the sum of materialised
    chunks.  Unwritten ranges cost nothing. *)

val snapshot : t -> bytes
(** Copy of the entire media, for test assertions and image files. *)

val snapshot_into : t -> bytes -> off:int -> unit
(** [snapshot_into t out ~off] writes the {!snapshot} image into [out]
    at [off], without an intermediate copy.
    @raise Invalid_argument if it does not fit. *)

val restore : t -> bytes -> unit
(** Overwrite the media from a snapshot.  Head position is reset.
    All-zero chunks of the image are left unallocated.
    @raise Invalid_argument on size mismatch. *)

val restore_from : t -> bytes -> off:int -> unit
(** {!restore} from the image starting at [off] in a larger buffer
    (one member's part of a volume image).
    @raise Invalid_argument if the buffer is too short. *)
