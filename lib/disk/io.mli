(** The I/O scheduler: joins a {!Volume}, a {!Clock} and a {!Cpu_model} and
    decides who pays for each request.

    - [sync_read]/[sync_write] make the caller wait: the clock advances
      past any queued device work, then by the request's service time.
      These model the synchronous metadata writes that cripple FFS.
    - [async_write] queues work on the device: the device busy horizon
      advances but the caller does not wait — unless the backlog exceeds
      [max_backlog_us], in which case the caller is throttled (the file
      cache is full and the application must wait for the disk).  This is
      how LFS's segment writes overlap with computation, and why its
      sustained bandwidth is still bounded by the disk.
    - [drain] waits for the device to go idle ([sync]/[fsync], and phase
      boundaries in benchmarks).

    By default requests are serviced immediately in issue order (the
    single-caller model).  {!set_scheduler} installs a real per-device
    request queue with a {!Sched.discipline}: asynchronous writes pool
    in the queue and are dispatched in discipline order — head position
    and queue depth then determine positioning cost, so reordering
    (SCAN/C-SCAN) is a measurable optimisation.  Synchronous requests
    join the same queue and wait for their turn, which models the convoy
    a synchronous caller suffers behind a deep queue.  Overlapping
    requests never reorder (see {!Sched}), so data semantics are
    unchanged.

    Every request is published on the instance's {!Lfs_obs.Bus} as a
    [Disk_request] event and observed in the [io.*] registry histograms.
    The Figure 1/2 experiment audits those events, through a bus sink,
    to show FFS's eight small random writes versus LFS's single large
    sequential one.

    {b One device: a volume.}  The device behind the scheduler is always
    a {!Volume}; a bare disk ({!create}, {!of_geometry}) is the
    one-member mirror ({!Volume.of_disk}), so there is no single-disk
    special case.  Every member has its own busy horizon and — when a
    scheduler is installed — its own request queue, all sharing the
    clock.  On a striped volume a request is split by the address map
    into at most one contiguous run per member, the runs issued
    together, and a synchronous caller resumes when the slowest member
    finishes: an N-member striped segment write completes in roughly
    [1/N] of the single-disk media time.  A mirror write goes whole to
    every member; a mirror read picks the replica with the shallowest
    queue / earliest horizon / closest head and fails over
    transparently (counted in [io.degraded_reads]).  Logical requests on
    volumes of more than one member are additionally published as
    [Volume_op] events; the per-member requests appear as the usual
    [Disk_request]s (with member-local sectors). *)

type t

exception Read_failed of { sector : int; attempts : int }
(** A read kept failing ({!Disk.Read_fault}) until the retry budget ran
    out: the typed surface of an unrecoverable media error.  [attempts]
    counts every try, including the first. *)

val create :
  ?max_backlog_us:int ->
  ?read_attempts:int ->
  ?retry_backoff_us:int ->
  Disk.t ->
  Clock.t ->
  Cpu_model.t ->
  t
(** [create disk] drives [disk] as the one-member volume
    {!Volume.of_disk}.  Default backlog: 2 s of queued device time
    (roughly two segment writes ahead on the paper's disk).

    [read_attempts] (default 4) bounds how often {!sync_read} tries a
    request that fails with {!Disk.Read_fault}; each retry first waits
    [retry_backoff_us] (default 1 ms) doubled per attempt on the
    simulated clock, accounted in [io.retries]/[io.backoff_us]. *)

val of_geometry :
  ?max_backlog_us:int ->
  ?read_attempts:int ->
  ?retry_backoff_us:int ->
  Geometry.t ->
  Clock.t ->
  Cpu_model.t ->
  t
(** [create] over a fresh {!Disk.create} — lets workload/bench code build
    a whole stack without touching [Disk] directly. *)

val of_volume :
  ?max_backlog_us:int ->
  ?read_attempts:int ->
  ?retry_backoff_us:int ->
  Volume.t ->
  Clock.t ->
  Cpu_model.t ->
  t
(** Mount a {!Volume} behind the scheduler.  Every member gets its own
    busy horizon and (with {!set_scheduler}) its own queue; options
    apply to all members. *)

val volume : t -> Volume.t
(** The volume behind this stack — one member for a bare disk. *)

val members : t -> int
(** Number of member devices. *)

val member_disk : t -> int -> Disk.t
(** Member [i]'s device; member 0 is the bare disk of {!create}.
    @raise Invalid_argument if out of range. *)

val geometry : t -> Geometry.t
(** The logical geometry the file system should format:
    {!Volume.geometry}, which for a bare disk is the disk's own. *)

val clock : t -> Clock.t
val cpu : t -> Cpu_model.t
val now_us : t -> int

val bus : t -> Lfs_obs.Bus.t
(** The trace bus for this I/O stack.  Quiet (and nearly free) until a
    sink or subscriber is attached. *)

val metrics : t -> Lfs_obs.Metrics.t
(** The registry shared by the whole stack: {!Volume.metrics}, shared by
    every member (a bare disk's own registry). *)

(** {1 CPU accounting} *)

val charge_cpu : t -> int -> unit
val charge_syscall : t -> unit
val charge_copy : t -> bytes:int -> unit
val charge_lookup : t -> unit

(** {1 Disk requests} *)

val sync_read_into : ?len:int -> t -> sector:int -> bytes array -> unit
(** [sync_read_into t ~sector bufs] fills [bufs], consecutive buffers of
    one common length (a positive multiple of the sector size), with the
    sectors starting at [sector], and waits for the transfer.  With
    [len] (a positive multiple of the sector size) only the first [len]
    bytes of the buffers are read, so one buffer can be reused for
    transfers of different sizes.  This is the one read path: every
    member request lands straight in the caller's buffers — on a
    striped volume each member run fills its own pieces of them — so a
    clustered block read needs no copy after the device's.  A failed
    attempt is retried ({!create}'s [read_attempts]); the whole request,
    retries included, is one [io_read] span.
    @raise Read_failed when the request still fails after the configured
    number of attempts.
    @raise Invalid_argument if the buffers are empty or uneven, or [len]
    is out of range. *)

val sync_read : t -> sector:int -> count:int -> bytes
(** {!sync_read_into} a fresh buffer of [count] sectors. *)

val sync_write : ?len:int -> t -> sector:int -> bytes -> unit

val async_write : ?len:int -> t -> sector:int -> bytes -> unit
(** Both writes send the first [len] bytes of the buffer (default: all
    of it), so a partly filled buffer goes out without a copy.

    Buffer contract, for both writes: Io never keeps the caller's buffer
    past the call without copying it.  A request that is queued gets a
    copy; one that is not is written to the device before the call
    returns.  The caller may therefore reuse or mutate the buffer as soon
    as the call returns (the segment writer hands over its segment
    buffer this way). *)

val drain : t -> unit
(** Dispatch any queued requests and advance the clock until the device
    is idle. *)

(** {1 Request scheduling} *)

val set_scheduler : ?max_queue:int -> t -> Sched.discipline option -> unit
(** Install a request-scheduling discipline (or revert to immediate
    issue-order service with [None]).  Any requests pending under the
    previous policy are dispatched first, so a policy change can never
    reorder requests issued before it.

    With a scheduler installed, [async_write] enqueues and returns; the
    queue is bounded at [max_queue] requests (default 32) — beyond that
    the caller dispatches until the queue fits, then the
    [max_backlog_us] throttle applies as before.  [sync_read] /
    [sync_write] enqueue themselves and dispatch in discipline order
    until serviced.  Queue activity is published as [Disk_queue] bus
    events and observed in [io.queue.depth] / [io.queue.wait_us]. *)

val scheduler : t -> Sched.discipline option
(** The installed discipline, if any. *)

val queue_depth : t -> int
(** Number of requests currently pending across all member queues (0 when
    no scheduler is installed). *)

val disk_stats : t -> Disk.stats
(** The sanctioned way for workloads and bench code to read device
    counters without naming [Disk]: the shared aggregate [disk.*]
    registry counters, which every member adds to. *)

val member_stats : t -> int -> Disk.stats
(** {!disk_stats} for one member — the per-spindle view ([disk.<i>.*])
    without naming [Disk]. *)

val snapshot_media : t -> bytes
(** Copy of the underlying media — member media concatenated in member
    order, so crash sweeps and replays are deterministic and
    byte-comparable.  Queued writes on every member are dispatched first
    (without advancing the clock) so the snapshot reflects everything
    issued. *)

val restore_media : t -> bytes -> unit
(** Overwrite the media from a {!snapshot_media} image; every member's
    head state is reset and any queued requests are discarded. *)

val note_clustered_read : t -> blocks:int -> unit
(** Account one multi-block read request that replaced [blocks]
    single-block requests: bumps [io.clustered_reads] and adds [blocks]
    to [io.clustered_read_blocks].  Called by the file read path when it
    coalesces contiguous blocks into one {!sync_read_into}. *)

val backlog_us : t -> int
(** Queued device time not yet reached by the clock. *)
