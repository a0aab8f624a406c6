(** Sequential read-ahead stream detection.

    One instance sits beside each file system's block cache and watches
    the per-file read pattern.  When a file is read sequentially for
    [min_run] consecutive blocks, {!observe} starts returning prefetch
    plans: windows that double on every further sequential request, from
    [initial_window] up to [max_window] blocks, mirroring the behaviour
    of the BSD/Sprite file caches the paper measures against.

    The module only plans and accounts; the file system performs the
    actual disk reads (so it can skip holes and already-cached blocks and
    cluster the rest into contiguous multi-block requests) and reports
    back with {!mark_issued} and {!served}.

    Accounting lives in the shared {!Lfs_obs.Metrics} registry:
    - [io.readahead.issued] — blocks prefetched into the cache;
    - [io.readahead.hit] — prefetched blocks later served to a reader;
    - [io.readahead.wasted] — prefetched blocks never used (stream
      abandoned, file forgotten, or evicted before the reader arrived).

    Every issued block is eventually hit, wasted, or still pending, so
    [hit + wasted <= issued] always holds. *)

type t

val create :
  ?min_run:int -> ?initial_window:int -> max_window:int -> Lfs_obs.Metrics.t -> t
(** [create ~max_window metrics] — [max_window] is the prefetch ceiling
    in blocks; [0] disables read-ahead entirely (every call becomes a
    no-op).  [min_run] (default 4) is how many consecutive sequential
    blocks arm prefetching; [initial_window] (default 4) is the first
    window size. *)

val enabled : t -> bool
val max_window : t -> int

val observe : t -> owner:int -> first:int -> last:int -> (int * int) option
(** [observe t ~owner ~first ~last] records that blocks
    [first..last] of file [owner] were just read.  Returns
    [Some (start, count)] when the stream is sequential enough to
    prefetch blocks [start, start + count); [None] otherwise.  A
    non-sequential read abandons the stream: its pending blocks are
    counted wasted and the window resets. *)

val mark_issued : t -> owner:int -> blkno:int -> unit
(** The file system actually fetched [blkno] as read-ahead: counts it
    issued and tracks it as pending.  Blocks the planner proposed but the
    file system skipped (holes, already cached) are simply never
    marked. *)

val served : t -> owner:int -> blkno:int -> hit:bool -> unit
(** A reader asked for [blkno].  If it was pending, it is accounted:
    [hit:true] (served from cache) bumps [io.readahead.hit];
    [hit:false] (the prefetch was evicted before use) bumps
    [io.readahead.wasted]. *)

val forget : t -> owner:int -> unit
(** Drop the stream for [owner] (file deletion/truncation); its pending
    blocks count as wasted. *)

val reset : t -> unit
(** Abandon every stream (benchmark phase boundaries). *)

val issued : t -> int
val hit : t -> int
val wasted : t -> int
