(** The metrics registry: named counters, gauges and log-scale histograms
    shared by every layer of the storage stack.

    One registry lives with each simulated I/O stack (created by the disk,
    reachable through {!Lfs_disk.Io.metrics}); components register their
    instruments under dotted names ([disk.*], [io.*], [cache.*], [lfs.*],
    [ffs.*]).  Registration is get-or-create so remounting a file system
    on the same stack reuses (and may {!reset_prefix}) its instruments.

    Counters and histograms are plain mutable cells — updating them costs
    an increment, so they are always on.  Gauges are callbacks evaluated
    at {!snapshot} time. *)

type t

type counter
type histogram

val create : unit -> t

val counter : t -> string -> counter
(** Get or create.  @raise Invalid_argument if the name is registered as
    a different kind. *)

val member_counter : t -> member:int -> string -> counter
(** Get or create a per-member device counter: [member_counter t ~member:2
    "seeks"] is the counter named ["disk.2.seeks"].  The member index is a
    label dimension on the [disk.*] family — the catalog lists the family
    once as [disk.<i>.<name>].  Aggregate (unlabelled) [disk.*] counters
    are registered separately by the device layer so name-based consumers
    keep working on multi-member stacks. *)

val incr : counter -> unit
val add : counter -> int -> unit
val value : counter -> int
val reset_counter : counter -> unit

val gauge : t -> string -> (unit -> float) -> unit
(** Register (or replace) a gauge callback. *)

val histogram : t -> string -> histogram
(** Get or create a log-scale histogram: bucket boundaries are the powers
    of two, so values spanning nine decades fit in 63 buckets. *)

val standalone_histogram : unit -> histogram
(** A histogram cell not registered anywhere — for aggregators (like
    {!Profile}) that keep their own keyed tables and only need the
    bucketing/quantile machinery. *)

val observe : histogram -> int -> unit
(** Record one (non-negative; negatives land in the zero bucket) value. *)

(** {1 Snapshots} *)

type hist_snapshot = {
  count : int;
  sum : int;
  min_v : int;  (** meaningless when [count = 0] *)
  max_v : int;
  buckets : (int * int) list;
      (** (inclusive upper bound, count), non-empty buckets only *)
}

type value_snapshot =
  | Counter of int
  | Gauge of float
  | Histogram of hist_snapshot

type snapshot = (string * value_snapshot) list
(** Sorted by name. *)

val snapshot : t -> snapshot

val snapshot_histogram : histogram -> hist_snapshot
(** Snapshot one histogram cell (e.g. a {!standalone_histogram}). *)

val reset : t -> unit
(** Zero every counter and histogram (gauges are callbacks and have no
    state to clear). *)

val reset_prefix : t -> string -> unit
(** Zero only the instruments whose name starts with [prefix] — e.g. a
    fresh mount resetting [lfs.] while the disk's lifetime counters keep
    running. *)

val diff : before:snapshot -> after:snapshot -> snapshot
(** Per-phase deltas: counters and histogram populations subtract, gauges
    keep the [after] reading.  Histogram [min_v]/[max_v] are taken from
    [after] (minima are not subtractable). *)

val find : snapshot -> string -> value_snapshot option
val counter_value : snapshot -> string -> int option

val quantile : hist_snapshot -> float -> int option
(** Estimated [q]-quantile: linear interpolation within the log bucket
    where the cumulative count crosses [q], clamped to the observed
    min/max.  Exact when all samples share one bucket; otherwise the
    quantization error is bounded by the bucket width. *)

val mean : hist_snapshot -> float

(** {1 Rendering} *)

val render : ?prefix:string -> snapshot -> string
(** Two-column table, optionally restricted to a name prefix. *)

val to_json : snapshot -> Json.t
