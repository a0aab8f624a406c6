(** A multi-disk volume: N member {!Disk}s composed behind the same
    sector-addressed interface as a single device.

    The volume owns the address map from the logical sector space the
    file systems see to [(member, member-sector)] pairs, and the member
    disks themselves; {!Io} owns all timing (per-member busy horizons and
    request queues).  Three policies:

    - {b Stripe} (RAID-0): the logical space is cut into [chunk_sectors]
      chunks dealt round-robin across members — chunk [k] lives on member
      [k mod n] at member-chunk [k / n].  Capacity is the sum of the
      members; a request crossing chunk boundaries splits into one
      contiguous run per member, serviced in parallel.
    - {b Mirror} (RAID-1): every member holds a full replica.  Writes fan
      out to all members; reads are served by one member of the caller's
      choice (load-balancing lives in {!Io}, which sees queue depths and
      head positions).  Capacity is one member.
    - {b Log_stripe}: the LFS-specific layout.  Identical chunked address
      map with chunk [stripe_sectors / n], but sized so one whole
      [stripe_sectors] write (a segment, when the file system aligns its
      log to [stripe_sectors]) splits into exactly one run of
      [stripe_sectors / n] contiguous sectors per member.  Consecutive
      segment writes advance every member by one chunk, so each member's
      address stream stays strictly sequential — segment bandwidth scales
      with spindle count while per-member seek counts stay at the
      single-disk level.

    A bare disk is the one-member mirror ({!of_disk}): {!Io} drives
    every device, one disk or many, as a volume.

    All members share one metrics registry: each registers its own
    [disk.<i>.*] family and contributes to the aggregate [disk.*]
    counters (see {!Disk.create}), so existing name-based consumers keep
    working unchanged on volumes. *)

type policy =
  | Stripe of { chunk_sectors : int }
  | Mirror
  | Log_stripe of { stripe_sectors : int }

val policy_name : policy -> string
(** ["stripe"] / ["mirror"] / ["log_stripe"] — stable labels for bench
    JSON and CLI flags (chunk sizes are separate knobs). *)

type run = {
  member : int;
  sector : int;  (** member-local start sector *)
  count : int;
  pieces : (int * int) list;
      (** scatter/gather map: [(logical offset within the request,
          sectors)] fragments in member-sector order, summing to
          [count].  A boundary-crossing request is contiguous on each
          member but interleaved in logical space, so the payload must be
          gathered (writes) or scattered (reads) piecewise. *)
}

type t

val create : policy -> members:int -> Geometry.t -> t
(** [create policy ~members g] builds [members] member disks, each with
    geometry [g], on one shared metrics registry.

    @raise Invalid_argument if [members < 1], a chunk size is
    non-positive, [Log_stripe] stripe size is not divisible by
    [members], or a member is too small to hold one chunk. *)

val of_disk : Disk.t -> t
(** [of_disk d] is the one-member [Mirror] over [d]: the disk's own
    geometry and its own registry.  It registers no [disk.0.*] member
    cells, so the registry reads exactly as the bare disk's. *)

val policy : t -> policy
val members : t -> int

val geometry : t -> Geometry.t
(** The logical geometry the file system mounts: the member geometry with
    [sectors] replaced by the volume's logical capacity (striped: sum of
    whole chunks across members; mirrored: one member).  Per-request
    timing never uses this — it is computed member-locally by each
    {!Disk}. *)

val member_geometry : t -> Geometry.t
val member_disk : t -> int -> Disk.t
val metrics : t -> Lfs_obs.Metrics.t

(** {1 Address mapping} *)

val map_write : t -> sector:int -> count:int -> run list
(** Split a logical write into per-member runs, ordered by first logical
    offset.  Mirrors return one full-range run per member.
    @raise Invalid_argument if the logical range is out of bounds. *)

val map_read : t -> sector:int -> count:int -> run list
(** Same split for reads.  Mirrors return a single run on member 0, the
    replica {!locate} names; {!Io} balances mirror reads itself. *)

val locate : t -> sector:int -> int * int
(** [(member, member_sector)] of one logical sector (mirrors: member 0's
    replica). *)

val logical_of : t -> member:int -> msec:int -> int
(** Inverse of {!locate} for striped policies; identity on mirrors.  Not
    bounds-checked against the member's last partial chunk. *)

(** {1 Whole-volume state} *)

val snapshot : t -> bytes
(** Member media concatenated in member order — deterministic, so crash
    sweeps and scenario replays stay byte-identical on volumes. *)

val restore : t -> bytes -> unit
(** Split a {!snapshot} back onto the members (head state reset).
    @raise Invalid_argument on size mismatch. *)

