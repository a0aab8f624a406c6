(** Deterministic, seeded fault injection over a {!Disk}.

    [attach] installs a scenario-driven {!Disk.fault_hook} on an existing
    I/O stack: the device keeps its geometry, media and metrics — it just
    starts failing the way worn hardware does.  Four fault kinds:

    - {b crash-after-N-writes}: the N-th write request (counting from the
      moment of attachment) persists nothing and cuts power
      ({!Disk.Crash}); every later write fails until {!clear_crash}.
    - {b torn write}: the crashing request instead persists a seeded
      proper prefix of its sectors — the multi-sector segment or block
      write is torn mid-transfer.
    - {b transient read errors}: each read request independently fails
      with probability [read_error_rate], for [read_error_burst]
      consecutive attempts, then succeeds — exercising the {!Io} retry
      and backoff path.
    - {b sticky bad sectors}: reads covering a listed sector always fail,
      so the retry budget runs out and {!Io.Read_failed} surfaces.

    All randomness flows from [scenario.seed] through {!Lfs_util.Rng}, so
    a replay with the same scenario on the same workload injects the same
    faults at the same requests.  Every injected fault is emitted on the
    stack's trace bus as a [Fault_injected] event and counted under
    [disk.faults.*]. *)

exception Crash
(** The power-cut exception ({!Disk.Crash}), re-exported so harnesses
    built over {!Io} can catch it without naming the device layer. *)

type scenario = {
  seed : int;
  crash_after_writes : int option;
      (** Crash at the k-th write request after [attach] (0-based): the
          first [k] writes complete untouched, request [k] is lost or
          torn. *)
  torn_write : bool;
      (** When crashing, persist a seeded non-empty proper prefix of the
          request instead of nothing (single-sector requests still
          persist nothing — there is no proper prefix to tear to). *)
  read_error_rate : float;  (** Per-request transient failure probability. *)
  read_error_burst : int;
      (** Consecutive failures per faulted request (≥ 1); keep it below
          the {!Io} retry budget if the request must eventually
          succeed. *)
  bad_sectors : int list;  (** Sticky unreadable sectors. *)
  member : int option;
      (** Restrict the scenario to one volume member ([None] = the whole
          device: every member of a volume, or the single disk).  Sector
          addresses in [bad_sectors] are member-local.  Failing one
          mirror replica this way exercises the {!Io} degraded-read
          fail-over. *)
}

val quiet : scenario
(** No faults: useful for probe runs that only count write boundaries. *)

type t

val attach : Io.t -> scenario -> t
(** Install the scenario on [io]'s device — every member disk, or just
    [scenario.member] — replacing any previous hook.  Fault counting
    (and the write-boundary counter) starts here and is shared across
    members.
    @raise Invalid_argument on a malformed scenario. *)

val detach : t -> unit
(** Remove the hook(s); the device behaves perfectly again. *)

val writes_seen : t -> int
(** Write requests observed since [attach] — the boundary count a
    crash-point sweep enumerates. *)

val faults_injected : t -> int
(** Total faults of all kinds injected so far. *)

val crashed : t -> bool
(** Whether the simulated machine is down ({!Disk.crashed}). *)

val clear_crash : t -> unit
(** Bring the machine back up, keeping the (possibly torn) media state —
    the first step of every recovery, without naming [Disk]. *)
