(** Declarative scenario builder: one entry point for every kind of
    correctness run in the repo.

    A spec is assembled left to right and compiled onto the existing
    machinery by {!run}:

    {[
      Scenario.(
        make
        |> ops [ Create 2; Read 4; Overwrite 3; Delete 1 ]
        |> clients 4
        |> think (Uniform (1_000, 10_000))
        |> invariant ~name:"fsck" fsck
        |> seed 42 |> run)
    ]}

    Four compilation targets, chosen by the spec:

    - {b stream} (the default): a single-threaded {!Lfs_workload.Op}
      stream generated from the seed, executed in lockstep against the
      pure {!Lfs_workload.Model_fs} reference — every outcome, the final
      tree, and a post-flush re-read must agree.
    - {b engine} ([clients n]): a multi-client closed-loop run through
      {!Lfs_workload.Engine} with the op mix mapped onto its fractions.
    - {b sweep} ([crash_sweep]): a write-boundary crash-recovery sweep
      of the same op stream through {!Lfs_workload.Crashpoint},
      optionally with [Torn] writes.
    - {b read-back} ([read_back] + a [Transient] fault): run the stream,
      drop caches, and read everything back against the model while
      reads transiently fail — the {!Lfs_disk.Io} retry/backoff path
      must absorb every fault.

    Every mode finishes with the always-on sanitizer
    ({!Lfs_workload.Driver.sanitize}) plus any user {!invariant} hooks,
    and every run is seed-managed: a failing scenario is minimized by
    delta-debugging shrinking ({!shrink}) and reported with a one-line
    [lfstool scenario … --replay SEED] invocation that reproduces the
    shrunk counterexample byte-for-byte.

    Scoped fault injection for hand-written tests goes through
    {!with_faults}; the [scenario-entry] lint rule keeps test code off
    the raw [Crashpoint]/[Faulty] entry points. *)

type system = [ `Lfs | `Ffs ]

(** One operation kind with its relative weight in the mix. *)
type weighted =
  | Create of int
  | Mkdir of int
  | Read of int
  | Overwrite of int
  | Append of int
  | Truncate of int
  | Rename of int
  | Link of int
  | Delete of int
  | Sync of int

type think = Lfs_workload.Engine.think = Constant of int | Uniform of int * int

(** Fault kinds.  [Torn] composes with [crash_sweep]; [Transient]
    composes with stream, engine and [read_back] runs;
    [Checkpoint_bad_sector] is a whole-run mode (sticky bad sector over
    LFS checkpoint region A).  [Bad_sectors] and [Crash_after] are
    scoped faults for {!with_faults} only — a whole-run spec cannot
    recover from them. *)
type fault =
  | Torn
  | Transient of { rate : float; burst : int }
  | Bad_sectors of int list
  | Crash_after of int
  | Checkpoint_bad_sector

type t
(** A scenario spec under construction. *)

(** {1 Builder} *)

val make : t
(** LFS, the default mix ({!default_mix}), 48 ops, no clients, no
    faults, seed 1. *)

val system : system -> t -> t
val ops : weighted list -> t -> t
val count : int -> t -> t
(** Total operations generated (split across clients in engine mode). *)

val payload : int -> t -> t
(** Payload scale in bytes: stream writes draw lengths up to twice
    this, appends up to it. *)

val clients : int -> t -> t
(** Compile to a multi-client {!Lfs_workload.Engine} run. *)

val think : think -> t -> t
(** Client think-time model (engine mode only). *)

val faults : fault list -> t -> t
val crash_sweep : t -> t
(** Compile to an exhaustive {!Lfs_workload.Crashpoint} sweep. *)

val boundaries : int -> t -> t
(** Cap on write boundaries tested by a sweep (default 48). *)

val read_back : t -> t
(** Compile to a {!Lfs_workload.Crashpoint.read_fault_run}: requires a
    [Transient] fault. *)

val volume : Lfs_disk.Volume.policy -> int -> t -> t
(** Run the scenario on a multi-disk volume of that many members instead
    of a single disk (every mode except [Checkpoint_bad_sector], which
    targets a specific physical sector; mirror volumes additionally
    reject [crash_sweep] — a mid-fan-out crash leaves replicas
    divergent, so the durable model cannot assert anything). *)

val fault_member : int -> t -> t
(** Confine injected faults to one volume member (stream/engine modes;
    requires {!volume}).  A mirror with a [Transient] fault on one
    member exercises the degraded-read path: the other replica serves
    the data and [io.degraded_reads] counts the failovers. *)

val invariant : ?name:string -> (Lfs_vfs.Fs_intf.instance -> string list) -> t -> t
(** Register a user invariant: given the surviving instance (for the
    sweep, read-back and bad-sector modes, that of a stream run of the
    same ops), return violation messages.  Runs after the op stream,
    before the sanitizer. *)

val seed : int -> t -> t
val cli_flags : string list -> t -> t
(** Extra flags to reproduce CLI-only behaviour (e.g. [--plant]) in the
    printed replay line. *)

val fsck : Lfs_vfs.Fs_intf.instance -> string list
(** The system's own structural self-check as an invariant hook
    (= {!Lfs_workload.Driver.integrity}). *)

val default_mix : weighted list
val mix_to_string : weighted list -> string
(** ["create=2,read=4,…"] — the [--mix] flag syntax. *)

val mix_of_string : string -> weighted list
(** Inverse of {!mix_to_string}.
    @raise Lfs_workload.Driver.Benchmark_failure on malformed input. *)

(** {1 Compiled form} *)

val steps_of : t -> Lfs_workload.Op.t list
(** The deterministic op stream of a spec: same spec ⇒ same ops.  Every
    mode but engine runs it (content seeds
    are baked in at generation time, so a shrunk subsequence replays
    identically).  The generator keeps a model of the tree, so most ops
    name a live file or directory; new names are drawn from eight, up to
    three deep, so ops also fail (a missing target, a name in use) and
    the model must agree. *)

(** {1 Running} *)

type stats = {
  ops_run : int;
  faults_injected : int;
  retries : int;  (** [io.retries] *)
  backoff_us : int;  (** [io.backoff_us] *)
  read_errors : int;  (** [disk.faults.read_errors] *)
  bad_sector_reads : int;  (** [disk.faults.bad_sector_reads] *)
}

type failure = {
  message : string;  (** first violation, re-derived on the shrunk run *)
  steps : string list;  (** rendered minimal counterexample *)
  original_steps : int;
  shrunk_steps : int;
  replay : string;  (** one-line reproduction command *)
}

type report = {
  label : string;  (** e.g. ["lfs/stream"] *)
  mode : string;
  seed_used : int;
  stats : stats;
  sweep : Lfs_workload.Crashpoint.outcome option;
  engine : Lfs_workload.Engine.result option;
  failure : failure option;
}

val replay_command : t -> string
(** [lfstool scenario <flags> --replay SEED] for this spec. *)

val run : t -> report
(** Compile and execute the spec.  Never raises on a scenario
    {e failure} (that is the [failure] field); raises
    {!Lfs_workload.Driver.Benchmark_failure} on an invalid spec. *)

val render : report -> string
(** Human-readable report (pure — callers print). *)

val to_json : report -> Lfs_obs.Json.t
(** [lfs-scenario/1] encoding for [lfstool scenario --json]. *)

(** {1 Scoped fault injection} *)

type injection = {
  inj_writes : int;  (** write boundaries observed while attached *)
  inj_faults : int;  (** faults injected while attached *)
  inj_crashed : bool;  (** whether the simulated machine went down *)
}

val with_faults :
  ?member:int ->
  ?seed:int ->
  Lfs_disk.Io.t ->
  fault list ->
  (unit -> 'a) ->
  'a * injection
(** Attach the faults to [io], run the thunk, and always detach
    (clearing any crash) on the way out — the sanctioned way for tests
    to use {!Lfs_disk.Faulty} directly.  Accepts the scoped fault kinds
    ([Bad_sectors], [Crash_after]) that whole-run specs reject.
    [member] confines the faults to one volume member. *)

(** {1 Shrinking} *)

val shrink : fails:('a list -> string option) -> 'a list -> 'a list
(** Delta-debugging minimization: given a failing list ([fails] returns
    [Some _] on it), return a 1-minimal failing subsequence (order
    preserved; removing any single remaining element makes it pass).
    Deterministic for a deterministic oracle.  Returns the input
    unchanged if it does not fail. *)
