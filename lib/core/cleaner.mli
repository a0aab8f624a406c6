(** Segment cleaning (§4.3.2–§4.3.4).

    Cleaning proceeds in the paper's two phases: victims' live blocks are
    identified (version check first, then inode walk) and relocated to
    the log tail; dirty cache copies take precedence over the on-disk
    ones.  The evacuations (pointer blocks, inodes, inode-map and usage
    blocks) are flushed and the device drained before any victim is
    marked clean, so a moved block's only durable copy is never in a
    reusable segment.  When a victim carried post-checkpoint log (its
    sequence number would disappear from the roll-forward chain on
    reuse), a full checkpoint runs first — and [clean_to_target] starts
    by checkpointing whenever un-checkpointed log exists, which makes
    that case rare.

    Victim selection policies: [Greedy] (least-utilized first — the
    paper's choice), [Cost_benefit] (free-space gain weighted by data
    age), and [Oldest] (an ablation baseline). *)

val select_victims : ?live_budget:int -> State.t -> batch:int -> int list
(** Up to [batch] cleanable segments under the current policy, stopping
    once their combined live bytes would exceed [live_budget] (default:
    one segment's payload).  Segments whose utilization is at least
    [max_live_fraction] are not candidates (§4.3.4). *)

val clean_exact : State.t -> victims:int list -> int
(** Clean exactly the given segments (in live-budget-bounded batches),
    regardless of policy or thresholds.  Segments that are not Dirty are
    skipped.  Returns segments freed.  Used by the Figure 5 measurement,
    which must clean a chosen population once rather than clean to a
    target. *)

val clean_to_target : ?target:int -> State.t -> int
(** Clean until at least [target] segments are clean (default: the
    configuration's [clean_target_segments]) or nothing more can be
    cleaned.  Returns segments freed.  No-op if a cleaning pass is
    already running. *)

val write_cost : State.t -> float
(** Cumulative write-cost multiplier: (bytes logged + cleaner bytes
    read + live bytes moved) / bytes of new data logged.  1.0 means no
    cleaning overhead. *)
