(** The segment usage array (§4.3.4).

    Per segment: an estimate of live bytes, the time of the segment's last
    write (data age, used by the cost-benefit cleaning policy), and its
    state.  Small enough to stay memory-resident; persisted in blocks at
    checkpoints.  The paper notes the live counts are only a cleaning hint,
    so recovery tolerates slightly stale values. *)

type seg_state =
  | Clean  (** available for the log to claim *)
  | Dirty  (** contains (possibly zero) live data *)
  | Active  (** the segment currently being filled in memory *)

type t

val create : Layout.t -> t
(** All segments clean and empty. *)

val nsegments : t -> int
val state : t -> int -> seg_state
val set_state : t -> int -> seg_state -> unit
val nclean : t -> int

val ndirty : t -> int
(** How many segments are currently {!Dirty}. *)

val iter_dirty : (int -> unit) -> t -> unit
(** Iterate the segments currently in state {!Dirty}, in no particular
    order.  The set is maintained incrementally by {!set_state}, so a
    victim scan costs time proportional to the number of dirty segments
    rather than the size of the disk. *)

val live_bytes : t -> int -> int
val utilization : t -> int -> float
(** live bytes / payload capacity, in [0, 1] (can exceed 1 transiently if
    estimates drift; clamped). *)

val mtime_us : t -> int -> int

val add_live : t -> int -> bytes:int -> now_us:int -> unit
(** Data written into a segment. *)

val sub_live : t -> int -> bytes:int -> unit
(** Data in a segment died (overwritten or deleted); clamps at zero. *)

val release : t -> int -> bytes:int -> unit
(** [release t addr ~bytes]: [bytes] of the block at [addr] died;
    {!sub_live} on its segment, nothing for the null address.
    @raise Invalid_argument for an address outside the segment area. *)

val set_live : t -> int -> bytes:int -> unit
(** Overwrite a segment's live-byte count with an exact value, leaving
    its age timestamp alone.  Used by recovery to reconcile the array
    against recomputed ground truth after roll-forward (the incremental
    deltas died with the crash). *)

val reset_segment : t -> int -> unit
(** Zero a segment's accounting (when it is cleaned or newly claimed). *)

val find_clean : ?start:int -> t -> int option
(** A clean segment at or after [start], wrapping. *)

val total_live_bytes : t -> int

(** {1 Persistence} *)

val n_blocks : t -> int

val mark_block_dirty : t -> int -> unit
(** Force usage block [idx] to be rewritten at the next checkpoint. *)

val dirty_blocks : t -> int list
val clear_dirty : t -> unit
val encode_block : t -> idx:int -> bytes
val load_block : t -> idx:int -> bytes -> unit
