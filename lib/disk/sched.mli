(** Disk request queue with pluggable service disciplines.

    Pure policy over a set of pending requests: {!enqueue} records a
    request in issue order, {!select} removes and returns the one the
    device should service next given the current head position.  Timing
    stays in {!Io}/{!Disk} — this module never looks at a clock.

    Reordering is safe by construction: a request is only eligible for
    selection once no {e older} queued request overlaps its sector
    range, so overlapping requests always service in issue order
    (write-after-write and read-after-write are preserved), while
    disjoint requests may be freely resequenced to cut positioning
    cost. *)

type discipline =
  | Fcfs  (** first come, first served — issue order, no reordering *)
  | Scan
      (** elevator: service the nearest eligible request in the current
          sweep direction, reversing at the last request on that side *)
  | Cscan
      (** circular SCAN: one-directional sweep toward higher sectors,
          wrapping to the lowest pending sector; bounds starvation at
          one full sweep and keeps service time uniform across the
          platter *)

val discipline_name : discipline -> string
(** ["fcfs"] / ["scan"] / ["cscan"] — stable labels for bench JSON. *)

type entry = {
  id : int;  (** issue order, dense from 0 per queue *)
  kind : [ `Read | `Write ];
  sync : bool;
  sector : int;
  count : int;
  data : Bytes.t option;  (** writes carry their payload until dispatch *)
  arrival_us : int;  (** simulated time the request entered the queue *)
}

type t

val create : discipline -> t
val discipline : t -> discipline
val length : t -> int
val is_empty : t -> bool

val clear : t -> unit
(** Drop all pending entries (media restore discards queued writes). *)

val enqueue :
  t ->
  kind:[ `Read | `Write ] ->
  sync:bool ->
  sector:int ->
  count:int ->
  data:Bytes.t option ->
  arrival_us:int ->
  entry

val select : t -> head:int -> entry option
(** Remove and return the next request to service, or [None] when the
    queue is empty.  [head] is the device's current sector position (the
    sector following the last transfer).  Ties on sector break toward
    the older request, so selection is deterministic. *)
