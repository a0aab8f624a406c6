(** Fixed-size mutable bit sets.

    Used for FFS block/inode allocation bitmaps and for tracking live
    blocks during segment cleaning.  Bits are indexed from [0] to
    [length - 1]. *)

type t

val create : int -> t
(** [create n] is a bit set of [n] bits, all clear.
    @raise Invalid_argument if [n < 0]. *)

val length : t -> int
(** Number of bits in the set. *)

val set : t -> int -> unit
(** [set t i] sets bit [i].  @raise Invalid_argument if out of range. *)

val clear : t -> int -> unit
(** [clear t i] clears bit [i]. *)

val mem : t -> int -> bool
(** [mem t i] is [true] iff bit [i] is set. *)

val cardinal : t -> int
(** Number of set bits. *)

val find_first_clear : ?start:int -> t -> int option
(** [find_first_clear ?start t] is the index of the first clear bit at or
    after [start] (default [0]), wrapping around to the beginning, or
    [None] if every bit is set. *)

val iter_set : (int -> unit) -> t -> unit
(** [iter_set f t] applies [f] to the index of every set bit, ascending. *)

val fill_all : t -> unit
(** Set every bit. *)

val clear_all : t -> unit
(** Clear every bit. *)

val copy : t -> t

val to_bytes : t -> bytes
(** Serialize: packed little-endian bit order within each byte. *)

val of_bytes : length:int -> bytes -> t
(** [of_bytes ~length b] rebuilds a bit set of [length] bits from packed
    bytes produced by {!to_bytes}.
    @raise Invalid_argument if [b] is too short. *)
