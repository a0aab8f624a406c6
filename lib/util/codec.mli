(** Little-endian byte codecs for on-disk structures.

    Every persistent LFS/FFS structure (superblocks, inodes, inode-map
    blocks, segment summaries, checkpoint regions, directory blocks) is
    serialized through these cursors, so layout is defined in exactly one
    place per structure and round-trip property tests cover them all. *)

exception Error of string
(** Raised on malformed input (short buffer, bad tag, bad magic). *)

(** {1 Encoding} *)

type encoder

val encoder : ?capacity:int -> unit -> encoder
val u8 : encoder -> int -> unit
val u16 : encoder -> int -> unit
val u32 : encoder -> int -> unit
(** [u32] accepts [0 .. 2^32-1] stored in an OCaml [int]. *)

val i64 : encoder -> int64 -> unit
val int_as_i64 : encoder -> int -> unit
val bool : encoder -> bool -> unit
val bytes : encoder -> bytes -> unit
(** Raw bytes, no length prefix. *)

val string_u16 : encoder -> string -> unit
(** Length-prefixed (u16) string.  @raise Error if longer than 65535. *)

val pos : encoder -> int
val pad_to : encoder -> int -> unit
(** [pad_to e n] appends zero bytes until the encoder holds [n] bytes.
    @raise Error if already longer than [n]. *)

val to_bytes : encoder -> bytes

(** {1 Fixed-layout fields in place}

    For records whose layout is fixed, written straight into the block
    that holds them.  [put_* buf off v] writes [v] at [off], with the
    same range checks as the encoder, and returns the offset just past
    it. *)

val put_u8 : bytes -> int -> int -> int
val put_u16 : bytes -> int -> int -> int
val put_u32 : bytes -> int -> int -> int
val put_int_as_i64 : bytes -> int -> int -> int

val get_u32 : bytes -> int -> int
(** The [u32] at an offset, as {!read_u32} reads it. *)

(** {1 Decoding} *)

type decoder

val decoder : ?off:int -> ?len:int -> bytes -> decoder
val read_u8 : decoder -> int
val read_u16 : decoder -> int
val read_u32 : decoder -> int
val read_i64 : decoder -> int64
val read_int_as_i64 : decoder -> int
val read_bool : decoder -> bool
val read_string_u16 : decoder -> string
val remaining : decoder -> int
val skip : decoder -> int -> unit
