(** Segment summary blocks (§4.3.1).

    The first block of every segment describes the segment's payload: one
    entry per payload block identifying its owner, so the cleaner can
    decide liveness (§4.3.3) and crash recovery can roll the log forward
    (§4.4).  The header carries a monotonic sequence number and timestamp
    (they order segments into the logical log) and a CRC over the payload
    so roll-forward never replays a torn segment write. *)

type entry =
  | Data of { inum : int; blkno : int; version : int }
      (** a data block of file [inum]; [version] is the file's inode-map
          version at write time, letting the cleaner skip deleted files
          cheaply *)
  | Indirect of { inum : int; idx : int }
      (** a pointer block: [idx = 0] is the single-indirect block,
          [idx >= 1] is child [idx - 1] of the double-indirect tree *)
  | Dindirect of { inum : int }  (** the double-indirect top block *)
  | Inode_block
      (** a block of packed inodes; the block contents name their inums *)
  | Imap_block of { idx : int }  (** inode-map block [idx] *)
  | Usage_block of { idx : int }  (** segment-usage-array block [idx] *)

val pp_entry : Format.formatter -> entry -> unit
val equal_entry : entry -> entry -> bool

type header = {
  seq : int;  (** position of this segment in the logical log *)
  timestamp_us : int;
  nblocks : int;  (** valid payload blocks (partial segments write fewer) *)
  payload_crc : int32;
}

val max_entries : size_bytes:int -> int
(** How many payload blocks a summary region of [size_bytes] can
    describe. *)

val blocks_needed : block_size:int -> seg_blocks:int -> int
(** Smallest summary region (in blocks) able to describe the remaining
    payload of a [seg_blocks]-block segment. *)

(** {1 In place}

    The log writer builds a segment's summary inside the segment buffer
    and the cleaner walks a victim's summary where it was read, so
    neither allocates per entry.  The region starts at offset 0 of the
    buffer given. *)

val put_entry : bytes -> int -> entry -> unit
(** [put_entry region i e] writes [e] as entry [i] of the region.
    @raise Invalid_argument if the entry lies outside [region]. *)

val seal : bytes -> size_bytes:int -> ?continues:bool -> header -> unit
(** [seal region ~size_bytes h] completes a region whose entries
    [0 .. h.nblocks - 1] are already in place: it writes the header,
    zero-fills the rest of the first [size_bytes] bytes and sets the
    CRC.  The bytes are those {!encode} gives for the same header and
    entries, whatever the region held before.  [continues] (default
    false) marks a segment written in the middle of a run of inode
    blocks (see {!continues}).
    @raise Invalid_argument if [h.nblocks] exceeds {!max_entries} or
    32767, or [size_bytes] the buffer. *)

val decode_header : bytes -> header option
(** The header of a valid summary region (the whole of the buffer given),
    after every check {!decode} makes: CRC, magic, entry count within
    the region, and a valid tag on each of the [nblocks] entries.  [None]
    exactly when {!decode} gives [None]. *)

val continues : bytes -> bool
(** Whether a region {!decode_header} accepted was sealed with
    [~continues:true]: the run of inode blocks it holds goes on in the
    next segment of the log, and roll-forward applies the segment only
    together with the rest of the run. *)

val entry_at : bytes -> int -> entry
(** Entry [i] of a region {!decode_header} accepted, for
    [0 <= i < nblocks]. *)

val copy_entry : bytes -> int -> bytes -> int -> unit
(** [copy_entry src i dst j] copies entry [i] of region [src] over entry
    [j] of region [dst], byte for byte. *)

(** A data entry's fields, read without building the {!Data} record:
    the cleaner walks every entry of a victim, live or dead. *)

val is_data_at : bytes -> int -> bool
(** Whether entry [i] of an accepted region is a {!Data} entry. *)

val data_inum_at : bytes -> int -> int
val data_blkno_at : bytes -> int -> int
val data_version_at : bytes -> int -> int
(** The [inum], [blkno] and [version] of {!Data} entry [i]. *)

(** {1 Whole regions} *)

val encode : size_bytes:int -> header -> entry list -> bytes
(** A full summary region: header, entries, CRC.  The entry list length
    must equal [header.nblocks] and fit in {!max_entries}.
    @raise Invalid_argument otherwise. *)

val decode : bytes -> (header * entry list) option
(** [None] if the region is not a valid summary (bad magic or CRC) —
    e.g. a never-written or torn segment. *)

val payload_crc : bytes -> off:int -> len:int -> int32
(** CRC used for [header.payload_crc]. *)
