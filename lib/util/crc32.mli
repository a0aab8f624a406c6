(** CRC-32 (IEEE 802.3 polynomial), used to validate on-disk structures:
    checkpoint regions, segment summary blocks and payloads, and
    superblocks.  The kernel is the library's one C stub
    ([crc32_stubs.c], portable C99, no library linked). *)

val digest_bytes : ?off:int -> ?len:int -> bytes -> int32
(** [digest_bytes ?off ?len b] is the CRC-32 of [len] bytes of [b]
    starting at [off] (defaults: the whole buffer).
    @raise Invalid_argument if the range is not inside [b]. *)

val digest_string : string -> int32
