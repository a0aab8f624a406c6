(** CRC-32 (IEEE 802.3 polynomial), used to validate on-disk structures:
    checkpoint regions, segment summary blocks and payloads, and
    superblocks.

    The kernels are the library's one C stub ([crc32_stubs.c], no library
    linked, no build flag).  On x86-64 built with GCC or clang, a
    carry-less-multiply (PCLMULQDQ) fold runs over every call of 64 bytes
    or more, chosen once at start-up from what the CPU reports; portable
    slicing-by-16 computes the remaining [len mod 16] bytes, every shorter
    call, and every call on other CPUs.  Digests do not depend on which
    kernel ran. *)

val digest_bytes : ?off:int -> ?len:int -> bytes -> int32
(** [digest_bytes ?off ?len b] is the CRC-32 of [len] bytes of [b]
    starting at [off] (defaults: the whole buffer).
    @raise Invalid_argument if the range is not inside [b]. *)

val digest_string : string -> int32

val kernel : unit -> string
(** ["pclmul"] when {!digest_bytes} folds with carry-less multiplies,
    ["slicing-by-16"] when it runs the portable kernel alone. *)

val digest_portable : ?off:int -> ?len:int -> bytes -> int32
(** {!digest_bytes} computed by the portable slicing-by-16 kernel alone,
    whatever the CPU.  For tests only: it keeps the fallback covered on a
    machine that would fold. *)
