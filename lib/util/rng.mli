(** Deterministic pseudo-random numbers (splitmix64).

    All randomness in workloads and tests flows through an explicit [t] so
    every experiment is reproducible from its seed.

    {!fill_bytes}, which makes every workload's file contents, is the
    library's second C stub ([rng_stubs.c], no library linked, no build
    flag).  On x86-64 built with GCC or clang, an AVX-512 loop computes
    sixteen bytes per step, chosen once at start-up from what the CPU
    reports; a portable loop computes the remaining [len mod 16] bytes
    and every fill on other CPUs.  The bytes do not depend on which
    kernel ran. *)

type t

val create : int -> t
(** [create seed] is a fresh generator. *)

val copy : t -> t

val next_int64 : t -> int64
(** Next raw 64-bit value. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)].
    @raise Invalid_argument if [bound <= 0]. *)

val fill_bytes : t -> bytes -> unit
(** [fill_bytes t b] overwrites [b] with the bytes that
    [Bytes.length b] calls of [int t 256] would give, in order, and
    leaves [t] where those calls would leave it.  Allocates only the
    boxed state it stores back into [t]. *)

val kernel : unit -> string
(** ["avx512"] when {!fill_bytes} runs the AVX-512 loop, ["portable"]
    when it runs the portable loop alone. *)

val fill_bytes_portable : t -> bytes -> unit
(** {!fill_bytes} computed by the portable loop alone, whatever the CPU.
    For tests only: it keeps the fallback covered on a machine that
    would run the vector loop. *)

val float : t -> float -> float
(** [float t bound] is uniform in [\[0, bound)]. *)

val bool : t -> bool

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)

val split : t -> t
(** A new generator deterministically derived from (and advancing) [t]. *)
