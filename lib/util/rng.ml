type t = { mutable state : int64 }

let create seed = { state = Int64.of_int seed }
let copy t = { state = t.state }

(* splitmix64: fast, full 64-bit period increments, excellent avalanche. *)
let gamma = 0x9E3779B97F4A7C15L

let[@inline] mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let next_int64 t =
  t.state <- Int64.add t.state gamma;
  mix t.state

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  let mask = Int64.shift_right_logical (next_int64 t) 1 in
  Int64.to_int (Int64.rem mask (Int64.of_int bound))

(* The kernels are C (rng_stubs.c): an AVX-512 loop where the CPU has
   one, a portable loop for tails and everywhere else.  They neither
   allocate nor raise, so they run as [noalloc] calls on an unboxed
   state, which is boxed back into [t] once per fill. *)
external init : unit -> unit = "lfs_rng_init" [@@noalloc]
external uses_avx512 : unit -> bool = "lfs_rng_uses_avx512" [@@noalloc]

external fill : bytes -> (int64[@unboxed]) -> (int64[@unboxed])
  = "lfs_rng_fill_byte" "lfs_rng_fill"
[@@noalloc]

external fill_portable : bytes -> (int64[@unboxed]) -> (int64[@unboxed])
  = "lfs_rng_fill_portable_byte" "lfs_rng_fill_portable"
[@@noalloc]

let () = init ()

let kernel () = if uses_avx512 () then "avx512" else "portable"
let fill_bytes t b = t.state <- fill b t.state
let fill_bytes_portable t b = t.state <- fill_portable b t.state

let float t bound =
  let mantissa = Int64.shift_right_logical (next_int64 t) 11 in
  Int64.to_float mantissa /. 9007199254740992.0 *. bound

let bool t = Int64.logand (next_int64 t) 1L = 1L

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let split t = { state = next_int64 t }
