(* The kernels are C (crc32_stubs.c): a PCLMULQDQ fold where the CPU has
   one, slicing-by-16 for tails and everywhere else.  They neither
   allocate nor raise, so they run as [noalloc] calls on untagged ints;
   the bounds check stays here. *)
external init : unit -> unit = "lfs_crc32_init" [@@noalloc]
external uses_clmul : unit -> bool = "lfs_crc32_uses_clmul" [@@noalloc]

external digest_unchecked :
  bytes -> (int[@untagged]) -> (int[@untagged]) -> (int[@untagged])
  = "lfs_crc32_digest_byte" "lfs_crc32_digest"
[@@noalloc]

external digest_portable_unchecked :
  bytes -> (int[@untagged]) -> (int[@untagged]) -> (int[@untagged])
  = "lfs_crc32_digest_portable_byte" "lfs_crc32_digest_portable"
[@@noalloc]

let () = init ()

let kernel () = if uses_clmul () then "pclmul" else "slicing-by-16"

let checked name digest ?(off = 0) ?len b =
  let len = match len with Some l -> l | None -> Bytes.length b - off in
  if off < 0 || len < 0 || off > Bytes.length b - len then invalid_arg name;
  Int32.of_int (digest b off len)

let digest_bytes ?off ?len b =
  checked "Crc32.digest_bytes" digest_unchecked ?off ?len b

let digest_portable ?off ?len b =
  checked "Crc32.digest_portable" digest_portable_unchecked ?off ?len b

let digest_string s = digest_bytes (Bytes.unsafe_of_string s)
