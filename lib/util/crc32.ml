(* The kernel is C (crc32_stubs.c): slicing-by-16 over 32-bit tables,
   about twice the throughput the same loop reaches in OCaml on native
   ints.  It neither allocates nor raises, so it runs as a [noalloc]
   call on untagged ints; the bounds check stays here. *)
external init : unit -> unit = "lfs_crc32_init" [@@noalloc]

external digest_unchecked :
  bytes -> (int[@untagged]) -> (int[@untagged]) -> (int[@untagged])
  = "lfs_crc32_digest_byte" "lfs_crc32_digest"
[@@noalloc]

let () = init ()

let digest_bytes ?(off = 0) ?len b =
  let len = match len with Some l -> l | None -> Bytes.length b - off in
  if off < 0 || len < 0 || off > Bytes.length b - len then
    invalid_arg "Crc32.digest_bytes";
  Int32.of_int (digest_unchecked b off len)

let digest_string s = digest_bytes (Bytes.unsafe_of_string s)
