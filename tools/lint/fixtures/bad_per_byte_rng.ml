(* expect: per-byte-rng *)
(* One boxed generator step per byte of the buffer; Rng.fill_bytes
   makes the same bytes in one loop. *)
module R = Lfs_util.Rng

let content ~seed len =
  let rng = R.create seed in
  Bytes.init len (fun _ -> Char.chr (R.int rng 256))
