(* expect: disk-io *)
(* Stand-in for the Io layer: the one sanctioned raw-disk site.  The
   syntactic rule still fires here (allowlisted in the real tree), but
   the absorber table stops the effect from propagating to callers. *)
let sync_read d blkno dst = Disk.read_into d blkno dst

let sync_write d blkno buf = Disk.write d blkno buf
