(* expect: disk-io *)
(* Raw device access from outside lib/disk/io.ml: the request audit in
   Figure 1/2 only sees traffic that flows through Io. *)
let sneak_read disk dst = Disk.read_into disk ~sector:0 dst

let sneak_write disk buf = Lfs_disk.Disk.write disk ~sector:7 buf
