(* expect: op-entry *)

(* A file system opening its own operation span: the envelope (span,
   syscall charge, error wrap) belongs to Lfs_vfs.Fs_ops, once for both
   systems, so the two cannot drift in how an operation is entered. *)

module P = Lfs_obs.Profile

let stat fs path = P.with_op (bus fs) `Stat (fun () -> lookup fs path)
