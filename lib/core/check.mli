(** Consistency checking (fsck-grade invariants), used by tests and
    `lfstool fsck`.

    The segment-usage array is maintained incrementally; these functions
    recompute it from ground truth — the inode map, every live inode's
    block pointers, and the metadata block addresses — so tests can catch
    any accounting drift at its source. *)

val recompute_usage : State.t -> int array
(** Live bytes per segment implied by the reachable state.  Counts, per
    segment: data and pointer blocks referenced by allocated inodes'
    block maps ({!Layout.block_size} each), inode slices
    ({!Layout.inode_bytes} per allocated inode), and the current
    inode-map and usage-array blocks. *)

val usage_drift : State.t -> (int * int * int) list
(** [(segment, recorded, recomputed)] for every segment where the
    incremental estimate differs from ground truth. *)

val fsck : State.t -> Lfs_vfs.Audit.issue list
(** Full structural verification: walk the namespace from the root,
    cross-check it against the inode map, and walk every live block
    pointer checking for double references and wild addresses.  Each
    directory is walked once, so a cycle in the tree ends the walk (and
    is reported as a directory under two names).  An empty list means
    the file system is structurally sound. *)

val recovery_divergence :
  expected:State.t -> recovered:State.t -> string list
(** Checkpoint/recovery cross-validation: walk both trees in lockstep
    and report every path where the recovered state's names, kinds,
    link counts, sizes or bytes differ from the expected state.  Used
    by recovery tests and bench ablations to prove that a post-crash
    mount reconstructed exactly the durable image (an empty list), not
    merely something that fscks clean. *)
