(** LFS configuration.

    Structural parameters (block and segment size, maximum file count) are
    fixed at [format] time and recorded in the superblock; runtime
    parameters (cleaning thresholds and policy, write-back ages) may differ
    on every mount. *)

type policy =
  | Greedy  (** clean the segments with the least live data (the paper) *)
  | Cost_benefit  (** weigh free space by data age (Sprite-LFS extension) *)
  | Oldest  (** clean the coldest segments first (ablation baseline) *)

val policy_name : policy -> string

type t = {
  (* structural *)
  block_size : int;  (** bytes; must divide the segment size; default 4 KB *)
  segment_size : int;  (** bytes; default 1 MB as in the paper's tests *)
  max_files : int;  (** inode-map capacity *)
  segment_align_sectors : int;
      (** align the first segment so every segment starts on a multiple
          of this many device sectors (0 = pack segments right after the
          checkpoint regions, the historical layout).  Structural — it
          moves the whole segment area and is recorded in the
          superblock.  Set to a {!Lfs_disk.Volume} [Log_stripe] stripe
          size so each whole-segment write splits into exactly one
          contiguous run per member. *)
  (* runtime *)
  cache_blocks : int;  (** file-cache capacity in blocks *)
  read_clustering : bool;
      (** coalesce physically contiguous blocks of a read request into
          one multi-block disk transfer *)
  readahead_blocks : int;
      (** sequential read-ahead window ceiling in blocks; 0 disables
          prefetching *)
  writeback_age_us : int;  (** dirty-block age write-back trigger (30 s) *)
  checkpoint_interval_us : int;  (** periodic checkpoint spacing (30 s) *)
  clean_threshold_segments : int;
      (** start cleaning when clean segments drop below this *)
  clean_target_segments : int;  (** clean until this many are clean *)
  reserve_segments : int;
      (** segments the allocator refuses to hand to user data so the
          cleaner can always make progress *)
  max_live_fraction : float;
      (** stop cleaning a candidate pool once every remaining segment is
          at least this utilized (§4.3.4) *)
  policy : policy;
  auto_clean : bool;  (** clean automatically when below threshold *)
  roll_forward : bool;  (** replay post-checkpoint log segments at mount *)
}

val default : t
(** The paper's setup: 4 KB blocks, 1 MB segments, 30 s thresholds,
    greedy cleaning, roll-forward enabled. *)

val small : t
(** A scaled-down configuration for unit tests: 1 KB blocks, 16 KB
    segments, small cache. *)

val validate : t -> (unit, string) result
(** Check internal consistency (divisibility, positive sizes, thresholds
    ordered). *)
