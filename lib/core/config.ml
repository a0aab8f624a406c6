type policy = Greedy | Cost_benefit | Oldest

let policy_name = function
  | Greedy -> "greedy"
  | Cost_benefit -> "cost-benefit"
  | Oldest -> "oldest"

type t = {
  block_size : int;
  segment_size : int;
  max_files : int;
  segment_align_sectors : int;
  cache_blocks : int;
  read_clustering : bool;
  readahead_blocks : int;
  writeback_age_us : int;
  checkpoint_interval_us : int;
  clean_threshold_segments : int;
  clean_target_segments : int;
  reserve_segments : int;
  max_live_fraction : float;
  policy : policy;
  auto_clean : bool;
  roll_forward : bool;
}

let default =
  {
    block_size = 4096;
    segment_size = 1 lsl 20;
    max_files = 65536;
    segment_align_sectors = 0;
    cache_blocks = 4096;
    read_clustering = true;
    readahead_blocks = 32;
    writeback_age_us = 30_000_000;
    checkpoint_interval_us = 30_000_000;
    clean_threshold_segments = 8;
    clean_target_segments = 16;
    reserve_segments = 4;
    max_live_fraction = 0.95;
    policy = Greedy;
    auto_clean = true;
    roll_forward = true;
  }

let small =
  {
    default with
    block_size = 1024;
    segment_size = 16 * 1024;
    max_files = 1024;
    cache_blocks = 64;
    readahead_blocks = 8;
    clean_threshold_segments = 8;
    clean_target_segments = 12;
    reserve_segments = 4;
  }

let validate t =
  let err fmt = Printf.ksprintf (fun s -> Error s) fmt in
  if t.block_size <= 0 || t.block_size land (t.block_size - 1) <> 0 then
    err "block_size must be a positive power of two: %d" t.block_size
  else if t.segment_size mod t.block_size <> 0 then
    err "segment_size %d not a multiple of block_size %d" t.segment_size
      t.block_size
  else if t.segment_size / t.block_size < 2 then
    err "a segment must hold at least a summary block and one data block"
  else if t.max_files < 2 then err "max_files must be at least 2"
  else if t.segment_align_sectors < 0 then
    err "segment_align_sectors must be non-negative (0 disables alignment)"
  else if t.cache_blocks <= 0 then err "cache_blocks must be positive"
  else if t.readahead_blocks < 0 then
    err "readahead_blocks must be non-negative (0 disables read-ahead)"
  else if t.clean_target_segments < t.clean_threshold_segments then
    err "clean_target_segments below clean_threshold_segments"
  else if t.reserve_segments < 1 then err "reserve_segments must be >= 1"
  else if t.max_live_fraction <= 0.0 || t.max_live_fraction > 1.0 then
    err "max_live_fraction must be in (0, 1]"
  else Ok ()
