type t = {
  block_size : int;
  ngroups : int;
  inode_bytes_per_inode : int;
  cache_blocks : int;
  read_clustering : bool;
  readahead_blocks : int;
  writeback_age_us : int;
}

let default =
  {
    block_size = 8192;
    ngroups = 10;
    inode_bytes_per_inode = 4096;
    cache_blocks = 2048;
    read_clustering = true;
    readahead_blocks = 32;
    writeback_age_us = 30_000_000;
  }

let small =
  {
    block_size = 1024;
    ngroups = 4;
    inode_bytes_per_inode = 2048;
    cache_blocks = 64;
    read_clustering = true;
    readahead_blocks = 8;
    writeback_age_us = 30_000_000;
  }

let validate t =
  let err fmt = Printf.ksprintf (fun s -> Error s) fmt in
  if t.block_size <= 0 || t.block_size land (t.block_size - 1) <> 0 then
    err "block_size must be a positive power of two: %d" t.block_size
  else if t.ngroups < 1 then err "ngroups must be at least 1"
  else if t.inode_bytes_per_inode < 512 then
    err "inode_bytes_per_inode too small"
  else if t.cache_blocks <= 0 then err "cache_blocks must be positive"
  else if t.readahead_blocks < 0 then
    err "readahead_blocks must be non-negative (0 disables read-ahead)"
  else Ok ()
