module Bus = Lfs_obs.Bus
module Event = Lfs_obs.Event
module Io = Lfs_disk.Io

type ('fs, 'file) backing = {
  io : 'fs -> Io.t;
  cache : 'fs -> Block_cache.t;
  readahead : 'fs -> Readahead.t;
  block_size : 'fs -> int;
  clustering : 'fs -> bool;
  size : 'file -> int;
  null_addr : int;
  bmap : 'fs -> 'file -> int -> int;
  on_disk : 'fs -> int -> bool;
  fetch : 'fs -> inum:int -> blkno:int -> addr:int -> bytes;
  sector_of_block : 'fs -> int -> int;
  fill_span : Bus.t -> (unit -> bytes array) -> bytes array;
  prefetch_span : Bus.t -> (unit -> unit) -> unit;
}

(* [n] physically contiguous blocks in one disk request, one buffer per
   block taken from the cache's spares, each cached clean.  The caller
   guarantees none is cached or unreadable from disk.  Returns the
   cached buffers; a run longer than the cache evicts its own first
   blocks, so they are read before the next {!Block_cache.take}. *)
let read_run b fs ~inum ~first_blkno ~addr ~n =
  let bs = b.block_size fs in
  let cache = b.cache fs in
  let blocks = Array.init n (fun _ -> Block_cache.take cache bs) in
  let io = b.io fs in
  Io.sync_read_into io ~sector:(b.sector_of_block fs addr) blocks;
  if n > 1 then Io.note_clustered_read io ~blocks:n;
  for i = 0 to n - 1 do
    Block_cache.insert cache
      { Block_cache.owner = inum; blkno = first_blkno + i }
      ~dirty:false blocks.(i)
  done;
  blocks

(* How many blocks starting at [blkno]/[addr] can go in one request:
   logical blocks up to [max_blkno] at consecutive addresses, none
   cached and all readable from disk. *)
let probe_run b fs file ~inum ~blkno ~addr ~max_blkno =
  let cache = b.cache fs in
  let n = ref 1 in
  let continue = ref true in
  while !continue && blkno + !n <= max_blkno do
    let next = blkno + !n in
    let next_addr = b.bmap fs file next in
    if
      next_addr = addr + !n
      && (not (Block_cache.mem cache { Block_cache.owner = inum; blkno = next }))
      && b.on_disk fs next_addr
    then incr n
    else continue := false
  done;
  !n

(* The disk work of one read miss: the clustered run starting at
   [blkno], or the one block. *)
let fill b fs file ~inum ~blkno ~addr ~max_blkno =
  if b.clustering fs && b.on_disk fs addr then
    read_run b fs ~inum ~first_blkno:blkno ~addr
      ~n:(probe_run b fs file ~inum ~blkno ~addr ~max_blkno)
  else [| b.fetch fs ~inum ~blkno ~addr |]

(* One read-ahead run: fetched, counted issued, announced. *)
let issue b fs ~inum ~first_blkno ~addr ~n =
  let bus = Io.bus (b.io fs) in
  let go () =
    ignore (read_run b fs ~inum ~first_blkno ~addr ~n);
    let ra = b.readahead fs in
    for i = 0 to n - 1 do
      Readahead.mark_issued ra ~owner:inum ~blkno:(first_blkno + i)
    done;
    if Bus.enabled bus then
      Bus.emit bus
        (Event.Readahead { owner = inum; start = first_blkno; blocks = n })
  in
  if Bus.enabled bus then b.prefetch_span bus go else go ()

(* Issue the planned read-ahead window [start, start + count): clamp to
   the file, skip holes, cached blocks and blocks not on disk yet, and
   fetch what remains as contiguous runs. *)
let prefetch b fs file ~inum ~start ~count =
  let bs = b.block_size fs in
  let size = b.size file in
  let max_blkno = if size = 0 then -1 else (size - 1) / bs in
  let last = min (start + count - 1) max_blkno in
  let cache = b.cache fs in
  let run_first = ref 0 in
  let run_addr = ref b.null_addr in
  let run_n = ref 0 in
  for blkno = start to last do
    let addr =
      if Block_cache.mem cache { Block_cache.owner = inum; blkno } then
        b.null_addr
      else b.bmap fs file blkno
    in
    if addr <> b.null_addr && b.on_disk fs addr then begin
      if !run_n > 0 && addr = !run_addr + !run_n then incr run_n
      else begin
        if !run_n > 0 then
          issue b fs ~inum ~first_blkno:!run_first ~addr:!run_addr
            ~n:!run_n;
        run_first := blkno;
        run_addr := addr;
        run_n := 1
      end
    end
    else begin
      if !run_n > 0 then
        issue b fs ~inum ~first_blkno:!run_first ~addr:!run_addr ~n:!run_n;
      run_n := 0
    end
  done;
  if !run_n > 0 then
    issue b fs ~inum ~first_blkno:!run_first ~addr:!run_addr ~n:!run_n

let read b fs file ~inum ~off ~len =
  let io = b.io fs in
  let cache = b.cache fs in
  let ra = b.readahead fs in
  let bs = b.block_size fs in
  let len = max 0 (min len (b.size file - off)) in
  let result = Bytes.make len '\000' in
  let max_blkno = if len = 0 then -1 else (off + len - 1) / bs in
  (* The blocks of the most recent miss's run are taken from it rather
     than looked up again. *)
  let run_first = ref 0 in
  let run_blocks = ref [||] in
  let pos = ref 0 in
  while !pos < len do
    let abs = off + !pos in
    let blkno = abs / bs in
    let in_block = abs mod bs in
    let chunk = min (len - !pos) (bs - in_block) in
    if blkno >= !run_first && blkno < !run_first + Array.length !run_blocks
    then
      Bytes.blit !run_blocks.(blkno - !run_first) in_block result !pos chunk
    else begin
      match Block_cache.find cache { Block_cache.owner = inum; blkno } with
      | Some block ->
          Readahead.served ra ~owner:inum ~blkno ~hit:true;
          Bytes.blit block in_block result !pos chunk
      | None ->
          Readahead.served ra ~owner:inum ~blkno ~hit:false;
          let addr = b.bmap fs file blkno in
          (* A hole on disk reads as zeros (a dirty overlay for the hole
             would have been found in the cache above). *)
          if addr <> b.null_addr then begin
            let bus = Io.bus io in
            let run =
              if Bus.enabled bus then
                b.fill_span bus (fun () ->
                    fill b fs file ~inum ~blkno ~addr ~max_blkno)
              else fill b fs file ~inum ~blkno ~addr ~max_blkno
            in
            run_first := blkno;
            run_blocks := run;
            Bytes.blit run.(0) in_block result !pos chunk
          end
    end;
    pos := !pos + chunk
  done;
  (if len > 0 then
     match Readahead.observe ra ~owner:inum ~first:(off / bs) ~last:max_blkno with
     | None -> ()
     | Some (start, count) -> prefetch b fs file ~inum ~start ~count);
  Io.charge_copy io ~bytes:len;
  result
