module Cache = Lfs_cache.Block_cache
module Errors = Lfs_vfs.Errors
module Io = Lfs_disk.Io
module Metrics = Lfs_obs.Metrics
module Bus = Lfs_obs.Bus
module Event = Lfs_obs.Event

let select_victims ?live_budget (st : State.t) ~batch =
  let usage = st.usage in
  let now = Io.now_us st.io in
  let candidates = ref [] in
  (* The dirty set is maintained by [Seg_usage.set_state]: no full
     segment-table sweep per cleaning pass.  Iteration order is
     arbitrary; the (score, seg) sort below makes selection
     deterministic. *)
  Seg_usage.iter_dirty
    (fun seg ->
      if Seg_usage.utilization usage seg < st.config.Config.max_live_fraction
      then candidates := seg :: !candidates)
    usage;
  let score seg =
    match st.policy with
    | Config.Greedy -> float_of_int (Seg_usage.live_bytes usage seg)
    | Config.Oldest -> float_of_int (Seg_usage.mtime_us usage seg)
    | Config.Cost_benefit ->
        (* Higher benefit/cost is better; negate so that sorting ascending
           picks the best first. *)
        let u = Seg_usage.utilization usage seg in
        let age = float_of_int (max 1 (now - Seg_usage.mtime_us usage seg)) in
        -.((1.0 -. u) *. age /. (1.0 +. u))
  in
  let scored = List.map (fun s -> (score s, s)) !candidates in
  let sorted = List.map snd (List.sort compare scored) in
  (* Bound the pass by what the evacuation itself will consume: take
     victims while their combined live data stays within one segment's
     payload.  Dead segments cost nothing to clean, so a long run of them
     can be freed in a single pass. *)
  let payload_budget =
    match live_budget with
    | Some b -> b
    | None -> st.layout.Layout.payload_blocks * st.layout.Layout.block_size
  in
  let rec take taken live_sum n = function
    | [] -> List.rev taken
    | _ when n >= batch -> List.rev taken
    | seg :: rest ->
        let live = Seg_usage.live_bytes usage seg in
        if taken <> [] && live_sum + live > payload_budget then List.rev taken
        else take (seg :: taken) (live_sum + live) (n + 1) rest
  in
  take [] 0 0 sorted

let release (st : State.t) addr ~bytes =
  if addr <> Layout.null_addr then
    Seg_usage.sub_live st.usage (Layout.segment_of_block st.layout addr) ~bytes

(* A missing or unreadable inode (possible after recovery from a heavily
   damaged log) means nothing it owned is live.  A loaded inode is
   returned in the table's own [Some], without allocating. *)
let find_entry (st : State.t) inum =
  match Inode_store.find_loaded st inum with
  | Some _ as found -> found
  | None -> (
      match Inode_store.find st inum with
      | e -> Some e
      | exception Errors.Error _ -> None)

(* The owner of the block at [addr] if that block is still referenced.
   Step 1 is the version check from the summary entry alone; step 2
   walks the inode map and inode (§4.3.3). *)
let live_data_owner (st : State.t) ~inum ~blkno ~version ~addr =
  if Imap.is_allocated st.imap inum && version = Imap.version st.imap inum
  then
    match find_entry st inum with
    | Some e as found when Inode_store.bmap_read st e blkno = addr -> found
    | Some _ | None -> None
  else None

(* Relocate one live data block of [e] (the block at [off] in
   [payload], described by entry [idx] of the victim's [summary], which
   is the moved copy's entry too): append it to the log immediately and
   re-point the file at the copy.  A dirty cache copy is newer than the
   on-disk one, so it is what gets written (and becomes clean). *)
let move_data_block (st : State.t) e ~summary ~idx ~inum ~blkno payload ~off =
  let bs = st.layout.Layout.block_size in
  let addr' =
    match Cache.find_block st.cache ~owner:inum ~blkno with
    | Some b ->
        Segwriter.append_moved st ~summary ~entry:idx ~live_bytes:bs ~off:0 b
    | None ->
        Segwriter.append_moved st ~summary ~entry:idx ~live_bytes:bs ~off
          payload
  in
  let old = Inode_store.bmap_write st e blkno addr' in
  release st old ~bytes:bs;
  Cache.mark_clean_block st.cache ~owner:inum ~blkno

(* Hand the copy of a pointer block we already read to the cache, so
   loading the map does not re-read the disk.  The cache keeps what it is
   given, so it gets its own copy. *)
let cache_block (st : State.t) ~addr payload ~off =
  Cache.insert st.cache (Block_io.key_raw addr) ~dirty:false
    (Bytes.sub payload off st.layout.Layout.block_size)

(* The block at [addr] is the [block_size] bytes at [off] in [payload],
   described by a non-data [entry].  [moved] accumulates the *bytes* of
   live data being relocated. *)
let process_entry (st : State.t) ~addr payload ~off entry ~moved =
  let bs = st.layout.Layout.block_size in
  match (entry : Summary.entry) with
  | Summary.Data _ -> assert false (* read in place by [process_block] *)
  | Summary.Indirect { inum; idx } ->
      if Imap.is_allocated st.imap inum then begin
        match find_entry st inum with
        | None -> ()
        | Some e ->
            cache_block st ~addr payload ~off;
            if idx = 0 then begin
              if e.ino.Inode.indirect = addr then begin
                Inode_store.cleaner_touch_ind st e;
                moved := !moved + bs
              end
            end
            else begin
              let child = idx - 1 in
              if Inode_store.dind_child_addr st e child = addr then begin
                Inode_store.cleaner_touch_dind_child st e child;
                moved := !moved + bs
              end
            end
      end
  | Summary.Dindirect { inum } ->
      if Imap.is_allocated st.imap inum then begin
        match find_entry st inum with
        | None -> ()
        | Some e ->
            if e.ino.Inode.dindirect = addr then begin
              cache_block st ~addr payload ~off;
              Inode_store.cleaner_touch_dind_top st e;
              moved := !moved + bs
            end
      end
  | Summary.Inode_block ->
      let per_block = Layout.inodes_per_block st.layout in
      for slot = 0 to per_block - 1 do
        let ino_off = off + (slot * Layout.inode_bytes) in
        (* Liveness needs only the slot's inum and the inode map, so a
           dead slot is never decoded. *)
        let inum = Inode.inum_at payload ~off:ino_off in
        if
          inum > 0
          && inum < Imap.max_files st.imap
          && Imap.is_allocated st.imap inum
          && Imap.located_at st.imap inum ~addr ~slot
        then
          (* Live inode: force a rewrite.  A loaded entry is newer than
             the slot, so the slot is decoded only to load it. *)
          match Inode_store.find_loaded st inum with
          | Some e ->
              Inode_store.mark_dirty st e;
              moved := !moved + Layout.inode_bytes
          | None -> (
              match Inode.decode_at payload ~off:ino_off with
              | None -> ()
              | Some ino ->
                  Inode_store.mark_dirty st (Inode_store.materialize st ino);
                  moved := !moved + Layout.inode_bytes)
      done
  | Summary.Imap_block { idx } ->
      if st.imap_block_addr.(idx) = addr then begin
        Imap.mark_block_dirty st.imap idx;
        moved := !moved + bs
      end
  | Summary.Usage_block { idx } ->
      if st.usage_block_addr.(idx) = addr then begin
        Seg_usage.mark_block_dirty st.usage idx;
        moved := !moved + bs
      end

(* Block [idx] of a victim, at [addr] and at [off] in [payload].  Most
   entries are data entries, so theirs are read in place rather than
   decoded into a record. *)
let process_block (st : State.t) ~addr payload ~off summary idx ~moved =
  if Summary.is_data_at summary idx then begin
    let inum = Summary.data_inum_at summary idx
    and blkno = Summary.data_blkno_at summary idx in
    match
      live_data_owner st ~inum ~blkno
        ~version:(Summary.data_version_at summary idx)
        ~addr
    with
    | Some e ->
        move_data_block st e ~summary ~idx ~inum ~blkno payload ~off;
        moved := !moved + st.layout.Layout.block_size
    | None -> ()
  end
  else
    process_entry st ~addr payload ~off (Summary.entry_at summary idx) ~moved

(* Every victim is read into the same two buffers: nothing keeps a
   reference into them past [clean_segment] ([Segwriter.append_moved] copies
   the blocks it moves, [cache_block] copies what it caches). *)
let victim_buffers (st : State.t) =
  let layout = st.layout in
  let bs = layout.Layout.block_size in
  if Bytes.length st.victim_payload = 0 then begin
    st.victim_summary <- Bytes.create (layout.Layout.summary_blocks * bs);
    st.victim_payload <- Bytes.create (layout.Layout.payload_blocks * bs)
  end;
  (st.victim_summary, st.victim_payload)

let clean_segment (st : State.t) seg ~moved ~max_seq =
  let layout = st.layout in
  let bs = layout.Layout.block_size in
  let first = Layout.segment_first_block layout seg in
  let summary_region, payload = victim_buffers st in
  Io.sync_read_into st.io
    ~sector:(Layout.sector_of_block layout first)
    [| summary_region |];
  Metrics.add st.counters.State.c_cleaner_bytes_read
    (layout.Layout.summary_blocks * bs);
  (* The summary is walked where it was read: one entry at a time, no
     entry list. *)
  match Summary.decode_header summary_region with
  | Some { Summary.nblocks; seq; _ }
    when 0 < nblocks && nblocks <= layout.Layout.payload_blocks ->
      max_seq := max !max_seq seq;
      Io.sync_read_into st.io ~len:(nblocks * bs)
        ~sector:
          (Layout.sector_of_block layout (first + layout.Layout.summary_blocks))
        [| payload |];
      Metrics.add st.counters.State.c_cleaner_bytes_read (nblocks * bs);
      for idx = 0 to nblocks - 1 do
        let addr = Layout.segment_payload_block layout ~seg ~idx in
        process_block st ~addr payload ~off:(idx * bs) summary_region idx
          ~moved
      done
  | Some _ | None ->
      (* No valid summary: nothing live can be in this segment (it was
         torn by a crash before any checkpoint referenced it). *)
      ()

(* Evacuate [victims] and mark them clean; the shared machinery behind
   both policy-driven and exact cleaning. *)
let clean_victims (st : State.t) victims =
  if victims = [] then 0
  else begin
    st.cleaning <- true;
    Fun.protect
      ~finally:(fun () -> st.cleaning <- false)
      (fun () ->
        Bus.with_span st.bus "cleaner_pass" @@ fun () ->
        let read_before =
          Metrics.value st.counters.State.c_cleaner_bytes_read
        in
        let moved = ref 0 in
        let max_seq = ref 0 in
        List.iter (fun seg -> clean_segment st seg ~moved ~max_seq) victims;
        Metrics.add st.counters.State.c_cleaner_bytes_moved !moved;
        (* Persist the evacuations (pointer blocks, inodes, imap/usage
           blocks) and wait for the device before the victims become
           reusable.  Crash recovery reaches the moved copies by rolling
           the log forward; when roll-forward is disabled a full
           checkpoint takes that role (the 1990 paper's configuration).
           Freeing dead segments moved nothing, so nothing needs
           persisting. *)
        match
          if !moved > 0 then begin
            Write_path.flush_metadata st ~privilege:`System;
            Write_path.flush_meta_blocks st ~privilege:`System;
            Segwriter.flush_active st;
            Io.drain st.io;
            (* Reusing a victim that carried post-checkpoint log would
               punch a hole in the roll-forward sequence chain, so commit
               a checkpoint first.  (With roll-forward disabled every
               pass checkpoints, as in the 1990 implementation.) *)
            if (not st.config.Config.roll_forward) || !max_seq > st.last_cp_seq
            then Write_path.checkpoint st
          end
        with
        | () ->
            List.iter
              (fun seg ->
                Seg_usage.reset_segment st.usage seg;
                Seg_usage.set_state st.usage seg Seg_usage.Clean)
              victims;
            let n = List.length victims in
            Metrics.add st.counters.State.c_segments_cleaned n;
            Metrics.incr st.counters.State.c_cleaner_passes;
            if Bus.enabled st.bus then
              Bus.emit st.bus
                (Event.Cleaner_pass
                   {
                     victims = n;
                     freed = n;
                     bytes_read =
                       Metrics.value st.counters.State.c_cleaner_bytes_read
                       - read_before;
                     bytes_moved = !moved;
                   });
            n
        | exception Errors.Error Errors.Enospc ->
            (* Could not persist the evacuations: the victims must stay
               dirty (the moved copies remain merely redundant). *)
            0)
  end

(* Reusing a segment that carries the only copy of post-checkpoint log
   would punch a hole in the roll-forward chain.  Checkpointing before a
   cleaning round makes every existing segment reusable; the exact
   [max_seq] guard in [clean_victims] backstops the rare case where a
   round cleans its own output. *)
let checkpoint_if_log_uncovered (st : State.t) =
  if st.next_seq - 1 > st.last_cp_seq then Write_path.checkpoint st

let clean_once (st : State.t) ~batch =
  if batch <= 0 then invalid_arg "Cleaner.clean_once: batch must be positive";
  (* Budget the evacuation by the headroom actually available: moving
     more live data per pass amortizes the fixed metadata flush, but the
     moves must fit in the clean segments at hand. *)
  let seg_payload =
    st.layout.Layout.payload_blocks * st.layout.Layout.block_size
  in
  let live_budget = max 1 (Seg_usage.nclean st.usage - 2) * seg_payload in
  clean_victims st (select_victims ~live_budget st ~batch)

let clean_exact (st : State.t) ~victims =
  (try checkpoint_if_log_uncovered st
   with Errors.Error Errors.Enospc -> ());
  let victims =
    List.filter (fun seg -> Seg_usage.state st.usage seg = Seg_usage.Dirty)
      victims
  in
  (* Chunk by live budget so each pass's evacuation stays bounded. *)
  let payload_budget =
    st.layout.Layout.payload_blocks * st.layout.Layout.block_size
  in
  let rec chunks acc cur cur_live = function
    | [] -> List.rev (if cur = [] then acc else List.rev cur :: acc)
    | seg :: rest ->
        let live = Seg_usage.live_bytes st.usage seg in
        if cur <> [] && cur_live + live > payload_budget then
          chunks (List.rev cur :: acc) [ seg ] live rest
        else chunks acc (seg :: cur) (cur_live + live) rest
  in
  List.fold_left
    (fun freed chunk -> freed + clean_victims st chunk)
    0
    (chunks [] [] 0 victims)

let default_batch = 16

let clean_to_target ?target (st : State.t) =
  if st.cleaning then 0
  else begin
    (try checkpoint_if_log_uncovered st
     with Errors.Error Errors.Enospc -> ());
    let target =
      match target with
      | Some t -> t
      | None -> st.config.Config.clean_target_segments
    in
    let target = min target (Seg_usage.nsegments st.usage) in
    let freed = ref 0 in
    let continue = ref true in
    while !continue && Seg_usage.nclean st.usage < target do
      let before = Seg_usage.nclean st.usage in
      let n = clean_once st ~batch:default_batch in
      freed := !freed + n;
      (* Cleaning writes a partial segment of its own, so "every segment
         clean" is unreachable; stop when a pass no longer nets clean
         segments. *)
      if n = 0 || Seg_usage.nclean st.usage <= before then continue := false
    done;
    !freed
  end

let write_cost (st : State.t) =
  let bs = st.layout.Layout.block_size in
  let v c = Metrics.value c in
  let logged = v st.counters.State.c_blocks_logged * bs in
  let bytes_read = v st.counters.State.c_cleaner_bytes_read in
  let bytes_moved = v st.counters.State.c_cleaner_bytes_moved in
  let overhead = bytes_read + bytes_moved in
  let new_data = logged - bytes_moved in
  if new_data <= 0 then 1.0
  else float_of_int (logged + overhead - bytes_moved) /. float_of_int new_data
