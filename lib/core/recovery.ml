module Io = Lfs_disk.Io

let read_block (st : State.t) addr =
  Io.sync_read st.io
    ~sector:(Layout.sector_of_block st.layout addr)
    ~count:st.layout.Layout.block_sectors

let read_summary_region (st : State.t) first =
  Io.sync_read st.io
    ~sector:(Layout.sector_of_block st.layout first)
    ~count:(st.layout.Layout.summary_blocks * st.layout.Layout.block_sectors)

let read_region (st : State.t) which =
  let layout = st.layout in
  let addr =
    if which = `A then fst layout.Layout.cp_region
    else snd layout.Layout.cp_region
  in
  (* An unreadable region is no worse than a torn one: fall back to the
     other checkpoint copy. *)
  match
    Io.sync_read st.io
      ~sector:(Layout.sector_of_block layout addr)
      ~count:(layout.Layout.cp_blocks * layout.Layout.block_sectors)
  with
  | region -> Checkpoint.decode layout region
  | exception Io.Read_failed _ -> None

let load_checkpoint (st : State.t) (cp : Checkpoint.t) =
  (* A metadata block the checkpoint points at may have been clobbered:
     the cleaner relocates imap/usage blocks and reuses their segments
     without rewriting the checkpoint region (roll-forward replays the
     moved copies, which are always durable before the old segment is
     reused).  Tolerate garbage here; the replay below repairs it. *)
  let tolerant f =
    try f () with Lfs_util.Codec.Error _ | Io.Read_failed _ -> ()
  in
  Array.iteri
    (fun idx addr ->
      if addr <> Layout.null_addr then
        tolerant (fun () -> Imap.load_block st.imap ~idx (read_block st addr)))
    cp.Checkpoint.imap_addrs;
  Array.iteri
    (fun idx addr ->
      if addr <> Layout.null_addr then
        tolerant (fun () ->
            Seg_usage.load_block st.usage ~idx (read_block st addr)))
    cp.Checkpoint.usage_addrs;
  st.imap_block_addr <- Array.copy cp.Checkpoint.imap_addrs;
  st.usage_block_addr <- Array.copy cp.Checkpoint.usage_addrs;
  st.next_seq <- cp.Checkpoint.seq + 1;
  st.tail_segment <- cp.Checkpoint.tail_segment;
  st.last_cp_seq <- cp.Checkpoint.seq;
  if cp.Checkpoint.next_inum_hint > 0
     && cp.Checkpoint.next_inum_hint < st.layout.Layout.max_files
  then Imap.set_next_hint st.imap cp.Checkpoint.next_inum_hint;
  Imap.clear_dirty st.imap;
  Seg_usage.clear_dirty st.usage

(* Replay one post-checkpoint segment.  Inode blocks re-point the inode
   map at the newest inode copies (which carry all block pointers); other
   entries only refresh accounting hints. *)
let replay_segment (st : State.t) seg (header : Summary.header) entries payload =
  let layout = st.layout in
  let bs = layout.Layout.block_size in
  let now = header.Summary.timestamp_us in
  Seg_usage.reset_segment st.usage seg;
  Seg_usage.set_state st.usage seg Seg_usage.Dirty;
  List.iteri
    (fun idx entry ->
      let addr = Layout.segment_payload_block layout ~seg ~idx in
      let slice () = Bytes.sub payload (idx * bs) bs in
      match (entry : Summary.entry) with
      | Summary.Inode_block ->
          let block = slice () in
          let live = ref 0 in
          for slot = 0 to Layout.inodes_per_block layout - 1 do
            match Inode.decode_at block ~off:(slot * Layout.inode_bytes) with
            | None -> ()
            | Some ino ->
                let inum = ino.Inode.inum in
                if inum > 0 && inum < layout.Layout.max_files then begin
                  if not (Imap.is_allocated st.imap inum) then
                    Imap.alloc_specific st.imap inum ~now_us:now;
                  Imap.set_location st.imap inum ~addr ~slot;
                  incr live
                end
          done;
          Seg_usage.add_live st.usage seg ~bytes:(!live * Layout.inode_bytes)
            ~now_us:now
      | Summary.Data { inum; blkno = _; version } ->
          (* Accounting hint only; the block's pointer arrives with the
             file's replayed inode. *)
          if
            inum > 0
            && inum < layout.Layout.max_files
            && Imap.is_allocated st.imap inum
            && version = Imap.version st.imap inum
          then Seg_usage.add_live st.usage seg ~bytes:bs ~now_us:now
      | Summary.Indirect _ | Summary.Dindirect _ ->
          Seg_usage.add_live st.usage seg ~bytes:bs ~now_us:now
      | Summary.Imap_block { idx } ->
          Imap.load_block st.imap ~idx (slice ());
          st.imap_block_addr.(idx) <- addr;
          Seg_usage.add_live st.usage seg ~bytes:bs ~now_us:now
      | Summary.Usage_block { idx } ->
          Seg_usage.load_block st.usage ~idx (slice ());
          st.usage_block_addr.(idx) <- addr;
          Seg_usage.add_live st.usage seg ~bytes:bs ~now_us:now)
    entries;
  st.tail_segment <- seg;
  st.next_seq <- header.Summary.seq + 1;
  Lfs_obs.Metrics.incr st.counters.State.c_rollforward_segments;
  if Lfs_obs.Bus.enabled st.bus then
    Lfs_obs.Bus.emit st.bus
      (Lfs_obs.Event.Rollforward
         { seg; seq = header.Summary.seq; entries = List.length entries })

(* Whether an unfinished run of segments was dropped (see below). *)
let roll_forward (st : State.t) ~from_seq =
  let layout = st.layout in
  (* Find every segment whose summary claims a post-checkpoint sequence
     number, then walk them in order, stopping at the first gap or torn
     payload. *)
  let candidates = ref [] in
  for seg = 0 to layout.Layout.nsegments - 1 do
    let first = Layout.segment_first_block layout seg in
    (* A summary region that cannot be read (or decoded: a torn tail
       write leaves a bad CRC) simply offers no candidate — the log is
       truncated at the last valid summary. *)
    try
      let region = read_summary_region st first in
      match Summary.decode region with
      | Some (header, entries) when header.Summary.seq > from_seq ->
          candidates :=
            (header.Summary.seq, seg, header, entries, Summary.continues region)
            :: !candidates
      | Some _ | None -> ()
    with Io.Read_failed _ -> ()
  done;
  let ordered = List.sort compare !candidates in
  let expected = ref (from_seq + 1) in
  let stop = ref false in
  let replayed = ref [] in
  (* The segments of an inode-block run still open, newest first:
     replayed when the run's last segment turns up, dropped if the log
     ends first, so each flush is recovered all or none (DESIGN.md §8). *)
  let run = ref [] in
  let replay (seg, header, entries, payload) =
    replay_segment st seg header entries payload;
    replayed := seg :: !replayed
  in
  List.iter
    (fun (seq, seg, header, entries, continues) ->
      if (not !stop) && seq = !expected then begin
        let first = Layout.segment_first_block layout seg in
        let payload =
          if header.Summary.nblocks = 0 then Some (Bytes.create 0)
          else
            try
              Some
                (Io.sync_read st.io
                   ~sector:
                     (Layout.sector_of_block layout
                        (first + layout.Layout.summary_blocks))
                   ~count:(header.Summary.nblocks * layout.Layout.block_sectors))
            with Io.Read_failed _ -> None
        in
        match payload with
        | Some payload
          when Summary.payload_crc payload ~off:0 ~len:(Bytes.length payload)
               = header.Summary.payload_crc ->
            if continues then run := (seg, header, entries, payload) :: !run
            else begin
              List.iter replay (List.rev !run);
              run := [];
              replay (seg, header, entries, payload)
            end;
            incr expected
        | Some _ | None ->
            stop := true (* torn or unreadable: end of recoverable log *)
      end
      else stop := true)
    ordered;
  (* New segments start past a gap, so no later roll-forward chains a
     dropped run onto them; [recover] checkpoints past the gap. *)
  if !run <> [] then st.next_seq <- !expected + 1;
  (* A usage-array snapshot replayed mid-log predates later replayed
     segments and could wrongly record them clean; force them dirty so
     the allocator can never hand out a segment holding replayed data. *)
  List.iter
    (fun seg ->
      if Seg_usage.state st.usage seg = Seg_usage.Clean then
        Seg_usage.set_state st.usage seg Seg_usage.Dirty)
    !replayed;
  !run <> []

(* After roll-forward the namespace is current (directory blocks arrive
   via replayed inodes) but the inode map may still hold post-checkpoint
   casualties: inodes whose last name was deleted (the unlink reached the
   log, the imap free did not — it is only logged at checkpoints), and
   link counts out of step with the replayed directories.  Sweep once,
   fsck-style: free nameless inodes, repair nlink. *)
let repair_namespace (st : State.t) =
  match
    let counts = Hashtbl.create 256 in
    let dangling = ref [] in
    let rec walk dir =
      List.iter
        (fun (name, inum) ->
          let resolvable =
            inum > 0
            && inum < Imap.max_files st.imap
            && Imap.is_allocated st.imap inum
            && (match Inode_store.find st inum with
               | _ -> true
               | exception Lfs_vfs.Errors.Error _ -> false)
          in
          if not resolvable then
            (* The directory block outlived its file's inode (e.g. an
               fsync persisted the entry but the crash beat the inode to
               the log): prune it. *)
            dangling := (dir, name) :: !dangling
          else begin
            let seen = Hashtbl.mem counts inum in
            Hashtbl.replace counts inum
              (1 + Option.value ~default:0 (Hashtbl.find_opt counts inum));
            if not seen then begin
              match Inode_store.find st inum with
              | e when e.State.ino.Inode.kind = Lfs_vfs.Fs_intf.Directory ->
                  walk inum
              | _ | (exception Lfs_vfs.Errors.Error _) -> ()
            end
          end)
        (Namespace.entries st ~dir)
    in
    Hashtbl.replace counts State.root_inum 1;
    walk State.root_inum;
    List.iter
      (fun (dir, name) ->
        try Namespace.remove st ~dir name
        with Lfs_vfs.Errors.Error _ -> ())
      !dangling;
    for inum = 1 to Imap.max_files st.imap - 1 do
      if Imap.is_allocated st.imap inum then begin
        match Hashtbl.find_opt counts inum with
        | None -> (
            (* Nameless: its unlink survived the crash, its inode-map
               free did not. *)
            try Inode_store.delete st inum
            with Lfs_vfs.Errors.Error _ | Failure _ -> Imap.free st.imap inum)
        | Some entries -> (
            match Inode_store.find st inum with
            | e ->
                if e.State.ino.Inode.nlink <> entries then begin
                  e.State.ino.Inode.nlink <- entries;
                  Inode_store.mark_dirty st e
                end
            | exception Lfs_vfs.Errors.Error _ -> ())
      end
    done
  with
  | () -> ()
  | exception _ ->
      (* A repair pass must never prevent mounting. *)
      ()

let recover io config layout =
  let st = State.create io config layout in
  let cp = Checkpoint.choose (read_region st `A) (read_region st `B) in
  match cp with
  | None -> Error "no valid checkpoint region: disk is not a (complete) LFS"
  | Some cp ->
      load_checkpoint st cp;
      let stranded = ref false in
      if config.Config.roll_forward then begin
        let dropped =
          Lfs_obs.Bus.with_span st.bus "roll_forward" (fun () ->
              roll_forward st ~from_seq:cp.Checkpoint.seq)
        in
        (* A dropped run also needs the checkpoint below: it moves the
           log's start past the dropped sequence numbers. *)
        if
          Lfs_obs.Metrics.value st.counters.State.c_rollforward_segments > 0
          || dropped
        then begin
          repair_namespace st;
          (* The per-entry estimates accumulated during replay cannot be
             exact: a segment's data blocks precede the inode block that
             allocates their file, and blocks superseded post-checkpoint
             are still counted in their old segments (the incremental
             deltas died with the crash, and sync never logs usage
             blocks).  The imap and namespace are now authoritative, so
             reconcile the whole array against recomputed ground truth —
             the cleaner picks victims by these counts (§4.3.4). *)
          let truth = Check.recompute_usage st in
          Array.iteri
            (fun seg bytes -> Seg_usage.set_live st.usage seg ~bytes)
            truth;
          (* Make the next crash recover instantly from what we just
             replayed.  On a log with no clean segments the checkpoint
             cannot be written, and the next mount simply replays again
             — unless a run was dropped: new segments then start past a
             gap that a second roll-forward would stop at, losing
             everything synced since, so the mount fails. *)
          try Write_path.checkpoint st
          with Lfs_vfs.Errors.Error Lfs_vfs.Errors.Enospc -> stranded := dropped
        end
      end;
      if !stranded then
        Error "recovery dropped an unfinished flush and cannot checkpoint past it"
      else begin
        st.last_checkpoint_us <- Io.now_us st.io;
        Ok st
      end
