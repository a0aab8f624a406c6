let recompute_usage (st : State.t) =
  let layout = st.layout in
  let bs = layout.Layout.block_size in
  let live = Array.make layout.Layout.nsegments 0 in
  let add addr bytes =
    if addr <> Layout.null_addr then begin
      let seg = Layout.segment_of_block layout addr in
      live.(seg) <- live.(seg) + bytes
    end
  in
  for inum = 1 to Imap.max_files st.imap - 1 do
    if Imap.is_allocated st.imap inum then begin
      (match Imap.location st.imap inum with
      | Some (addr, _slot) -> add addr Layout.inode_bytes
      | None -> ());
      (* An unreadable inode is {!fsck}'s to report; its blocks cannot
         be counted. *)
      match Inode_store.find st inum with
      | exception Lfs_vfs.Errors.Error _ -> ()
      | e ->
          let nblocks = Inode.nblocks ~block_size:bs e.State.ino in
          for blkno = 0 to nblocks - 1 do
            add (Inode_store.bmap_read st e blkno) bs
          done;
          add e.State.ino.Inode.indirect bs;
          if e.State.ino.Inode.dindirect <> Layout.null_addr then begin
            add e.State.ino.Inode.dindirect bs;
            for child = 0 to Layout.ptrs_per_block layout - 1 do
              add (Inode_store.dind_child_addr st e child) bs
            done
          end
    end
  done;
  Array.iter (fun addr -> add addr bs) st.imap_block_addr;
  Array.iter (fun addr -> add addr bs) st.usage_block_addr;
  live

let usage_drift (st : State.t) =
  let truth = recompute_usage st in
  let drift = ref [] in
  for seg = Seg_usage.nsegments st.usage - 1 downto 0 do
    let recorded = Seg_usage.live_bytes st.usage seg in
    if recorded <> truth.(seg) then drift := (seg, recorded, truth.(seg)) :: !drift
  done;
  !drift

type issue =
  | Double_reference of { addr : int; owners : string list }
  | Bad_dir_entry of { dir : int; name : string; inum : int }
  | Bad_nlink of { inum : int; nlink : int; entries : int }
  | Orphan_inode of { inum : int }
  | Unreadable of { inum : int; reason : string }
  | Address_out_of_range of { owner : string; addr : int }

let pp_issue ppf = function
  | Double_reference { addr; owners } ->
      Format.fprintf ppf "block %d referenced by: %s" addr
        (String.concat ", " owners)
  | Bad_dir_entry { dir; name; inum } ->
      Format.fprintf ppf "directory %d entry %S points at unallocated inum %d"
        dir name inum
  | Bad_nlink { inum; nlink; entries } ->
      Format.fprintf ppf "inum %d: nlink %d but %d directory entries" inum
        nlink entries
  | Orphan_inode { inum } ->
      Format.fprintf ppf "inum %d allocated but unreachable" inum
  | Unreadable { inum; reason } ->
      Format.fprintf ppf "inum %d unreadable: %s" inum reason
  | Address_out_of_range { owner; addr } ->
      Format.fprintf ppf "%s references out-of-range address %d" owner addr

let fsck (st : State.t) =
  let layout = st.layout in
  let bs = layout.Layout.block_size in
  let issues = ref [] in
  let report i = issues := i :: !issues in
  (* Block-reference map: every live block must have exactly one owner.
     The active in-memory segment is excluded: its blocks are not yet on
     disk. *)
  let owners : (int, string list) Hashtbl.t = Hashtbl.create 1024 in
  let reference ~owner addr =
    if addr <> Layout.null_addr then begin
      if
        addr < layout.Layout.first_segment_block
        || addr >= layout.Layout.total_blocks
      then report (Address_out_of_range { owner; addr })
      else begin
        let prev = Option.value ~default:[] (Hashtbl.find_opt owners addr) in
        Hashtbl.replace owners addr (owner :: prev)
      end
    end
  in
  (* Walk every allocated inode's pointers. *)
  for inum = 1 to Imap.max_files st.imap - 1 do
    if Imap.is_allocated st.imap inum then begin
      match Inode_store.find st inum with
      | exception Lfs_vfs.Errors.Error e ->
          report (Unreadable { inum; reason = Lfs_vfs.Errors.to_string e })
      | e ->
          let tag kind = Printf.sprintf "inum %d %s" inum kind in
          let nblocks = Inode.nblocks ~block_size:bs e.State.ino in
          for blkno = 0 to nblocks - 1 do
            reference ~owner:(tag (Printf.sprintf "block %d" blkno))
              (Inode_store.bmap_read st e blkno)
          done;
          reference ~owner:(tag "indirect") e.State.ino.Inode.indirect;
          if e.State.ino.Inode.dindirect <> Layout.null_addr then begin
            reference ~owner:(tag "dindirect") e.State.ino.Inode.dindirect;
            for child = 0 to Layout.ptrs_per_block layout - 1 do
              reference
                ~owner:(tag (Printf.sprintf "dind child %d" child))
                (Inode_store.dind_child_addr st e child)
            done
          end
    end
  done;
  (* Inode blocks may be shared by many inodes (one reference per block is
     enough); metadata blocks are single-owner. *)
  let inode_blocks = Hashtbl.create 64 in
  for inum = 1 to Imap.max_files st.imap - 1 do
    if Imap.is_allocated st.imap inum then
      match Imap.location st.imap inum with
      | Some (addr, _) ->
          if not (Hashtbl.mem inode_blocks addr) then begin
            Hashtbl.replace inode_blocks addr ();
            reference ~owner:"inode block" addr
          end
      | None -> ()
  done;
  Array.iteri
    (fun idx addr -> reference ~owner:(Printf.sprintf "imap block %d" idx) addr)
    st.imap_block_addr;
  Array.iteri
    (fun idx addr -> reference ~owner:(Printf.sprintf "usage block %d" idx) addr)
    st.usage_block_addr;
  Hashtbl.iter
    (fun addr os ->
      if List.length os > 1 then report (Double_reference { addr; owners = os }))
    owners;
  (* Namespace walk: every entry must resolve, every allocated inode must
     be referenced exactly once. *)
  let links = Hashtbl.create 256 in
  let rec walk dir =
    List.iter
      (fun (name, inum) ->
        if
          inum <= 0
          || inum >= Imap.max_files st.imap
          || not (Imap.is_allocated st.imap inum)
        then report (Bad_dir_entry { dir; name; inum })
        else begin
          Hashtbl.replace links inum
            (1 + Option.value ~default:0 (Hashtbl.find_opt links inum));
          match Inode_store.find st inum with
          | exception Lfs_vfs.Errors.Error e ->
              report (Unreadable { inum; reason = Lfs_vfs.Errors.to_string e })
          | e ->
              if e.State.ino.Inode.kind = Lfs_vfs.Fs_intf.Directory then
                walk inum
        end)
      (Namespace.entries st ~dir)
  in
  Hashtbl.replace links State.root_inum 1;
  walk State.root_inum;
  Hashtbl.iter
    (fun inum count ->
      match Inode_store.find st inum with
      | e ->
          if e.State.ino.Inode.nlink <> count then
            report
              (Bad_nlink { inum; nlink = e.State.ino.Inode.nlink; entries = count })
      | exception Lfs_vfs.Errors.Error _ -> ())
    links;
  for inum = 1 to Imap.max_files st.imap - 1 do
    if Imap.is_allocated st.imap inum && not (Hashtbl.mem links inum) then
      report (Orphan_inode { inum })
  done;
  List.rev !issues

(* --- Checkpoint/recovery cross-validation ---------------------------- *)

(* Compare two mounted states by their user-visible trees: same names,
   kinds, link counts, sizes and bytes at every path.  [expected] is the
   surviving pre-crash state (or a freshly checkpointed twin); [recovered]
   is what mount-time recovery reconstructed.  Divergence strings name
   the path so a failing recovery test points at the lost update. *)
let recovery_divergence ~(expected : State.t) ~(recovered : State.t) =
  let diffs = ref [] in
  let diff fmt = Printf.ksprintf (fun s -> diffs := s :: !diffs) fmt in
  let ino_of st inum = (Inode_store.find st inum).State.ino in
  let rec walk path a_inum b_inum =
    let a = ino_of expected a_inum and b = ino_of recovered b_inum in
    if a.Inode.kind <> b.Inode.kind then
      diff "%s: kind differs" path
    else begin
      if a.Inode.nlink <> b.Inode.nlink then
        diff "%s: nlink %d, recovered %d" path a.Inode.nlink b.Inode.nlink;
      match a.Inode.kind with
      | Lfs_vfs.Fs_intf.Regular ->
          if a.Inode.size <> b.Inode.size then
            diff "%s: size %d, recovered %d" path a.Inode.size b.Inode.size
          else begin
            let data st inum =
              Lfs_cache.File_read.read File_io.backing st
                (Inode_store.find st inum) ~inum ~off:0 ~len:a.Inode.size
            in
            if not (Bytes.equal (data expected a_inum) (data recovered b_inum))
            then diff "%s: content differs" path
          end
      | Lfs_vfs.Fs_intf.Directory ->
          let sorted st dir =
            List.sort compare (Namespace.entries st ~dir)
          in
          let ea = sorted expected a_inum and eb = sorted recovered b_inum in
          let names l = List.map fst l in
          List.iter
            (fun n ->
              if not (List.mem n (names eb)) then
                diff "%s/%s: missing after recovery" path n)
            (names ea);
          List.iter
            (fun n ->
              if not (List.mem n (names ea)) then
                diff "%s/%s: extra entry after recovery" path n)
            (names eb);
          List.iter
            (fun (n, a_child) ->
              match List.assoc_opt n eb with
              | Some b_child -> walk (path ^ "/" ^ n) a_child b_child
              | None -> ())
            ea
    end
  in
  walk "" State.root_inum State.root_inum;
  List.rev !diffs
