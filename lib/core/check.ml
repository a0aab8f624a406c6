module Inode = Lfs_vfs.Inode
module Audit = Lfs_vfs.Audit
module Bmap = Lfs_vfs.Bmap

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
          Bmap.iter Inode_store.map st e
            ~pointer:(fun _ addr -> add addr bs)
            ~data:(fun _ addr -> add addr bs)
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

let fsck (st : State.t) =
  let layout = st.layout in
  let issues = ref [] in
  let report i = issues := i :: !issues in
  (* Block-reference map: every live block must have exactly one owner
     and lie in the segment area. *)
  let owners = Hashtbl.create 1024 in
  let reference =
    Audit.reference owners report ~in_range:(fun addr ->
        addr >= layout.Layout.first_segment_block
        && addr < layout.Layout.total_blocks)
  in
  (* Walk every allocated inode's pointers. *)
  Audit.files Inode_store.map st ~max_files:(Imap.max_files st.imap)
    ~allocated:(Imap.is_allocated st.imap) ~find:(Inode_store.find st)
    reference report;
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
  Audit.double_references owners report;
  Audit.namespace ~root:State.root_inum ~max_files:(Imap.max_files st.imap)
    ~allocated:(Imap.is_allocated st.imap)
    ~entries:(fun dir -> Namespace.entries st ~dir)
    ~inode:(fun inum -> (Inode_store.find st inum).State.ino)
    report;
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
