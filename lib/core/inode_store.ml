module Bitset = Lfs_util.Bitset
module Cache = Lfs_cache.Block_cache
module Errors = Lfs_vfs.Errors

let ptrs_of_bytes block n = Array.init n (fun i -> Bytes.get_int32_le block (i * 4) |> Int32.to_int |> ( land ) 0xFFFFFFFF)

(* Every raise of a dirty flag goes through here, so [dirty_inodes]
   walks the set instead of the whole table. *)
let note_dirty (st : State.t) (e : State.itable_entry) =
  Bitset.set st.dirty_inums e.ino.Inode.inum

let mark_dirty st (e : State.itable_entry) =
  e.ino_dirty <- true;
  note_dirty st e

(* The table is indexed by inum; a slot's [Some] is allocated here, once,
   so lookups return it as it is. *)
let insert (st : State.t) ino =
  let e = State.fresh_itable_entry ino in
  let inum = ino.Inode.inum in
  (match st.itable.(inum) with
  | None -> st.itable_loaded <- st.itable_loaded + 1
  | Some _ -> ());
  st.itable.(inum) <- Some e;
  e

let remove (st : State.t) inum =
  match st.itable.(inum) with
  | Some _ ->
      st.itable.(inum) <- None;
      st.itable_loaded <- st.itable_loaded - 1
  | None -> ()

let add_new st ino =
  let e = insert st ino in
  mark_dirty st e;
  e

let find_loaded (st : State.t) inum =
  if inum >= 0 && inum < Array.length st.itable then
    st.itable.(inum)
  else None

let materialize st ino =
  match find_loaded st ino.Inode.inum with
  | Some e -> e
  | None -> insert st ino

let find (st : State.t) inum =
  match find_loaded st inum with
  | Some e -> e
  | None ->
      if not (Imap.is_allocated st.imap inum) then
        Errors.raise_ (Errors.Enoent (Printf.sprintf "inum %d" inum));
      (match Imap.location st.imap inum with
      | None ->
          (* Allocated but locationless: normally impossible, but a
             recovered inode map that lost entries to a clobbered block
             can surface it — report the file missing rather than die. *)
          Errors.raise_ (Errors.Enoent (Printf.sprintf "inum %d (no inode)" inum))
      | Some (addr, slot) ->
          let block = Block_io.read_raw st addr in
          (match Inode.decode_at block ~off:(slot * Layout.inode_bytes) with
          | Some ino when ino.Inode.inum = inum -> materialize st ino
          | Some _ | None ->
              Errors.raise_
                (Errors.Enoent
                   (Printf.sprintf "inum %d (stale inode map entry)" inum))
          | exception Lfs_util.Codec.Error m ->
              Errors.raise_
                (Errors.Ecorrupt
                   (Printf.sprintf "inum %d (block %d slot %d): %s" inum addr
                      slot m))))

let ppb (st : State.t) = Layout.ptrs_per_block st.layout

(* Loads for reading return [None] when the structure does not exist (the
   whole range is a hole). *)

let load_ind_for_read st (e : State.itable_entry) =
  match e.ind_map with
  | Some m -> Some m
  | None ->
      if e.ino.Inode.indirect = Layout.null_addr then None
      else begin
        let m = ptrs_of_bytes (Block_io.read_raw st e.ino.Inode.indirect) (ppb st) in
        e.ind_map <- Some m;
        Some m
      end

let ensure_dind_arrays st (e : State.itable_entry) =
  if Array.length e.dind_children = 0 then begin
    e.dind_children <- Array.make (ppb st) None;
    e.dind_child_dirty <- Bitset.create (ppb st)
  end

let load_dind_top_for_read st (e : State.itable_entry) =
  match e.dind_top with
  | Some m -> Some m
  | None ->
      if e.ino.Inode.dindirect = Layout.null_addr then None
      else begin
        let m =
          ptrs_of_bytes (Block_io.read_raw st e.ino.Inode.dindirect) (ppb st)
        in
        ensure_dind_arrays st e;
        e.dind_top <- Some m;
        Some m
      end

let load_dind_child_for_read st (e : State.itable_entry) child =
  ensure_dind_arrays st e;
  match e.dind_children.(child) with
  | Some m -> Some m
  | None -> (
      match load_dind_top_for_read st e with
      | None -> None
      | Some top ->
          if top.(child) = Layout.null_addr then None
          else begin
            let m = ptrs_of_bytes (Block_io.read_raw st top.(child)) (ppb st) in
            e.dind_children.(child) <- Some m;
            Some m
          end)

let bmap_read st (e : State.itable_entry) blkno =
  if blkno < 0 then invalid_arg "bmap_read: negative block";
  let p = ppb st in
  if blkno < Inode.ndirect then e.ino.Inode.direct.(blkno)
  else if blkno < Inode.ndirect + p then begin
    match load_ind_for_read st e with
    | None -> Layout.null_addr
    | Some m -> m.(blkno - Inode.ndirect)
  end
  else begin
    let d = blkno - Inode.ndirect - p in
    let child = d / p and off = d mod p in
    if child >= p then Errors.raise_ Errors.Efbig;
    match load_dind_child_for_read st e child with
    | None -> Layout.null_addr
    | Some m -> m.(off)
  end

(* Loads for writing materialize missing structures as all-holes maps. *)

let ensure_ind_for_write st (e : State.itable_entry) =
  match load_ind_for_read st e with
  | Some m -> m
  | None ->
      let m = Array.make (ppb st) Layout.null_addr in
      e.ind_map <- Some m;
      e.ind_dirty <- true;
      note_dirty st e;
      m

let ensure_dind_top_for_write st (e : State.itable_entry) =
  match load_dind_top_for_read st e with
  | Some m -> m
  | None ->
      ensure_dind_arrays st e;
      let m = Array.make (ppb st) Layout.null_addr in
      e.dind_top <- Some m;
      e.dind_top_dirty <- true;
      note_dirty st e;
      m

let ensure_dind_child_for_write st (e : State.itable_entry) child =
  let _top = ensure_dind_top_for_write st e in
  match load_dind_child_for_read st e child with
  | Some m -> m
  | None ->
      let m = Array.make (ppb st) Layout.null_addr in
      e.dind_children.(child) <- Some m;
      Bitset.set e.dind_child_dirty child;
      note_dirty st e;
      m

let bmap_write st (e : State.itable_entry) blkno addr =
  if blkno < 0 then invalid_arg "bmap_write: negative block";
  let p = ppb st in
  if blkno < Inode.ndirect then begin
    let old = e.ino.Inode.direct.(blkno) in
    e.ino.Inode.direct.(blkno) <- addr;
    mark_dirty st e;
    old
  end
  else if blkno < Inode.ndirect + p then begin
    let m = ensure_ind_for_write st e in
    let old = m.(blkno - Inode.ndirect) in
    m.(blkno - Inode.ndirect) <- addr;
    e.ind_dirty <- true;
    note_dirty st e;
    old
  end
  else begin
    let d = blkno - Inode.ndirect - p in
    let child = d / p and off = d mod p in
    if child >= p then Errors.raise_ Errors.Efbig;
    let m = ensure_dind_child_for_write st e child in
    let old = m.(off) in
    m.(off) <- addr;
    Bitset.set e.dind_child_dirty child;
    note_dirty st e;
    old
  end

let dind_child_addr st (e : State.itable_entry) child =
  if child < 0 || child >= ppb st then invalid_arg "dind_child_addr";
  match load_dind_top_for_read st e with
  | None -> Layout.null_addr
  | Some top -> top.(child)

let cleaner_touch_ind st (e : State.itable_entry) =
  match load_ind_for_read st e with
  | None -> ()
  | Some _ ->
      e.ind_dirty <- true;
      note_dirty st e

let cleaner_touch_dind_top st (e : State.itable_entry) =
  match load_dind_top_for_read st e with
  | None -> ()
  | Some _ ->
      e.dind_top_dirty <- true;
      note_dirty st e

let cleaner_touch_dind_child st (e : State.itable_entry) child =
  match load_dind_child_for_read st e child with
  | None -> ()
  | Some _ ->
      Bitset.set e.dind_child_dirty child;
      note_dirty st e

let entry_dirty (e : State.itable_entry) =
  e.ino_dirty || e.ind_dirty || e.dind_top_dirty
  || Bitset.cardinal e.dind_child_dirty > 0

(* Ascending bit order is inum order.  A bit whose entry has since been
   flushed, deleted or dropped is cleared by the first walk, so every bit
   the second walk meets names a dirty loaded entry. *)
let dirty_inodes (st : State.t) =
  Bitset.iter_set
    (fun inum ->
      match find_loaded st inum with
      | Some e when entry_dirty e -> ()
      | Some _ | None -> Bitset.clear st.dirty_inums inum)
    st.dirty_inums;
  let out = ref [||] and n = ref 0 in
  Bitset.iter_set
    (fun inum ->
      match find_loaded st inum with
      | Some e ->
          if !n = 0 then out := Array.make (Bitset.cardinal st.dirty_inums) e;
          !out.(!n) <- e;
          incr n
      | None -> assert false)
    st.dirty_inums;
  !out

let clear_clean (st : State.t) =
  Array.iter
    (function
      | Some e when entry_dirty e ->
          invalid_arg "Inode_store.clear_clean: dirty inodes remain"
      | Some _ | None -> ())
    st.itable;
  Array.fill st.itable 0 (Array.length st.itable) None;
  st.itable_loaded <- 0;
  Bitset.clear_all st.dirty_inums

let loaded_count (st : State.t) = st.itable_loaded

let release_block (st : State.t) addr ~bytes =
  if addr <> Layout.null_addr && addr >= st.layout.Layout.first_segment_block
  then
    Seg_usage.sub_live st.usage (Layout.segment_of_block st.layout addr) ~bytes

let delete (st : State.t) inum =
  let e = find st inum in
  let bs = st.layout.Layout.block_size in
  let nblocks = Inode.nblocks ~block_size:bs e.ino in
  for blkno = 0 to nblocks - 1 do
    let addr = bmap_read st e blkno in
    if addr <> Layout.null_addr then release_block st addr ~bytes:bs;
    (* Unconditionally: a block written but never flushed has no disk
       address yet, but its dirty cache entry must die with the file, or
       it would haunt the next file to reuse this inum. *)
    Cache.remove st.cache (Block_io.key_data ~inum ~blkno)
  done;
  (* Pointer blocks die with the file. *)
  let release_raw addr =
    if addr <> Layout.null_addr then begin
      release_block st addr ~bytes:bs;
      Cache.remove st.cache (Block_io.key_raw addr)
    end
  in
  release_raw e.ino.Inode.indirect;
  (match load_dind_top_for_read st e with
  | None -> ()
  | Some top -> Array.iter release_raw top);
  release_raw e.ino.Inode.dindirect;
  (* The inode's slice of its inode block dies too. *)
  release_block st (Imap.addr_of st.imap inum) ~bytes:Layout.inode_bytes;
  Lfs_cache.Readahead.forget st.readahead ~owner:inum;
  Lfs_vfs.Dir.forget st.dirs inum;
  remove st inum;
  Imap.free st.imap inum
