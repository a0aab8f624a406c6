module Bitset = Lfs_util.Bitset
module Cache = Lfs_cache.Block_cache
module Errors = Lfs_vfs.Errors

module Bmap = Lfs_vfs.Bmap
module Inode = Lfs_vfs.Inode

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
          (match Inode.decode_at ~atime:false block ~off:(slot * Layout.inode_bytes) with
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

let ppb (st : State.t) = Bmap.ptrs_per_block ~block_size:st.layout.Layout.block_size
let load st addr = Bmap.decode (Block_io.read_raw st addr) (ppb st)

(* The block-map store: decoded pointer arrays, loaded on first use;
   empty where the block does not exist (the whole range is a hole).  A
   map created for a write starts as all holes, dirty.  Emptiness is
   tested by length: empty array literals are not one shared value. *)

let single st (e : State.itable_entry) =
  if Array.length e.ind_map = 0 && e.ino.Inode.indirect <> Layout.null_addr then
    e.ind_map <- load st e.ino.Inode.indirect;
  e.ind_map

let ensure_dind_arrays st (e : State.itable_entry) =
  if Array.length e.dind_children = 0 then begin
    e.dind_children <- Array.make (ppb st) [||];
    e.dind_child_dirty <- Bitset.create (ppb st)
  end

let top st (e : State.itable_entry) =
  if Array.length e.dind_top = 0 && e.ino.Inode.dindirect <> Layout.null_addr then begin
    e.dind_top <- load st e.ino.Inode.dindirect;
    ensure_dind_arrays st e
  end;
  e.dind_top

let child st (e : State.itable_entry) top c =
  ensure_dind_arrays st e;
  if Array.length e.dind_children.(c) = 0 && top.(c) <> Layout.null_addr then
    e.dind_children.(c) <- load st top.(c);
  e.dind_children.(c)

let holes st = Array.make (ppb st) Layout.null_addr

(* Pointer block [c] of a file is the single-indirect block for [c = -1],
   the double-indirect top for [c = -2], else double-indirect child [c]. *)
let raise_dirty st (e : State.itable_entry) c =
  if c = -1 then e.ind_dirty <- true
  else if c = -2 then e.dind_top_dirty <- true
  else Bitset.set e.dind_child_dirty c;
  note_dirty st e

let make_single st (e : State.itable_entry) _blkno =
  let m = single st e in
  if Array.length m > 0 then m
  else begin
    let m = holes st in
    e.ind_map <- m;
    raise_dirty st e (-1);
    m
  end

let make_top st (e : State.itable_entry) =
  let m = top st e in
  if Array.length m > 0 then m
  else begin
    ensure_dind_arrays st e;
    let m = holes st in
    e.dind_top <- m;
    raise_dirty st e (-2);
    m
  end

let make_child st (e : State.itable_entry) c _blkno =
  let m = child st e (make_top st e) c in
  if Array.length m > 0 then m
  else begin
    let m = holes st in
    e.dind_children.(c) <- m;
    raise_dirty st e c;
    m
  end

let put st (e : State.itable_entry) m c i addr =
  let old = m.(i) in
  m.(i) <- addr;
  raise_dirty st e c;
  old

let map : (State.t, State.itable_entry, int array) Bmap.store =
  {
    inode = (fun (e : State.itable_entry) -> e.ino);
    block_size = (fun (st : State.t) -> st.layout.Layout.block_size);
    present = (fun m -> Array.length m > 0);
    get = (fun _ m i -> m.(i));
    single;
    top;
    child;
    make_single;
    make_child;
    put;
    touch = mark_dirty;
  }

let dind_child_addr st (e : State.itable_entry) c =
  if c < 0 || c >= ppb st then invalid_arg "dind_child_addr";
  let top = top st e in
  if Array.length top = 0 then Layout.null_addr else top.(c)

let cleaner_touch st (e : State.itable_entry) c =
  let present =
    if c = -1 then Array.length (single st e) > 0
    else
      let top = top st e in
      Array.length top > 0
      && (c = -2 || Array.length (child st e top c) > 0)
  in
  if present then raise_dirty st e c

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

let free_pointer (st : State.t) addr =
  Seg_usage.release st.usage addr ~bytes:st.layout.Layout.block_size;
  Cache.remove st.cache (Block_io.key_raw addr)

let free_data (st : State.t) (e : State.itable_entry) blkno addr =
  Seg_usage.release st.usage addr ~bytes:st.layout.Layout.block_size;
  (* Unconditionally: a block written but never flushed has no disk
     address yet, but its dirty cache entry must die with the file, or
     it would haunt the next file to reuse this inum. *)
  Cache.remove st.cache (Block_io.key_data ~inum:e.ino.Inode.inum ~blkno)

let delete (st : State.t) inum =
  let e = find st inum in
  Bmap.release map st e ~data:free_data ~pointer:free_pointer;
  (* The inode's slice of its inode block dies too. *)
  Seg_usage.release st.usage (Imap.addr_of st.imap inum)
    ~bytes:Layout.inode_bytes;
  Lfs_cache.Readahead.forget st.readahead ~owner:inum;
  Lfs_vfs.Dir.forget st.dirs inum;
  remove st inum;
  Imap.free st.imap inum
