module Codec = Lfs_util.Codec
module Bitset = Lfs_util.Bitset

type t = {
  layout : Layout.t;
  addr : int array;  (* inode-block address; null_addr if never written *)
  slot : int array;
  version : int array;
  atime : int array;
  allocated : Bitset.t;
  dirty : Bitset.t;  (* per imap block *)
  entries_per_block : int;
  mutable nallocated : int;
  mutable next_hint : int;
}

let create layout =
  let n = layout.Layout.max_files in
  {
    layout;
    addr = Array.make n Layout.null_addr;
    slot = Array.make n 0;
    version = Array.make n 0;
    atime = Array.make n 0;
    allocated = Bitset.create n;
    dirty = Bitset.create layout.Layout.n_imap_blocks;
    entries_per_block = Layout.imap_entries_per_block layout;
    nallocated = 0;
    next_hint = 1;
  }

let max_files t = Array.length t.addr
let count_allocated t = t.nallocated

let check t inum =
  if inum <= 0 || inum >= max_files t then
    invalid_arg (Printf.sprintf "Imap: inum %d out of range" inum)

let block_of_inum t inum =
  check t inum;
  inum / t.entries_per_block

let touch t inum = Bitset.set t.dirty (block_of_inum t inum)

let alloc_specific t inum ~now_us =
  check t inum;
  if Bitset.mem t.allocated inum then
    invalid_arg (Printf.sprintf "Imap.alloc_specific: inum %d already in use" inum);
  Bitset.set t.allocated inum;
  t.nallocated <- t.nallocated + 1;
  t.addr.(inum) <- Layout.null_addr;
  t.slot.(inum) <- 0;
  t.atime.(inum) <- now_us;
  touch t inum

let alloc t ~now_us =
  (* inum 0 is the null inum; never hand it out. *)
  let n = max_files t in
  let rec scan candidate remaining =
    if remaining = 0 then None
    else if candidate <> 0 && not (Bitset.mem t.allocated candidate) then begin
      alloc_specific t candidate ~now_us;
      t.next_hint <- (if candidate + 1 = n then 1 else candidate + 1);
      Some candidate
    end
    else scan (if candidate + 1 = n then 0 else candidate + 1) (remaining - 1)
  in
  scan t.next_hint n

let is_allocated t inum =
  check t inum;
  Bitset.mem t.allocated inum

let bump_version t inum =
  check t inum;
  t.version.(inum) <- t.version.(inum) + 1;
  touch t inum

let free t inum =
  check t inum;
  if not (Bitset.mem t.allocated inum) then
    invalid_arg (Printf.sprintf "Imap.free: inum %d not allocated" inum);
  Bitset.clear t.allocated inum;
  t.nallocated <- t.nallocated - 1;
  t.addr.(inum) <- Layout.null_addr;
  bump_version t inum

let version t inum =
  check t inum;
  t.version.(inum)

let location t inum =
  check t inum;
  if t.addr.(inum) = Layout.null_addr then None
  else Some (t.addr.(inum), t.slot.(inum))

let addr_of t inum =
  check t inum;
  t.addr.(inum)

let located_at t inum ~addr ~slot =
  check t inum;
  addr <> Layout.null_addr && t.addr.(inum) = addr && t.slot.(inum) = slot

let set_location t inum ~addr ~slot =
  check t inum;
  t.addr.(inum) <- addr;
  t.slot.(inum) <- slot;
  touch t inum

let atime_us t inum =
  check t inum;
  t.atime.(inum)

let set_atime_us t inum v =
  check t inum;
  t.atime.(inum) <- v;
  touch t inum

let n_blocks t = t.layout.Layout.n_imap_blocks

let mark_block_dirty t idx =
  if idx < 0 || idx >= n_blocks t then invalid_arg "Imap.mark_block_dirty";
  Bitset.set t.dirty idx

let next_hint t = t.next_hint

let set_next_hint t hint =
  if hint < 0 || hint >= max_files t then invalid_arg "Imap.set_next_hint";
  t.next_hint <- max 1 hint

let dirty_blocks t =
  let acc = ref [] in
  Bitset.iter_set (fun i -> acc := i :: !acc) t.dirty;
  List.rev !acc

let clear_dirty t = Bitset.clear_all t.dirty

(* Each entry is written in place into one zeroed block: the gaps up to
   [imap_entry_bytes] and the tail past the last entry stay zero. *)
let encode_block t ~idx =
  if idx < 0 || idx >= n_blocks t then invalid_arg "Imap.encode_block";
  let block = Bytes.make t.layout.Layout.block_size '\000' in
  let base = idx * t.entries_per_block in
  for i = base to min (base + t.entries_per_block) (max_files t) - 1 do
    let off = (i - base) * Layout.imap_entry_bytes in
    let off = Codec.put_u32 block off t.addr.(i) in
    let off = Codec.put_u16 block off t.slot.(i) in
    let off = Codec.put_u32 block off t.version.(i) in
    let off = Codec.put_int_as_i64 block off t.atime.(i) in
    let alloc = if Bitset.mem t.allocated i then 1 else 0 in
    ignore (Codec.put_u8 block off alloc : int)
  done;
  block

let load_block t ~idx block =
  if idx < 0 || idx >= n_blocks t then invalid_arg "Imap.load_block";
  let valid_addr a =
    a = Layout.null_addr
    || (a >= t.layout.Layout.first_segment_block
       && a < t.layout.Layout.total_blocks)
  in
  let base = idx * t.entries_per_block in
  for i = base to min (base + t.entries_per_block) (max_files t) - 1 do
    let d =
      Codec.decoder ~off:((i - base) * Layout.imap_entry_bytes)
        ~len:Layout.imap_entry_bytes block
    in
    (* Defensive: a clobbered (reused-segment) image must never inject a
       wild inode address; roll-forward rewrites these entries anyway. *)
    let a = Codec.read_u32 d in
    t.addr.(i) <- (if valid_addr a then a else Layout.null_addr);
    t.slot.(i) <- Codec.read_u16 d mod max 1 (Layout.inodes_per_block t.layout);
    t.version.(i) <- Codec.read_u32 d;
    t.atime.(i) <- Codec.read_int_as_i64 d;
    let was = Bitset.mem t.allocated i in
    let now = Codec.read_bool d in
    if was && not now then begin
      Bitset.clear t.allocated i;
      t.nallocated <- t.nallocated - 1
    end
    else if now && not was then begin
      Bitset.set t.allocated i;
      t.nallocated <- t.nallocated + 1
    end
  done
