module Codec = Lfs_util.Codec
module Bitset = Lfs_util.Bitset

type seg_state = Clean | Dirty | Active

type t = {
  layout : Layout.t;
  live : int array;
  mtime : int array;
  states : seg_state array;
  dirty : Bitset.t;  (* per usage block *)
  dirty_set : (int, unit) Hashtbl.t;  (* segments currently in state Dirty *)
  entries_per_block : int;
  mutable nclean : int;
}

let create layout =
  let n = layout.Layout.nsegments in
  {
    layout;
    live = Array.make n 0;
    mtime = Array.make n 0;
    states = Array.make n Clean;
    dirty = Bitset.create layout.Layout.n_usage_blocks;
    dirty_set = Hashtbl.create 64;
    entries_per_block = Layout.usage_entries_per_block layout;
    nclean = n;
  }

let nsegments t = Array.length t.live

let check t seg =
  if seg < 0 || seg >= nsegments t then
    invalid_arg (Printf.sprintf "Seg_usage: segment %d out of range" seg)

let touch t seg = Bitset.set t.dirty (seg / t.entries_per_block)

let state t seg =
  check t seg;
  t.states.(seg)

let set_state t seg s =
  check t seg;
  let was = t.states.(seg) in
  if was <> s then begin
    if was = Clean then t.nclean <- t.nclean - 1;
    if s = Clean then t.nclean <- t.nclean + 1;
    if was = Dirty then Hashtbl.remove t.dirty_set seg;
    if s = Dirty then Hashtbl.replace t.dirty_set seg ();
    t.states.(seg) <- s;
    touch t seg
  end

let nclean t = t.nclean
let ndirty t = Hashtbl.length t.dirty_set
let iter_dirty f t = Hashtbl.iter (fun seg () -> f seg) t.dirty_set

let live_bytes t seg =
  check t seg;
  t.live.(seg)

let payload_bytes t =
  t.layout.Layout.payload_blocks * t.layout.Layout.block_size

let utilization t seg =
  check t seg;
  min 1.0 (float_of_int t.live.(seg) /. float_of_int (payload_bytes t))

let mtime_us t seg =
  check t seg;
  t.mtime.(seg)

let add_live t seg ~bytes ~now_us =
  check t seg;
  t.live.(seg) <- t.live.(seg) + bytes;
  t.mtime.(seg) <- max t.mtime.(seg) now_us;
  touch t seg

let sub_live t seg ~bytes =
  check t seg;
  t.live.(seg) <- max 0 (t.live.(seg) - bytes);
  touch t seg

let set_live t seg ~bytes =
  check t seg;
  if t.live.(seg) <> bytes then begin
    t.live.(seg) <- bytes;
    touch t seg
  end

let reset_segment t seg =
  check t seg;
  t.live.(seg) <- 0;
  t.mtime.(seg) <- 0;
  touch t seg

let find_clean ?(start = 0) t =
  let n = nsegments t in
  let rec scan i remaining =
    if remaining = 0 then None
    else if t.states.(i) = Clean then Some i
    else scan (if i + 1 = n then 0 else i + 1) (remaining - 1)
  in
  if n = 0 then None else scan (((start mod n) + n) mod n) n

let total_live_bytes t = Array.fold_left ( + ) 0 t.live

let n_blocks t = t.layout.Layout.n_usage_blocks

let mark_block_dirty t idx =
  if idx < 0 || idx >= n_blocks t then invalid_arg "Seg_usage.mark_block_dirty";
  Bitset.set t.dirty idx

let dirty_blocks t =
  let acc = ref [] in
  Bitset.iter_set (fun i -> acc := i :: !acc) t.dirty;
  List.rev !acc

let clear_dirty t = Bitset.clear_all t.dirty

let state_tag = function Clean -> 0 | Dirty -> 1 | Active -> 2

let state_of_tag = function
  | 0 -> Clean
  | 1 -> Dirty
  | 2 -> Active
  | n -> raise (Codec.Error (Printf.sprintf "seg_usage: bad state tag %d" n))

(* Each entry is written in place into one zeroed block, as in
   [Imap.encode_block]. *)
let encode_block t ~idx =
  if idx < 0 || idx >= n_blocks t then invalid_arg "Seg_usage.encode_block";
  let block = Bytes.make t.layout.Layout.block_size '\000' in
  let base = idx * t.entries_per_block in
  for i = base to min (base + t.entries_per_block) (nsegments t) - 1 do
    let off = (i - base) * Layout.usage_entry_bytes in
    let off = Codec.put_u32 block off t.live.(i) in
    let off = Codec.put_int_as_i64 block off t.mtime.(i) in
    (* An in-memory Active segment is persisted as Dirty: after a crash
       the partially-filled segment is just a fragmented segment. *)
    let s = match t.states.(i) with Active -> Dirty | s -> s in
    ignore (Codec.put_u8 block off (state_tag s) : int)
  done;
  block

let load_block t ~idx block =
  if idx < 0 || idx >= n_blocks t then invalid_arg "Seg_usage.load_block";
  let base = idx * t.entries_per_block in
  for i = base to min (base + t.entries_per_block) (nsegments t) - 1 do
    let d =
      Codec.decoder ~off:((i - base) * Layout.usage_entry_bytes)
        ~len:Layout.usage_entry_bytes block
    in
    t.live.(i) <- Codec.read_u32 d;
    t.mtime.(i) <- Codec.read_int_as_i64 d;
    let s = state_of_tag (Codec.read_u8 d) in
    set_state t i s
  done
