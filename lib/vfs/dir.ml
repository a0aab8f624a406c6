module Codec = Lfs_util.Codec
module Io = Lfs_disk.Io

type view = {
  src : bytes;  (* the buffer decoded; reused only while it is the cache's *)
  used : int;
  index : (string, int) Hashtbl.t;
      (* Hashtbl.add shadows and Hashtbl.remove unshadows, so the top
         binding is always the name's first entry in [src]. *)
}

(* Directory inums and block indices hash as themselves. *)
module Itbl = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash (i : int) = i land max_int
end)

(* directory inum -> block index -> view *)
type t = { io : Io.t; block_size : int; views : view Itbl.t Itbl.t }

let create ~io ~block_size = { io; block_size; views = Itbl.create 64 }
let forget t inum = Itbl.remove t.views inum
let clear t = Itbl.reset t.views
let held t = Itbl.fold (fun inum _ acc -> inum :: acc) t.views []

(* A hole (or the block past the end) reads as an empty block. *)
let hole () =
  {
    src = Bytes.empty;
    used = Dir_block.used_bytes [];
    index = Hashtbl.create 16;
  }

let truncated () = raise (Codec.Error "Codec: truncated input")

(* Index the entries [k .. count - 1] of [src], entry [k] at [off], in
   the layout {!Dir_block.parse} reads, and return the bytes used.  The
   bindings go in on the way back, last entry first, so a name's first
   entry ends on top. *)
let rec index_from src index ~count k off =
  if k = count then off
  else begin
    if off + 6 > Bytes.length src then truncated ();
    let len = Bytes.get_uint16_le src (off + 4) in
    if off + 6 + len > Bytes.length src then truncated ();
    let used = index_from src index ~count (k + 1) (off + 6 + len) in
    Hashtbl.add index (Bytes.sub_string src (off + 6) len)
      (Codec.get_u32 src off);
    used
  end

let decode ~dir ~blk src =
  let index = Hashtbl.create 16 in
  match
    if Bytes.length src < 2 then truncated ();
    index_from src index ~count:(Bytes.get_uint16_le src 0) 0 2
  with
  | used -> { src; used; index }
  | exception Codec.Error m ->
      Errors.raise_
        (Errors.Ecorrupt (Printf.sprintf "directory inum %d block %d: %s" dir blk m))

let store t dir blk v =
  match Itbl.find_opt t.views dir with
  | Some blocks -> Itbl.replace blocks blk v
  | None ->
      let blocks = Itbl.create 8 in
      Itbl.replace blocks blk v;
      Itbl.replace t.views dir blocks

type ('fs, 'dir) backing = {
  views : 'fs -> t;
  inode : 'fs -> 'dir -> Inode.t;
  read : 'fs -> 'dir -> int -> bytes option;
  write : 'fs -> 'dir -> int -> bytes -> unit;
}

let nblocks b fs d =
  Inode.nblocks ~block_size:(b.views fs).block_size (b.inode fs d)

let view b fs d blk =
  match b.read fs d blk with
  | None -> hole ()
  | Some src -> (
      let t = b.views fs and dir = (b.inode fs d).Inode.inum in
      let cached =
        match Itbl.find_opt t.views dir with
        | Some blocks -> Itbl.find_opt blocks blk
        | None -> None
      in
      match cached with
      | Some v when v.src == src -> v
      | Some _ | None ->
          let v = decode ~dir ~blk src in
          store t dir blk v;
          v)

(* One block examined by a scan: the paper's per-block namei charge. *)
let examine b fs d blk =
  Io.charge_lookup (b.views fs).io;
  view b fs d blk

(* Write [src] as block [blk] and store its view around [index].  The
   caller patches [index] only once the write has gone through: the
   superseded view's buffer is no longer the cache's, so its table moves
   to the new view. *)
let rewrite b fs d blk src used index =
  b.write fs d blk src;
  store (b.views fs) (b.inode fs d).Inode.inum blk { src; used; index }

(* The block with [name, inum] put at the head of [v]'s entries, made
   from [v.src] rather than re-encoded: the header with one more entry,
   the new entry at offset 2, the old entries shifted up by one blit,
   and a zeroed tail.  Byte for byte what [Dir_block.encode] gives for
   the new entry list, since [v.src] holds an encoding in [\[2, v.used)].
   A hole has no bytes to patch. *)
let patched_add ~block_size v name inum size =
  if v.src == Bytes.empty then Dir_block.encode ~block_size [ (name, inum) ]
  else begin
    let dst = Bytes.create block_size and used = v.used + size in
    ignore (Codec.put_u16 dst 0 (Bytes.get_uint16_le v.src 0 + 1) : int);
    let off = Codec.put_u32 dst 2 inum in
    let off = Codec.put_u16 dst off (String.length name) in
    Bytes.blit_string name 0 dst off (String.length name);
    Bytes.blit v.src 2 dst (2 + size) (v.used - 2);
    Bytes.fill dst used (block_size - used) '\000';
    dst
  end

(* Whether the [String.length name] bytes of [src] at [off] spell
   [name], from its [i]th byte on. *)
let rec spells src off name i =
  i = String.length name
  || Char.equal (Bytes.get src (off + i)) (String.get name i)
     && spells src off name (i + 1)

(* Byte offset of [name]'s first entry in [v.src], scanning from the
   entry at [off]. *)
let rec entry_offset v name off =
  if off >= v.used then raise Not_found
  else
    let len = Bytes.get_uint16_le v.src (off + 4) in
    if len = String.length name && spells v.src (off + 6) name 0 then off
    else entry_offset v name (off + 6 + len)

(* The block with [name]'s first entry dropped from [v]: the bytes on
   either side of the entry closed up by two blits, one fewer in the
   header, and a zeroed tail. *)
let patched_remove ~block_size v name =
  let off = entry_offset v name 2 and size = Dir_block.entry_bytes name in
  let dst = Bytes.create block_size and used = v.used - size in
  Bytes.blit v.src 0 dst 0 off;
  ignore (Codec.put_u16 dst 0 (Bytes.get_uint16_le v.src 0 - 1) : int);
  Bytes.blit v.src (off + size) dst off (v.used - off - size);
  Bytes.fill dst used (block_size - used) '\000';
  dst

(* A view's entries, parsed from its buffer on demand. *)
let parsed v = if v.src == Bytes.empty then [] else Dir_block.parse v.src

let block_entries b fs d blk = parsed (view b fs d blk)

let lookup b fs d name =
  let n = nblocks b fs d in
  let rec scan blk =
    if blk >= n then None
    else
      match Hashtbl.find_opt (examine b fs d blk).index name with
      | Some _ as found -> found
      | None -> scan (blk + 1)
  in
  scan 0

let add b fs d name inum =
  if not (Path.valid_name name) then
    Errors.raise_ (Errors.Einval (Printf.sprintf "bad name %S" name));
  let n = nblocks b fs d and size = Dir_block.entry_bytes name in
  let rec place blk =
    let v = if blk >= n then hole () else examine b fs d blk in
    let block_size = (b.views fs).block_size in
    if blk >= n || v.used + size <= block_size then begin
      rewrite b fs d blk
        (patched_add ~block_size v name inum size)
        (v.used + size) v.index;
      Hashtbl.add v.index name inum
    end
    else place (blk + 1)
  in
  place 0

let remove b fs d name =
  let n = nblocks b fs d in
  let rec hunt blk =
    if blk >= n then Errors.raise_ (Errors.Enoent name)
    else begin
      let v = examine b fs d blk in
      if Hashtbl.mem v.index name then begin
        rewrite b fs d blk
          (patched_remove ~block_size:(b.views fs).block_size v name)
          (v.used - Dir_block.entry_bytes name)
          v.index;
        Hashtbl.remove v.index name
      end
      else hunt (blk + 1)
    end
  in
  hunt 0

let entries b fs d =
  List.concat
    (List.init (nblocks b fs d) (fun blk -> parsed (examine b fs d blk)))
