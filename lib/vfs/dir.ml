module Io = Lfs_disk.Io

type view = {
  src : bytes;  (* the buffer decoded; reused only while it is the cache's *)
  entries : (string * int) list;
  used : int;
  index : (string, int) Hashtbl.t;
      (* Hashtbl.add shadows and Hashtbl.remove unshadows, so the top
         binding is always the first occurrence in [entries]. *)
}

(* directory inum -> block index -> view *)
type t = {
  io : Io.t;
  block_size : int;
  views : (int, (int, view) Hashtbl.t) Hashtbl.t;
}

let create ~io ~block_size = { io; block_size; views = Hashtbl.create 64 }
let forget t inum = Hashtbl.remove t.views inum
let clear t = Hashtbl.reset t.views
let held t = Hashtbl.fold (fun inum _ acc -> inum :: acc) t.views []

let make src entries used =
  let index = Hashtbl.create 16 in
  List.iter (fun (name, inum) -> Hashtbl.add index name inum) (List.rev entries);
  { src; entries; used; index }

(* A hole (or the block past the end) reads as an empty block. *)
let hole () = make Bytes.empty [] (Dir_block.used_bytes [])

let decode ~dir ~blk src =
  match Dir_block.parse src with
  | entries -> make src entries (Dir_block.used_bytes entries)
  | exception Lfs_util.Codec.Error m ->
      Errors.raise_
        (Errors.Ecorrupt (Printf.sprintf "directory inum %d block %d: %s" dir blk m))

let store t dir blk v =
  match Hashtbl.find_opt t.views dir with
  | Some blocks -> Hashtbl.replace blocks blk v
  | None ->
      let blocks = Hashtbl.create 8 in
      Hashtbl.replace blocks blk v;
      Hashtbl.replace t.views dir blocks

type ('fs, 'dir) backing = {
  views : 'fs -> t;
  inum : 'dir -> int;
  nblocks : 'fs -> 'dir -> int;
  read : 'fs -> 'dir -> int -> bytes option;
  write : 'fs -> 'dir -> int -> bytes -> unit;
}

let view b fs d blk =
  match b.read fs d blk with
  | None -> hole ()
  | Some src -> (
      let t = b.views fs and dir = b.inum d in
      let cached =
        match Hashtbl.find_opt t.views dir with
        | Some blocks -> Hashtbl.find_opt blocks blk
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

(* Write [entries] as block [blk] and store their view around [index].
   The caller patches [index] only once the write has gone through: the
   superseded view's buffer is no longer the cache's, so its table moves
   to the new view. *)
let rewrite b fs d blk entries used index =
  let t = b.views fs in
  let src = Dir_block.encode ~block_size:t.block_size entries in
  b.write fs d blk src;
  store t (b.inum d) blk { src; entries; used; index }

let block_entries b fs d blk = (view b fs d blk).entries

let lookup b fs d name =
  let n = b.nblocks fs d in
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
  let n = b.nblocks fs d and size = Dir_block.entry_bytes name in
  let rec place blk =
    let v = if blk >= n then hole () else examine b fs d blk in
    if blk >= n || v.used + size <= (b.views fs).block_size then begin
      rewrite b fs d blk ((name, inum) :: v.entries) (v.used + size) v.index;
      Hashtbl.add v.index name inum
    end
    else place (blk + 1)
  in
  place 0

let remove b fs d name =
  let n = b.nblocks fs d in
  let rec hunt blk =
    if blk >= n then Errors.raise_ (Errors.Enoent name)
    else begin
      let v = examine b fs d blk in
      if Hashtbl.mem v.index name then begin
        rewrite b fs d blk
          (List.remove_assoc name v.entries)
          (v.used - Dir_block.entry_bytes name)
          v.index;
        Hashtbl.remove v.index name
      end
      else hunt (blk + 1)
    end
  in
  hunt 0

let entries b fs d =
  List.concat (List.init (b.nblocks fs d) (fun blk -> (examine b fs d blk).entries))
