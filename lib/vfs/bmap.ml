let ptrs_per_block ~block_size = block_size / 4

let max_blocks ~block_size =
  let p = ptrs_per_block ~block_size in
  Inode.ndirect + p + (p * p)

let max_size ~block_size = max_blocks ~block_size * block_size

(* Pointer blocks *)

let get block i = Lfs_util.Codec.get_u32 block (4 * i)
let set block i addr = ignore (Lfs_util.Codec.put_u32 block (4 * i) addr)

let decode block n =
  let ptrs = Array.make n Inode.null_addr in
  for i = 0 to n - 1 do
    ptrs.(i) <- get block i
  done;
  ptrs

let encode ~block_size ptrs =
  let block = Bytes.make block_size '\000' in
  Array.iteri (set block) ptrs;
  block

(* Walks *)

type ('fs, 'file, 'p) store = {
  inode : 'file -> Inode.t;
  block_size : 'fs -> int;
  present : 'p -> bool;
  get : 'fs -> 'p -> int -> int;
  single : 'fs -> 'file -> 'p;
  top : 'fs -> 'file -> 'p;
  child : 'fs -> 'file -> 'p -> int -> 'p;
  make_single : 'fs -> 'file -> int -> 'p;
  make_child : 'fs -> 'file -> int -> int -> 'p;
  put : 'fs -> 'file -> 'p -> int -> int -> int -> int;
  touch : 'fs -> 'file -> unit;
}

let null = Inode.null_addr
let ptrs s fs = ptrs_per_block ~block_size:(s.block_size fs)
let check blkno = if blkno < 0 then invalid_arg "Bmap: negative block"

(* Past the direct pointers, block [blkno] lives in double-indirect child
   [child ~p blkno] (the single-indirect block when that is negative), at
   index [slot ~p blkno]. *)
let child ~p blkno =
  let d = blkno - Inode.ndirect - p in
  if d < 0 then -1
  else if d / p >= p then Errors.raise_ Errors.Efbig
  else d / p

let slot ~p blkno =
  let d = blkno - Inode.ndirect in
  if d < p then d else (d - p) mod p

let read s fs file blkno =
  check blkno;
  if blkno < Inode.ndirect then (s.inode file).Inode.direct.(blkno)
  else begin
    let p = ptrs s fs in
    let c = child ~p blkno in
    let b =
      if c < 0 then s.single fs file
      else
        let top = s.top fs file in
        if s.present top then s.child fs file top c else top
    in
    if s.present b then s.get fs b (slot ~p blkno) else null
  end

let make s fs file blkno c =
  if c < 0 then s.make_single fs file blkno else s.make_child fs file c blkno

let write s fs file blkno addr =
  check blkno;
  let ino = s.inode file in
  if blkno < Inode.ndirect then begin
    let old = ino.Inode.direct.(blkno) in
    ino.Inode.direct.(blkno) <- addr;
    s.touch fs file;
    old
  end
  else begin
    let p = ptrs s fs in
    let c = child ~p blkno in
    s.put fs file (make s fs file blkno c) c (slot ~p blkno) addr
  end

let fill s fs file blkno fresh =
  check blkno;
  let ino = s.inode file in
  if blkno < Inode.ndirect then begin
    if ino.Inode.direct.(blkno) = null then begin
      ino.Inode.direct.(blkno) <- fresh fs file blkno;
      s.touch fs file
    end;
    ino.Inode.direct.(blkno)
  end
  else begin
    let p = ptrs s fs in
    let c = child ~p blkno in
    let b = make s fs file blkno c in
    let i = slot ~p blkno in
    let addr = s.get fs b i in
    if addr <> null then addr
    else begin
      let addr = fresh fs file blkno in
      ignore (s.put fs file b c i addr);
      addr
    end
  end

type pointer = Single | Top | Child of int

let pointer_name = function
  | Single -> "indirect"
  | Top -> "dindirect"
  | Child c -> Printf.sprintf "dind child %d" c

let iter ?(past_end = false) s fs file ~pointer ~data =
  let ino = s.inode file in
  let bs = s.block_size fs in
  let p = ptrs s fs in
  let n = min (Inode.nblocks ~block_size:bs ino) (max_blocks ~block_size:bs) in
  (* Slots [first, first + p) of pointer block [b]. *)
  let slots b first =
    let present = s.present b in
    let last = if past_end && present then first + p else min (first + p) n in
    for blkno = first to last - 1 do
      data blkno (if present then s.get fs b (blkno - first) else null)
    done
  in
  for blkno = 0 to (if past_end then Inode.ndirect else min n Inode.ndirect) - 1 do
    data blkno ino.Inode.direct.(blkno)
  done;
  if ino.Inode.indirect <> null then pointer Single ino.Inode.indirect;
  if past_end || n > Inode.ndirect then slots (s.single fs file) Inode.ndirect;
  if ino.Inode.dindirect <> null then pointer Top ino.Inode.dindirect;
  let top = s.top fs file in
  if s.present top then
    for c = 0 to p - 1 do
      let addr = s.get fs top c in
      if addr <> null then pointer (Child c) addr;
      let first = Inode.ndirect + p + (c * p) in
      if past_end || first < n then slots (s.child fs file top c) first
    done

let pointers s fs file f =
  let ino = s.inode file in
  if ino.Inode.indirect <> null then f fs ino.Inode.indirect;
  let top = s.top fs file in
  if s.present top then
    for c = 0 to ptrs s fs - 1 do
      let addr = s.get fs top c in
      if addr <> null then f fs addr
    done;
  if ino.Inode.dindirect <> null then f fs ino.Inode.dindirect

let release s fs file ~data ~pointer =
  let bs = s.block_size fs in
  let n = Inode.nblocks ~block_size:bs (s.inode file) in
  for blkno = 0 to min n (max_blocks ~block_size:bs) - 1 do
    data fs file blkno (read s fs file blkno)
  done;
  pointers s fs file pointer
