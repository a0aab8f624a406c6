module Codec = Lfs_util.Codec

let entry_bytes name = 4 + 2 + String.length name

let used_bytes entries =
  List.fold_left (fun acc (name, _) -> acc + entry_bytes name) 2 entries

let parse block =
  let d = Codec.decoder block in
  let n = Codec.read_u16 d in
  List.init n (fun _ ->
      let inum = Codec.read_u32 d in
      let name = Codec.read_string_u16 d in
      (name, inum))

let encode ~block_size entries =
  let e = Codec.encoder ~capacity:block_size () in
  Codec.u16 e (List.length entries);
  List.iter
    (fun (name, inum) ->
      Codec.u32 e inum;
      Codec.string_u16 e name)
    entries;
  Codec.pad_to e block_size;
  Codec.to_bytes e
