type issue =
  | Double_reference of { addr : int; owners : string list }
  | Leaked_block of { addr : int }
  | Lost_block of { owner : string; addr : int }
  | Bad_dir_entry of { dir : int; name : string; inum : int }
  | Bad_nlink of { inum : int; nlink : int; entries : int }
  | Directory_names of { inum : int; entries : int }
  | Orphan_inode of { inum : int }
  | Unreadable of { inum : int; reason : string }
  | Address_out_of_range of { owner : string; addr : int }

let pp_issue ppf = function
  | Double_reference { addr; owners } ->
      Format.fprintf ppf "block %d referenced by: %s" addr
        (String.concat ", " owners)
  | Leaked_block { addr } ->
      Format.fprintf ppf
        "block %d marked used in its group bitmap but referenced by nothing"
        addr
  | Lost_block { owner; addr } ->
      Format.fprintf ppf "%s claims block %d, which the group bitmap says is free"
        owner addr
  | Bad_dir_entry { dir; name; inum } ->
      Format.fprintf ppf
        "directory %d entry %S points at unallocated or unreadable inum %d" dir
        name inum
  | Bad_nlink { inum; nlink; entries } ->
      Format.fprintf ppf "inum %d: nlink %d but %d directory entries" inum
        nlink entries
  | Directory_names { inum; entries } ->
      Format.fprintf ppf "directory inum %d reached under %d names" inum entries
  | Orphan_inode { inum } ->
      Format.fprintf ppf "inum %d allocated but unreachable" inum
  | Unreadable { inum; reason } ->
      Format.fprintf ppf "inum %d unreadable: %s" inum reason
  | Address_out_of_range { owner; addr } ->
      Format.fprintf ppf "%s references out-of-range address %d" owner addr

type owners = (int, string list) Hashtbl.t

let reference owners ~in_range report ~owner addr =
  if addr <> Inode.null_addr then begin
    if not (in_range addr) then report (Address_out_of_range { owner; addr })
    else
      Hashtbl.replace owners addr
        (owner :: Option.value ~default:[] (Hashtbl.find_opt owners addr))
  end

let files store fs ~max_files ~allocated ~find reference report =
  for inum = 1 to max_files - 1 do
    if allocated inum then
      match find inum with
      | exception Errors.Error e ->
          report (Unreadable { inum; reason = Errors.to_string e })
      | file ->
          Bmap.iter store fs file
            ~pointer:(fun kind addr ->
              reference
                ~owner:(Printf.sprintf "inum %d %s" inum (Bmap.pointer_name kind))
                addr)
            ~data:(fun blkno addr ->
              if addr <> Inode.null_addr then
                reference ~owner:(Printf.sprintf "inum %d block %d" inum blkno) addr)
  done

let double_references owners report =
  Hashtbl.iter
    (fun addr os ->
      if List.length os > 1 then report (Double_reference { addr; owners = os }))
    owners

let namespace ~root ~max_files ~allocated ~entries ~inode report =
  let links = Hashtbl.create 256 in
  let rec walk dir =
    List.iter
      (fun (name, inum) ->
        match
          if inum <= 0 || inum >= max_files || not (allocated inum) then None
          else Some (inode inum)
        with
        | None | (exception Errors.Error _) ->
            report (Bad_dir_entry { dir; name; inum })
        | Some ino ->
            let first_visit = not (Hashtbl.mem links inum) in
            Hashtbl.replace links inum
              (1 + Option.value ~default:0 (Hashtbl.find_opt links inum));
            if ino.Inode.kind = Fs_intf.Directory && first_visit then walk inum)
      (entries dir)
  in
  Hashtbl.replace links root 1;
  walk root;
  Hashtbl.iter
    (fun inum count ->
      let ino = inode inum in
      if ino.Inode.nlink <> count then
        report (Bad_nlink { inum; nlink = ino.Inode.nlink; entries = count });
      if ino.Inode.kind = Fs_intf.Directory && count > 1 then
        report (Directory_names { inum; entries = count }))
    links;
  for inum = 1 to max_files - 1 do
    if allocated inum && not (Hashtbl.mem links inum) then
      report (Orphan_inode { inum })
  done
