(* A pure reference file system: the specification both LFS and FFS are
   tested against.  Paths are component lists inside.  Regular files are
   ids into a content table so hard links alias naturally; directories
   carry ids from the same counter, so a crash oracle can follow them
   across renames. *)

module M = Map.Make (struct
  type t = string list

  let compare = compare
end)

type file_id = int
type node = File of file_id | Dir of file_id

type t = {
  mutable nodes : node M.t;
  contents : (file_id, bytes) Hashtbl.t;
  mutable next_id : int;
}

type outcome = Op.outcome = Done | Data of bytes | Names of string list | Failed

let create () =
  { nodes = M.add [] (Dir 0) M.empty; contents = Hashtbl.create 64; next_id = 1 }

(* Contents are replaced, never mutated in place, so sharing the bytes
   is safe. *)
let copy t = { t with contents = Hashtbl.copy t.contents }

let parent path = List.filteri (fun i _ -> i < List.length path - 1) path

let parent_is_dir t path =
  match M.find_opt (parent path) t.nodes with Some (Dir _) -> true | _ -> false

let exists t path = M.mem path t.nodes

let children t path =
  M.fold
    (fun p _ acc ->
      if List.length p = List.length path + 1 && parent p = path then
        List.nth p (List.length p - 1) :: acc
      else acc)
    t.nodes []

let nlink t id =
  M.fold
    (fun _ node acc -> match node with File i when i = id -> acc + 1 | _ -> acc)
    t.nodes 0

(* A new file or directory, under the next id. *)
let mk_node t path node =
  if path = [] || exists t path || not (parent_is_dir t path) then Failed
  else begin
    t.nodes <- M.add path (node t.next_id) t.nodes;
    t.next_id <- t.next_id + 1;
    Done
  end

let create_file t path =
  let id = t.next_id in
  match mk_node t path (fun id -> File id) with
  | Done ->
      Hashtbl.replace t.contents id Bytes.empty;
      Done
  | other -> other

let delete t path =
  match M.find_opt path t.nodes with
  | None -> Failed
  | Some (Dir _) when path = [] || children t path <> [] -> Failed
  | Some (Dir _) ->
      t.nodes <- M.remove path t.nodes;
      Done
  | Some (File id) ->
      t.nodes <- M.remove path t.nodes;
      if nlink t id = 0 then Hashtbl.remove t.contents id;
      Done

let find_file t path =
  match M.find_opt path t.nodes with Some (File id) -> Some id | _ -> None

let write t path ~off data =
  match find_file t path with
  | None -> Failed
  | Some id ->
      let old = Hashtbl.find t.contents id in
      let off = match off with Some o -> o | None -> Bytes.length old in
      let len = max (Bytes.length old) (off + Bytes.length data) in
      let b = Bytes.make len '\000' in
      Bytes.blit old 0 b 0 (Bytes.length old);
      Bytes.blit data 0 b off (Bytes.length data);
      Hashtbl.replace t.contents id b;
      Done

let read t path ~off ~len =
  match find_file t path with
  | None -> Failed
  | Some id ->
      let b = Hashtbl.find t.contents id in
      if off >= Bytes.length b then Data Bytes.empty
      else Data (Bytes.sub b off (min len (Bytes.length b - off)))

let truncate t path ~size =
  match find_file t path with
  | None -> Failed
  | Some id ->
      let b = Hashtbl.find t.contents id in
      let b' = Bytes.make size '\000' in
      Bytes.blit b 0 b' 0 (min size (Bytes.length b));
      Hashtbl.replace t.contents id b';
      Done

let is_prefix a b =
  let rec go a b =
    match (a, b) with
    | [], _ -> true
    | x :: a', y :: b' -> x = y && go a' b'
    | _ :: _, [] -> false
  in
  go a b

let rename t src dst =
  if
    src = [] || dst = []
    || (not (exists t src))
    || exists t dst
    || (not (parent_is_dir t dst))
    || is_prefix src dst
  then Failed
  else begin
    (* Move the node and, for directories, the whole subtree. *)
    let moved =
      M.fold
        (fun p node acc ->
          if is_prefix src p then
            (dst @ List.filteri (fun i _ -> i >= List.length src) p, node) :: acc
          else acc)
        t.nodes []
    in
    t.nodes <- M.filter (fun p _ -> not (is_prefix src p)) t.nodes;
    List.iter (fun (p, node) -> t.nodes <- M.add p node t.nodes) moved;
    Done
  end

let link t src dst =
  match find_file t src with
  | None -> Failed (* absent, or a directory *)
  | Some id ->
      if dst = [] || exists t dst || not (parent_is_dir t dst) then Failed
      else begin
        t.nodes <- M.add dst (File id) t.nodes;
        Done
      end

let readdir t path =
  match M.find_opt path t.nodes with
  | Some (Dir _) -> Names (List.sort String.compare (children t path))
  | Some (File _) | None -> Failed

let apply t (op : Op.t) =
  let on p f =
    match Lfs_vfs.Path.split p with Ok path -> f path | Error _ -> Failed
  in
  match op with
  | Create p -> on p (create_file t)
  | Mkdir p -> on p (fun path -> mk_node t path (fun id -> Dir id))
  | Write { path; off; seed; len } ->
      on path (fun p -> write t p ~off:(Some off) (Driver.content ~seed len))
  | Append { path; seed; len } ->
      on path (fun p -> write t p ~off:None (Driver.content ~seed len))
  | Truncate { path; size } -> on path (fun p -> truncate t p ~size)
  | Rename { src; dst } -> on src (fun s -> on dst (rename t s))
  | Link { src; dst } -> on src (fun s -> on dst (link t s))
  | Delete p -> on p (delete t)
  | Read { path; off; len } -> on path (fun p -> read t p ~off ~len)
  | Readdir p -> on p (readdir t)
  | Sync | Flush_caches -> Done

let to_string path = "/" ^ String.concat "/" path

let files t =
  let names = Hashtbl.create 16 in
  M.iter
    (fun p node ->
      match node with
      | File id ->
          Hashtbl.replace names id
            (to_string p :: Option.value ~default:[] (Hashtbl.find_opt names id))
      | Dir _ -> ())
    t.nodes;
  Hashtbl.fold
    (fun id l acc ->
      (id, List.sort String.compare l, Hashtbl.find t.contents id) :: acc)
    names []
  |> List.sort compare

let all_files t =
  List.concat_map
    (fun (_, names, data) -> List.map (fun p -> (p, data)) names)
    (files t)

let dirs t =
  M.fold
    (fun p node acc ->
      match node with Dir id -> (id, to_string p) :: acc | File _ -> acc)
    t.nodes []

let all_dirs t = List.map snd (dirs t)

let pp_outcome = function
  | Done -> "ok"
  | Failed -> "error"
  | Data b -> Printf.sprintf "%d bytes" (Bytes.length b)
  | Names l -> Printf.sprintf "[%s]" (String.concat ";" l)

let lockstep t inst op =
  let got = Op.apply inst op in
  let expect = apply t op in
  if got = expect then None
  else
    Some
      (Printf.sprintf "model says %s, %s says %s" (pp_outcome expect)
         (Lfs_vfs.Fs_intf.instance_name inst)
         (pp_outcome got))
