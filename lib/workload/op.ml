(* The shared op vocabulary and its one interpreter over a real file
   system (see op.mli). *)

module Fs_intf = Lfs_vfs.Fs_intf

type t =
  | Create of string
  | Mkdir of string
  | Write of { path : string; off : int; seed : int; len : int }
  | Append of { path : string; seed : int; len : int }
  | Truncate of { path : string; size : int }
  | Rename of { src : string; dst : string }
  | Link of { src : string; dst : string }
  | Delete of string
  | Read of { path : string; off : int; len : int }
  | Readdir of string
  | Sync
  | Flush_caches

type outcome = Done | Data of bytes | Names of string list | Failed

let apply (Fs_intf.Instance ((module F), fs)) op =
  let unit = function Ok () -> Done | Error _ -> Failed in
  match op with
  | Create p -> unit (F.create fs p)
  | Mkdir p -> unit (F.mkdir fs p)
  | Write { path; off; seed; len } ->
      unit (F.write fs path ~off (Driver.content ~seed len))
  | Append { path; seed; len } -> (
      match F.stat fs path with
      | Ok st ->
          unit (F.write fs path ~off:st.Fs_intf.size (Driver.content ~seed len))
      | Error _ -> Failed)
  | Truncate { path; size } -> unit (F.truncate fs path ~size)
  | Rename { src; dst } -> unit (F.rename fs src dst)
  | Link { src; dst } -> unit (F.link fs src dst)
  | Delete p -> unit (F.delete fs p)
  | Read { path; off; len } -> (
      match F.read fs path ~off ~len with Ok b -> Data b | Error _ -> Failed)
  | Readdir p -> (
      match F.readdir fs p with Ok l -> Names l | Error _ -> Failed)
  | Sync ->
      F.sync fs;
      Done
  | Flush_caches ->
      F.flush_caches fs;
      Done

let pp = function
  | Create p -> "create " ^ p
  | Mkdir p -> "mkdir " ^ p
  | Write { path; off; seed; len } ->
      Printf.sprintf "write %s off=%d seed=%d len=%d" path off seed len
  | Append { path; seed; len } ->
      Printf.sprintf "append %s seed=%d len=%d" path seed len
  | Truncate { path; size } -> Printf.sprintf "truncate %s size=%d" path size
  | Rename { src; dst } -> Printf.sprintf "rename %s %s" src dst
  | Link { src; dst } -> Printf.sprintf "link %s %s" src dst
  | Delete p -> "delete " ^ p
  | Read { path; off; len } -> Printf.sprintf "read %s off=%d len=%d" path off len
  | Readdir p -> "readdir " ^ p
  | Sync -> "sync"
  | Flush_caches -> "flush_caches"
