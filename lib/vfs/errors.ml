type t =
  | Enoent of string
  | Eexist of string
  | Enotdir of string
  | Eisdir of string
  | Enotempty of string
  | Enospc
  | Efbig
  | Einval of string
  | Ecorrupt of string

let pp ppf = function
  | Enoent p -> Format.fprintf ppf "no such file or directory: %s" p
  | Eexist p -> Format.fprintf ppf "already exists: %s" p
  | Enotdir p -> Format.fprintf ppf "not a directory: %s" p
  | Eisdir p -> Format.fprintf ppf "is a directory: %s" p
  | Enotempty p -> Format.fprintf ppf "directory not empty: %s" p
  | Enospc -> Format.fprintf ppf "no space left on device"
  | Efbig -> Format.fprintf ppf "file too large"
  | Einval m -> Format.fprintf ppf "invalid argument: %s" m
  | Ecorrupt m -> Format.fprintf ppf "corrupt file system: %s" m

let to_string e = Format.asprintf "%a" pp e

let equal a b = a = b

exception Error of t

let () =
  Printexc.register_printer (function
    | Error e -> Some ("Errors.Error (" ^ to_string e ^ ")")
    | _ -> None)

let raise_ e = raise (Error e)

let wrap f = match f () with v -> Ok v | exception Error e -> Error e
