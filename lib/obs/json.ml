type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

let escape s =
  let buf = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

(* Floats must round-trip and stay valid JSON: no "inf"/"nan" literals
   exist there, so clamp them to null. *)
let float_repr f =
  match Float.classify_float f with
  | FP_infinite | FP_nan -> "null"
  | _ ->
      let s = Printf.sprintf "%.17g" f in
      let short = Printf.sprintf "%.12g" f in
      if float_of_string short = f then short else s

let rec write buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Float f -> Buffer.add_string buf (float_repr f)
  | String s ->
      Buffer.add_char buf '"';
      Buffer.add_string buf (escape s);
      Buffer.add_char buf '"'
  | List items ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i item ->
          if i > 0 then Buffer.add_char buf ',';
          write buf item)
        items;
      Buffer.add_char buf ']'
  | Obj fields ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          write buf (String k);
          Buffer.add_char buf ':';
          write buf v)
        fields;
      Buffer.add_char buf '}'

let to_string t =
  let buf = Buffer.create 256 in
  write buf t;
  Buffer.contents buf

let rec write_indent buf ~level = function
  | List ((_ :: _) as items) ->
      let pad = String.make (2 * (level + 1)) ' ' in
      Buffer.add_string buf "[\n";
      List.iteri
        (fun i item ->
          if i > 0 then Buffer.add_string buf ",\n";
          Buffer.add_string buf pad;
          write_indent buf ~level:(level + 1) item)
        items;
      Buffer.add_char buf '\n';
      Buffer.add_string buf (String.make (2 * level) ' ');
      Buffer.add_char buf ']'
  | Obj ((_ :: _) as fields) ->
      let pad = String.make (2 * (level + 1)) ' ' in
      Buffer.add_string buf "{\n";
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_string buf ",\n";
          Buffer.add_string buf pad;
          write buf (String k);
          Buffer.add_string buf ": ";
          write_indent buf ~level:(level + 1) v)
        fields;
      Buffer.add_char buf '\n';
      Buffer.add_string buf (String.make (2 * level) ' ');
      Buffer.add_char buf '}'
  | other -> write buf other

let to_string_pretty t =
  let buf = Buffer.create 1024 in
  write_indent buf ~level:0 t;
  Buffer.add_char buf '\n';
  Buffer.contents buf

(* Parsing — just enough to validate and introspect our own output. *)

exception Parse_error of string

type parser_state = { s : string; mutable pos : int }

let peek p = if p.pos < String.length p.s then Some p.s.[p.pos] else None

let fail p msg = raise (Parse_error (Printf.sprintf "%s at offset %d" msg p.pos))

let skip_ws p =
  while
    p.pos < String.length p.s
    && (match p.s.[p.pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
  do
    p.pos <- p.pos + 1
  done

let expect p c =
  match peek p with
  | Some x when x = c -> p.pos <- p.pos + 1
  | _ -> fail p (Printf.sprintf "expected %C" c)

let literal p word value =
  let n = String.length word in
  if p.pos + n <= String.length p.s && String.sub p.s p.pos n = word then begin
    p.pos <- p.pos + n;
    value
  end
  else fail p (Printf.sprintf "expected %s" word)

let parse_string_raw p =
  expect p '"';
  let buf = Buffer.create 16 in
  let rec loop () =
    match peek p with
    | None -> fail p "unterminated string"
    | Some '"' -> p.pos <- p.pos + 1
    | Some '\\' -> (
        p.pos <- p.pos + 1;
        match peek p with
        | Some '"' -> Buffer.add_char buf '"'; p.pos <- p.pos + 1; loop ()
        | Some '\\' -> Buffer.add_char buf '\\'; p.pos <- p.pos + 1; loop ()
        | Some '/' -> Buffer.add_char buf '/'; p.pos <- p.pos + 1; loop ()
        | Some 'n' -> Buffer.add_char buf '\n'; p.pos <- p.pos + 1; loop ()
        | Some 'r' -> Buffer.add_char buf '\r'; p.pos <- p.pos + 1; loop ()
        | Some 't' -> Buffer.add_char buf '\t'; p.pos <- p.pos + 1; loop ()
        | Some 'b' -> Buffer.add_char buf '\b'; p.pos <- p.pos + 1; loop ()
        | Some 'f' -> Buffer.add_char buf '\012'; p.pos <- p.pos + 1; loop ()
        | Some 'u' ->
            if p.pos + 5 > String.length p.s then fail p "bad \\u escape";
            let hex = String.sub p.s (p.pos + 1) 4 in
            let code =
              try int_of_string ("0x" ^ hex)
              with Failure _ -> fail p "bad \\u escape"
            in
            (* ASCII range only: that is all this library ever emits. *)
            if code < 0x80 then Buffer.add_char buf (Char.chr code)
            else Buffer.add_string buf (Printf.sprintf "\\u%s" hex);
            p.pos <- p.pos + 5;
            loop ()
        | _ -> fail p "bad escape")
    | Some c ->
        Buffer.add_char buf c;
        p.pos <- p.pos + 1;
        loop ()
  in
  loop ();
  Buffer.contents buf

let parse_number p =
  let start = p.pos in
  let is_num_char c =
    match c with
    | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
    | _ -> false
  in
  while p.pos < String.length p.s && is_num_char p.s.[p.pos] do
    p.pos <- p.pos + 1
  done;
  let tok = String.sub p.s start (p.pos - start) in
  match int_of_string_opt tok with
  | Some i -> Int i
  | None -> (
      match float_of_string_opt tok with
      | Some f -> Float f
      | None -> fail p "bad number")

let rec parse_value p =
  skip_ws p;
  match peek p with
  | None -> fail p "unexpected end of input"
  | Some '{' ->
      p.pos <- p.pos + 1;
      skip_ws p;
      if peek p = Some '}' then begin
        p.pos <- p.pos + 1;
        Obj []
      end
      else begin
        let rec fields acc =
          skip_ws p;
          let k = parse_string_raw p in
          skip_ws p;
          expect p ':';
          let v = parse_value p in
          skip_ws p;
          match peek p with
          | Some ',' ->
              p.pos <- p.pos + 1;
              fields ((k, v) :: acc)
          | Some '}' ->
              p.pos <- p.pos + 1;
              List.rev ((k, v) :: acc)
          | _ -> fail p "expected ',' or '}'"
        in
        Obj (fields [])
      end
  | Some '[' ->
      p.pos <- p.pos + 1;
      skip_ws p;
      if peek p = Some ']' then begin
        p.pos <- p.pos + 1;
        List []
      end
      else begin
        let rec items acc =
          let v = parse_value p in
          skip_ws p;
          match peek p with
          | Some ',' ->
              p.pos <- p.pos + 1;
              items (v :: acc)
          | Some ']' ->
              p.pos <- p.pos + 1;
              List.rev (v :: acc)
          | _ -> fail p "expected ',' or ']'"
        in
        List (items [])
      end
  | Some '"' -> String (parse_string_raw p)
  | Some 't' -> literal p "true" (Bool true)
  | Some 'f' -> literal p "false" (Bool false)
  | Some 'n' -> literal p "null" Null
  | Some _ -> parse_number p

let of_string s =
  let p = { s; pos = 0 } in
  let v = parse_value p in
  skip_ws p;
  if p.pos <> String.length s then fail p "trailing garbage";
  v

let of_string_opt s = try Some (of_string s) with Parse_error _ -> None

(* Accessors *)

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | _ -> None

let rec path keys json =
  match keys with
  | [] -> Some json
  | k :: rest -> ( match member k json with None -> None | Some v -> path rest v)

let to_float_opt = function
  | Int i -> Some (float_of_int i)
  | Float f -> Some f
  | _ -> None

