module Table = Lfs_util.Table

let schema = "lfs-bench/1"

type status = Same | Improved | Regressed | Changed

type delta = {
  figure : string;
  entry : string;  (* entry label, or "#i" when unlabeled *)
  metric : string;
  base : float;
  cur : float;
  pct : float;  (* percent change, cur vs base *)
  status : status;
}

type report = {
  tolerance_pct : float;
  deltas : delta list;
  missing : string list;  (* figure/entry/metric in base but not in cur *)
  unbaselined : string list;  (* figure/entry/metric in cur but not in base *)
}

(* Direction heuristics by metric name.  Throughputs, ratios and hit
   counts want to go up; times, costs and I/O volumes want to go down.
   Unknown metrics gate on any out-of-tolerance change in either
   direction — the simulation is deterministic, so unexplained drift in
   e.g. an axis parameter is a real behavioural change. *)
type direction = Higher | Lower | Unknown

let contains s sub =
  let n = String.length sub and m = String.length s in
  let rec go i =
    if i + n > m then false
    else if String.sub s i n = sub then true
    else go (i + 1)
  in
  go 0

let direction_of metric =
  let has sub = contains metric sub in
  if has "_per_sec" || has "_kbs" || has "ratio" || has "hit" then Higher
  else if
    has "_us" || has "cost" || has "reads" || has "writes" || has "sectors"
    || has "wasted" || has "dropped" || has "_words"
  then Lower
  else Unknown

let pct_change ~base ~cur =
  if base = cur then 0.0
  else if base = 0.0 then infinity *. (if cur > 0.0 then 1.0 else -1.0)
  else (cur -. base) /. Float.abs base *. 100.0

(* Host words allocated are exact counts, not measurements, so their
   band is this narrow whatever the general tolerance: a rise far below
   5% of a figure's allocation still gates. *)
let words_tolerance_pct = 0.1

let status_of ~tolerance_pct ~metric ~base ~cur =
  let tolerance_pct =
    if contains metric "_words" then Float.min tolerance_pct words_tolerance_pct
    else tolerance_pct
  in
  let pct = pct_change ~base ~cur in
  if Float.abs pct <= tolerance_pct then (pct, Same)
  else
    let worse =
      match direction_of metric with
      | Higher -> cur < base
      | Lower -> cur > base
      | Unknown -> true  (* either way: unexplained drift *)
    in
    match (direction_of metric, worse) with
    | Unknown, _ -> (pct, Changed)
    | _, true -> (pct, Regressed)
    | _, false -> (pct, Improved)

let check_schema which doc =
  match Json.member "schema" doc with
  | Some (Json.String s) when s = schema -> ()
  | Some (Json.String s) ->
      invalid_arg
        (Printf.sprintf "benchdiff: %s has schema %S, expected %S" which s
           schema)
  | _ -> invalid_arg (Printf.sprintf "benchdiff: %s is not a %s file" which schema)

let figures doc =
  match Json.member "figures" doc with
  | Some (Json.Obj kvs) -> kvs
  | _ -> invalid_arg "benchdiff: missing \"figures\" object"

let entry_label i entry =
  match Json.member "label" entry with
  | Some (Json.String s) -> s
  | _ -> (
      (* fall back to the first string field (e.g. "fs"), else the index *)
      match entry with
      | Json.Obj kvs -> (
          match
            List.find_opt (function _, Json.String _ -> true | _ -> false) kvs
          with
          | Some (_, Json.String s) -> s
          | _ -> Printf.sprintf "#%d" i)
      | _ -> Printf.sprintf "#%d" i)

(* Only shallow numeric fields are compared: nested objects (per-phase
   breakdowns) are informative detail, and comparing them would make the
   gate hyper-brittle. *)
let numeric_fields entry =
  match entry with
  | Json.Obj kvs ->
      List.filter_map
        (fun (k, v) ->
          match v with
          | Json.Int n -> Some (k, float_of_int n)
          | Json.Float f -> Some (k, f)
          | _ -> None)
        kvs
  | _ -> []

let entries = function Json.List l -> l | _ -> []

(* Names the current entry has and the baseline entry lacks, nested
   objects included, as "/"-joined paths.  A name missing from an object
   is reported once, not once per name beneath it. *)
let rec new_names prefix base cur acc =
  match (base, cur) with
  | Json.Obj bkvs, Json.Obj ckvs ->
      List.fold_left
        (fun acc (k, cv) ->
          let path = if prefix = "" then k else prefix ^ "/" ^ k in
          match List.assoc_opt k bkvs with
          | None -> path :: acc
          | Some bv -> new_names path bv cv acc)
        acc ckvs
  | _ -> acc

let compare ?(tolerance_pct = 5.0) ~base ~cur () =
  check_schema "base" base;
  check_schema "current" cur;
  let base_figs = figures base and cur_figs = figures cur in
  let deltas = ref [] and missing = ref [] and unbaselined = ref [] in
  List.iter
    (fun (fig, base_entries) ->
      let base_entries = entries base_entries in
      match List.assoc_opt fig cur_figs with
      | None -> missing := Printf.sprintf "figure %s" fig :: !missing
      | Some cur_v ->
          let cur_entries = entries cur_v in
          List.iteri
            (fun i base_entry ->
              let label = entry_label i base_entry in
              match List.nth_opt cur_entries i with
              | None ->
                  missing :=
                    Printf.sprintf "%s entry %s" fig label :: !missing
              | Some cur_entry ->
                  List.iter
                    (fun path ->
                      unbaselined :=
                        Printf.sprintf "%s/%s metric %s" fig label path
                        :: !unbaselined)
                    (List.rev (new_names "" base_entry cur_entry []));
                  let cur_nums = numeric_fields cur_entry in
                  List.iter
                    (fun (metric, bval) ->
                      match List.assoc_opt metric cur_nums with
                      | None ->
                          missing :=
                            Printf.sprintf "%s/%s metric %s" fig label metric
                            :: !missing
                      | Some cval ->
                          let pct, status =
                            status_of ~tolerance_pct ~metric ~base:bval
                              ~cur:cval
                          in
                          deltas :=
                            {
                              figure = fig;
                              entry = label;
                              metric;
                              base = bval;
                              cur = cval;
                              pct;
                              status;
                            }
                            :: !deltas)
                    (numeric_fields base_entry))
            base_entries)
    base_figs;
  List.iter
    (fun (fig, cur_v) ->
      match List.assoc_opt fig base_figs with
      | None -> unbaselined := Printf.sprintf "figure %s" fig :: !unbaselined
      | Some base_v ->
          let n = List.length (entries base_v) in
          List.iteri
            (fun i cur_entry ->
              if i >= n then
                unbaselined :=
                  Printf.sprintf "%s entry %s" fig (entry_label i cur_entry)
                  :: !unbaselined)
            (entries cur_v))
    cur_figs;
  {
    tolerance_pct;
    deltas = List.rev !deltas;
    missing = List.rev !missing;
    unbaselined = List.rev !unbaselined;
  }

(* Anything in the baseline that got worse or vanished gates, and so
   does anything the baseline never recorded: the gate cannot check it. *)
let regressions rep =
  List.filter (fun d -> d.status = Regressed || d.status = Changed) rep.deltas

let gates rep =
  regressions rep <> [] || rep.missing <> [] || rep.unbaselined <> []

let status_name = function
  | Same -> "same"
  | Improved -> "improved"
  | Regressed -> "REGRESSED"
  | Changed -> "CHANGED"

let fmt_num f =
  if Float.is_integer f && Float.abs f < 1e15 then
    Printf.sprintf "%d" (int_of_float f)
  else Table.fmt_float ~decimals:2 f

let render rep =
  let interesting = List.filter (fun d -> d.status <> Same) rep.deltas in
  let buf = Buffer.create 256 in
  if interesting = [] && rep.missing = [] && rep.unbaselined = [] then
    Buffer.add_string buf
      (Printf.sprintf
         "benchdiff: %d metrics compared, all within %.1f%% (host words \
          %.1f%%)\n"
         (List.length rep.deltas) rep.tolerance_pct words_tolerance_pct)
  else begin
    let rows =
      List.map
        (fun d ->
          [
            d.figure;
            d.entry;
            d.metric;
            fmt_num d.base;
            fmt_num d.cur;
            Printf.sprintf "%+.1f%%" d.pct;
            status_name d.status;
          ])
        interesting
    in
    Buffer.add_string buf
      (Table.render
         ~headers:
           [ "figure"; "entry"; "metric"; "base"; "current"; "delta"; "status" ]
         rows);
    List.iter
      (fun m -> Buffer.add_string buf (Printf.sprintf "missing in current: %s\n" m))
      rep.missing;
    List.iter
      (fun m -> Buffer.add_string buf (Printf.sprintf "unbaselined: %s\n" m))
      rep.unbaselined;
    let n_reg = List.length (regressions rep) in
    Buffer.add_string buf
      (Printf.sprintf
         "benchdiff: %d metrics compared, %d changed, %d regressed, %d \
          missing, %d unbaselined (tolerance %.1f%%, host words %.1f%%)\n"
         (List.length rep.deltas)
         (List.length interesting)
         n_reg
         (List.length rep.missing)
         (List.length rep.unbaselined)
         rep.tolerance_pct words_tolerance_pct)
  end;
  Buffer.contents buf

let json_of_delta d =
  Json.Obj
    [
      ("figure", Json.String d.figure);
      ("entry", Json.String d.entry);
      ("metric", Json.String d.metric);
      ("base", Json.Float d.base);
      ("current", Json.Float d.cur);
      ("pct", Json.Float d.pct);
      ("status", Json.String (status_name d.status));
    ]

let to_json rep =
  Json.Obj
    [
      ("tolerance_pct", Json.Float rep.tolerance_pct);
      ("compared", Json.Int (List.length rep.deltas));
      ( "deltas",
        Json.List
          (List.filter_map
             (fun d -> if d.status = Same then None else Some (json_of_delta d))
             rep.deltas) );
      ("missing", Json.List (List.map (fun m -> Json.String m) rep.missing));
      ( "unbaselined",
        Json.List (List.map (fun m -> Json.String m) rep.unbaselined) );
      ("gate", Json.Bool (gates rep));
    ]
