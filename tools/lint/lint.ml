(* Project lint CLI: whole-program static analysis over lib/**/*.ml
   (plus bench/, bin/ and test/) enforcing the layering invariants the
   simulation depends on but the type system cannot see.  All sources
   are parsed into one unit (compiler-libs, parse-only — a violation
   fails even if the code compiles) and Analysis builds a
   module-qualified call graph with transitive effect summaries; see
   analysis.ml for the rule inventory and the approximations.

   Rules (each with a negative fixture under fixtures/):

     syntactic (per raw site, identifier paths alias-expanded):
       disk-io, nondet, stdout, lru-to-list, workload-disk,
       workload-clock, scenario-entry, op-entry, metric-name, metric-dup,
       span-name, span-dup, per-byte-rng
     span exception-safety:
       span-unsafe   a raw Bus.span_begin whose span_end is not on the
                     raise path (not Bus.with_span / Fun.protect)
     transitive (via the effect fixpoint; fixtures/program/ is a
     multi-file unit where the raw site is in a *different* module
     than the flagged caller):
       transitive-disk-io, transitive-nondet, transitive-clock
     allowlist hygiene (--check-stale-allowlist):
       stale-allowlist   an allowlist entry that suppresses zero
                         violations is a hole with no justification

   Scope notes: bench/bin print reports, so stdout applies only to
   lib/; test/ may exercise Disk, Lru.to_list and raw spans directly,
   so those rules skip it (Lru.fold/Lru.iter are flagged in lib/
   only); metric/span registration is collected from
   lib/ only (harnesses read counters back through the same
   get-or-create API).  scenario-entry runs the other way round: it
   covers test/, bin/ and lib/ (the workload tree owns the raw
   machinery and is exempt), keeping Crashpoint sweeps and
   Faulty.attach behind the seed-managed Lfs_scenario DSL.  op-entry
   keeps Profile.with_op in the file-system front end
   (lib/vfs/fs_ops.ml, allowlisted) everywhere but test/.
   per-byte-rng covers lib/ and test/: a Bytes.init/String.init whose
   element function draws Rng.int is flagged, since Rng.fill_bytes
   makes the same bytes without a boxed step per byte.

   Allowlist: "<rule> <path-suffix>" lines; a violation is suppressed
   when its rule matches and its file path ends with the suffix.  With
   --check-stale-allowlist, an entry that suppresses nothing fails the
   run (see tools/lint/allowlist for the justified holes).

   Observability catalog: --catalog emits every metric name, span name
   (including Profile.op_name's op_* literals) and bus event
   constructor as JSON; --catalog-md renders the doc block committed
   in EXPERIMENTS.md; --check-catalog verifies the committed
   BENCH_*.json baselines reference only known metric names and that
   the doc block matches the catalog exactly, so a renamed metric
   cannot silently orphan a gated baseline.

   Usage:
     lint.exe [--allowlist FILE] [--check-stale-allowlist] [--json]
              [--summary FILE] PATH...
     lint.exe --catalog PATH...      observability catalog as JSON
     lint.exe --catalog-md PATH...   catalog doc block (for EXPERIMENTS.md)
     lint.exe --check-catalog [--baseline FILE]... --doc FILE PATH...
     lint.exe --self-test DIR        check fixture expectations: each
                                     fixture's first line is
                                     "(* expect: <rule> *)" (or
                                     "(* expect: clean *)", or the file
                                     is named good*.ml and must lint
                                     clean); DIR/program is linted as
                                     one multi-file unit; DIR/stale.allowlist
                                     exercises stale-entry detection

   Exit status: 0 clean, 1 violations (or fixture expectation/drift
   failures), 2 usage / IO errors. *)

module A = Analysis

(* --- file discovery ------------------------------------------------- *)

(* Hidden entries are skipped: under _build they are dune's object
   directories, which a concurrent compile may be rewriting. *)
let rec ml_files path =
  if Sys.is_directory path then
    Sys.readdir path |> Array.to_list
    |> List.filter (fun name -> name.[0] <> '.')
    |> List.sort String.compare
    |> List.concat_map (fun name -> ml_files (Filename.concat path name))
  else if Filename.check_suffix path ".ml" then [ path ]
  else []

let read_file file =
  let ic = open_in_bin file in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let analyze_paths paths =
  let files = List.concat_map ml_files paths in
  if files = [] then begin
    Printf.eprintf "lint: no .ml files under %s\n" (String.concat " " paths);
    exit 2
  end;
  A.analyze (List.map (fun f -> (f, read_file f)) files)

(* --- allowlist ------------------------------------------------------- *)

type allow_entry = { a_rule : string; a_suffix : string; a_line : int }

let load_allowlist file =
  let ic = open_in file in
  let rec loop lineno acc =
    match input_line ic with
    | exception End_of_file ->
        close_in_noerr ic;
        List.rev acc
    | line -> (
        let payload =
          match String.index_opt line '#' with
          | Some i -> String.sub line 0 i
          | None -> line
        in
        match
          String.split_on_char ' ' payload
          |> List.concat_map (String.split_on_char '\t')
          |> List.filter (fun s -> s <> "")
        with
        | [ a_rule; a_suffix ] ->
            loop (lineno + 1) ({ a_rule; a_suffix; a_line = lineno } :: acc)
        | [] -> loop (lineno + 1) acc
        | _ ->
            Printf.eprintf "%s: malformed allowlist line %S\n" file line;
            exit 2)
  in
  loop 1 []

let entry_matches e (v : A.violation) =
  e.a_rule = v.A.rule && String.ends_with ~suffix:e.a_suffix v.A.file

(* Returns (live violations, stale entries). *)
let apply_allowlist entries violations =
  let hits = Hashtbl.create 16 in
  let live =
    List.filter
      (fun v ->
        match List.find_opt (fun e -> entry_matches e v) entries with
        | Some e ->
            Hashtbl.replace hits (e.a_rule, e.a_suffix) ();
            false
        | None -> true)
      violations
  in
  let stale =
    List.filter (fun e -> not (Hashtbl.mem hits (e.a_rule, e.a_suffix))) entries
  in
  (live, stale)

(* --- output ---------------------------------------------------------- *)

let print_text (v : A.violation) =
  Printf.printf "%s:%d: [%s] %s\n" v.A.file v.A.line v.A.rule v.A.message

let print_json violations =
  print_string "[\n";
  List.iteri
    (fun i (v : A.violation) ->
      Printf.printf
        "  { \"file\": %s, \"line\": %d, \"rule\": %s, \"message\": %s }%s\n"
        (A.json_string v.A.file) v.A.line (A.json_string v.A.rule)
        (A.json_string v.A.message)
        (if i = List.length violations - 1 then "" else ","))
    violations;
  print_string "]\n"

(* --- catalog cross-check --------------------------------------------- *)

let check_catalog program baselines doc =
  let cat = A.catalog program in
  let known = List.map (fun s -> s.A.s_name) in
  let metrics = known cat.A.cat_metrics in
  let spans = known cat.A.cat_spans in
  let events = known cat.A.cat_events in
  let errors = ref [] in
  let err fmt = Printf.ksprintf (fun s -> errors := s :: !errors) fmt in
  List.iter
    (fun file ->
      List.iter
        (fun name ->
          if not (List.mem name metrics) then
            err
              "%s: references metric %S which is not registered anywhere in \
               lib/ (renamed? regenerate the baseline, see EXPERIMENTS.md)"
              file name)
        (A.baseline_metric_refs (read_file file)))
    baselines;
  (match doc with
  | None -> ()
  | Some file ->
      let dm, ds, de = A.doc_catalog (read_file file) in
      if dm = [] && ds = [] && de = [] then
        err "%s: no lint-catalog block found (run lint.exe --catalog-md)" file;
      let diff label doc_names cat_names =
        List.iter
          (fun n ->
            if not (List.mem n cat_names) then
              err "%s: documents %s %S which no longer exists (run lint.exe \
                   --catalog-md)" file label n)
          doc_names;
        List.iter
          (fun n ->
            if not (List.mem n doc_names) then
              err "%s: %s %S is not documented (run lint.exe --catalog-md)"
                file label n)
          cat_names
      in
      diff "metric" dm metrics;
      diff "span" ds spans;
      diff "event" de events);
  match List.rev !errors with
  | [] ->
      Printf.printf
        "lint: catalog in sync (%d metrics, %d spans, %d events; %d \
         baseline(s))\n"
        (List.length metrics) (List.length spans) (List.length events)
        (List.length baselines)
  | es ->
      List.iter (fun e -> Printf.printf "lint: catalog drift: %s\n" e) es;
      exit 1

(* --- self-test over fixtures ----------------------------------------- *)

let expected_rule file =
  let ic = open_in file in
  let first = try input_line ic with End_of_file -> "" in
  close_in_noerr ic;
  let prefix = "(* expect: " and suffix = " *)" in
  if
    String.starts_with ~prefix first
    && String.ends_with ~suffix first
    && String.length first > String.length prefix + String.length suffix
  then
    Some
      (String.sub first (String.length prefix)
         (String.length first - String.length prefix - String.length suffix))
  else None

(* One fixture file's verdict against the rules fired in it. *)
let check_expectation failures file fired =
  let base = Filename.basename file in
  match expected_rule file with
  | Some "clean" ->
      if fired = [] then Printf.printf "fixture %s: ok (clean)\n" base
      else begin
        incr failures;
        Printf.printf "fixture %s: FAILED — expected clean, fired [%s]\n" base
          (String.concat "; " fired)
      end
  | Some rule ->
      if List.mem rule fired then
        Printf.printf "fixture %s: ok (%s)\n" base rule
      else begin
        incr failures;
        Printf.printf "fixture %s: FAILED — expected rule %s, fired [%s]\n"
          base rule
          (String.concat "; " fired)
      end
  | None ->
      if String.starts_with ~prefix:"good" base then
        if fired = [] then Printf.printf "fixture %s: ok (clean)\n" base
        else begin
          incr failures;
          Printf.printf "fixture %s: FAILED — expected clean, fired [%s]\n"
            base
            (String.concat "; " fired)
        end
      else begin
        incr failures;
        Printf.printf
          "fixture %s: FAILED — missing \"(* expect: <rule> *)\" header\n" base
      end

let fired_in program file =
  List.filter_map
    (fun (v : A.violation) -> if v.A.file = file then Some v.A.rule else None)
    program.A.p_violations

let self_test dir =
  let failures = ref 0 in
  let program_dir = Filename.concat dir "program" in
  let in_program f = String.starts_with ~prefix:(program_dir ^ "/") f in
  (* Single-file fixtures: each is its own unit (the transitive pass
     still runs; unresolved sanctioned modules are assumed benign). *)
  List.iter
    (fun file ->
      if not (in_program file) then begin
        let program = A.analyze [ (file, read_file file) ] in
        check_expectation failures file (fired_in program file)
      end)
    (ml_files dir);
  (* Multi-file program fixtures: one unit, expectations per file.  The
     acceptance case lives here: the raw effect is two calls away from
     the flagged module, invisible to the syntactic rules. *)
  if Sys.file_exists program_dir && Sys.is_directory program_dir then begin
    let files = ml_files program_dir in
    let program = A.analyze (List.map (fun f -> (f, read_file f)) files) in
    List.iter
      (fun file -> check_expectation failures file (fired_in program file))
      files;
    (* Stale-allowlist detection: entries whose suffix starts with
       "never" must be reported stale against the program unit; the
       others must be live. *)
    let stale_file = Filename.concat dir "stale.allowlist" in
    if Sys.file_exists stale_file then begin
      let entries = load_allowlist stale_file in
      let _live, stale = apply_allowlist entries program.A.p_violations in
      let expect_stale e = String.starts_with ~prefix:"never" e.a_suffix in
      let ok =
        List.for_all
          (fun e -> List.memq e stale = expect_stale e)
          entries
        && List.exists expect_stale entries
        && List.exists (fun e -> not (expect_stale e)) entries
      in
      if ok then
        Printf.printf "fixture stale.allowlist: ok (stale-allowlist)\n"
      else begin
        incr failures;
        Printf.printf
          "fixture stale.allowlist: FAILED — stale set [%s] (expected the \
           never/* entries, and only those)\n"
          (String.concat "; "
             (List.map (fun e -> e.a_rule ^ " " ^ e.a_suffix) stale))
      end
    end
  end;
  if !failures > 0 then begin
    Printf.printf "%d fixture(s) failed\n" !failures;
    exit 1
  end

(* --- entry point ------------------------------------------------------ *)

let usage () =
  prerr_endline
    "usage: lint.exe [--allowlist FILE] [--check-stale-allowlist] [--json]\n\
    \                [--summary FILE] PATH...\n\
    \       lint.exe --catalog PATH...\n\
    \       lint.exe --catalog-md PATH...\n\
    \       lint.exe --check-catalog [--baseline FILE]... --doc FILE PATH...\n\
    \       lint.exe --self-test DIR";
  exit 2

type opts = {
  mutable allowlist : allow_entry list;
  mutable allowlist_file : string;
  mutable check_stale : bool;
  mutable json : bool;
  mutable summary : string option;
  mutable catalog : bool;
  mutable catalog_md : bool;
  mutable check_cat : bool;
  mutable baselines : string list;
  mutable doc : string option;
  mutable paths : string list;
}

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  match args with
  | [ "--self-test"; dir ] -> self_test dir
  | _ ->
      let o =
        {
          allowlist = [];
          allowlist_file = "";
          check_stale = false;
          json = false;
          summary = None;
          catalog = false;
          catalog_md = false;
          check_cat = false;
          baselines = [];
          doc = None;
          paths = [];
        }
      in
      let rec parse = function
        | "--allowlist" :: file :: rest ->
            o.allowlist <- load_allowlist file;
            o.allowlist_file <- file;
            parse rest
        | "--summary" :: file :: rest ->
            o.summary <- Some file;
            parse rest
        | "--baseline" :: file :: rest ->
            o.baselines <- o.baselines @ [ file ];
            parse rest
        | "--doc" :: file :: rest ->
            o.doc <- Some file;
            parse rest
        | "--check-stale-allowlist" :: rest ->
            o.check_stale <- true;
            parse rest
        | "--json" :: rest ->
            o.json <- true;
            parse rest
        | "--catalog" :: rest ->
            o.catalog <- true;
            parse rest
        | "--catalog-md" :: rest ->
            o.catalog_md <- true;
            parse rest
        | "--check-catalog" :: rest ->
            o.check_cat <- true;
            parse rest
        | ("--allowlist" | "--summary" | "--baseline" | "--doc" | "--self-test"
          | "--help" | "-h")
          :: _ ->
            usage ()
        | p :: rest ->
            o.paths <- o.paths @ [ p ];
            parse rest
        | [] -> ()
      in
      parse args;
      if o.paths = [] then usage ();
      let program = analyze_paths o.paths in
      if o.catalog then print_string (A.catalog_json (A.catalog program))
      else if o.catalog_md then print_string (A.catalog_md (A.catalog program))
      else if o.check_cat then check_catalog program o.baselines o.doc
      else begin
        (match o.summary with
        | Some file ->
            let oc = open_out file in
            output_string oc (A.summary_json program);
            close_out oc
        | None -> ());
        let live, stale = apply_allowlist o.allowlist program.A.p_violations in
        let live =
          if o.check_stale then
            live
            @ List.map
                (fun e ->
                  {
                    A.rule = "stale-allowlist";
                    file = o.allowlist_file;
                    line = e.a_line;
                    message =
                      Printf.sprintf
                        "entry \"%s %s\" suppresses zero violations; every \
                         allowlist entry must justify a live hole"
                        e.a_rule e.a_suffix;
                  })
                stale
          else live
        in
        if o.json then print_json live
        else begin
          List.iter print_text live;
          if live = [] then
            Printf.printf
              "lint: %d file(s) clean (%d defs, %d metric registrations, %d \
               spans)\n"
              (List.length program.A.p_files)
              (List.length
                 (List.filter (fun d -> not d.A.anon) program.A.p_defs))
              (List.length (A.catalog program).A.cat_metrics)
              (List.length (A.catalog program).A.cat_spans)
          else
            Printf.printf "lint: %d violation(s) in %d file(s)\n"
              (List.length live)
              (List.length
                 (List.sort_uniq String.compare
                    (List.map (fun (v : A.violation) -> v.A.file) live)))
        end;
        if live <> [] then exit 1
      end
