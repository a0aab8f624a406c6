(* Whole-program effect analysis for the project lint.

   The per-file AST walk (PR 3) enforces the layering invariants only
   syntactically: a helper that reaches Disk/Clock/Random through one
   level of indirection is invisible.  This module parses every given
   source into one unit, builds an approximate module-qualified call
   graph over all top-level value bindings, and computes transitive
   effect summaries per function via a fixpoint, so the confinement
   rules hold interprocedurally.

   Effects tracked (bitmask):
     DiskIO         a raw Disk.read_into/Disk.write is reachable
     ClockAdvance   Clock.advance_us/advance_to_us is reachable
     AmbientNondet  Unix.*, Sys.time or the ambient Random.* is reachable
     Stdout         a direct stdout print is reachable
     SpanOpen       a raw Bus.span_begin (unbalanced span) is reachable
     Raises         raise/failwith/invalid_arg/assert is reachable

   Approximations (deliberate, conservative where it matters):
     - Calls are resolved by matching a (file-local-alias-expanded)
       identifier path against the suffix of every known qualified
       definition; multiple matches contribute the union of their
       summaries.  Unqualified identifiers resolve only inside their
       own module (locals and stdlib functions carry no effect).
     - `include M` re-registers M's bindings under the including
       module; `module X = A.B` is expanded through a per-file alias
       table; functor applications and first-class modules unpacked in
       patterns ((module F) — virtual dispatch) are opaque (no effect
       assumed — every effect primitive in this codebase is called by
       name, and the packed implementations are analyzed on their own).
     - A qualified call into a module that is neither defined in the
       unit nor on the known-benign list (stdlib, vendored externals,
       the project's own layer names) is UNKNOWN and contributes every
       effect, so dead reckoning fails closed.
     - Mutual recursion is handled by iterating the (finite, monotone)
       summary lattice to its least fixed point.

   Absorption: the sanctioned layers stop propagation — an effect that
   is legal *inside* a module is not inherited by its callers.  Io
   absorbs DiskIO and ClockAdvance (every access through Io is
   accounted and scheduled), Clock/Rng absorb AmbientNondet (they are
   the seeded wrappers), the engine absorbs ClockAdvance (it owns the
   event loop), and Bus absorbs SpanOpen (with_span is the safe
   wrapper).  The syntactic rules still fire at the raw sites inside
   those modules, where the per-file allowlist keeps them justified.

   On top of the summaries, the transitive rule family:
     transitive-disk-io   code outside Io reaches a raw disk access
                          through calls (the file itself never names
                          Disk, so the syntactic rule is blind)
     transitive-nondet    code outside Clock/Rng reaches ambient
                          nondeterminism through calls
     transitive-clock     workload/bench/scenario code reaches direct
                          clock advancement through calls
   plus span exception-safety:
     span-unsafe          a raw Bus.span_begin not protected by
                          Fun.protect ~finally:(... span_end ...) — a
                          Faulty.Crash unwinding the stack would leave
                          the profiler's span tree corrupted; use
                          Bus.with_span (exception-safe) instead.
   The syntactic rules from PR 3-6 (disk-io, nondet, stdout,
   lru-to-list, workload-disk, workload-clock, metric and span naming,
   and per-byte-rng: a Bytes.init/String.init drawing Rng.int per
   element, in lib/ or test/)
   plus scenario-entry (test, CLI and lib code must reach Crashpoint
   sweeps / Faulty.attach through the Lfs_scenario DSL, whose compiler
   is the allowlisted sole caller) and op-entry (Profile.with_op only
   in the shared front end, lib/vfs/fs_ops.ml, the allowlisted sole
   caller; test/ exercises the profiler directly) run over the same
   parse, with identifier paths alias-expanded, so `module D = Disk` no
   longer hides a raw access.
   The analysis also collects the observability catalog: every metric
   name, span name (including the op_* literals owned by
   Profile.op_name) and bus event constructor, with its source site. *)

(* ---------------- effects ---------------- *)

let eff_disk_io = 1
let eff_clock = 2
let eff_nondet = 4
let eff_stdout = 8
let eff_span = 16
let eff_raises = 32
let eff_all = 63

let effect_labels =
  [
    (eff_disk_io, "DiskIO");
    (eff_clock, "ClockAdvance");
    (eff_nondet, "AmbientNondet");
    (eff_stdout, "Stdout");
    (eff_span, "SpanOpen");
    (eff_raises, "Raises");
  ]

let effect_names mask =
  List.filter_map
    (fun (bit, name) -> if mask land bit <> 0 then Some name else None)
    effect_labels

type violation = { rule : string; file : string; line : int; message : string }

(* ---------------- path contexts ---------------- *)

let path_components file = String.split_on_char '/' file
let in_dir dir file = List.mem dir (path_components file)
let bench_ctx file = in_dir "bench" file
let bin_ctx file = in_dir "bin" file
let test_ctx file = in_dir "test" file
let workload_ctx file = in_dir "workload" file || bench_ctx file

(* The scenario DSL compiler: held to the workload tree's disk/clock
   discipline (it drives the same machinery), but *not* given its
   fault-entry exemption — scenario.ml's own raw entry points are
   carried by the allowlist instead, so the hole stays visible. *)
let scenario_ctx file = in_dir "scenario" file

(* Everything that is not a harness tree is held to library standards;
   fixtures without a bench/bin/test component deliberately land here. *)
let lib_ctx file = not (bench_ctx file || bin_ctx file || test_ctx file)

(* ---------------- rule predicates ---------------- *)

let is_disk_value s =
  match List.rev (String.split_on_char '.' s) with
  | _ :: "Disk" :: _ -> true
  | _ -> false

let is_clock_advance s =
  let tails = [ "Clock.advance_us"; "Clock.advance_to_us" ] in
  List.exists
    (fun tail -> s = tail || String.ends_with ~suffix:("." ^ tail) s)
    tails

(* The device's raw data path: every read fills caller buffers through
   [Disk.read_into]. *)
let disk_io_primitives = [ "Disk.read_into"; "Disk.write" ]

let is_disk_io s =
  List.exists
    (fun p -> s = p || String.ends_with ~suffix:("." ^ p) s)
    disk_io_primitives

let is_nondet s =
  String.starts_with ~prefix:"Unix." s
  || s = "Sys.time"
  || s = "Stdlib.Sys.time"
  || (String.starts_with ~prefix:"Random." s
     && not (String.starts_with ~prefix:"Random.State." s))
  || String.starts_with ~prefix:"Stdlib.Random." s

let stdout_idents =
  [
    "print_string"; "print_endline"; "print_newline"; "print_char";
    "print_int"; "print_float"; "print_bytes"; "Printf.printf";
    "Format.printf"; "Format.print_string"; "Format.print_newline";
    "Format.print_flush"; "Format.std_formatter";
  ]

let is_stdout s =
  List.mem s stdout_idents
  || List.exists (fun i -> s = "Stdlib." ^ i) stdout_idents

let is_lru_to_list s =
  s = "Lru.to_list" || String.ends_with ~suffix:".Lru.to_list" s

(* Whole-table walks, most recently used first.  Library code that calls
   them per operation pays for the whole table each time. *)
let is_lru_walk s =
  List.exists
    (fun f -> s = "Lru." ^ f || String.ends_with ~suffix:(".Lru." ^ f) s)
    [ "fold"; "iter" ]

(* Raw fault/sweep entry points that test, CLI and lib code must reach
   through Lfs_scenario (Scenario.run / Scenario.with_faults), so every
   fault run is seed-managed and replayable. *)
let scenario_entries =
  [
    "Crashpoint.sweep"; "Crashpoint.read_fault_run";
    "Crashpoint.bad_sector_run"; "Faulty.attach";
  ]

let is_scenario_entry s =
  List.exists
    (fun t -> s = t || String.ends_with ~suffix:("." ^ t) s)
    scenario_entries

(* An operation's span opens in the shared file-system front end
   (Lfs_vfs.Fs_ops), with its syscall charge and its error wrap, so the
   two systems cannot drift apart in how an operation is entered. *)
let is_op_entry s =
  s = "Profile.with_op" || String.ends_with ~suffix:".Profile.with_op" s

(* Buffer builders whose per-element function draws [Rng.int] take one
   boxed generator step per byte; [Rng.fill_bytes] makes the same bytes
   in one unboxed loop. *)
let is_byte_init s =
  List.exists
    (fun f -> s = f || String.ends_with ~suffix:("." ^ f) s)
    [ "Bytes.init"; "String.init" ]

let is_rng_int s = s = "Rng.int" || String.ends_with ~suffix:".Rng.int" s

let is_raise s =
  List.mem s [ "raise"; "raise_notrace"; "failwith"; "invalid_arg" ]

let metric_registrars =
  [ "Metrics.counter"; "Metrics.gauge"; "Metrics.histogram" ]

let is_metric_registrar s =
  List.exists
    (fun r -> s = r || String.ends_with ~suffix:("." ^ r) s)
    metric_registrars

(* Metrics.member_counter registers "disk.<member>.<literal>" — a whole
   family, one per volume member.  The catalog records the family once
   with the index generalised to the "<i>" placeholder. *)
let is_member_counter_registrar s =
  s = "Metrics.member_counter"
  || String.ends_with ~suffix:".Metrics.member_counter" s

let span_registrars = [ "Bus.with_span"; "Bus.span_begin" ]

let is_span_registrar s =
  List.exists
    (fun r -> s = r || String.ends_with ~suffix:("." ^ r) s)
    span_registrars

let is_span_begin s =
  s = "Bus.span_begin" || String.ends_with ~suffix:".Bus.span_begin" s

let is_span_end s = s = "span_end" || String.ends_with ~suffix:".span_end" s

let is_fun_protect s =
  s = "Fun.protect" || s = "Stdlib.Fun.protect"
  || String.ends_with ~suffix:".Fun.protect" s

let span_name_ok name =
  String.length name > 0
  && (match name.[0] with 'a' .. 'z' -> true | _ -> false)
  && String.for_all
       (fun c -> (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') || c = '_')
       name

let metric_prefixes = [ "disk"; "io"; "cache"; "lfs"; "ffs"; "engine" ]

let metric_name_ok name =
  match String.split_on_char '.' name with
  | first :: (_ :: _ as rest) ->
      List.mem first metric_prefixes
      && List.for_all
           (fun seg ->
             (* "<i>" is the per-member label placeholder (disk.<i>.seeks):
                one catalog entry stands for the whole member family. *)
             seg = "<i>"
             || seg <> ""
                && String.for_all
                     (fun c ->
                       (c >= 'a' && c <= 'z')
                       || (c >= '0' && c <= '9')
                       || c = '_')
                     seg)
           rest
  | _ -> false

(* Effects carried by a single identifier occurrence (the primitives). *)
let eff_of_ident s =
  (if is_disk_io s then eff_disk_io else 0)
  lor (if is_clock_advance s then eff_clock else 0)
  lor (if is_nondet s then eff_nondet else 0)
  lor (if is_stdout s then eff_stdout else 0)
  lor (if is_span_begin s then eff_span else 0)
  lor if is_raise s then eff_raises else 0

(* ---------------- absorption ---------------- *)

(* path-suffix -> effects that are legal inside that module and must
   not be inherited by callers.  Mirrors the allowlist's holes. *)
let absorbers =
  [
    ("disk/io.ml", eff_disk_io lor eff_clock);
    ("disk/disk.ml", eff_disk_io);
    ("disk/clock.ml", eff_nondet);
    ("util/rng.ml", eff_nondet);
    ("workload/engine.ml", eff_clock);
    ("obs/bus.ml", eff_span);
  ]

let absorb file =
  List.fold_left
    (fun acc (suffix, mask) ->
      if String.ends_with ~suffix file then acc lor mask else acc)
    0 absorbers

(* ---------------- unresolved-module classification ---------------- *)

(* Modules assumed effect-free when a qualified call does not resolve
   inside the unit: the stdlib (its effectful entry points are caught
   by the intrinsic predicates above, e.g. Printf.printf, Random.int,
   Sys.time), the vendored externals, and the project's own layer
   names (so a fixture linted in isolation can call Io/Clock/Rng
   without the file set containing them).  Anything else is unknown
   and fails closed to every effect. *)
let benign_modules =
  [
    (* stdlib *)
    "Stdlib"; "List"; "ListLabels"; "Array"; "ArrayLabels"; "Bytes";
    "BytesLabels"; "String"; "StringLabels"; "Char"; "Uchar"; "Int";
    "Int32"; "Int64"; "Nativeint"; "Float"; "Bool"; "Option"; "Result";
    "Either"; "Seq"; "Map"; "Set"; "Hashtbl"; "Queue"; "Stack"; "Buffer";
    "Printf"; "Format"; "Scanf"; "Lexing"; "Parsing"; "Filename"; "Sys";
    "Fun"; "Lazy"; "Gc"; "Marshal"; "Obj"; "Printexc"; "Callback";
    "Domain"; "Atomic"; "Mutex"; "Condition"; "Semaphore"; "Weak";
    "Ephemeron"; "Random"; "Unix"; "Arg"; "Digest"; "Complex"; "Bigarray";
    "In_channel"; "Out_channel"; "Exn"; "StdLabels"; "MoreLabels";
    (* external libraries the repo links against, including the
       submodules their conventional `open` brings into scope
       (Bechamel: Test/Staged/Time/Benchmark/Analyze/Measure; Cmdliner:
       Cmd/Term/Manpage) *)
    "Fmt"; "Logs"; "Cmdliner"; "Bechamel"; "Alcotest"; "QCheck"; "QCheck2";
    "QCheck_alcotest"; "Toolkit"; "Staged"; "Time"; "Benchmark"; "Analyze";
    "Measure"; "Test"; "Cmd"; "Term"; "Manpage";
    (* project layers (fallback for isolated fixtures; in a full run
       these resolve from the unit itself) *)
    "Io"; "Disk"; "Clock"; "Faulty"; "Sched"; "Geometry"; "Cpu_model";
    "Bus"; "Event"; "Metrics"; "Profile"; "Json"; "Benchdiff"; "Rng";
    "Lru"; "Table"; "Zipf"; "Codec"; "Crc32"; "Bitset"; "Errors"; "Path";
    "Fs_intf"; "Dir_block";
  ]

let benign_head head =
  List.mem head benign_modules || String.starts_with ~prefix:"Lfs_" head

(* ---------------- program representation ---------------- *)

type def = {
  qname : string list; (* full module path + value name *)
  dotted : string;
  modpath : string list;
  file : string;
  line : int;
  anon : bool; (* module-init code: cannot be called *)
  mutable occs : (string list * int) list; (* body idents, alias-expanded *)
  mutable direct : int; (* effects from idents in the body *)
  mutable callees : def list;
  mutable unknowns : string list; (* unresolved foreign module heads *)
  mutable expose : int; (* what callers inherit (post-absorption) *)
  mutable from_calls : int; (* union of callee exposures *)
  mutable wits : (int * string) list; (* effect bit -> witness callee *)
}

type file_info = {
  fi_path : string;
  mutable aliases : (string * string list) list; (* module X = A.B *)
  mutable opaque : string list; (* module X = F (Y): no effect assumed *)
  mutable includes : (string list * string list) list; (* at, target *)
}

type site = { s_name : string; s_file : string; s_line : int }

type program = {
  p_defs : def list;
  p_files : file_info list;
  p_metrics : site list; (* registration order *)
  p_spans : site list;
  p_events : site list;
  mutable p_violations : violation list;
}

(* ---------------- parsing and collection ---------------- *)

let line_of_loc (loc : Location.t) = loc.Location.loc_start.Lexing.pos_lnum

let flatten lid =
  match Longident.flatten lid with parts -> parts | exception _ -> []

(* Module path of a source file: lib/<d>/<m>.ml lives in the wrapped
   library Lfs_<d> as module <M>; anything else is a bare module. *)
let root_path file =
  let base =
    String.capitalize_ascii (Filename.remove_extension (Filename.basename file))
  in
  let rec find = function
    | "lib" :: libdir :: _ when libdir <> "" ->
        Some (String.capitalize_ascii ("lfs_" ^ libdir))
    | _ :: tl -> find tl
    | [] -> None
  in
  match find (path_components file) with
  | Some lib -> [ lib; base ]
  | None -> [ base ]

let rec pattern_vars (p : Parsetree.pattern) =
  match p.ppat_desc with
  | Ppat_var { txt; _ } -> [ txt ]
  | Ppat_alias (p, { txt; _ }) -> txt :: pattern_vars p
  | Ppat_tuple ps | Ppat_array ps -> List.concat_map pattern_vars ps
  | Ppat_construct (_, Some (_, p)) | Ppat_variant (_, Some p) ->
      pattern_vars p
  | Ppat_record (fields, _) ->
      List.concat_map (fun (_, p) -> pattern_vars p) fields
  | Ppat_constraint (p, _) | Ppat_lazy p | Ppat_exception p | Ppat_open (_, p)
    ->
      pattern_vars p
  | Ppat_or (a, b) -> pattern_vars a @ pattern_vars b
  | _ -> []

exception Found

(* Does [expr] name an identifier whose path satisfies [pred]? *)
let mentions pred expr =
  let open Ast_iterator in
  let it =
    {
      default_iterator with
      expr =
        (fun it e ->
          (match e.Parsetree.pexp_desc with
          | Pexp_ident { txt; _ } when pred (flatten txt) -> raise Found
          | _ -> ());
          default_iterator.expr it e);
    }
  in
  match it.expr it expr with () -> false | exception Found -> true

let contains_span_end =
  mentions (fun path -> is_span_end (String.concat "." path))

let expand_alias fi path =
  match path with
  | head :: tl when tl <> [] -> (
      match List.assoc_opt head fi.aliases with
      | Some target -> target @ tl
      | None -> path)
  | _ -> path

type collector = {
  mutable c_defs : def list; (* reverse order *)
  mutable c_extra : (string list * def) list; (* extra names -> shared def *)
  mutable c_metrics : site list; (* reverse order *)
  mutable c_spans : site list;
  mutable c_events : site list;
  mutable c_viol : violation list;
  mutable c_files : file_info list;
}

let first_string_literal args =
  List.find_map
    (fun (_, (arg : Parsetree.expression)) ->
      match arg.pexp_desc with
      | Pexp_constant (Pconst_string (s, _, _)) -> Some (s, arg.pexp_loc)
      | _ -> None)
    args

let unwrap_module_expr (me : Parsetree.module_expr) =
  let rec go (me : Parsetree.module_expr) =
    match me.pmod_desc with Pmod_constraint (m, _) -> go m | d -> d
  in
  go me

(* Walk one parsed file, creating defs and recording aliases, includes,
   metric/span registrations, event constructors and span-unsafe
   violations.  Mutable stacks thread the context through Ast_iterator. *)
let collect_file col file (ast : Parsetree.structure) =
  let fi = { fi_path = file; aliases = []; opaque = []; includes = [] } in
  col.c_files <- fi :: col.c_files;
  let modpath = ref (root_path file) in
  let toplevel =
    {
      qname = !modpath @ [ "_toplevel_" ];
      dotted = String.concat "." (!modpath @ [ "_toplevel_" ]);
      modpath = !modpath;
      file;
      line = 1;
      anon = true;
      occs = [];
      direct = 0;
      callees = [];
      unknowns = [];
      expose = 0;
      from_calls = 0;
      wits = [];
    }
  in
  let sink = ref toplevel in
  let protected = ref false in
  let op_names = ref false in
  let new_def ?(anon = false) name line =
    let qname = !modpath @ [ name ] in
    let d =
      {
        qname;
        dotted = String.concat "." qname;
        modpath = !modpath;
        file;
        line;
        anon;
        occs = [];
        direct = 0;
        callees = [];
        unknowns = [];
        expose = 0;
        from_calls = 0;
        wits = [];
      }
    in
    col.c_defs <- d :: col.c_defs;
    d
  in
  let record_module_expr name me =
    match unwrap_module_expr me with
    | Parsetree.Pmod_ident { txt; _ } ->
        fi.aliases <- (name, flatten txt) :: fi.aliases
    | Pmod_apply _ -> fi.opaque <- name :: fi.opaque
    | _ -> ()
  in
  let open Ast_iterator in
  let it =
    {
      default_iterator with
      expr =
        (fun iter (e : Parsetree.expression) ->
          match e.pexp_desc with
          | Pexp_ident { txt; loc } ->
              let path = flatten txt in
              if path <> [] then
                !sink.occs <- (path, line_of_loc loc) :: !sink.occs
          | Pexp_constant (Pconst_string (s, loc, _))
            when !op_names && span_name_ok s ->
              (* Profile.op_name owns the op_* span literals: surface
                 them as span sites so the catalog and the name/dup
                 rules cover them. *)
              col.c_spans <-
                { s_name = s; s_file = file; s_line = line_of_loc loc }
                :: col.c_spans
          | Pexp_letmodule ({ txt = Some name; _ }, me, _) ->
              record_module_expr name me;
              default_iterator.expr iter e
          | Pexp_apply
              (({ pexp_desc = Pexp_ident { txt; _ }; _ } as f), args) ->
              let s = String.concat "." (flatten txt) in
              if is_metric_registrar s && lib_ctx file then (
                match first_string_literal args with
                | Some (name, loc) ->
                    col.c_metrics <-
                      { s_name = name; s_file = file; s_line = line_of_loc loc }
                      :: col.c_metrics
                | None -> ());
              if is_member_counter_registrar s && lib_ctx file then (
                match first_string_literal args with
                | Some (name, loc) ->
                    col.c_metrics <-
                      {
                        s_name = "disk.<i>." ^ name;
                        s_file = file;
                        s_line = line_of_loc loc;
                      }
                      :: col.c_metrics
                | None -> ());
              if is_span_registrar s && lib_ctx file then (
                match first_string_literal args with
                | Some (name, loc) ->
                    col.c_spans <-
                      { s_name = name; s_file = file; s_line = line_of_loc loc }
                      :: col.c_spans
                | None -> ());
              if is_span_begin s && (not !protected) && lib_ctx file then
                col.c_viol <-
                  {
                    rule = "span-unsafe";
                    file;
                    line = line_of_loc e.pexp_loc;
                    message =
                      Printf.sprintf
                        "%s: span not closed on the raise path; wrap in \
                         Bus.with_span (or Fun.protect whose ~finally runs \
                         span_end) so crash injection cannot corrupt the \
                         span tree"
                        s;
                  }
                  :: col.c_viol;
              let expand p = String.concat "." (expand_alias fi p) in
              if
                is_byte_init (expand (flatten txt))
                && not (bench_ctx file || bin_ctx file)
                && List.exists
                     (fun (_, a) -> mentions (fun p -> is_rng_int (expand p)) a)
                     args
              then
                col.c_viol <-
                  {
                    rule = "per-byte-rng";
                    file;
                    line = line_of_loc e.pexp_loc;
                    message =
                      Printf.sprintf
                        "%s drawing Rng.int per element: one boxed \
                         generator step per byte; fill the buffer with \
                         Rng.fill_bytes"
                        s;
                  }
                  :: col.c_viol;
              if is_fun_protect s then begin
                (* Children under the protected thunk see protected=true
                   iff the ~finally argument closes a span. *)
                iter.expr iter f;
                let finally =
                  List.find_map
                    (fun (lbl, (a : Parsetree.expression)) ->
                      match lbl with
                      | Asttypes.Labelled "finally" -> Some a
                      | _ -> None)
                    args
                in
                let closes =
                  match finally with
                  | Some a -> contains_span_end a
                  | None -> false
                in
                List.iter
                  (fun (lbl, (a : Parsetree.expression)) ->
                    match lbl with
                    | Asttypes.Labelled "finally" -> iter.expr iter a
                    | _ ->
                        let saved = !protected in
                        protected := saved || closes;
                        iter.expr iter a;
                        protected := saved)
                  args
              end
              else default_iterator.expr iter e
          | _ -> default_iterator.expr iter e);
      structure_item =
        (fun iter (si : Parsetree.structure_item) ->
          match si.pstr_desc with
          | Pstr_value (_, vbs) ->
              List.iter
                (fun (vb : Parsetree.value_binding) ->
                  let line = line_of_loc vb.pvb_loc in
                  let names = pattern_vars vb.pvb_pat in
                  let d =
                    match names with
                    | [] -> new_def ~anon:true (Printf.sprintf "_init_%d" line) line
                    | n :: _ -> new_def n line
                  in
                  (* A tuple pattern shares one body: the extra bound
                     names resolve to the same def in the index. *)
                  List.iter
                    (fun n -> col.c_extra <- (!modpath @ [ n ], d) :: col.c_extra)
                    (match names with [] -> [] | _ :: tl -> tl);
                  let saved_sink = !sink in
                  sink := d;
                  if
                    String.ends_with ~suffix:"obs/profile.ml" file
                    && names = [ "op_name" ]
                  then op_names := true;
                  iter.expr iter vb.pvb_expr;
                  op_names := false;
                  sink := saved_sink)
                vbs
          | Pstr_include incl ->
              (match unwrap_module_expr incl.pincl_mod with
              | Pmod_ident { txt; _ } ->
                  fi.includes <- (!modpath, flatten txt) :: fi.includes
              | _ -> ());
              default_iterator.structure_item iter si
          | Pstr_open od ->
              (match unwrap_module_expr od.popen_expr with
              | Pmod_ident _ -> () (* opens are not used for resolution *)
              | _ -> ());
              default_iterator.structure_item iter si
          | Pstr_type (_, decls)
            when String.ends_with ~suffix:"obs/event.ml" file ->
              List.iter
                (fun (d : Parsetree.type_declaration) ->
                  if d.ptype_name.txt = "t" then
                    match d.ptype_kind with
                    | Ptype_variant cds ->
                        List.iter
                          (fun (cd : Parsetree.constructor_declaration) ->
                            col.c_events <-
                              {
                                s_name =
                                  String.lowercase_ascii cd.pcd_name.txt;
                                s_file = file;
                                s_line = line_of_loc cd.pcd_loc;
                              }
                              :: col.c_events)
                          cds
                    | _ -> ())
                decls;
              default_iterator.structure_item iter si
          | _ -> default_iterator.structure_item iter si);
      pat =
        (fun iter (p : Parsetree.pattern) ->
          (match p.ppat_desc with
          | Ppat_unpack { txt = Some name; _ } ->
              (* (module F) in a pattern: virtual dispatch; calls
                 through F are opaque, like a functor parameter. *)
              if not (List.mem name fi.opaque) then
                fi.opaque <- name :: fi.opaque
          | _ -> ());
          default_iterator.pat iter p);
      module_binding =
        (fun iter (mb : Parsetree.module_binding) ->
          let name = match mb.pmb_name.txt with Some n -> n | None -> "_" in
          record_module_expr name mb.pmb_expr;
          let saved = !modpath in
          modpath := saved @ [ name ];
          default_iterator.module_binding iter mb;
          modpath := saved);
    }
  in
  it.structure it ast;
  col.c_defs <- toplevel :: col.c_defs

(* ---------------- resolution ---------------- *)

(* Index: last path component -> (full qualified key, def). Synthetic
   keys added by include expansion point at the original def. *)
type index = (string, (string list * def) list) Hashtbl.t

let index_add (idx : index) key d =
  match List.rev key with
  | [] -> ()
  | last :: _ ->
      let prev = Option.value ~default:[] (Hashtbl.find_opt idx last) in
      if not (List.exists (fun (k, d') -> k = key && d' == d) prev) then
        Hashtbl.replace idx last ((key, d) :: prev)

let rec ends_with_path ~suffix path =
  let lp = List.length path and ls = List.length suffix in
  if ls > lp then false
  else if ls = lp then path = suffix
  else ends_with_path ~suffix (List.tl path)

(* All defs whose qualified key ends with the (expanded) ident path. *)
let lookup (idx : index) path =
  match List.rev path with
  | [] -> []
  | last :: _ -> (
      match Hashtbl.find_opt idx last with
      | None -> []
      | Some cands ->
          List.filter_map
            (fun (key, d) ->
              if ends_with_path ~suffix:path key then Some d else None)
            cands)

(* include M at path P: register every def reachable through M under P
   as well.  Iterated a few rounds so include-of-include settles. *)
let expand_includes (idx : index) files defs =
  let sublist_positions ~sub l =
    let n = List.length l and m = List.length sub in
    let arr = Array.of_list l in
    let rec at i j = j >= m || (arr.(i + j) = List.nth sub j && at i (j + 1)) in
    let rec go i acc =
      if i + m > n then List.rev acc
      else go (i + 1) (if at i 0 then i :: acc else acc)
    in
    if m = 0 then [] else go 0 []
  in
  let drop n l =
    let rec go n l = if n = 0 then l else go (n - 1) (List.tl l) in
    go n l
  in
  for _round = 1 to 4 do
    List.iter
      (fun fi ->
        List.iter
          (fun (at, target) ->
            let target = expand_alias fi target in
            List.iter
              (fun d ->
                if not d.anon then
                  let m = List.length target in
                  List.iter
                    (fun i ->
                      let rest = drop (i + m) d.qname in
                      (* keep at least the value name *)
                      if rest <> [] then index_add idx (at @ rest) d)
                    (sublist_positions ~sub:target
                       (List.filteri
                          (fun i _ -> i < List.length d.qname - 1)
                          d.qname)))
              defs)
          fi.includes)
      files
  done

(* ---------------- fixpoint ---------------- *)

let fixpoint defs =
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun d ->
        let v =
          List.fold_left
            (fun acc c -> acc lor c.expose)
            (d.direct lor if d.unknowns <> [] then eff_all else 0)
            d.callees
        in
        let v = v land lnot (absorb d.file) in
        if v <> d.expose then begin
          d.expose <- v;
          changed := true
        end)
      defs
  done;
  (* Final pass: what each function does including callee work, with a
     witness callee per inherited effect (for diagnostics). *)
  List.iter
    (fun d ->
      let fc = ref (if d.unknowns <> [] then eff_all else 0) in
      if d.unknowns <> [] then
        List.iter
          (fun (bit, _) ->
            if not (List.mem_assoc bit d.wits) then
              d.wits <-
                (bit, Printf.sprintf "<unknown module %s>" (List.hd d.unknowns))
                :: d.wits)
          effect_labels;
      List.iter
        (fun c ->
          List.iter
            (fun (bit, _) ->
              if c.expose land bit <> 0 then begin
                fc := !fc lor bit;
                if not (List.mem_assoc bit d.wits) then
                  d.wits <- (bit, c.dotted) :: d.wits
              end)
            effect_labels)
        d.callees;
      d.from_calls <- !fc)
    defs

(* Witness chain for an inherited effect, e.g.
   "Lfs_cache.Warm.fill -> Lfs_core.Helper.nudge -> Disk.write". *)
let witness_chain defs bit d =
  let by_name = Hashtbl.create 64 in
  List.iter (fun d -> Hashtbl.replace by_name d.dotted d) defs;
  let rec go d acc depth =
    if depth > 12 then List.rev ("..." :: acc)
    else
      match List.assoc_opt bit d.wits with
      | None -> List.rev acc
      | Some w -> (
          match Hashtbl.find_opt by_name w with
          | Some next when next.direct land bit <> 0 ->
              List.rev (w :: acc) (* raw site reached *)
          | Some next -> go next (w :: acc) depth
          | None -> List.rev (w :: acc))
  in
  String.concat " -> " (d.dotted :: go d [] 0)

(* ---------------- rule passes ---------------- *)

let syntactic_checks program =
  let report rule file line message =
    program.p_violations <-
      { rule; file; line; message } :: program.p_violations
  in
  List.iter
    (fun d ->
      let file = d.file in
      List.iter
        (fun (path, line) ->
          let s = String.concat "." path in
          if (workload_ctx file || scenario_ctx file) && is_disk_value s then
            report "workload-disk" file line
              (Printf.sprintf
                 "%s: workloads and benchmarks must go through Io (or \
                  Faulty), never the raw Disk"
                 s)
          else if (workload_ctx file || scenario_ctx file) && is_clock_advance s
          then
            report "workload-clock" file line
              (Printf.sprintf
                 "%s: time moves only through the engine's event loop and \
                  the Io layer, never by direct Clock advancement"
                 s)
          else if
            is_scenario_entry s
            && (test_ctx file || bin_ctx file || lib_ctx file)
            && not (workload_ctx file)
          then
            report "scenario-entry" file line
              (Printf.sprintf
                 "%s: raw fault/sweep entry point; drive it through \
                  Lfs_scenario (Scenario.run or Scenario.with_faults) so \
                  the run is seed-managed and replayable"
                 s)
          else if is_op_entry s && not (test_ctx file) then
            report "op-entry" file line
              (Printf.sprintf
                 "%s: operation spans open only in Lfs_vfs.Fs_ops; run the \
                  operation through it (Fs_ops.syscall for a per-system \
                  body)"
                 s)
          else if is_disk_io s && not (test_ctx file) then
            report "disk-io" file line
              (Printf.sprintf
                 "%s: raw disk access outside Lfs_disk.Io bypasses request \
                  accounting"
                 s)
          else if is_nondet s then
            report "nondet" file line
              (Printf.sprintf
                 "%s: ambient nondeterminism; use the simulated Clock or \
                  Lfs_util.Rng"
                 s)
          else if is_stdout s && lib_ctx file then
            report "stdout" file line
              (Printf.sprintf
                 "%s: lib/ code must not print to stdout; use Lfs_obs" s)
          else if is_lru_to_list s && not (test_ctx file) then
            report "lru-to-list" file line
              (Printf.sprintf
                 "%s: test/debug-only; hot paths use \
                  iter_lru/fold_lru/sweep_lru"
                 s)
          else if is_lru_walk s && lib_ctx file then
            report "lru-to-list" file line
              (Printf.sprintf
                 "%s: walks the whole table on every call; keep an index \
                  of what the operation needs, or use \
                  iter_lru/fold_lru/sweep_lru and stop early"
                 s))
        d.occs)
    program.p_defs

let registration_checks program =
  let report rule file line message =
    program.p_violations <-
      { rule; file; line; message } :: program.p_violations
  in
  let seen : (string, string * int) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if not (metric_name_ok s.s_name) then
        report "metric-name" s.s_file s.s_line
          (Printf.sprintf
             "metric %S does not match <%s>.<lowercase_dotted> convention"
             s.s_name
             (String.concat "|" metric_prefixes));
      match Hashtbl.find_opt seen s.s_name with
      | Some _ ->
          report "metric-dup" s.s_file s.s_line
            (Printf.sprintf "metric %S is already registered elsewhere"
               s.s_name)
      | None -> Hashtbl.replace seen s.s_name (s.s_file, s.s_line))
    program.p_metrics;
  let seen_span : (string, unit) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if not (span_name_ok s.s_name) then
        report "span-name" s.s_file s.s_line
          (Printf.sprintf "span %S is not snake_case ([a-z][a-z0-9_]*)"
             s.s_name);
      if Hashtbl.mem seen_span s.s_name then
        report "span-dup" s.s_file s.s_line
          (Printf.sprintf "span %S is already opened elsewhere" s.s_name)
      else Hashtbl.replace seen_span s.s_name ())
    program.p_spans

let transitive_checks program =
  let report rule d prim bit =
    program.p_violations <-
      {
        rule;
        file = d.file;
        line = d.line;
        message =
          Printf.sprintf "%s: reaches %s through calls: %s"
            (List.nth d.qname (List.length d.qname - 1))
            prim
            (witness_chain program.p_defs bit d);
      }
      :: program.p_violations
  in
  List.iter
    (fun d ->
      (* Inherited-only effects: a direct raw site is the syntactic
         rules' business; the absorber modules own their effects. *)
      let inherited = d.from_calls land lnot d.direct land lnot (absorb d.file) in
      if inherited land eff_disk_io <> 0 && not (test_ctx d.file) then
        report "transitive-disk-io" d "raw disk I/O" eff_disk_io;
      if inherited land eff_nondet <> 0 && not (test_ctx d.file) then
        report "transitive-nondet" d "ambient nondeterminism" eff_nondet;
      if
        inherited land eff_clock <> 0
        && (workload_ctx d.file || scenario_ctx d.file)
      then report "transitive-clock" d "direct clock advancement" eff_clock)
    program.p_defs

(* ---------------- analysis driver ---------------- *)

let analyze sources =
  let col =
    {
      c_defs = [];
      c_extra = [];
      c_metrics = [];
      c_spans = [];
      c_events = [];
      c_viol = [];
      c_files = [];
    }
  in
  let parse_errors = ref [] in
  List.iter
    (fun (path, text) ->
      let lexbuf = Lexing.from_string text in
      Lexing.set_filename lexbuf path;
      match Parse.implementation lexbuf with
      | ast -> collect_file col path ast
      | exception exn ->
          parse_errors :=
            {
              rule = "parse";
              file = path;
              line = 1;
              message =
                Printf.sprintf "cannot parse: %s" (Printexc.to_string exn);
            }
            :: !parse_errors)
    sources;
  let defs = List.rev col.c_defs in
  let files = List.rev col.c_files in
  let fi_of = Hashtbl.create 16 in
  List.iter (fun fi -> Hashtbl.replace fi_of fi.fi_path fi) files;
  (* Alias-expand every body identifier up front: both the syntactic
     predicates and the resolver see through `module D = Disk`. *)
  List.iter
    (fun d ->
      match Hashtbl.find_opt fi_of d.file with
      | Some fi ->
          d.occs <- List.rev_map (fun (p, l) -> (expand_alias fi p, l)) d.occs
      | None -> ())
    defs;
  (* Call-graph edges. *)
  let idx : index = Hashtbl.create 256 in
  List.iter (fun d -> if not d.anon then index_add idx d.qname d) defs;
  List.iter (fun (qname, d) -> index_add idx qname d) col.c_extra;
  expand_includes idx files defs;
  List.iter
    (fun d ->
      let fi = Hashtbl.find_opt fi_of d.file in
      let opaque =
        match fi with Some fi -> fi.opaque | None -> []
      in
      List.iter
        (fun (path, _line) ->
          let s = String.concat "." path in
          d.direct <- d.direct lor eff_of_ident s;
          match path with
          | [ name ] ->
              (* Unqualified: same-module definitions only; locals and
                 stdlib carry no effect. *)
              List.iter
                (fun c -> if not (List.memq c d.callees) then
                    d.callees <- c :: d.callees)
                (List.filter
                   (fun c -> c.modpath = d.modpath)
                   (lookup idx (d.modpath @ [ name ])))
          | head :: _ ->
              if not (List.mem head opaque) then begin
                match lookup idx path with
                | _ :: _ as cs ->
                    List.iter
                      (fun c ->
                        if (not (c == d)) && not (List.memq c d.callees) then
                          d.callees <- c :: d.callees)
                      cs
                | [] ->
                    if not (benign_head head) then
                      if not (List.mem head d.unknowns) then
                        d.unknowns <- head :: d.unknowns
              end
          | [] -> ())
        d.occs)
    defs;
  fixpoint defs;
  let program =
    {
      p_defs = defs;
      p_files = files;
      p_metrics = List.rev col.c_metrics;
      p_spans = List.rev col.c_spans;
      p_events = List.rev col.c_events;
      p_violations = List.rev col.c_viol;
    }
  in
  syntactic_checks program;
  registration_checks program;
  transitive_checks program;
  program.p_violations <- program.p_violations @ !parse_errors;
  program.p_violations <-
    List.stable_sort
      (fun (a : violation) (b : violation) ->
        match compare a.file b.file with
        | 0 -> (
            match compare a.line b.line with
            | 0 -> compare a.rule b.rule
            | c -> c)
        | c -> c)
      program.p_violations;
  program

(* ---------------- queries (for tests and the CLI) ---------------- *)

let def_by_name program dotted =
  List.find_opt (fun d -> d.dotted = dotted && not d.anon) program.p_defs

let full_effects d = effect_names (d.direct lor d.from_calls)
let expose_effects d = effect_names d.expose
let callee_names d = List.sort compare (List.map (fun c -> c.dotted) d.callees)

(* ---------------- JSON helpers ---------------- *)

let json_escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 32 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let json_string s = Printf.sprintf "\"%s\"" (json_escape s)

(* ---------------- effect-summary export ---------------- *)

(* Per-module effect tables: DESIGN.md's layering diagram, checkable. *)
let summary_json program =
  let b = Buffer.create 4096 in
  let modules = Hashtbl.create 64 in
  List.iter
    (fun d ->
      if not d.anon then begin
        let m = String.concat "." d.modpath in
        let prev = Option.value ~default:[] (Hashtbl.find_opt modules m) in
        Hashtbl.replace modules m (d :: prev)
      end)
    program.p_defs;
  let names =
    List.sort compare (Hashtbl.fold (fun k _ acc -> k :: acc) modules [])
  in
  Buffer.add_string b "{\n  \"schema\": \"lfs-lint-effects/1\",\n  \"modules\": {\n";
  List.iteri
    (fun i m ->
      let ds = List.rev (Hashtbl.find modules m) in
      let file = match ds with d :: _ -> d.file | [] -> "" in
      Buffer.add_string b
        (Printf.sprintf "    %s: {\n      \"file\": %s,\n" (json_string m)
           (json_string file));
      let abs = effect_names (absorb file) in
      if abs <> [] then
        Buffer.add_string b
          (Printf.sprintf "      \"absorbs\": [%s],\n"
             (String.concat ", " (List.map json_string abs)));
      Buffer.add_string b "      \"functions\": {\n";
      let seen = Hashtbl.create 16 in
      let ds =
        List.filter
          (fun d ->
            let n = d.dotted in
            if Hashtbl.mem seen n then false
            else begin
              Hashtbl.replace seen n ();
              true
            end)
          ds
      in
      List.iteri
        (fun j d ->
          let name = List.nth d.qname (List.length d.qname - 1) in
          Buffer.add_string b
            (Printf.sprintf "        %s: [%s]%s\n" (json_string name)
               (String.concat ", " (List.map json_string (full_effects d)))
               (if j = List.length ds - 1 then "" else ",")))
        ds;
      Buffer.add_string b "      }\n";
      Buffer.add_string b
        (Printf.sprintf "    }%s\n" (if i = List.length names - 1 then "" else ",")))
    names;
  Buffer.add_string b "  }\n}\n";
  Buffer.contents b

(* ---------------- observability catalog ---------------- *)

type catalog = {
  cat_metrics : site list; (* sorted by name, first site wins *)
  cat_spans : site list;
  cat_events : site list;
}

let dedup_sites sites =
  let seen = Hashtbl.create 64 in
  let keep =
    List.filter
      (fun s ->
        if Hashtbl.mem seen s.s_name then false
        else begin
          Hashtbl.replace seen s.s_name ();
          true
        end)
      sites
  in
  List.sort (fun a b -> compare a.s_name b.s_name) keep

let catalog program =
  {
    cat_metrics = dedup_sites program.p_metrics;
    cat_spans = dedup_sites program.p_spans;
    cat_events = dedup_sites program.p_events;
  }

let catalog_json cat =
  let b = Buffer.create 4096 in
  let section name sites last =
    Buffer.add_string b (Printf.sprintf "  %s: [\n" (json_string name));
    List.iteri
      (fun i s ->
        Buffer.add_string b
          (Printf.sprintf "    { \"name\": %s, \"file\": %s, \"line\": %d }%s\n"
             (json_string s.s_name) (json_string s.s_file) s.s_line
             (if i = List.length sites - 1 then "" else ",")))
      sites;
    Buffer.add_string b (Printf.sprintf "  ]%s\n" (if last then "" else ","))
  in
  Buffer.add_string b "{\n  \"schema\": \"lfs-lint-catalog/1\",\n";
  section "metrics" cat.cat_metrics false;
  section "spans" cat.cat_spans false;
  section "events" cat.cat_events true;
  Buffer.add_string b "}\n";
  Buffer.contents b

(* The doc block checked by --check-catalog; regenerate with
   --catalog-md after adding a metric, span or event. *)
let catalog_md cat =
  let b = Buffer.create 2048 in
  let names sites = List.map (fun s -> Printf.sprintf "`%s`" s.s_name) sites in
  Buffer.add_string b "<!-- lint-catalog:begin -->\n";
  Buffer.add_string b
    "_Generated by `lint.exe --catalog-md`; `dune runtest` fails on drift \
     (see `lint.exe --check-catalog`)._\n\n";
  Buffer.add_string b
    (Printf.sprintf "**Metrics** (%d): %s\n\n"
       (List.length cat.cat_metrics)
       (String.concat ", " (names cat.cat_metrics)));
  Buffer.add_string b
    (Printf.sprintf "**Spans** (%d): %s\n\n"
       (List.length cat.cat_spans)
       (String.concat ", " (names cat.cat_spans)));
  Buffer.add_string b
    (Printf.sprintf "**Events** (%d): %s\n"
       (List.length cat.cat_events)
       (String.concat ", " (names cat.cat_events)));
  Buffer.add_string b "<!-- lint-catalog:end -->\n";
  Buffer.contents b

(* Quoted tokens in a JSON baseline that look like metric names. *)
let baseline_metric_refs text =
  let out = ref [] in
  let n = String.length text in
  let i = ref 0 in
  while !i < n do
    if text.[!i] = '"' then begin
      let j = ref (!i + 1) in
      while !j < n && text.[!j] <> '"' && text.[!j] <> '\\' do incr j done;
      if !j < n && text.[!j] = '"' then begin
        let tok = String.sub text (!i + 1) (!j - !i - 1) in
        if metric_name_ok tok && not (List.mem tok !out) then
          out := tok :: !out;
        i := !j + 1
      end
      else i := !i + 1
    end
    else incr i
  done;
  List.rev !out

(* Backticked names on the **Metrics**/**Spans**/**Events** lines of
   the doc block between the lint-catalog markers. *)
let doc_catalog text =
  let lines = String.split_on_char '\n' text in
  let in_block = ref false in
  let metrics = ref [] and spans = ref [] and events = ref [] in
  let ticked line =
    let out = ref [] in
    let parts = String.split_on_char '`' line in
    List.iteri (fun i p -> if i mod 2 = 1 then out := p :: !out) parts;
    List.rev !out
  in
  List.iter
    (fun line ->
      if String.trim line = "<!-- lint-catalog:begin -->" then in_block := true
      else if String.trim line = "<!-- lint-catalog:end -->" then
        in_block := false
      else if !in_block then
        if String.starts_with ~prefix:"**Metrics**" line then
          metrics := ticked line
        else if String.starts_with ~prefix:"**Spans**" line then
          spans := ticked line
        else if String.starts_with ~prefix:"**Events**" line then
          events := ticked line)
    lines;
  (!metrics, !spans, !events)
