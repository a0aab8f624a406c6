(* Host-side measurement from outside the program.

   Everything here observes the storage stack through its public surface:
   a monotonic host clock and the OCaml allocation counters around each
   call the benchmark makes, the simulated clock ([Io.now_us]), registry
   snapshots ([Io.metrics]), and — in traced rounds only — a subscriber
   on the span events the program already emits on its bus. *)

module Io = Lfs_disk.Io
module Bus = Lfs_obs.Bus
module Event = Lfs_obs.Event
module Metrics = Lfs_obs.Metrics
module Profile = Lfs_obs.Profile

(* ---- host clock and allocation ---------------------------------------- *)

let now_ns () = Monotonic_clock.now ()
let seconds_since t0 = Int64.to_float (Int64.sub (now_ns ()) t0) *. 1e-9

(* Words allocated so far: minor plus direct-major allocation (promoted
   words are counted once, in the minor figure). *)
let words () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

let timed f =
  let t0 = now_ns () in
  let v = f () in
  (v, seconds_since t0)

(* ---- growable sample vectors and order statistics --------------------- *)

module Vec = struct
  type 'a t = { mutable a : 'a array; mutable n : int; dummy : 'a }

  let create dummy = { a = Array.make 256 dummy; n = 0; dummy }

  let push v x =
    if v.n = Array.length v.a then begin
      let b = Array.make (2 * v.n) v.dummy in
      Array.blit v.a 0 b 0 v.n;
      v.a <- b
    end;
    v.a.(v.n) <- x;
    v.n <- v.n + 1

  let sorted v =
    let s = Array.sub v.a 0 v.n in
    Array.sort compare s;
    s

  let append dst src =
    for i = 0 to src.n - 1 do
      push dst src.a.(i)
    done
end

(* Nearest-rank percentile of a sorted array; [None] when empty. *)
let percentile sorted q =
  let n = Array.length sorted in
  if n = 0 then None
  else
    let rank = int_of_float (Float.ceil (q *. float_of_int n)) in
    Some sorted.(max 0 (min (n - 1) (rank - 1)))

let median_float = function
  | [] -> nan
  | l ->
      let a = Array.of_list l in
      Array.sort compare a;
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* ---- per-call recorder -------------------------------------------------- *)

(* One row per file-system call name ("create", "write", ...). *)
type call_stat = {
  mutable calls : int;
  host_us : float Vec.t;  (** traced rounds only *)
  mutable call_words : float;  (** traced rounds only *)
}

type recorder = {
  clock : Lfs_disk.Clock.t;  (** not the [Io.t]: a finished round must not keep its media alive *)
  traced : bool;
  lat_us : int Vec.t;  (** simulated µs of every counted op *)
  mutable ops : int;
  mutable failed : int;
  mutable failures : string list;  (** the first few, for the report *)
  mutable user_written : int;
  mutable user_read : int;
  mutable fingerprint : int;  (** hash of the op stream *)
  per_call : (string, call_stat) Hashtbl.t;
}

let recorder ~traced io =
  {
    clock = Io.clock io;
    traced;
    lat_us = Vec.create 0;
    ops = 0;
    failed = 0;
    failures = [];
    user_written = 0;
    user_read = 0;
    fingerprint = 0;
    per_call = Hashtbl.create 8;
  }

let fail r msg =
  r.failed <- r.failed + 1;
  if List.length r.failures < 5 then r.failures <- msg :: r.failures

let call_stat r name =
  match Hashtbl.find_opt r.per_call name with
  | Some s -> s
  | None ->
      let s = { calls = 0; host_us = Vec.create 0.0; call_words = 0.0 } in
      Hashtbl.replace r.per_call name s;
      s

(* Run one file-system call.  An [Error] result or an exception is
   counted as a failed op and returned as [Error], never propagated.
   [count:false] keeps the call out of the op count and the simulated
   latency sample (Engine-driven calls, whose ops Engine itself counts).
   [arg] (a request size or offset) joins the op-stream fingerprint. *)
let call ?(count = true) ?(arg = 0) r name path f =
  let sim0 = Lfs_disk.Clock.now_us r.clock in
  let h0 = if r.traced then now_ns () else 0L in
  let w0 = if r.traced then words () else 0.0 in
  let result =
    match f () with
    | v -> v
    | exception exn ->
        Error (Lfs_vfs.Errors.Einval ("exception " ^ Printexc.to_string exn))
  in
  if r.traced then begin
    let w1 = words () in
    let s = call_stat r name in
    s.calls <- s.calls + 1;
    Vec.push s.host_us (Int64.to_float (Int64.sub (now_ns ()) h0) /. 1e3);
    s.call_words <- s.call_words +. (w1 -. w0)
  end;
  if count then begin
    r.ops <- r.ops + 1;
    Vec.push r.lat_us (Lfs_disk.Clock.now_us r.clock - sim0)
  end;
  r.fingerprint <- Hashtbl.hash (r.fingerprint, name, path, arg);
  (match result with
  | Ok _ -> ()
  | Error e ->
      fail r (Printf.sprintf "%s %s: %s" name path (Lfs_vfs.Errors.to_string e)));
  result

(* Forget what an unmeasured prefix recorded (Engine's own set-up). *)
let reset_counts r =
  r.user_written <- 0;
  r.user_read <- 0;
  Hashtbl.reset r.per_call

let ok = function Ok v -> Some v | Error _ -> None

(* Compare a read with what the workload wrote; a mismatch is a failed op. *)
let check_read r path ~expected = function
  | None -> ()
  | Some data ->
      r.user_read <- r.user_read + Bytes.length data;
      if not (Bytes.equal data expected) then
        fail r (Printf.sprintf "read %s: content differs from what was written" path)

(* ---- span self-time, from the program's own span events ---------------- *)

type frame = {
  f_name : string;
  f_t0 : int64;
  f_w0 : float;
  mutable child_ns : int64;
  mutable child_words : float;
}

type span_stat = {
  mutable n : int;
  mutable self_ns : int64;
  mutable self_words : float;
}

type spans = {
  mutable stack : frame list;
  table : (string, span_stat) Hashtbl.t;
}

let span_stat sp name =
  match Hashtbl.find_opt sp.table name with
  | Some s -> s
  | None ->
      let s = { n = 0; self_ns = 0L; self_words = 0.0 } in
      Hashtbl.replace sp.table name s;
      s

(* A span's self time is its duration minus the part its child spans
   cover; allocation is split the same way. *)
let on_span sp (r : Event.record) =
  match r.Event.event with
  | Event.Span_begin { name; _ } ->
      let w0 = words () in
      sp.stack <-
        { f_name = name; f_t0 = now_ns (); f_w0 = w0; child_ns = 0L; child_words = 0.0 }
        :: sp.stack
  | Event.Span_end { name; _ } ->
      let t1 = now_ns () in
      let w1 = words () in
      let rec close = function
        | [] -> []
        | f :: rest when f.f_name = name ->
            let dur = Int64.sub t1 f.f_t0 and dw = w1 -. f.f_w0 in
            let s = span_stat sp name in
            s.n <- s.n + 1;
            s.self_ns <- Int64.add s.self_ns (Int64.sub dur f.child_ns);
            s.self_words <- s.self_words +. (dw -. f.child_words);
            (match rest with
            | p :: _ ->
                p.child_ns <- Int64.add p.child_ns dur;
                p.child_words <- p.child_words +. dw
            | [] -> ());
            rest
        | _ :: rest -> close rest
      in
      sp.stack <- close sp.stack
  | _ -> ()

let span_self_s sp names =
  List.fold_left
    (fun acc name ->
      match Hashtbl.find_opt sp.table name with
      | Some s -> acc +. (Int64.to_float s.self_ns *. 1e-9)
      | None -> acc)
    0.0 names

(* ---- the measured window ------------------------------------------------ *)

type tracing = {
  spans : spans;
  sub : Bus.subscription;
  profile : Profile.t;
  bus : Bus.t;
}

type window = {
  w_io : Io.t;
  w_t0 : int64;
  w_sim0 : int;
  w_words0 : float;
  w_gc0 : Gc.stat;
  w_snap0 : Metrics.snapshot;
  mutable carry : Metrics.snapshot option;
      (** [lfs.*] counters accumulated before a remount reset them *)
  tracing : tracing option;
}

type closed = {
  host_s : float;
  sim_us : int;
  alloc_words : float;
  promoted_words : float;
  minor_collections : int;
  major_collections : int;
  delta : Metrics.snapshot;  (** registry delta over the window *)
  spans_table : spans option;
  profile_report : Profile.report option;
}

let start_window ~traced io =
  let tracing =
    if traced then begin
      let bus = Io.bus io in
      let spans = { stack = []; table = Hashtbl.create 16 } in
      let sub = Bus.subscribe bus (on_span spans) in
      Some { spans; sub; profile = Profile.attach bus; bus }
    end
    else None
  in
  let snap0 = Metrics.snapshot (Io.metrics io) in
  let gc0 = Gc.quick_stat () in
  {
    w_io = io;
    w_snap0 = snap0;
    w_gc0 = gc0;
    w_words0 = words ();
    w_sim0 = Io.now_us io;
    w_t0 = now_ns ();
    carry = None;
    tracing;
  }

(* Call just before remounting on the same stack: a mount zeroes the
   [lfs.*] counters, so the pre-remount part of the window is kept. *)
let before_remount w =
  let now = Metrics.snapshot (Io.metrics w.w_io) in
  w.carry <- Some (Metrics.diff ~before:w.w_snap0 ~after:now)

let close_window w =
  let host_s = seconds_since w.w_t0 in
  let sim_us = Io.now_us w.w_io - w.w_sim0 in
  let words1 = words () in
  let gc1 = Gc.quick_stat () in
  let snap1 = Metrics.snapshot (Io.metrics w.w_io) in
  let spans_table, profile_report =
    match w.tracing with
    | None -> (None, None)
    | Some t ->
        Bus.unsubscribe t.bus t.sub;
        Profile.detach t.profile;
        (Some t.spans, Some (Profile.report t.profile))
  in
  let delta =
    match w.carry with
    | None -> Metrics.diff ~before:w.w_snap0 ~after:snap1
    | Some carried ->
        (* lfs.* restart from zero at the remount; everything else runs on. *)
        let plain = Metrics.diff ~before:w.w_snap0 ~after:snap1 in
        List.map
          (fun (name, v) ->
            if not (String.starts_with ~prefix:"lfs." name) then (name, v)
            else
              match (v, Metrics.find carried name, Metrics.find snap1 name) with
              | Metrics.Counter _, Some (Metrics.Counter a), Some (Metrics.Counter b) ->
                  (name, Metrics.Counter (a + b))
              | _ -> (name, v))
          plain
  in
  {
    host_s;
    sim_us;
    alloc_words = words1 -. w.w_words0;
    promoted_words = gc1.Gc.promoted_words -. w.w_gc0.Gc.promoted_words;
    minor_collections = gc1.Gc.minor_collections - w.w_gc0.Gc.minor_collections;
    major_collections = gc1.Gc.major_collections - w.w_gc0.Gc.major_collections;
    delta;
    spans_table;
    profile_report;
  }

let counter snap name = Option.value ~default:0 (Metrics.counter_value snap name)

(* A histogram's (sum, count), so means can be pooled across windows. *)
let hist_parts snap name =
  match Metrics.find snap name with
  | Some (Metrics.Histogram h) -> (h.Metrics.sum, h.Metrics.count)
  | _ -> (0, 0)
