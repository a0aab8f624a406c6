module Metrics = Lfs_obs.Metrics

type stream = {
  mutable next_blkno : int;
  mutable run : int;
  mutable window : int;
  mutable ra_next : int;  (* first block not yet covered by a planned window *)
  mutable pending : (int, unit) Hashtbl.t option;
      (* made by the stream's first [mark_issued]: most streams never
         prefetch *)
}

type t = {
  min_run : int;
  initial_window : int;
  max_window : int;
  streams : (int, stream) Hashtbl.t;
  c_issued : Metrics.counter;
  c_hit : Metrics.counter;
  c_wasted : Metrics.counter;
}

let create ?(min_run = 4) ?(initial_window = 4) ~max_window metrics =
  if max_window < 0 then invalid_arg "Readahead.create: negative max_window";
  if min_run <= 0 || initial_window <= 0 then
    invalid_arg "Readahead.create: min_run and initial_window must be positive";
  {
    min_run;
    initial_window;
    max_window;
    streams = Hashtbl.create 16;
    c_issued = Metrics.counter metrics "io.readahead.issued";
    c_hit = Metrics.counter metrics "io.readahead.hit";
    c_wasted = Metrics.counter metrics "io.readahead.wasted";
  }

let enabled t = t.max_window > 0
let max_window t = t.max_window

(* Prefetched blocks the consumer never asked for count as wasted the
   moment the stream is abandoned; this keeps
   issued = hit + wasted + pending an invariant. *)
let abandon t stream =
  (match stream.pending with
  | Some pending ->
      Metrics.add t.c_wasted (Hashtbl.length pending);
      Hashtbl.reset pending
  | None -> ());
  stream.run <- 0;
  stream.window <- t.initial_window;
  stream.ra_next <- 0

let observe t ~owner ~first ~last =
  if not (enabled t) then None
  else begin
    let nblocks = last - first + 1 in
    let stream =
      match Hashtbl.find_opt t.streams owner with
      | Some s -> s
      | None ->
          let s =
            {
              next_blkno = -1;
              run = 0;
              window = t.initial_window;
              ra_next = 0;
              pending = None;
            }
          in
          Hashtbl.replace t.streams owner s;
          s
    in
    if first = stream.next_blkno then stream.run <- stream.run + nblocks
    else begin
      abandon t stream;
      stream.run <- nblocks
    end;
    stream.next_blkno <- last + 1;
    if stream.run >= t.min_run then begin
      (* Plan the next window ahead of what previous windows already
         cover, and only once the reader has consumed into the second
         half of the frontier — so steady state issues one full window
         per half-window consumed, not a dribble of tiny top-ups. *)
      let next_needed = last + 1 in
      let frontier = max stream.ra_next next_needed in
      if frontier - next_needed <= stream.window / 2 then begin
        let count = min stream.window t.max_window in
        stream.ra_next <- frontier + count;
        stream.window <- min (stream.window * 2) t.max_window;
        Some (frontier, count)
      end
      else None
    end
    else None
  end

let mark_issued t ~owner ~blkno =
  match Hashtbl.find_opt t.streams owner with
  | None -> ()
  | Some stream ->
      let pending =
        match stream.pending with
        | Some p -> p
        | None ->
            let p = Hashtbl.create 8 in
            stream.pending <- Some p;
            p
      in
      if not (Hashtbl.mem pending blkno) then begin
        Hashtbl.replace pending blkno ();
        Metrics.incr t.c_issued
      end

let served t ~owner ~blkno ~hit =
  if enabled t then
    match Hashtbl.find_opt t.streams owner with
    | None | Some { pending = None; _ } -> ()
    | Some { pending = Some pending; _ } ->
        if Hashtbl.mem pending blkno then begin
          Hashtbl.remove pending blkno;
          (* A miss on a pending block means the prefetch was evicted
             before the reader arrived: the transfer was wasted. *)
          Metrics.incr (if hit then t.c_hit else t.c_wasted)
        end

let forget t ~owner =
  match Hashtbl.find_opt t.streams owner with
  | None -> ()
  | Some stream ->
      abandon t stream;
      Hashtbl.remove t.streams owner

let reset t =
  Hashtbl.iter (fun _ stream -> abandon t stream) t.streams;
  Hashtbl.reset t.streams

let issued t = Metrics.value t.c_issued
let hit t = Metrics.value t.c_hit
let wasted t = Metrics.value t.c_wasted
