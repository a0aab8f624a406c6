(* Disk request queue with pluggable service disciplines.

   The queue is pure policy: it holds pending requests and decides which
   one the device services next, given the head position.  All timing
   (when a request starts, what positioning costs) stays in [Io]/[Disk].

   Correctness under reordering: a request is *eligible* only when no
   older queued request overlaps its sector range.  Overlapping requests
   therefore service in issue order, which preserves write-after-write
   and read-after-write semantics no matter how aggressively the
   discipline reorders disjoint requests. *)

type discipline = Fcfs | Scan | Cscan

let discipline_name = function
  | Fcfs -> "fcfs"
  | Scan -> "scan"
  | Cscan -> "cscan"

type entry = {
  id : int;
  kind : [ `Read | `Write ];
  sync : bool;
  sector : int;
  count : int;
  data : Bytes.t option;
  arrival_us : int;
}

type t = {
  discipline : discipline;
  mutable entries : entry list;  (* issue order, oldest first *)
  mutable next_id : int;
  mutable upward : bool;  (* SCAN sweep direction *)
}

let create discipline =
  { discipline; entries = []; next_id = 0; upward = true }

let discipline t = t.discipline
let length t = List.length t.entries
let is_empty t = t.entries = []
let clear t = t.entries <- []

let enqueue t ~kind ~sync ~sector ~count ~data ~arrival_us =
  if count <= 0 then invalid_arg "Sched.enqueue: count <= 0";
  let e =
    { id = t.next_id; kind; sync; sector; count; data; arrival_us }
  in
  t.next_id <- t.next_id + 1;
  t.entries <- t.entries @ [ e ];
  e

let overlaps a b =
  a.sector < b.sector + b.count && b.sector < a.sector + a.count

(* Entries with no older overlapping entry still queued.  Preserves
   issue order (the entries list is oldest-first). *)
let eligible t =
  List.filter
    (fun e ->
      List.for_all (fun f -> f.id >= e.id || not (overlaps e f)) t.entries)
    t.entries

let min_by cmp = function
  | [] -> None
  | x :: rest ->
      Some (List.fold_left (fun best e -> if cmp e best < 0 then e else best) x rest)

let by_sector_asc a b =
  match compare a.sector b.sector with 0 -> compare a.id b.id | c -> c

let by_sector_desc a b =
  match compare b.sector a.sector with 0 -> compare a.id b.id | c -> c

let select t ~head =
  match eligible t with
  | [] -> None
  | elig ->
      let above = List.filter (fun e -> e.sector >= head) elig in
      let below = List.filter (fun e -> e.sector < head) elig in
      let chosen =
        match t.discipline with
        | Fcfs -> List.hd elig
        | Scan -> (
            (* Elevator: keep sweeping in the current direction, serving
               the nearest request ahead of the head; reverse only when
               nothing is left on that side. *)
            match (t.upward, above, below) with
            | true, _ :: _, _ -> Option.get (min_by by_sector_asc above)
            | true, [], _ ->
                t.upward <- false;
                Option.get (min_by by_sector_desc below)
            | false, _, _ :: _ -> Option.get (min_by by_sector_desc below)
            | false, _, [] ->
                t.upward <- true;
                Option.get (min_by by_sector_asc above))
        | Cscan -> (
            (* One-directional sweep: nearest request at or above the
               head, wrapping to the lowest sector when the sweep runs
               off the end.  Bounded starvation: every request waits at
               most one full sweep. *)
            match above with
            | _ :: _ -> Option.get (min_by by_sector_asc above)
            | [] -> Option.get (min_by by_sector_asc elig))
      in
      t.entries <- List.filter (fun e -> e.id <> chosen.id) t.entries;
      Some chosen
