module Metrics = Lfs_obs.Metrics

type policy =
  | Stripe of { chunk_sectors : int }
  | Mirror
  | Log_stripe of { stripe_sectors : int }

let policy_name = function
  | Stripe _ -> "stripe"
  | Mirror -> "mirror"
  | Log_stripe _ -> "log_stripe"

type run = {
  member : int;
  sector : int;
  count : int;
  pieces : (int * int) list;
}

type t = {
  policy : policy;
  nmembers : int;
  chunk : int;  (* striping chunk in sectors; 0 for mirrors *)
  disks : Disk.t array;
  member_geometry : Geometry.t;
  geometry : Geometry.t;  (* logical: sectors field replaced *)
  metrics : Metrics.t;
}

let create policy ~members geometry =
  if members < 1 then invalid_arg "Volume.create: members < 1";
  let chunk =
    match policy with
    | Mirror -> 0
    | Stripe { chunk_sectors } ->
        if chunk_sectors < 1 then
          invalid_arg "Volume.create: chunk_sectors < 1";
        chunk_sectors
    | Log_stripe { stripe_sectors } ->
        if stripe_sectors < 1 then
          invalid_arg "Volume.create: stripe_sectors < 1";
        if stripe_sectors mod members <> 0 then
          invalid_arg
            (Printf.sprintf
               "Volume.create: stripe of %d sectors not divisible by %d \
                members"
               stripe_sectors members);
        stripe_sectors / members
  in
  let msectors = geometry.Geometry.sectors in
  let logical_sectors =
    match policy with
    | Mirror -> msectors
    | Stripe _ | Log_stripe _ ->
        let chunks_per_member = msectors / chunk in
        if chunks_per_member < 1 then
          invalid_arg "Volume.create: member smaller than one chunk";
        members * chunks_per_member * chunk
  in
  let metrics = Metrics.create () in
  {
    policy;
    nmembers = members;
    chunk;
    disks =
      Array.init members (fun i -> Disk.create ~metrics ~member:i geometry);
    member_geometry = geometry;
    geometry = { geometry with Geometry.sectors = logical_sectors };
    metrics;
  }

let of_disk d =
  let g = Disk.geometry d in
  {
    policy = Mirror;
    nmembers = 1;
    chunk = 0;
    disks = [| d |];
    member_geometry = g;
    geometry = g;
    metrics = Disk.metrics d;
  }

let policy t = t.policy
let members t = t.nmembers
let geometry t = t.geometry
let member_geometry t = t.member_geometry
let metrics t = t.metrics

let member_disk t i =
  if i < 0 || i >= t.nmembers then
    invalid_arg (Printf.sprintf "Volume.member_disk: member %d of %d" i t.nmembers);
  t.disks.(i)

let check_range t ~sector ~count =
  if sector < 0 || count <= 0 || sector + count > t.geometry.Geometry.sectors
  then
    invalid_arg
      (Printf.sprintf "Volume: request [%d, +%d) out of range (%d sectors)"
         sector count t.geometry.Geometry.sectors)

(* Walk the request chunk by chunk, accumulating one contiguous run per
   member.  Chunk [k] lives on member [k mod n] at member sector
   [(k / n) * chunk]; a request covers consecutive chunks, so each
   member's fragments land back to back on the media (asserted below) and
   merge into a single run.  Runs come out ordered by the first logical
   sector they cover — the order a sequential device would have serviced
   the data in. *)
let chunked_runs t ~sector ~count =
  let c = t.chunk and n = t.nmembers in
  let acc = Array.make n None in
  let order = ref [] in
  let ls = ref sector and remaining = ref count in
  while !remaining > 0 do
    let k = !ls / c in
    let off_in_chunk = !ls mod c in
    let m = k mod n in
    let msec = ((k / n) * c) + off_in_chunk in
    let take = min (c - off_in_chunk) !remaining in
    (match acc.(m) with
    | None ->
        acc.(m) <- Some (msec, take, [ (!ls - sector, take) ]);
        order := m :: !order
    | Some (first, total, pieces) ->
        assert (msec = first + total);
        acc.(m) <- Some (first, total + take, (!ls - sector, take) :: pieces));
    ls := !ls + take;
    remaining := !remaining - take
  done;
  List.rev_map
    (fun m ->
      match acc.(m) with
      | Some (first, total, pieces) ->
          { member = m; sector = first; count = total; pieces = List.rev pieces }
      | None -> assert false)
    !order

let full_run ~member ~sector ~count = { member; sector; count; pieces = [ (0, count) ] }

let map_write t ~sector ~count =
  check_range t ~sector ~count;
  match t.policy with
  | Mirror -> List.init t.nmembers (fun m -> full_run ~member:m ~sector ~count)
  | Stripe _ | Log_stripe _ -> chunked_runs t ~sector ~count

let map_read t ~sector ~count =
  check_range t ~sector ~count;
  match t.policy with
  | Mirror -> [ full_run ~member:0 ~sector ~count ]
  | Stripe _ | Log_stripe _ -> chunked_runs t ~sector ~count

let locate t ~sector =
  check_range t ~sector ~count:1;
  match t.policy with
  | Mirror -> (0, sector)
  | Stripe _ | Log_stripe _ ->
      let c = t.chunk and n = t.nmembers in
      let k = sector / c in
      (k mod n, ((k / n) * c) + (sector mod c))

let logical_of t ~member ~msec =
  if member < 0 || member >= t.nmembers || msec < 0 then
    invalid_arg "Volume.logical_of";
  match t.policy with
  | Mirror -> msec
  | Stripe _ | Log_stripe _ ->
      let c = t.chunk and n = t.nmembers in
      let j = msec / c in
      (((j * n) + member) * c) + (msec mod c)

(* Members copy their chunks straight into (and out of) their slice of
   the volume image: no per-member intermediate image. *)
let snapshot t =
  let msize = Geometry.size_bytes t.member_geometry in
  let out = Bytes.create (t.nmembers * msize) in
  Array.iteri (fun i d -> Disk.snapshot_into d out ~off:(i * msize)) t.disks;
  out

let restore t media =
  let msize = Geometry.size_bytes t.member_geometry in
  if Bytes.length media <> t.nmembers * msize then
    invalid_arg "Volume.restore: snapshot size mismatch";
  Array.iteri (fun i d -> Disk.restore_from d media ~off:(i * msize)) t.disks
