(* expect: lru-to-list *)
(* Lru.fold and Lru.iter visit every entry, most recently used first:
   run per operation, they cost the whole cache each time. *)
let oldest_dirty cache =
  Lru.fold (fun _ e acc -> if e.dirty then Some e else acc) cache None

let count cache =
  let n = ref 0 in
  Lfs_util.Lru.iter (fun _ _ -> incr n) cache;
  !n
