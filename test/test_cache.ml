(* The file cache: dirty tracking, eviction discipline, write-back
   triggers. *)

module Cache = Lfs_cache.Block_cache
module Clock = Lfs_disk.Clock

let key owner blkno = { Cache.owner; blkno }

let make ?(capacity_blocks = 4) () =
  let clock = Clock.create () in
  (Cache.create ~capacity_blocks clock, clock)

let block c = Bytes.make 16 c

let test_insert_find () =
  let t, _ = make () in
  Cache.insert t (key 1 0) ~dirty:false (block 'a');
  Alcotest.(check bool) "mem" true (Cache.mem t (key 1 0));
  (match Cache.find t (key 1 0) with
  | Some b -> Alcotest.(check char) "content" 'a' (Bytes.get b 0)
  | None -> Alcotest.fail "lost");
  Alcotest.(check int) "hits" 1 (Cache.stats_hits t);
  ignore (Cache.find t (key 9 9));
  Alcotest.(check int) "misses" 1 (Cache.stats_misses t)

let test_dirty_lifecycle () =
  let t, _ = make () in
  Cache.insert t (key 1 0) ~dirty:false (block 'a');
  Alcotest.(check int) "clean" 0 (Cache.dirty_count t);
  Cache.mark_dirty t (key 1 0);
  Cache.mark_dirty t (key 1 0);
  Alcotest.(check int) "one dirty" 1 (Cache.dirty_count t);
  Cache.mark_clean t (key 1 0);
  Alcotest.(check int) "cleaned" 0 (Cache.dirty_count t);
  Alcotest.(check bool) "mark_dirty missing raises" true
    (try
       Cache.mark_dirty t (key 5 5);
       false
     with Not_found -> true)

let test_clean_eviction_only () =
  let t, _ = make ~capacity_blocks:2 () in
  Cache.insert t (key 1 0) ~dirty:true (block 'a');
  Cache.insert t (key 1 1) ~dirty:true (block 'b');
  Cache.insert t (key 1 2) ~dirty:true (block 'c');
  (* Nothing evictable: the cache must hold all three and admit it is
     over capacity. *)
  Alcotest.(check int) "holds dirty" 3 (Cache.length t);
  Alcotest.(check bool) "over capacity" true (Cache.over_capacity t);
  Cache.mark_clean t (key 1 0);
  Cache.mark_clean t (key 1 1);
  (* Next insert reclaims clean LRU entries down to capacity. *)
  Cache.insert t (key 1 3) ~dirty:false (block 'd');
  Alcotest.(check bool) "within capacity" true (Cache.length t <= 2 + 1);
  Alcotest.(check bool) "dirty survived" true (Cache.mem t (key 1 2))

let test_fold_dirty_order () =
  let t, _ = make ~capacity_blocks:10 () in
  Cache.insert t (key 1 0) ~dirty:true (block 'a');
  Cache.insert t (key 2 0) ~dirty:true (block 'b');
  Cache.insert t (key 1 1) ~dirty:false (block 'c');
  Cache.insert t (key 3 0) ~dirty:true (block 'd');
  let keys = Cache.dirty_keys t in
  Alcotest.(check int) "three dirty" 3 (List.length keys);
  (* Oldest first. *)
  Alcotest.(check int) "oldest owner" 1 (List.hd keys).Cache.owner

let test_age_tracking () =
  let t, clock = make () in
  Alcotest.(check int) "no dirty" (-1) (Cache.oldest_dirty_age_us t);
  Cache.insert t (key 1 0) ~dirty:true (block 'a');
  Clock.advance_us clock 1_000;
  Cache.insert t (key 1 1) ~dirty:true (block 'b');
  Clock.advance_us clock 500;
  Alcotest.(check int) "oldest age" 1_500 (Cache.oldest_dirty_age_us t);
  Cache.mark_clean t (key 1 0);
  Alcotest.(check int) "second age" 500 (Cache.oldest_dirty_age_us t)

let test_remove_and_drop_clean () =
  let t, _ = make ~capacity_blocks:10 () in
  Cache.insert t (key 1 0) ~dirty:true (block 'a');
  Cache.insert t (key 1 1) ~dirty:false (block 'b');
  Cache.remove t (key 1 0);
  Alcotest.(check int) "dirty count updated" 0 (Cache.dirty_count t);
  Cache.insert t (key 2 0) ~dirty:true (block 'c');
  Cache.drop_clean t;
  Alcotest.(check bool) "clean dropped" false (Cache.mem t (key 1 1));
  Alcotest.(check bool) "dirty kept" true (Cache.mem t (key 2 0))

let test_insert_never_evicts_self () =
  let t, _ = make ~capacity_blocks:2 () in
  Cache.insert t (key 1 0) ~dirty:true (block 'a');
  Cache.insert t (key 1 1) ~dirty:true (block 'b');
  Cache.insert t (key 1 2) ~dirty:true (block 'c');
  (* Over capacity with nothing but dirty blocks: the only clean entry
     eviction could pick is the one being inserted.  It must survive —
     evicting the block just fetched would make every subsequent miss on
     it refetch from disk forever. *)
  Cache.insert t (key 2 0) ~dirty:false (block 'd');
  Alcotest.(check bool) "just-inserted clean block survives" true
    (Cache.mem t (key 2 0));
  (* The protection covers only the insert itself: the next clean insert
     picks the older clean block as its victim. *)
  Cache.insert t (key 2 1) ~dirty:false (block 'e');
  Alcotest.(check bool) "newest insert survives" true (Cache.mem t (key 2 1));
  Alcotest.(check bool) "older clean block evicted" false
    (Cache.mem t (key 2 0))

let test_insert_replaces_dirty () =
  let t, _ = make () in
  Cache.insert t (key 1 0) ~dirty:true (block 'a');
  Cache.insert t (key 1 0) ~dirty:false (block 'b');
  Alcotest.(check int) "dirty count drops on replace" 0 (Cache.dirty_count t);
  Cache.insert t (key 1 0) ~dirty:true (block 'c');
  Alcotest.(check int) "dirty again" 1 (Cache.dirty_count t);
  Alcotest.(check int) "no duplicates" 1 (Cache.length t)

(* The O(1) write-back age against the full scan it replaced.  The model
   keeps, for each dirty key, the time it became dirty, and computes the
   age the way the cache used to: a fold over every dirty entry for the
   largest [now - dirty_since].  Eight keys on a four-block cache, so
   clean inserts evict under pressure; clock steps include 0, so entries
   tie. *)
type op =
  | Insert of int * bool
  | Mark_dirty of int
  | Mark_clean of int
  | Remove of int
  | Clear
  | Advance of int

let pp_op = function
  | Insert (k, d) -> Printf.sprintf "insert %d dirty=%b" k d
  | Mark_dirty k -> Printf.sprintf "mark_dirty %d" k
  | Mark_clean k -> Printf.sprintf "mark_clean %d" k
  | Remove k -> Printf.sprintf "remove %d" k
  | Clear -> "clear"
  | Advance us -> Printf.sprintf "advance %d" us

let op_gen =
  QCheck.Gen.(
    let k = int_bound 7 in
    frequency
      [
        (6, map2 (fun k d -> Insert (k, d)) k bool);
        (3, map (fun k -> Mark_dirty k) k);
        (3, map (fun k -> Mark_clean k) k);
        (2, map (fun k -> Remove k) k);
        (1, return Clear);
        (5, map (fun us -> Advance us) (oneofl [ 0; 1; 7; 250 ]));
      ])

let model_age model now =
  Hashtbl.fold
    (fun _ since acc ->
      let age = now - since in
      match acc with Some a when a >= age -> acc | _ -> Some age)
    model None

let age_differential =
  QCheck.Test.make ~name:"write-back age matches a full scan" ~count:500
    (QCheck.make
       ~print:(fun ops -> String.concat "\n" (List.map pp_op ops))
       QCheck.Gen.(list_size (int_range 1 120) op_gen))
    (fun ops ->
      let t, clock = make ~capacity_blocks:4 () in
      let model = Hashtbl.create 8 in
      List.iteri
        (fun i op ->
          let now = Clock.now_us clock in
          (match op with
          | Insert (k, dirty) ->
              Cache.insert t (key k 0) ~dirty (block 'x');
              if dirty then Hashtbl.replace model k now
              else Hashtbl.remove model k
          | Mark_dirty k ->
              if Cache.mem t (key k 0) then begin
                Cache.mark_dirty t (key k 0);
                if not (Hashtbl.mem model k) then Hashtbl.replace model k now
              end
          | Mark_clean k ->
              Cache.mark_clean t (key k 0);
              Hashtbl.remove model k
          | Remove k ->
              Cache.remove t (key k 0);
              Hashtbl.remove model k
          | Clear ->
              Cache.clear t;
              Hashtbl.reset model
          | Advance us -> Clock.advance_us clock us);
          let now = Clock.now_us clock in
          let expect = Option.value (model_age model now) ~default:(-1) in
          let got = Cache.oldest_dirty_age_us t in
          if got <> expect then
            QCheck.Test.fail_reportf "after op %d (%s): age %d, full scan %d"
              i (pp_op op) got expect;
          let dirty =
            List.sort compare
              (List.map (fun k -> k.Cache.owner) (Cache.dirty_keys t))
          in
          let expect_dirty =
            List.sort compare (Hashtbl.fold (fun k _ acc -> k :: acc) model [])
          in
          if
            dirty <> expect_dirty
            || Cache.dirty_count t <> Hashtbl.length model
          then
            QCheck.Test.fail_reportf "after op %d (%s): dirty set differs" i
              (pp_op op))
        ops;
      true)

(* The cache against a naive association-list LRU, most recently used
   first.  Nine keys over three owners on a four-block cache, so clean
   inserts evict under pressure; every op runs on both, and after each
   the two must agree on what [find] returned, every event the cache
   published (hits, misses, evictions and write-backs, in order),
   [fold_dirty] order, residency, [dirty_count] and the write-back age. *)
type model_entry = { m_data : bytes; m_dirty : bool; m_since : int }

type lru_op =
  | L_find of int
  | L_insert of int * bool
  | L_mark_dirty of int
  | L_mark_clean of int
  | L_remove of int
  | L_evict_clean
  | L_drop_clean
  | L_clear
  | L_advance of int

let pp_lru_op = function
  | L_find k -> Printf.sprintf "find %d" k
  | L_insert (k, d) -> Printf.sprintf "insert %d dirty=%b" k d
  | L_mark_dirty k -> Printf.sprintf "mark_dirty %d" k
  | L_mark_clean k -> Printf.sprintf "mark_clean %d" k
  | L_remove k -> Printf.sprintf "remove %d" k
  | L_evict_clean -> "evict_clean"
  | L_drop_clean -> "drop_clean"
  | L_clear -> "clear"
  | L_advance us -> Printf.sprintf "advance %d" us

let lru_op_gen =
  QCheck.Gen.(
    let k = int_bound 8 in
    frequency
      [
        (6, map (fun k -> L_find k) k);
        (6, map2 (fun k d -> L_insert (k, d)) k bool);
        (3, map (fun k -> L_mark_dirty k) k);
        (3, map (fun k -> L_mark_clean k) k);
        (2, map (fun k -> L_remove k) k);
        (1, return L_evict_clean);
        (1, return L_drop_clean);
        (1, return L_clear);
        (4, map (fun us -> L_advance us) (oneofl [ 0; 1; 7; 250 ]));
      ])

let lru_key k = key (k mod 3) (k / 3)

let lru_model_differential =
  QCheck.Test.make ~name:"matches an association-list LRU" ~count:500
    (QCheck.make
       ~print:(fun ops -> String.concat "\n" (List.map pp_lru_op ops))
       QCheck.Gen.(list_size (int_range 1 150) lru_op_gen))
    (fun ops ->
      let capacity = 4 in
      let clock = Clock.create () in
      let bus = Lfs_obs.Bus.create ~now:(fun () -> Clock.now_us clock) () in
      let sink = Lfs_obs.Bus.attach bus in
      let t = Cache.create ~capacity_blocks:capacity ~bus clock in
      let model = ref [] (* (k, entry), most recently used first *) in
      let expected = ref [] (* events, newest first *) in
      let publish ev = expected := ev :: !expected in
      let at k = let { Cache.owner; blkno } = lru_key k in (owner, blkno) in
      (* Walk up from the least recently used end, dropping clean
         entries other than [keep] while over capacity. *)
      let evict keep =
        let excess = ref (List.length !model - capacity) in
        let kept =
          List.filter
            (fun (k, e) ->
              if !excess > 0 && (not e.m_dirty) && Some k <> keep then begin
                decr excess;
                let owner, blkno = at k in
                publish (Lfs_obs.Event.Cache_evict { owner; blkno });
                false
              end
              else true)
            (List.rev !model)
        in
        model := List.rev kept
      in
      List.iteri
        (fun i op ->
          let now = Clock.now_us clock in
          let fail fmt =
            QCheck.Test.fail_reportf ("after op %d (%s): " ^^ fmt) i
              (pp_lru_op op)
          in
          (match op with
          | L_find k -> (
              let got = Cache.find t (lru_key k) in
              let owner, blkno = at k in
              match List.assoc_opt k !model with
              | Some e ->
                  publish (Lfs_obs.Event.Cache_hit { owner; blkno });
                  model := (k, e) :: List.remove_assoc k !model;
                  (match got with
                  | Some b when b == e.m_data -> ()
                  | Some _ | None -> fail "find %d: not the model's buffer" k)
              | None ->
                  publish (Lfs_obs.Event.Cache_miss { owner; blkno });
                  if got <> None then fail "find %d: hit on an absent key" k)
          | L_insert (k, dirty) ->
              let data = block 'x' (* a fresh buffer: [find] is checked by identity *) in
              Cache.insert t (lru_key k) ~dirty data;
              model :=
                (k, { m_data = data; m_dirty = dirty; m_since = now })
                :: List.remove_assoc k !model;
              evict (Some k)
          | L_mark_dirty k -> (
              match List.assoc_opt k !model with
              | None -> (
                  match Cache.mark_dirty t (lru_key k) with
                  | () -> fail "mark_dirty %d: absent key accepted" k
                  | exception Not_found -> ())
              | Some e ->
                  Cache.mark_dirty t (lru_key k);
                  if not e.m_dirty then
                    model :=
                      List.map
                        (fun (k', e') ->
                          if k' = k then (k', { e' with m_dirty = true; m_since = now })
                          else (k', e'))
                        !model)
          | L_mark_clean k ->
              Cache.mark_clean t (lru_key k);
              (match List.assoc_opt k !model with
              | Some { m_dirty = true; _ } ->
                  let owner, blkno = at k in
                  publish (Lfs_obs.Event.Cache_writeback { owner; blkno })
              | Some _ | None -> ());
              model :=
                List.map
                  (fun (k', e') ->
                    if k' = k then (k', { e' with m_dirty = false }) else (k', e'))
                  !model
          | L_remove k ->
              Cache.remove t (lru_key k);
              model := List.remove_assoc k !model
          | L_evict_clean ->
              Cache.evict_clean t;
              evict None
          | L_drop_clean ->
              Cache.drop_clean t;
              model := List.filter (fun (_, e) -> e.m_dirty) !model
          | L_clear ->
              Cache.clear t;
              model := []
          | L_advance us -> Clock.advance_us clock us);
          let now = Clock.now_us clock in
          let events =
            List.map (fun r -> r.Lfs_obs.Event.event) (Lfs_obs.Bus.records sink)
          in
          if events <> List.rev !expected then fail "event streams differ";
          let dirty_lru_first =
            List.filter_map
              (fun (k, e) -> if e.m_dirty then Some (lru_key k) else None)
              (List.rev !model)
          in
          if Cache.dirty_keys t <> dirty_lru_first then
            fail "fold_dirty order differs";
          if Cache.length t <> List.length !model then
            fail "length %d, model %d" (Cache.length t) (List.length !model);
          for k = 0 to 8 do
            if Cache.mem t (lru_key k) <> List.mem_assoc k !model then
              fail "residency of %d differs" k
          done;
          let ndirty = List.length dirty_lru_first in
          if Cache.dirty_count t <> ndirty then
            fail "dirty_count %d, model %d" (Cache.dirty_count t) ndirty;
          let age =
            List.fold_left
              (fun acc (_, e) -> if e.m_dirty then max acc (now - e.m_since) else acc)
              (-1) !model
          in
          if Cache.oldest_dirty_age_us t <> age then
            fail "age %d, model %d" (Cache.oldest_dirty_age_us t) age)
        ops;
      true)

(* A hit moves its entry to the top of the recency list by relinking
   the entry's own fields: 1,000 hits on resident keys, each promoting
   (the keys are visited coldest first), allocate only the 2-word
   [Some] each returns.  A bus with nothing attached, as in a mounted
   file system, must not cost an event.  The generic LRU this replaced
   allocated three options per promote. *)
let test_hit_allocation () =
  let clock = Clock.create () in
  let bus = Lfs_obs.Bus.create ~now:(fun () -> Clock.now_us clock) () in
  let t = Cache.create ~capacity_blocks:2000 ~bus clock in
  let keys = Array.init 1000 (fun i -> key (i mod 7) i) in
  Array.iter (fun k -> Cache.insert t k ~dirty:(k.Cache.blkno mod 3 = 0) (block 'h')) keys;
  let words () = Gc.minor_words () in
  let empty = let a = words () in words () -. a in
  let before = words () in
  for i = 0 to 999 do
    match Cache.find t keys.(i) with
    | Some _ -> ()
    | None -> Alcotest.fail "resident key missed"
  done;
  let per_hit = (words () -. before -. empty) /. 1000. in
  if per_hit > 2. then
    Alcotest.failf "a cache hit allocates %.2f words (bound 2)" per_hit

(* Evicted and dropped clean buffers come back from [take], newest
   first; dirty entries and removed ones keep theirs; a spare of another
   length is left alone. *)
let test_take_reuses_dropped_buffers () =
  let t, _ = make ~capacity_blocks:2 () in
  let a = block 'a' and b = block 'b' and c = block 'c' in
  Cache.insert t (key 1 0) ~dirty:false a;
  Cache.insert t (key 1 1) ~dirty:true b;
  Cache.insert t (key 1 2) ~dirty:false c;
  Alcotest.(check int) "evicted clean block is spare" 1 (Cache.spare_count t);
  Alcotest.(check bool) "a fresh buffer for another length" true
    (Bytes.length (Cache.take t 8) = 8);
  Alcotest.(check bool) "the evicted buffer comes back" true (Cache.take t 16 == a);
  Alcotest.(check bool) "then a fresh one" true
    (let d = Cache.take t 16 in d != a && d != b && d != c);
  Cache.remove t (key 1 2);
  Alcotest.(check int) "removed blocks keep their buffers" 0 (Cache.spare_count t);
  Cache.insert t (key 1 3) ~dirty:false c;
  Cache.drop_clean t;
  Alcotest.(check int) "dropped clean block is spare" 1 (Cache.spare_count t);
  Alcotest.(check bool) "dirty block kept" true (Cache.mem t (key 1 1));
  Alcotest.(check bool) "dropped buffer comes back" true (Cache.take t 16 == c);
  Cache.clear t;
  Alcotest.(check int) "clear drops spares" 0 (Cache.spare_count t)

(* Spares never take spares plus entries past the capacity plus the
   fixed slack, however many clean blocks are evicted or dropped; dirty
   blocks beyond the capacity displace spares.  The buffers handed out
   are those kept. *)
let test_spares_bounded () =
  let capacity = 8 in
  let bound = capacity + 64 in
  let t, _ = make ~capacity_blocks:capacity () in
  let check what =
    if Cache.spare_count t > 0 && Cache.spare_count t + Cache.length t > bound
    then
      Alcotest.failf "%s: %d spares + %d entries > %d" what (Cache.spare_count t)
        (Cache.length t) bound
  in
  for i = 0 to 999 do
    Cache.insert t (key (i mod 5) i) ~dirty:(i mod 7 = 0) (block 'x');
    check (Printf.sprintf "insert %d" i);
    if i mod 100 = 99 then begin
      List.iter (Cache.mark_clean t) (Cache.dirty_keys t);
      Cache.drop_clean t;
      check (Printf.sprintf "drop_clean %d" i)
    end
  done;
  Alcotest.(check bool) "spares kept" true (Cache.spare_count t > 0);
  let n = Cache.spare_count t in
  for _ = 1 to n do
    ignore (Cache.take t 16 : bytes)
  done;
  Alcotest.(check int) "every spare taken" 0 (Cache.spare_count t)

(* Keys outside the packed range are refused on insert; looking one up
   misses even where it packs onto a cached key. *)
let test_key_range () =
  let t, _ = make () in
  Cache.insert t (key (-3) 0xFFFF_FFFF) ~dirty:false (block 'a');
  Cache.insert t (key 0 0) ~dirty:false (block 'b');
  let refused k =
    match Cache.insert t k ~dirty:false (block 'z') with
    | () -> Alcotest.failf "key (%d, %d) accepted" k.Cache.owner k.Cache.blkno
    | exception Invalid_argument _ -> ()
  in
  refused (key 0 (-1));
  refused (key 0 (1 lsl 32));
  refused (key (1 lsl 30) 0);
  refused (key (-(1 lsl 30) - 1) 0);
  Alcotest.(check bool) "(-2, -1) packs onto (-3, 2^32 - 1) but misses" false
    (Cache.mem t (key (-2) (-1)));
  Alcotest.(check bool) "(0, 0) found" true (Cache.mem t (key 0 0));
  Alcotest.(check bool) "by owner and block number" true
    (Cache.find_block t ~owner:(-3) ~blkno:0xFFFF_FFFF <> None)

(* Host words, minor plus major less promoted: a 4 KB buffer is
   allocated straight in the major heap, where [Gc.minor_words] does
   not see it. *)
let allocated_words () =
  let _, promoted, major = Gc.counters () in
  Gc.minor_words () +. major -. promoted

(* On a full cache, a cold one-block miss and a whole-block overwrite
   each take the buffer an eviction left instead of allocating a 4 KB
   block (513 words).  LFS with 4 KB blocks and a 256-block cache, full
   of clean blocks of a 1,024-block file; the measured blocks are never
   cached.  A read asks for one byte, so its result is one word.
   Measured 124 words per miss and 78 per overwrite (OCaml 5.1, no
   flambda): the op envelope, the path walk, the key and the read-ahead
   bookkeeping.  With a [take] that always allocates: 646 and 592. *)
let test_full_cache_reuses_buffers () =
  let config =
    { Lfs_core.Config.default with Lfs_core.Config.cache_blocks = 256 }
  in
  let fs = Common.make_lfs ~size_bytes:(16 * 1024 * 1024) ~config () in
  let bs = config.Lfs_core.Config.block_size in
  let nblocks = 1024 in
  Common.write_file fs "/f" (Common.pattern ~seed:5 (nblocks * bs));
  Lfs_core.Fs.sync fs;
  ignore (Common.read_all fs "/f" : bytes);
  (* Blocks [0, 512) are cold: the scan left the last 256 cached. *)
  let cold i = i * 389 mod 512 in
  let n = 64 in
  let per_op f =
    let before = allocated_words () in
    for i = 0 to n - 1 do
      f i
    done;
    (allocated_words () -. before) /. float n
  in
  let miss =
    per_op (fun i ->
        ignore
          (Common.check_ok "read" (Lfs_core.Fs.read fs "/f" ~off:(cold i * bs) ~len:1)
            : bytes))
  in
  let data = Common.pattern ~seed:6 bs in
  let overwrite =
    per_op (fun i ->
        Common.check_ok "write"
          (Lfs_core.Fs.write fs "/f" ~off:(cold (i + n) * bs) data))
  in
  if miss > 200. || overwrite > 200. then
    Alcotest.failf
      "a cold miss allocates %.0f words, a whole-block overwrite %.0f (bound 200)"
      miss overwrite;
  Lfs_core.Fs.sync fs;
  Lfs_core.Fs.flush_caches fs;
  let expect = Common.pattern ~seed:5 (nblocks * bs) in
  for i = n to (2 * n) - 1 do
    Bytes.blit data 0 expect (cold i * bs) bs
  done;
  Common.check_bytes "file after the overwrites" expect (Common.read_all fs "/f")

let suite =
  [
    Alcotest.test_case "insert/find" `Quick test_insert_find;
    Alcotest.test_case "dirty lifecycle" `Quick test_dirty_lifecycle;
    Alcotest.test_case "only clean entries evicted" `Quick
      test_clean_eviction_only;
    Alcotest.test_case "fold_dirty order" `Quick test_fold_dirty_order;
    Alcotest.test_case "age tracking" `Quick test_age_tracking;
    Alcotest.test_case "remove and drop_clean" `Quick test_remove_and_drop_clean;
    Alcotest.test_case "insert replaces dirty state" `Quick
      test_insert_replaces_dirty;
    Alcotest.test_case "insert never evicts its own key" `Quick
      test_insert_never_evicts_self;
    Common.qcheck age_differential;
    Common.qcheck lru_model_differential;
    Alcotest.test_case "hits allocate only their result" `Quick
      test_hit_allocation;
    Alcotest.test_case "take reuses dropped buffers" `Quick
      test_take_reuses_dropped_buffers;
    Alcotest.test_case "spares stay bounded" `Quick test_spares_bounded;
    Alcotest.test_case "keys outside the packed range" `Quick test_key_range;
    Alcotest.test_case "a full cache misses and overwrites without a new block"
      `Quick test_full_cache_reuses_buffers;
  ]
