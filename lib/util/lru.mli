(** Polymorphic LRU map with O(1) lookup, insert and eviction.

    The block caches of both file systems are built on this.  Capacity is a
    count of entries; insertion beyond capacity evicts the least recently
    used entry and reports it to the caller. *)

type ('k, 'v) t

val create : ?capacity:int -> unit -> ('k, 'v) t
(** [create ~capacity ()] is an empty LRU holding at most [capacity]
    entries (default: unbounded). *)

val length : ('k, 'v) t -> int
val capacity : ('k, 'v) t -> int option

val find : ('k, 'v) t -> 'k -> 'v option
(** [find t k] returns the binding and promotes it to most recently used. *)

val peek : ('k, 'v) t -> 'k -> 'v option
(** Like {!find} but without promoting. *)

val mem : ('k, 'v) t -> 'k -> bool

val add : ('k, 'v) t -> 'k -> 'v -> ('k * 'v) option
(** [add t k v] binds [k] to [v] (replacing any existing binding and
    promoting it).  Returns the evicted LRU entry if capacity was
    exceeded. *)

val remove : ('k, 'v) t -> 'k -> 'v option
(** Removes and returns the binding for [k], if any. *)

val lru : ('k, 'v) t -> ('k * 'v) option
(** The least-recently-used binding, without removing it. *)

val pop_lru : ('k, 'v) t -> ('k * 'v) option
(** Removes and returns the least-recently-used binding. *)

val iter : ('k -> 'v -> unit) -> ('k, 'v) t -> unit
(** Iterates from most recently used to least recently used.  The table
    must not be mutated during iteration.  It visits every entry, so the
    project lint (rule [lru-to-list]) rejects {!iter} and {!fold} in
    [lib/]: code that runs per operation keeps its own index instead. *)

val fold : ('k -> 'v -> 'acc -> 'acc) -> ('k, 'v) t -> 'acc -> 'acc

val to_list : ('k, 'v) t -> ('k * 'v) list
(** Most recently used first.  Test/debug only: it materializes the whole
    table as a list, so production code must use {!iter_lru},
    {!fold_lru} or {!sweep_lru} instead — the project lint (rule
    [lru-to-list]) rejects calls outside [test/]. *)

val iter_lru : ('k -> 'v -> unit) -> ('k, 'v) t -> unit
(** Iterates from least recently used to most recently used, without
    materializing a list.  The table must not be mutated during
    iteration. *)

val fold_lru : ('k -> 'v -> 'acc -> 'acc) -> ('k, 'v) t -> 'acc -> 'acc
(** Fold in least-recently-used-first order. *)

type action = Keep | Remove | Stop

val sweep_lru : ('k -> 'v -> action) -> ('k, 'v) t -> unit
(** Walk from the cold (LRU) end towards the hot end, applying the
    directive returned for each entry: [Keep] moves on, [Remove] deletes
    the entry and moves on, [Stop] ends the walk.  The only mutation
    allowed during the walk is the [Remove] it performs itself — O(visited)
    with no allocation, which is what the cache eviction hot path needs. *)

val clear : ('k, 'v) t -> unit
