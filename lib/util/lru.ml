(* Doubly-linked list threaded through a hash table.  [head] is the most
   recently used node, [tail] the least. *)

type ('k, 'v) node = {
  key : 'k;
  mutable value : 'v;
  mutable prev : ('k, 'v) node option;
  mutable next : ('k, 'v) node option;
}

type ('k, 'v) t = {
  table : ('k, ('k, 'v) node) Hashtbl.t;
  mutable head : ('k, 'v) node option;
  mutable tail : ('k, 'v) node option;
  capacity : int option;
}

let create ?capacity () =
  (match capacity with
  | Some c when c <= 0 -> invalid_arg "Lru.create: capacity must be positive"
  | _ -> ());
  { table = Hashtbl.create 64; head = None; tail = None; capacity }

let length t = Hashtbl.length t.table
let capacity t = t.capacity

let unlink t node =
  (match node.prev with
  | Some p -> p.next <- node.next
  | None -> t.head <- node.next);
  (match node.next with
  | Some n -> n.prev <- node.prev
  | None -> t.tail <- node.prev);
  node.prev <- None;
  node.next <- None

let push_front t node =
  node.next <- t.head;
  node.prev <- None;
  (match t.head with Some h -> h.prev <- Some node | None -> t.tail <- Some node);
  t.head <- Some node

let promote t node =
  if t.head != Some node then begin
    unlink t node;
    push_front t node
  end

let find t k =
  match Hashtbl.find_opt t.table k with
  | None -> None
  | Some node ->
      promote t node;
      Some node.value

let peek t k =
  match Hashtbl.find_opt t.table k with
  | None -> None
  | Some node -> Some node.value

let mem t k = Hashtbl.mem t.table k

let pop_lru t =
  match t.tail with
  | None -> None
  | Some node ->
      unlink t node;
      Hashtbl.remove t.table node.key;
      Some (node.key, node.value)

let add t k v =
  match Hashtbl.find_opt t.table k with
  | Some node ->
      node.value <- v;
      promote t node;
      None
  | None ->
      let node = { key = k; value = v; prev = None; next = None } in
      Hashtbl.replace t.table k node;
      push_front t node;
      (match t.capacity with
      | Some c when Hashtbl.length t.table > c -> pop_lru t
      | Some _ | None -> None)

let remove t k =
  match Hashtbl.find_opt t.table k with
  | None -> None
  | Some node ->
      unlink t node;
      Hashtbl.remove t.table k;
      Some node.value

let lru t = match t.tail with None -> None | Some n -> Some (n.key, n.value)

let iter f t =
  let rec go = function
    | None -> ()
    | Some node ->
        f node.key node.value;
        go node.next
  in
  go t.head

let fold f t init =
  let acc = ref init in
  iter (fun k v -> acc := f k v !acc) t;
  !acc

let to_list t = List.rev (fold (fun k v acc -> (k, v) :: acc) t [])

let iter_lru f t =
  let rec go = function
    | None -> ()
    | Some node ->
        f node.key node.value;
        go node.prev
  in
  go t.tail

let fold_lru f t init =
  let acc = ref init in
  iter_lru (fun k v -> acc := f k v !acc) t;
  !acc

type action = Keep | Remove | Stop

let sweep_lru f t =
  let rec go = function
    | None -> ()
    | Some node -> (
        (* Capture the next node before calling [f]: a [Remove] unlinks
           [node] and clears its pointers. *)
        let up = node.prev in
        match f node.key node.value with
        | Keep -> go up
        | Remove ->
            unlink t node;
            Hashtbl.remove t.table node.key;
            go up
        | Stop -> ())
  in
  go t.tail

let clear t =
  Hashtbl.reset t.table;
  t.head <- None;
  t.tail <- None
