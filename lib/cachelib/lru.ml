type 'a node = {
  v : 'a;
  mutable prev : 'a node option; (* towards LRU end *)
  mutable next : 'a node option; (* towards MRU end *)
  mutable linked : bool;
}

type 'a t = {
  mutable head : 'a node option; (* LRU end *)
  mutable tail : 'a node option; (* MRU end *)
  mutable len : int;
}

let create () = { head = None; tail = None; len = 0 }
let length t = t.len

let push_mru t v =
  let node = { v; prev = t.tail; next = None; linked = true } in
  (match t.tail with Some old -> old.next <- Some node | None -> t.head <- Some node);
  t.tail <- Some node;
  t.len <- t.len + 1;
  node

let push_before t next v =
  if not next.linked then invalid_arg "Lru.push_before: node not linked";
  let node = { v; prev = next.prev; next = Some next; linked = true } in
  (match next.prev with Some p -> p.next <- Some node | None -> t.head <- Some node);
  next.prev <- Some node;
  t.len <- t.len + 1;
  node

let remove t node =
  if not node.linked then invalid_arg "Lru.remove: node not linked";
  (match node.prev with Some p -> p.next <- node.next | None -> t.head <- node.next);
  (match node.next with Some n -> n.prev <- node.prev | None -> t.tail <- node.prev);
  node.prev <- None;
  node.next <- None;
  node.linked <- false;
  t.len <- t.len - 1

let touch t node =
  if not node.linked then invalid_arg "Lru.touch: node not linked";
  match t.tail with
  | Some mru when mru == node -> ()
  | _ ->
      remove t node;
      node.linked <- true;
      node.prev <- t.tail;
      node.next <- None;
      (match t.tail with Some old -> old.next <- Some node | None -> t.head <- Some node);
      t.tail <- Some node;
      t.len <- t.len + 1

let value node = node.v
let prev node = node.prev
let next node = node.next
let lru t = t.head
let mru t = t.tail

let find_from_lru t ~f =
  let rec go = function
    | None -> None
    | Some node -> if f node.v then Some node else go node.next
  in
  go t.head

let iter f t =
  let rec go = function
    | None -> ()
    | Some node ->
        let next = node.next in
        f node.v;
        go next
  in
  go t.head

let to_list_lru_first t =
  let acc = ref [] in
  iter (fun v -> acc := v :: !acc) t;
  List.rev !acc
