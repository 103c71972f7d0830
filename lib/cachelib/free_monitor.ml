type policy = Lifo | Fifo

(* The pool is a ring of capacity n+1 so head = tail distinguishes empty
   from full; Lifo pops where it last pushed, Fifo pops the oldest
   entry.  Lazy deletion: stale entries are skipped at pop. *)
type t = {
  n : int;
  policy : policy;
  free : bool array;
  ring : int array;
  mutable head : int; (* push position *)
  mutable tail : int; (* oldest entry *)
  mutable nfree : int;
}

let create ?(policy = Lifo) ~n () =
  if n < 0 then invalid_arg "Free_monitor.create";
  let ring = Array.make (n + 1) 0 in
  for i = 0 to n - 1 do
    ring.(i) <- i
  done;
  { n; policy; free = Array.make n true; ring; head = n; tail = 0; nfree = n }

let capacity t = t.n
let free_count t = t.nfree

let check t i =
  if i < 0 || i >= t.n then invalid_arg "Free_monitor: index out of range"

let is_free t i =
  check t i;
  t.free.(i)

let cap t = Array.length t.ring

let ring_full t = (t.head + 1) mod cap t = t.tail

(* Rebuild the ring when lazy deletion has bloated or emptied it.
   Order-preserving: compact the existing ring oldest-first, dropping
   stale entries (marked used out-of-band) and duplicate occurrences,
   so [Fifo] keeps handing out oldest-freed-first across rebuilds and
   wear-leveling rotation survives recovery.  A bitmap scan then
   appends (ascending) any free index the ring lost track of — a
   safety net that keeps [alloc] total even if the one-occurrence
   invariant is ever broken.  [mark_used] stays O(1); rebuild is O(n),
   amortized over the pushes that filled the ring. *)
let rebuild t =
  let seen = Array.make t.n false in
  let kept = Array.make (cap t) 0 in
  let nkept = ref 0 in
  let j = ref t.tail in
  while !j <> t.head do
    let i = t.ring.(!j) in
    if t.free.(i) && not seen.(i) then begin
      seen.(i) <- true;
      kept.(!nkept) <- i;
      incr nkept
    end;
    j := (!j + 1) mod cap t
  done;
  for i = 0 to t.n - 1 do
    if t.free.(i) && not seen.(i) then begin
      kept.(!nkept) <- i;
      incr nkept
    end
  done;
  Array.blit kept 0 t.ring 0 !nkept;
  t.tail <- 0;
  t.head <- !nkept

let rec alloc t =
  if t.nfree = 0 then None
  else if t.head = t.tail then begin
    (* Every live entry was consumed as a stale duplicate. *)
    rebuild t;
    alloc t
  end
  else begin
    let i =
      match t.policy with
      | Lifo ->
          t.head <- (t.head + cap t - 1) mod cap t;
          t.ring.(t.head)
      | Fifo ->
          let i = t.ring.(t.tail) in
          t.tail <- (t.tail + 1) mod cap t;
          i
    in
    (* Stale entries (marked used out-of-band) are skipped. *)
    if t.free.(i) then begin
      t.free.(i) <- false;
      t.nfree <- t.nfree - 1;
      Some i
    end
    else alloc t
  end

let push t i =
  if ring_full t then rebuild t;
  (* After a rebuild the ring holds at most [nfree] distinct entries and
     [i] is still marked used (see [free]), so there is always a slot. *)
  t.ring.(t.head) <- i;
  t.head <- (t.head + 1) mod cap t

let free t i =
  check t i;
  if t.free.(i) then invalid_arg "Free_monitor.free: already free";
  (* Push before flipping the bit: if the push compacts the ring, [i]'s
     stale copies are filtered out (still marked used), and the one
     occurrence lands at the head — the youngest age, where a just-freed
     index belongs. *)
  push t i;
  t.free.(i) <- true;
  t.nfree <- t.nfree + 1

let mark_used t i =
  check t i;
  if not t.free.(i) then invalid_arg "Free_monitor.mark_used: already used";
  t.free.(i) <- false;
  t.nfree <- t.nfree - 1
