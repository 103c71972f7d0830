module Metrics = Tinca_sim.Metrics

type 'a block = {
  key : int;
  mutable frame : int;
  mutable slot : int;
  mutable pinned : bool;
  mutable dirty : bool;
  mutable durable_at : int;
  mutable node : 'a block Lru.node option;
  mutable clean_node : 'a block Lru.node option;
  mutable shadow : bytes option;
  mutable spare : int;
  mutable spare_mask : int64;
  mutable spare_node : 'a block Lru.node option;
  mutable drain_gen : int;
  ext : 'a;
}

type 'a hooks = { evict : 'a block -> unit }

type 'a t = {
  index : (int, 'a block) Hashtbl.t;
  lru : 'a block Lru.t;
  clean : 'a block Lru.t; (* the clean blocks of [lru], in its order *)
  spares : 'a block Lru.t; (* the blocks holding a spare, in [lru]'s order *)
  frames : Free_monitor.t;
  slots : Free_monitor.t;
  mutable ndirty : int;
  keep_spares : bool; (* false under [Fifo], which rotates every write *)
  mutable gen : int; (* drains retired so far *)
  mutable latest : 'a block list; (* the blocks the latest drain retired *)
  c_cow_blocks : Metrics.counter;
  c_cow_lines : Metrics.counter;
  c_lines_skipped : Metrics.counter;
  c_spares : Metrics.counter;
  mutable read_hits : int;
  mutable read_misses : int;
  mutable write_hits : int;
  mutable write_misses : int;
  mutable evictions : int;
}

let create ?policy ?(metrics = Metrics.create ()) ~frames ~slots ~index_size () =
  let c = Metrics.counter metrics in
  {
    index = Hashtbl.create index_size;
    lru = Lru.create ();
    clean = Lru.create ();
    spares = Lru.create ();
    frames = Free_monitor.create ?policy ~n:frames ();
    slots = Free_monitor.create ~n:slots ();
    ndirty = 0;
    keep_spares = policy <> Some Free_monitor.Fifo;
    gen = 0;
    latest = [];
    c_cow_blocks = c "cache.cow_blocks";
    c_cow_lines = c "cache.cow_lines";
    c_lines_skipped = c "cache.cow_lines_skipped";
    c_spares = c "cache.spare_frames";
    read_hits = 0;
    read_misses = 0;
    write_hits = 0;
    write_misses = 0;
    evictions = 0;
  }

let length t = Hashtbl.length t.index
let find t key = Hashtbl.find_opt t.index key
let mem t key = Hashtbl.mem t.index key

let touch t b =
  match b.node with
  | Some n ->
      Lru.touch t.lru n;
      (match b.clean_node with Some c -> Lru.touch t.clean c | None -> ());
      (match b.spare_node with Some s -> Lru.touch t.spares s | None -> ())
  | None -> ()

let lookup_read t key =
  let r = Hashtbl.find_opt t.index key in
  (match r with
  | Some b ->
      t.read_hits <- t.read_hits + 1;
      touch t b
  | None -> t.read_misses <- t.read_misses + 1);
  r

(* A block cleaned in place joins the clean list next to the nearest
   clean block on either side of it in the LRU, found by walking both
   ways in step; with no clean block left, the clean list is empty.  A
   cleaner's batch is a run of LRU neighbours, so the walk is short. *)
let link_clean t b n =
  let clean_node v = (Lru.value v).clean_node in
  let rec walk older newer =
    match (Option.bind newer clean_node, Option.bind older clean_node) with
    | Some c, _ -> Lru.push_before t.clean c b
    | None, Some c -> (
        match Lru.next c with
        | Some c' -> Lru.push_before t.clean c' b
        | None -> Lru.push_mru t.clean b)
    | None, None ->
        if Option.is_none older && Option.is_none newer then Lru.push_mru t.clean b
        else walk (Option.bind older Lru.prev) (Option.bind newer Lru.next)
  in
  b.clean_node <- Some (walk (Lru.prev n) (Lru.next n))

let unlink_clean t b =
  match b.clean_node with
  | Some c ->
      Lru.remove t.clean c;
      b.clean_node <- None
  | None -> ()

let set_dirty t b v =
  if b.dirty <> v then begin
    b.dirty <- v;
    t.ndirty <- (t.ndirty + if v then 1 else -1);
    match b.node with
    | _ when v -> unlink_clean t b
    | Some n -> link_clean t b n
    | None -> ()
  end

let insert t ~key ~frame ~slot ~dirty ~pinned ext =
  let b =
    { key; frame; slot; pinned; dirty; durable_at = 0; node = None; clean_node = None;
      shadow = None; spare = -1; spare_mask = 0L; spare_node = None; drain_gen = -1; ext }
  in
  if dirty then t.ndirty <- t.ndirty + 1;
  b.node <- Some (Lru.push_mru t.lru b);
  if not dirty then b.clean_node <- Some (Lru.push_mru t.clean b);
  Hashtbl.replace t.index key b;
  b

(* Detach [b]'s spare without freeing its frame; returns the frame. *)
let detach_spare t b =
  let s = b.spare in
  (match b.spare_node with Some n -> Lru.remove t.spares n | None -> ());
  b.spare_node <- None;
  b.spare <- -1;
  b.spare_mask <- 0L;
  Metrics.add t.c_spares (-1);
  s

let remove t b =
  (match b.node with Some n -> Lru.remove t.lru n | None -> ());
  b.node <- None;
  unlink_clean t b;
  if b.spare >= 0 then Free_monitor.free t.frames (detach_spare t b);
  b.shadow <- None;
  Hashtbl.remove t.index b.key;
  set_dirty t b false;
  Free_monitor.free t.frames b.frame;
  if b.slot >= 0 then Free_monitor.free t.slots b.slot

let set_frame b f = b.frame <- f
let set_slot b s = b.slot <- s
let set_pinned b v = b.pinned <- v
let stamp_durable b now = b.durable_at <- int_of_float (Float.ceil now)
let dirty_count t = t.ndirty
let spare_count t = Lru.length t.spares
let free_frames t = Free_monitor.free_count t.frames + spare_count t
let free_slots t = Free_monitor.free_count t.slots

(* Free the LRU-most unpinned block's spare; [false] when no such block
   holds one.  A pinned block is about to be written, and its spare is
   its COW target.  A shadow outlives its spare only while its block is
   in the latest drain. *)
let reclaim_spare t =
  match Lru.find_from_lru t.spares ~f:(fun b -> not b.pinned) with
  | None -> false
  | Some n ->
      let b = Lru.value n in
      Free_monitor.free t.frames (detach_spare t b);
      if b.drain_gen <> t.gen then b.shadow <- None;
      true

let alloc_frame t =
  match Free_monitor.alloc t.frames with
  | Some _ as r -> r
  | None -> if reclaim_spare t then Free_monitor.alloc t.frames else None
let alloc_slot t = Free_monitor.alloc t.slots
let free_frame t f = Free_monitor.free t.frames f
let free_slot t s = Free_monitor.free t.slots s
let claim_frame t f = Free_monitor.mark_used t.frames f
let claim_slot t s = Free_monitor.mark_used t.slots s

(* The LRU-most unpinned block that [ok] accepts, clean first.  Any
   clean candidate is on the clean list; with none there, the first
   candidate of the whole LRU is the LRU-most dirty one. *)
let pick t ok =
  let candidate b = (not b.pinned) && ok b in
  match Lru.find_from_lru t.clean ~f:candidate with
  | Some n -> Some (Lru.value n)
  | None when t.ndirty = 0 -> None
  | None -> Option.map Lru.value (Lru.find_from_lru t.lru ~f:candidate)

let victim t = pick t (fun _ -> true)

let evict t hooks = function
  | None -> false
  | Some b ->
      hooks.evict b;
      remove t b;
      t.evictions <- t.evictions + 1;
      true

(* Spares go first: reclaiming one costs nothing, evicting a block costs
   its cached copy.  Every eviction frees a frame, so the slot loop never
   undoes the frame loop: [ok] is the whole verdict.  The slot loop takes only
   victims that hold a slot; when none is left, evicting more would
   free no slot, so it fails without evicting. *)
let make_room t hooks ~frames ~slots =
  let ok = ref true in
  while !ok && Free_monitor.free_count t.frames < frames do
    ok := reclaim_spare t || evict t hooks (victim t)
  done;
  while !ok && free_slots t < slots do
    ok := evict t hooks (pick t (fun b -> b.slot >= 0))
  done;
  !ok

(* [alloc] fails only on an empty pool, so trying it first is the same
   as making room for one and skips the loop on the common path. *)
let take pool t hooks ~frames ~slots =
  match Free_monitor.alloc pool with
  | Some _ as r -> r
  | None -> if make_room t hooks ~frames ~slots then Free_monitor.alloc pool else None

let take_frame t hooks = take t.frames t hooks ~frames:1 ~slots:0
let take_slot t hooks = take t.slots t hooks ~frames:0 ~slots:1
let iter_lru f t = Lru.iter f t.lru

let iter_lru_while t f = ignore (Lru.find_from_lru t.lru ~f:(fun b -> not (f b)))

(* --- shadows and spares ------------------------------------------------ *)

let line = 64
let max_lines = 64
let full = -1L

external get64u : bytes -> int -> int64 = "%caml_bytes_get64u"

(* The lines of [a] and [b] (equal lengths of at most [max_lines]
   lines) that differ, bit i for line i; [full] when every line does.
   The words are read unchecked (the length check covers them): the
   compare runs once per write to a block with a shadow, and the checked
   reads made it about three times slower. *)
let changed_lines a b =
  if Bytes.length a <> Bytes.length b then invalid_arg "Frame_cache.changed_lines: lengths differ";
  let n = Bytes.length a / line in
  let m = ref 0L in
  for i = 0 to n - 1 do
    let off = i * line in
    let j = ref 0 in
    while !j < line && (get64u a (off + !j) : int64) = get64u b (off + !j) do
      j := !j + 8
    done;
    if !j < line then m := Int64.logor !m (Int64.shift_left 1L i)
  done;
  if n = max_lines || !m <> Int64.pred (Int64.shift_left 1L n) then !m else full

let mem_line m i = Int64.logand m (Int64.shift_left 1L i) <> 0L

let popcount m =
  let rec go m n = if m = 0L then n else go (Int64.logand m (Int64.pred m)) (n + 1) in
  go m 0

type plan = { target : int; lines : int64; mask : int64 }

let plan_write t b data =
  let nlines = Bytes.length data / line in
  let mask =
    match b with
    | Some { shadow = Some s; _ } when Bytes.length s = Bytes.length data -> changed_lines s data
    | _ -> full
  in
  Metrics.add t.c_cow_blocks 1;
  match b with
  | Some b when b.spare >= 0 ->
      let lines = Int64.logor b.spare_mask mask in
      let written = if lines = full then nlines else popcount lines in
      Metrics.add t.c_cow_lines written;
      Metrics.add t.c_lines_skipped (nlines - written);
      { target = detach_spare t b; lines; mask }
  | _ ->
      Metrics.add t.c_cow_lines nlines;
      { target = -1; lines = full; mask }

(* Maximal runs of [p.lines] as [(pos, len)] byte ranges of a
   [block_size]-byte block. *)
let runs p ~block_size =
  if p.lines = full then [ (0, block_size) ]
  else begin
    let acc = ref [] and i = ref (block_size / line - 1) in
    while !i >= 0 do
      if mem_line p.lines !i then begin
        let last = !i in
        while !i >= 0 && mem_line p.lines !i do
          decr i
        done;
        acc := ((!i + 1) * line, (last - !i) * line) :: !acc
      end
      else decr i
    done;
    !acc
  end

let new_drain t =
  List.iter (fun b -> if b.spare < 0 then b.shadow <- None) t.latest;
  t.latest <- [];
  t.gen <- t.gen + 1

let retire_version t b ~prev ~mask data =
  if prev >= 0 then
    if mask <> full && t.keep_spares then begin
      b.spare <- prev;
      b.spare_mask <- mask;
      b.spare_node <- Some (Lru.push_mru t.spares b);
      Metrics.add t.c_spares 1
    end
    else Free_monitor.free t.frames prev;
  b.shadow <- (if Bytes.length data <= max_lines * line then Some data else None);
  b.drain_gen <- t.gen;
  t.latest <- b :: t.latest;
  touch t b

exception Bad of string

let audit_versions t ~read ~committed =
  let fail fmt = Printf.ksprintf (fun m -> raise (Bad m)) fmt in
  match
    Hashtbl.iter
      (fun key b ->
        match b.shadow with
        | None -> if b.spare >= 0 then fail "block %d holds spare %d without a shadow" key b.spare
        | Some s ->
            let cur = read (committed b) in
            if not (Bytes.equal s cur) then
              fail "block %d: shadow differs from frame %d" key (committed b);
            if b.spare >= 0 then begin
              let m = changed_lines (read b.spare) cur in
              if Int64.logand m (Int64.lognot b.spare_mask) <> 0L then
                fail "block %d: spare %d differs from frame %d outside its mask" key b.spare
                  (committed b)
            end)
      t.index
  with
  | () -> Ok ()
  | exception Bad m -> Error m

module Disk = Tinca_blockdev.Disk

type 'a cleaner = {
  disk : Disk.t;
  dma_read : 'a block -> bytes;
  cleaned : 'a block list -> unit;
  deferred : Tinca_sim.Metrics.counter;
}

let frontier = 64
let pressure_dirty = 0.7

(* The walk is bounded by [frontier] unpinned blocks and stops as soon as
   the idle gap is used up; dirty blocks whose version became durable too
   late for the gap are skipped, not waited for.  Each block written is
   followed by its dirty unpinned successors ([key + 1], [key + 2], ...)
   while they fit the gap: the head is on their predecessor, so they
   transfer at the sequential rate.  Returns the written blocks, oldest
   write first. *)
let clean_idle t c =
  if free_frames t >= frontier || not (Disk.idle_fits c.disk) then []
  else begin
    let seen = ref 0 and written = ref [] in
    let write b =
      let ok =
        b.dirty && (not b.pinned)
        && Disk.write_idle c.disk ~not_before:(float_of_int b.durable_at) b.key (fun () ->
               c.dma_read b)
      in
      if ok then begin
        set_dirty t b false;
        written := b :: !written
      end;
      ok
    in
    let rec run key = match find t key with Some b when write b -> run (key + 1) | _ -> () in
    iter_lru_while t (fun b ->
        if not b.pinned then begin
          incr seen;
          if write b then run (b.key + 1)
        end;
        !seen < frontier && Disk.idle_fits c.disk);
    List.rev !written
  end

(* Above [pressure_dirty] of the frames dirty, the LRU-most unpinned
   dirty blocks, each with the dirty unpinned neighbours on both sides of
   it up to the first gap, go to disk as one batch until 3/4 of that
   level would remain.  The batch is written in queued background device
   time, elevator-sorted by home block so every run of neighbours
   transfers at the sequential rate.  The device reads the frames by
   DMA, as in the idle pass: the caller pays for none of it.  While the
   previous batch is still queued the pass defers: the first call after
   the device drains takes the batch, sized from the dirty level then. *)
let clean_pressure t c =
  let high = int_of_float (pressure_dirty *. float_of_int (Free_monitor.capacity t.frames)) in
  if t.ndirty <= high then []
  else if Disk.background_pending c.disk then begin
    Tinca_sim.Metrics.add c.deferred 1;
    []
  end
  else begin
    let budget = ref (t.ndirty - (high * 3 / 4)) and batch = Hashtbl.create 64 in
    let take b =
      let ok = b.dirty && (not b.pinned) && not (Hashtbl.mem batch b.key) in
      if ok then begin
        Hashtbl.replace batch b.key b;
        decr budget
      end;
      ok
    in
    let rec extend key step =
      match find t key with
      | Some b when b.dirty && not b.pinned ->
          ignore (take b);
          extend (key + step) step
      | _ -> ()
    in
    iter_lru_while t (fun b ->
        if take b then begin
          extend (b.key - 1) (-1);
          extend (b.key + 1) 1
        end;
        !budget > 0);
    let sorted =
      List.sort (fun a b -> compare a.key b.key) (Hashtbl.fold (fun _ b acc -> b :: acc) batch [])
    in
    List.iter
      (fun b ->
        let data = c.dma_read b in
        Disk.write_block ~background:true c.disk b.key data;
        set_dirty t b false)
      sorted;
    sorted
  end

(* The pressure batch goes first: once it has queued, the disk has no
   idle gap left, so the idle pass only runs when no batch was due. *)
let clean t c ~after_commit =
  let batch = if after_commit then clean_pressure t c else [] in
  match batch @ clean_idle t c with
  | [] -> 0
  | written ->
      c.cleaned written;
      List.length written

let fold f t acc = Hashtbl.fold (fun _ b acc -> f b acc) t.index acc
let read_hits t = t.read_hits
let read_misses t = t.read_misses
let write_hits t = t.write_hits
let write_misses t = t.write_misses
let evictions t = t.evictions

let note_write t ~hit =
  if hit then t.write_hits <- t.write_hits + 1 else t.write_misses <- t.write_misses + 1

let audit ?(also_holds = fun _ -> -1) t =
  let fail fmt = Printf.ksprintf (fun m -> raise (Bad m)) fmt in
  (* Claim every referenced index of [pool] once, then compare the
     number claimed with the number the pool has handed out. *)
  let claims pool what =
    let owner = Array.make (Free_monitor.capacity pool) (-1) in
    let claimed = ref 0 in
    let claim key i =
      if i < 0 || i >= Array.length owner then fail "%s %d of block %d out of range" what i key;
      if owner.(i) >= 0 then fail "%s %d referenced by blocks %d and %d" what i owner.(i) key;
      if Free_monitor.is_free pool i then fail "%s %d of block %d both free and referenced" what i key;
      owner.(i) <- key;
      incr claimed
    in
    let settle () =
      let used = Free_monitor.capacity pool - Free_monitor.free_count pool in
      if used <> !claimed then fail "%d %ss in use, %d referenced" used what !claimed
    in
    (claim, settle)
  in
  let claim_frame, settle_frames = claims t.frames "frame" in
  let claim_slot, settle_slots = claims t.slots "slot" in
  let dirty = ref 0 in
  match
    if Lru.length t.lru <> length t then
      fail "LRU length %d <> index size %d" (Lru.length t.lru) (length t);
    (let clean = List.filter (fun b -> not b.dirty) (Lru.to_list_lru_first t.lru) in
     let listed = Lru.to_list_lru_first t.clean in
     if List.compare_lengths clean listed <> 0 || not (List.for_all2 ( == ) clean listed) then
       fail "clean list (%d blocks) is not the LRU's %d clean blocks in order" (List.length listed)
         (List.length clean));
    (let holders = List.filter (fun b -> b.spare >= 0) (Lru.to_list_lru_first t.lru) in
     let listed = Lru.to_list_lru_first t.spares in
     if List.compare_lengths holders listed <> 0 || not (List.for_all2 ( == ) holders listed) then
       fail "spare list (%d blocks) is not the LRU's %d spare holders in order" (List.length listed)
         (List.length holders));
    Hashtbl.iter
      (fun key b ->
        if b.key <> key then fail "index key %d holds block %d" key b.key;
        claim_frame key b.frame;
        if also_holds b >= 0 then claim_frame key (also_holds b);
        if b.spare >= 0 then claim_frame key b.spare;
        if b.slot >= 0 then claim_slot key b.slot;
        if b.dirty then incr dirty)
      t.index;
    settle_frames ();
    settle_slots ();
    if !dirty <> t.ndirty then fail "dirty count %d, counted %d" t.ndirty !dirty
  with
  | () -> Ok ()
  | exception Bad m -> Error m
