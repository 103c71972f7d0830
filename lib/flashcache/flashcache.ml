open Tinca_sim
module Pmem = Tinca_pmem.Pmem
module Disk = Tinca_blockdev.Disk
module Codec = Tinca_util.Codec

type config = {
  block_size : int;
  associativity : int;
  metadata_sync : bool;
  flush_writes : bool;
  dirty_threshold : float;
}

let default_config =
  { block_size = 4096; associativity = 512; metadata_sync = true; flush_writes = true;
    dirty_threshold = 0.2 }

let slot_bytes = 16
let flag_valid = 1
let flag_dirty = 2

type t = {
  cfg : config;
  pmem : Pmem.t;
  disk : Disk.t;
  clock : Clock.t;
  metrics : Metrics.t;
  cpu : Latency.cpu;
  nslots : int;
  nsets : int;
  md_off : int; (* metadata region offset in pmem *)
  data_off : int;
  md_shadow : Bytes.t; (* DRAM mirror of the whole metadata region *)
  (* DRAM mirror per slot *)
  blkno : int array;
  valid : bool array;
  dirty : bool array;
  stamp : int array;
  set_index : (int, int) Hashtbl.t array; (* per set: disk blkno -> slot *)
  dirty_in_set : int array;
  mutable tick : int;
  mutable read_hits : int;
  mutable read_misses : int;
  mutable write_hits : int;
  mutable write_misses : int;
}

(* Geometry: [nslots/256] 4 KB metadata blocks followed by nslots 4 KB
   data blocks, both inside the pmem. *)
let geometry ~pmem_bytes ~block_size =
  let slots_per_md = block_size / slot_bytes in
  let rec fit nslots =
    if nslots <= 0 then invalid_arg "Flashcache: pmem too small";
    let md_blocks = (nslots + slots_per_md - 1) / slots_per_md in
    let total = (md_blocks + nslots) * block_size in
    if total <= pmem_bytes then (nslots, md_blocks) else fit (nslots - 1)
  in
  fit (pmem_bytes / (block_size + slot_bytes))

let mk ~config:cfg ~pmem ~disk ~clock ~metrics =
  if Disk.block_size disk <> cfg.block_size then
    invalid_arg "Flashcache: disk block size mismatch";
  let nslots, md_blocks = geometry ~pmem_bytes:(Pmem.size pmem) ~block_size:cfg.block_size in
  let nsets = max 1 (nslots / cfg.associativity) in
  {
    cfg;
    pmem;
    disk;
    clock;
    metrics;
    cpu = Latency.default_cpu;
    nslots;
    nsets;
    md_off = 0;
    data_off = md_blocks * cfg.block_size;
    md_shadow = Bytes.make (md_blocks * cfg.block_size) '\000';
    blkno = Array.make nslots 0;
    valid = Array.make nslots false;
    dirty = Array.make nslots false;
    stamp = Array.make nslots 0;
    set_index = Array.init nsets (fun _ -> Hashtbl.create 64);
    dirty_in_set = Array.make nsets 0;
    tick = 0;
    read_hits = 0;
    read_misses = 0;
    write_hits = 0;
    write_misses = 0;
  }

let create ~config ~pmem ~disk ~clock ~metrics =
  let t = mk ~config ~pmem ~disk ~clock ~metrics in
  (* Zero (invalidate) the persistent metadata region. *)
  Pmem.set_site pmem "fc.format";
  Pmem.fill pmem ~off:t.md_off ~len:(Bytes.length t.md_shadow) '\000';
  if config.flush_writes then Pmem.persist pmem ~off:t.md_off ~len:(Bytes.length t.md_shadow);
  t
[@@pmem.defer
  "flush_writes=false deliberately models the paper's crash-unsafe no-flush baseline (§3.2); \
   with flush_writes=true every path persists"]

let nslots t = t.nslots

let set_of_blkno t blkno = blkno * 2654435761 land max_int mod t.nsets
let slot_data_off t slot = t.data_off + (slot * t.cfg.block_size)

(* Keep the per-set dirty population in sync with the dirty bit. *)
let mark_dirty t slot v =
  if t.dirty.(slot) <> v then begin
    t.dirty.(slot) <- v;
    let set = slot / t.cfg.associativity in
    t.dirty_in_set.(set) <- t.dirty_in_set.(set) + (if v then 1 else -1)
  end


(* Update the 16 B slot record (u56 disk blkno in bytes 0..6, flags in
   byte 7) in the DRAM shadow, then (when [metadata_sync]) rewrite the
   whole containing 4 KB metadata block to NVM — Flashcache's
   block-format synchronous metadata update. *)
let update_slot_metadata t slot =
  let off = slot * slot_bytes in
  Codec.set_u56 t.md_shadow off t.blkno.(slot);
  let flags =
    (if t.valid.(slot) then flag_valid else 0) lor if t.dirty.(slot) then flag_dirty else 0
  in
  Codec.set_u8 t.md_shadow (off + 7) flags;
  if t.cfg.metadata_sync then begin
    Pmem.set_site t.pmem "fc.metadata";
    Tinca_obs.Trace.begin_span ~clock:t.clock "fc.md_sync";
    let md_block = off / t.cfg.block_size in
    let md_block_off = t.md_off + (md_block * t.cfg.block_size) in
    Pmem.write_sub t.pmem ~off:md_block_off t.md_shadow ~pos:(md_block * t.cfg.block_size)
      ~len:t.cfg.block_size;
    if t.cfg.flush_writes then Pmem.persist t.pmem ~off:md_block_off ~len:t.cfg.block_size;
    Metrics.incr t.metrics "flashcache.md_writes" ~by:1;
    Tinca_obs.Trace.end_span "fc.md_sync"
  end
[@@pmem.defer
  "flush_writes=false deliberately models the paper's crash-unsafe no-flush baseline (§3.2); \
   with flush_writes=true every metadata rewrite persists"]

let recover ~config ~pmem ~disk ~clock ~metrics =
  let t = mk ~config ~pmem ~disk ~clock ~metrics in
  Pmem.read_into pmem ~off:t.md_off ~buf:t.md_shadow ~pos:0 ~len:(Bytes.length t.md_shadow);
  for slot = 0 to t.nslots - 1 do
    let off = slot * slot_bytes in
    let flags = Codec.get_u8 t.md_shadow (off + 7) in
    if flags land flag_valid <> 0 then begin
      t.valid.(slot) <- true;
      mark_dirty t slot (flags land flag_dirty <> 0);
      t.blkno.(slot) <- Codec.get_u56 t.md_shadow off;
      Hashtbl.replace t.set_index.(set_of_blkno t t.blkno.(slot)) t.blkno.(slot) slot
    end
  done;
  t

let charge_op t =
  Clock.advance t.clock (t.cpu.Latency.op_overhead_ns +. t.cpu.Latency.hash_lookup_ns)

let touch t slot =
  t.tick <- t.tick + 1;
  t.stamp.(slot) <- t.tick

let lookup t blkno = Hashtbl.find_opt t.set_index.(set_of_blkno t blkno) blkno

let writeback ?(background = false) t slot =
  let data = Pmem.read t.pmem ~off:(slot_data_off t slot) ~len:t.cfg.block_size in
  Disk.write_block ~background t.disk t.blkno.(slot) data;
  Metrics.incr t.metrics "flashcache.writebacks" ~by:1

(* Flashcache's dirty-threshold cleaner: when a set's dirty fraction
   exceeds [dirty_threshold], write its least-recently-used dirty blocks
   back, each with the dirty blocks next to it on disk (in any set) up to
   the first gap on either side, in background device time; then
   persist the affected metadata blocks once each.  While the previous
   round's writes are still queued the round defers (counted in
   [cache.bg_deferred]): the set's next cleaning after the device drains
   takes it, so at most one round is queued and the writer never waits
   for one.  Small hysteresis: only the oldest few dirty blocks are
   picked, so hot (recently re-dirtied) blocks keep coalescing writes in
   the cache like real Flashcache's LRU-order cleaner. *)
let clean_set t set =
  let assoc = t.cfg.associativity in
  let high = int_of_float (t.cfg.dirty_threshold *. float_of_int assoc) in
  if t.dirty_in_set.(set) <= high then ()
  else if Disk.background_pending t.disk then Metrics.incr t.metrics "cache.bg_deferred" ~by:1
  else begin
    let low = max 0 (high * 7 / 8) in
    let base = set * assoc in
    let limit = min t.nslots (base + assoc) in
    (* Collect dirty slots, oldest first. *)
    let slots = ref [] in
    for s = base to limit - 1 do
      if t.valid.(s) && t.dirty.(s) then slots := s :: !slots
    done;
    let by_age = List.sort (fun a b -> compare t.stamp.(a) t.stamp.(b)) !slots in
    (* Pick the oldest dirty blocks, then issue their disk writes in disk
       block order (the elevator pass real cleaners rely on, which keeps
       HDD cleaning largely sequential). *)
    let picked = ref [] in
    let rec pick budget = function
      | [] -> ()
      | s :: rest ->
          if budget > 0 then begin
            picked := s :: !picked;
            pick (budget - 1) rest
          end
    in
    pick (t.dirty_in_set.(set) - low) by_age;
    let batch = Hashtbl.create 64 in
    List.iter (fun s -> Hashtbl.replace batch s ()) !picked;
    let rec extend blkno step =
      match lookup t blkno with
      | Some s when t.dirty.(s) ->
          Hashtbl.replace batch s ();
          extend (blkno + step) step
      | _ -> ()
    in
    List.iter
      (fun s ->
        extend (t.blkno.(s) - 1) (-1);
        extend (t.blkno.(s) + 1) 1)
      !picked;
    let in_dbn_order =
      List.sort
        (fun a b -> compare t.blkno.(a) t.blkno.(b))
        (Hashtbl.fold (fun s () acc -> s :: acc) batch [])
    in
    let touched_md = Hashtbl.create 8 in
    List.iter
      (fun s ->
        writeback ~background:true t s;
        mark_dirty t s false;
        Metrics.incr t.metrics "flashcache.cleaned" ~by:1;
        (* refresh the shadow record; metadata blocks are persisted once
           per cleaning round below *)
        let off = s * slot_bytes in
        Codec.set_u56 t.md_shadow off t.blkno.(s);
        Codec.set_u8 t.md_shadow (off + 7) flag_valid;
        Hashtbl.replace touched_md (off / t.cfg.block_size) ())
      in_dbn_order;
    if t.cfg.metadata_sync then begin
      Pmem.set_site t.pmem "fc.clean_md";
      Tinca_obs.Trace.begin_span ~clock:t.clock "fc.clean_md";
      Hashtbl.iter
        (fun md_block () ->
          let md_block_off = t.md_off + (md_block * t.cfg.block_size) in
          Pmem.write_sub t.pmem ~off:md_block_off t.md_shadow
            ~pos:(md_block * t.cfg.block_size) ~len:t.cfg.block_size;
          if t.cfg.flush_writes then
            Pmem.persist t.pmem ~off:md_block_off ~len:t.cfg.block_size;
          Metrics.incr t.metrics "flashcache.md_writes" ~by:1)
        touched_md;
      Tinca_obs.Trace.end_span "fc.clean_md"
    end
  end
[@@pmem.defer
  "flush_writes=false deliberately models the paper's crash-unsafe no-flush baseline (§3.2); \
   with flush_writes=true each touched metadata block persists once per cleaning round"]

(* Pick a victim in [set]: an invalid slot if any, else the set's LRU. *)
let victim_in_set t set =
  let base = set * t.cfg.associativity in
  let limit = min t.nslots (base + t.cfg.associativity) in
  let best = ref base in
  let found_invalid = ref false in
  (try
     for s = base to limit - 1 do
       if not t.valid.(s) then begin
         best := s;
         found_invalid := true;
         raise Exit
       end
     done
   with Exit -> ());
  if not !found_invalid then
    for s = base + 1 to limit - 1 do
      if t.stamp.(s) < t.stamp.(!best) then best := s
    done;
  !best

(* Install [blkno] in a slot of its set, evicting if necessary; the
   caller fills the data block. *)
let allocate_slot t new_blkno =
  let set = set_of_blkno t new_blkno in
  let slot = victim_in_set t set in
  if t.valid.(slot) then begin
    if t.dirty.(slot) then begin
      writeback t slot;
      Metrics.incr t.metrics "cache.fg_writebacks" ~by:1
    end;
    Hashtbl.remove t.set_index.(set) t.blkno.(slot);
    Metrics.incr t.metrics "flashcache.evictions" ~by:1
  end;
  t.blkno.(slot) <- new_blkno;
  t.valid.(slot) <- true;
  mark_dirty t slot false;
  Hashtbl.replace t.set_index.(set) new_blkno slot;
  slot

let write_data_block t slot data =
  Pmem.set_site t.pmem "fc.data";
  let off = slot_data_off t slot in
  Pmem.write t.pmem ~off data;
  if t.cfg.flush_writes then Pmem.persist t.pmem ~off ~len:t.cfg.block_size
[@@pmem.defer
  "flush_writes=false deliberately models the paper's crash-unsafe no-flush baseline (§3.2); \
   with flush_writes=true every data write persists"]

let write t blkno data =
  if Bytes.length data <> t.cfg.block_size then invalid_arg "Flashcache.write: wrong block size";
  charge_op t;
  let slot =
    match lookup t blkno with
    | Some slot ->
        t.write_hits <- t.write_hits + 1;
        Metrics.incr t.metrics "flashcache.write_hits" ~by:1;
        slot
    | None ->
        t.write_misses <- t.write_misses + 1;
        Metrics.incr t.metrics "flashcache.write_misses" ~by:1;
        allocate_slot t blkno
  in
  write_data_block t slot data;
  mark_dirty t slot true;
  touch t slot;
  update_slot_metadata t slot;
  clean_set t (slot / t.cfg.associativity)
[@@pmem.defer
  "flush_writes=false deliberately models the paper's crash-unsafe no-flush baseline (§3.2); \
   with flush_writes=true every path persists"]

let read t blkno =
  charge_op t;
  match lookup t blkno with
  | Some slot ->
      t.read_hits <- t.read_hits + 1;
      Metrics.incr t.metrics "flashcache.read_hits" ~by:1;
      touch t slot;
      Pmem.read t.pmem ~off:(slot_data_off t slot) ~len:t.cfg.block_size
  | None ->
      t.read_misses <- t.read_misses + 1;
      Metrics.incr t.metrics "flashcache.read_misses" ~by:1;
      let data = Disk.read_block t.disk blkno in
      let slot = allocate_slot t blkno in
      write_data_block t slot data;
      touch t slot;
      update_slot_metadata t slot;
      data
[@@pmem.defer
  "flush_writes=false deliberately models the paper's crash-unsafe no-flush baseline (§3.2); \
   with flush_writes=true every path persists"]

let flush_all t =
  for slot = 0 to t.nslots - 1 do
    if t.valid.(slot) && t.dirty.(slot) then begin
      writeback t slot;
      mark_dirty t slot false;
      update_slot_metadata t slot
    end
  done
[@@pmem.defer
  "flush_writes=false deliberately models the paper's crash-unsafe no-flush baseline (§3.2); \
   with flush_writes=true every path persists"]

let contains t blkno = lookup t blkno <> None

let ratio a b = if a + b = 0 then 0.0 else float_of_int a /. float_of_int (a + b)
let write_hit_rate t = ratio t.write_hits t.write_misses
let read_hit_rate t = ratio t.read_hits t.read_misses

let cached_blocks t =
  Array.fold_left (fun acc v -> if v then acc + 1 else acc) 0 t.valid
