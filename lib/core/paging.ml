(* Paging commit scheme, one region: the "other side" of the
   logging vs. paging ablation (Dulong et al., PAPERS.md).  Where logging
   commits by appending ring slots and switching entry roles, paging
   REMAPS whole NVM pages through a persistent indirection table:

   - every transactional write is COWed into a free page frame, and its
     table entry gets ONE 16 B atomic swing staged under epoch E+1;
   - the commit point is one 8 B atomic swing of the region's epoch word
     to E+1 — no ring, no role switch, no Tail;
   - recovery rebuilds the volatile index from the table: entries at or
     below the durable epoch are live on their new side, entries above
     it roll back to their old side (or vanish, for misses), or forward
     when a durable cross-shard seal directs it.

   Region media layout (offsets relative to the region base):

     [ superblock | epoch word | flight ring | indirection table | page pool ]
         64 B          64 B      slots*64 B       slots*16 B        n*block

   The table only holds DIRTY pages: clean cached blocks live purely in
   the volatile index.  A dirty page's old frame is durable by
   construction (it was committed), so it is a safe rollback target.
   Commit cost: 2 sfences for a single-shard transaction of any size, 4
   for a multi-shard one (Shard adds the seal and its clear). *)

open Tinca_sim
module Pmem = Tinca_pmem.Pmem
module Disk = Tinca_blockdev.Disk
module Fc = Tinca_cachelib.Frame_cache
module Codec = Tinca_util.Codec
module Flight = Tinca_obs.Flight
module Trace = Tinca_obs.Trace

type config = {
  block_size : int;  (** page size; positive multiple of 64 *)
  flight_slots : int;  (** 64 B flight records per shard; 0 disables *)
  headroom : int;  (** free frames admission keeps in reserve; >= 0 *)
}

let default_config = { block_size = 4096; flight_slots = 0; headroom = 0 }

(* "TINCAPG1", distinct from every logging and directory magic so
   recovery tells the schemes apart from byte 0. *)
let super_magic = 0x3147_5041_434E_4954L

let entry_size = 16

(* --- region geometry ------------------------------------------------------ *)

type geom = {
  base : int;
  block_size : int;
  nframes : int;  (** page frames in the pool (= table slots) *)
  flight_slots : int;
  epoch_off : int;
  flight_off : int;
  table_off : int;
  pool_off : int;
  span : int;  (** bytes of the region *)
}

(* Largest pool that fits the span: each frame costs one page plus one
   16 B table entry next to the fixed superblock + epoch + flight lines. *)
let compute_geom ~base ~span ~block_size ~flight_slots =
  if block_size <= 0 || block_size mod 64 <> 0 then
    invalid_arg "Paging: block_size must be a positive multiple of 64";
  if flight_slots < 0 then invalid_arg "Paging: flight_slots must be non-negative";
  let fixed = 64 + 64 + (flight_slots * Flight.record_size) in
  let per_frame = block_size + entry_size in
  let nframes = (span - fixed - 63) / per_frame in
  (* The table is padded to whole lines so the pool starts line-aligned. *)
  if nframes < 2 then invalid_arg "Paging: region too small for a page pool (need >= 2 frames)";
  let table_off = fixed in
  let table_bytes = (nframes * entry_size + 63) / 64 * 64 in
  let pool_off = table_off + table_bytes in
  if pool_off + (nframes * block_size) > span then
    invalid_arg "Paging: region too small for a page pool";
  {
    base;
    block_size;
    nframes;
    flight_slots;
    epoch_off = 64;
    flight_off = 128;
    table_off;
    pool_off;
    span;
  }

let entry_off g slot = g.base + g.table_off + (slot * entry_size)
let frame_off g frame = g.base + g.pool_off + (frame * g.block_size)
let flight_slot_off g i = g.base + g.flight_off + (i * Flight.record_size)

(* psan's region classifier consumes this — the paging analogue of
   {!Layout.t}, with the new Epoch / Table / Pool region classes. *)
type region_layout = {
  r_base : int;
  r_epoch_off : int;  (** absolute offset of the epoch line *)
  r_flight_off : int;
  r_flight_bytes : int;
  r_table_off : int;
  r_table_bytes : int;
  r_pool_off : int;
  r_pool_bytes : int;
  r_total : int;
}

let region_layout_of_geom g =
  {
    r_base = g.base;
    r_epoch_off = g.base + g.epoch_off;
    r_flight_off = g.base + g.flight_off;
    r_flight_bytes = g.flight_slots * Flight.record_size;
    r_table_off = g.base + g.table_off;
    r_table_bytes = g.nframes * entry_size;
    r_pool_off = g.base + g.pool_off;
    r_pool_bytes = g.nframes * g.block_size;
    r_total = g.span;
  }

(* --- the indirection-table entry (16 B, one atomic swing) --------------- *)

(* byte 0      flags: bit0 valid, bit1 has_old
   bytes 1-3   frame_a (u24) — the durable OLD frame, iff has_old
   bytes 4-6   frame_b (u24) — the NEW frame of the entry's last swing
   byte 7      reserved, must be 0 (torn-swing detector)
   bytes 8-11  disk_blkno (u32)
   bytes 12-15 epoch (u32) — live on side B iff epoch <= the region's
               durable epoch word, else staged (side A, or nothing) *)

type pentry = {
  e_valid : bool;
  e_has_old : bool;
  e_frame_a : int;
  e_frame_b : int;
  e_blkno : int;
  e_epoch : int;
}

let get_u24 b pos = Codec.get_u16 b pos lor (Codec.get_u8 b (pos + 2) lsl 16)

let set_u24 b pos v =
  Codec.set_u16 b pos (v land 0xFFFF);
  Codec.set_u8 b (pos + 2) ((v lsr 16) land 0xFF)

let encode_entry e =
  let b = Bytes.make entry_size '\000' in
  Codec.set_u8 b 0 ((if e.e_valid then 1 else 0) lor if e.e_has_old then 2 else 0);
  set_u24 b 1 e.e_frame_a;
  set_u24 b 4 e.e_frame_b;
  Codec.set_u32 b 8 e.e_blkno;
  Codec.set_u32 b 12 e.e_epoch;
  b

(* Decode the entry at [b.[off ..]]: recovery decodes its whole table
   from one read, in place. *)
let decode_entry_at b off =
  let flags = Codec.get_u8 b off in
  {
    e_valid = flags land 1 <> 0;
    e_has_old = flags land 2 <> 0;
    e_frame_a = get_u24 b (off + 1);
    e_frame_b = get_u24 b (off + 4);
    e_blkno = Codec.get_u32 b (off + 8);
    e_epoch = Codec.get_u32 b (off + 12);
  }

let entry_is_zero_at b off =
  let rec go i = i >= entry_size || (Bytes.get b (off + i) = '\000' && go (i + 1)) in
  go 0

(* The committed normal form: no old side, the live frame on side B, at
   or below the region's durable epoch. *)
let committed_entry ~blkno ~frame ~epoch =
  { e_valid = true; e_has_old = false; e_frame_a = 0; e_frame_b = frame; e_blkno = blkno; e_epoch = epoch }

(* --- volatile state ------------------------------------------------------ *)

(* DRAM bookkeeping for one cached disk block lives in the region's
   frame cache: [slot >= 0] iff the block is dirty (has a table entry);
   clean cached blocks are volatile only.  A block is pinned while it is
   staged in the in-flight commit. *)
type pinfo = unit Fc.block

type region = {
  id : int;  (* shard index, stamped on flight records *)
  cfg : config;
  geom : geom;
  pmem : Pmem.t;
  disk : Disk.t;
  clock : Clock.t;
  c_flight_records : Metrics.counter;
  (* The logging engine's counters, bumped for the same events; the
     stats rows read write-backs and evictions back from them. *)
  c_writebacks : Metrics.counter;
  c_fg_writebacks : Metrics.counter;
  c_bg_deferred : Metrics.counter;
  c_cleaned : Metrics.counter;
  c_evictions : Metrics.counter;
  mutable epoch : int;  (* DRAM mirror of the durable epoch word *)
  fc : unit Fc.t;
  cleaner : unit Fc.cleaner Lazy.t;
  flight : Flight.cursor option;
  mutable flight_dirty : (int * int) list;  (* record ranges awaiting a fence *)
  mutable flight_scan : ((int * Flight.event) list * int) option;
  mutable swings : int;  (* table-entry atomic swings *)
  mutable epoch_bumps : int;
}

let block_size r = r.cfg.block_size
let layout r = region_layout_of_geom r.geom

(* Test-only fault injection: [`Torn_swing] replaces the one 16 B atomic
   table swing with two 8 B halves and makes the first half durable on
   its own — exactly the torn-swing bug class the crash checker and
   psan must detect, not trust.  Always reset to [None]. *)
let fault : [ `Torn_swing ] option ref = ref None
let set_fault f = fault := f

(* --- flight recorder ----------------------------------------------------- *)

(* Same contract as the logging scheme's recorder: a record is a
   volatile 64 B store whose line is parked in [flight_dirty] and folded
   into the commit path's next existing flush+fence — zero added fences. *)
let flight_note r ?(batch = -1) ?(cause = Flight.Sync) ?(a = 0) ?(b = 0) ?(c = 0) ?(d = 0) kind =
  match r.flight with
  | None -> ()
  | Some cur ->
      let site = Pmem.site r.pmem in
      Pmem.set_site r.pmem "flight.record";
      let ev =
        { Flight.kind; shard = r.id; cause; a; b; c; d; batch;
          t_ns = int_of_float (Clock.now_ns r.clock) }
      in
      let off = flight_slot_off r.geom (Flight.slot_of cur) in
      Pmem.write r.pmem ~off (Flight.encode ~seq:cur.Flight.seq ev);
      cur.Flight.seq <- cur.Flight.seq + 1;
      r.flight_dirty <- (off, Flight.record_size) :: r.flight_dirty;
      Metrics.add r.c_flight_records 1;
      Pmem.set_site r.pmem site
[@@pmem.defer
  "a flight record is deliberately left unflushed: the dirtied line is parked in flight_dirty \
   until the paging commit path folds it into its next existing flush+fence (zero added \
   fences); a record torn by a crash fails its CRC and is dropped by Flight.scan"]

let flight_take r =
  let ranges = r.flight_dirty in
  r.flight_dirty <- [];
  ranges

let flight_scan r = Option.value r.flight_scan ~default:([], 0)

(* --- replacement --------------------------------------------------------- *)

(* Drop a dirty block's table entry (one atomic zero swing), then free
   its slot; the caller persists the swing.  The write-back itself went
   to disk first, so a crash on either side of the swing is consistent:
   entry present = the (now clean) NVM copy still wins, entry absent =
   reads fall through to the identical disk copy. *)
let zero_entry r (p : pinfo) =
  Pmem.atomic_write16 r.pmem ~off:(entry_off r.geom p.slot) (Bytes.make entry_size '\000');
  r.swings <- r.swings + 1;
  Fc.free_slot r.fc p.slot;
  Fc.set_dirty r.fc p false;
  Fc.set_slot p (-1)
[@@pmem.defer
  "both callers persist the swing before anything else runs: an eviction right after it, the \
   cleaner after zeroing every cleaned page's entry (one flush_ranges + sfence for the batch)"]

(* The cleaner (Frame_cache.clean), built once per region: every frame
   it writes goes to disk by DMA, uncharged.  Every written page's entry
   is then zeroed and the swings persisted under one fence on the
   caller's clock; the pages stay cached as clean volatile fills. *)
let make_cleaner r =
  {
    Fc.disk = r.disk;
    dma_read = (fun p -> Pmem.dma_read r.pmem ~off:(frame_off r.geom p.Fc.frame) ~len:r.geom.block_size);
    cleaned =
      (fun written ->
        Trace.begin_span ~clock:r.clock "tinca.bg_clean";
        Pmem.set_site r.pmem "paging.bg_clean";
        let ranges =
          List.map
            (fun (p : pinfo) ->
              let off = entry_off r.geom p.slot in
              zero_entry r p;
              (off, entry_size))
            written
        in
        Pmem.flush_ranges r.pmem ranges;
        Pmem.sfence r.pmem;
        let n = List.length written in
        Metrics.add r.c_writebacks n;
        Metrics.add r.c_cleaned n;
        Trace.end_span "tinca.bg_clean");
    deferred = r.c_bg_deferred;
  }

(* --- construction and formatting ----------------------------------------- *)

let check_geometry ~span ~block_size ~flight_slots =
  match compute_geom ~base:0 ~span ~block_size ~flight_slots with
  | _ -> Ok ()
  | exception Invalid_argument m -> Error m

let make ~id ~cfg ~geom ~pmem ~disk ~clock ~metrics =
  let c = Metrics.counter metrics in
  let rec r =
    {
      id;
      cfg;
      geom;
      pmem;
      disk;
      clock;
      c_flight_records = c "tinca.flight.records";
      c_writebacks = c "tinca.writebacks";
      c_fg_writebacks = c "cache.fg_writebacks";
      c_bg_deferred = c "cache.bg_deferred";
      c_cleaned = c "tinca.cleaned";
      c_evictions = c "tinca.evictions";
      epoch = 0;
      fc = Fc.create ~metrics ~frames:geom.nframes ~slots:geom.nframes ~index_size:256 ();
      cleaner = lazy (make_cleaner r);
      flight = (if cfg.flight_slots > 0 then Some (Flight.cursor ~slots:cfg.flight_slots) else None);
      flight_dirty = [];
      flight_scan = None;
      swings = 0;
      epoch_bumps = 0;
    }
  in
  r

let create ~id ~base ~span ~config:cfg ~pmem ~disk ~clock ~metrics =
  if cfg.headroom < 0 then invalid_arg "Paging: headroom must be non-negative";
  let geom =
    compute_geom ~base ~span ~block_size:cfg.block_size ~flight_slots:cfg.flight_slots
  in
  make ~id ~cfg ~geom ~pmem ~disk ~clock ~metrics

let format r =
  let g = r.geom in
  let b = Bytes.make 64 '\000' in
  Codec.set_u64 b 0 super_magic;
  Codec.set_u32 b 8 g.block_size;
  Codec.set_u32 b 12 g.nframes;
  Codec.set_u32 b 16 g.flight_slots;
  Pmem.set_site r.pmem "paging.format";
  Pmem.write r.pmem ~off:g.base b;
  Pmem.atomic_write8 r.pmem ~off:(g.base + g.epoch_off) 0L;
  (* The table (and flight ring) must be durably zero: a stale nonzero
     slot would decode as a live mapping after recovery. *)
  let zero_len = g.pool_off - g.flight_off in
  Pmem.fill r.pmem ~off:(g.base + g.flight_off) ~len:zero_len '\000';
  [ (g.base, 64); (g.base + g.epoch_off, 8); (g.base + g.flight_off, zero_len) ]
[@@pmem.defer
  "format-time superblock, epoch and table stores: the returned ranges are folded with every \
   other region's (and the directory's) into ONE flush_ranges + sfence by Shard.format before \
   it returns the handle, so the media is fully durable before any commit can run"]

(* --- eviction ------------------------------------------------------------- *)

let writeback r (p : pinfo) =
  let data = Pmem.read r.pmem ~off:(frame_off r.geom p.frame) ~len:r.geom.block_size in
  Disk.write_block r.disk p.key data;
  Metrics.add r.c_writebacks 1;
  Pmem.set_site r.pmem "paging.evict";
  let off = entry_off r.geom p.slot in
  zero_entry r p;
  Pmem.persist r.pmem ~off ~len:entry_size

(* The NVM side of an eviction: clean victims are free (purely
   volatile), dirty ones are written back and their entry dropped. *)
let evict_hooks r =
  {
    Fc.evict =
      (fun p ->
        if p.slot >= 0 then begin
          writeback r p;
          Metrics.add r.c_fg_writebacks 1
        end;
        Metrics.add r.c_evictions 1);
  }

let clean ~after_commit r = ignore (Fc.clean r.fc (Lazy.force r.cleaner) ~after_commit)

(* Make [frames] frames (plus the configured headroom) and [slots] table
   slots available, evicting as needed.  Returns false if the demand
   cannot be met (everything else pinned, or the pool is too small). *)
let make_room r ~frames ~slots =
  Fc.make_room r.fc (evict_hooks r) ~frames:(frames + r.cfg.headroom) ~slots

(* --- reads --------------------------------------------------------------- *)

let read_frame r (p : pinfo) = Pmem.read r.pmem ~off:(frame_off r.geom p.frame) ~len:r.geom.block_size

let read r blkno =
  clean ~after_commit:false r;
  match Fc.lookup_read r.fc blkno with
  | Some p -> read_frame r p
  | None ->
      let data = Disk.read_block r.disk blkno in
      (* Clean fill: volatile only — no table entry, no flush, no fence.
         The frame's content is not durable; a crash simply un-caches the
         block (recovery rebuilds from the table, which never saw it). *)
      if make_room r ~frames:1 ~slots:0 then begin
        match Fc.alloc_frame r.fc with
        | None -> ()
        | Some frame ->
            Pmem.set_site r.pmem "paging.fill";
            Pmem.write r.pmem ~off:(frame_off r.geom frame) data;
            ignore (Fc.insert r.fc ~key:blkno ~frame ~slot:(-1) ~dirty:false ~pinned:false ())
      end;
      data
[@@pmem.defer
  "read-miss fill of a clean page: no table entry is written, so the frame's durable home \
   stays the disk — a crash simply un-caches the block (recovery rebuilds from the table, \
   which never saw it); flushing the fill would buy nothing"]

let peek r blkno = Option.map (read_frame r) (Fc.find r.fc blkno)
let contains r blkno = Fc.mem r.fc blkno

(* --- the commit steps ---------------------------------------------------- *)

(* One COWed write of the in-flight commit. *)
type staged = {
  st_blkno : int;
  st_slot : int;
  st_frame : int;  (* the new (B-side) frame: the block's spare, or a fresh one *)
  st_old : pinfo option;  (* existing cached version, pinned during the commit *)
  st_data : bytes;  (* the staged copy, the block's shadow once committed *)
  st_mask : int64;  (* lines changed against the old version (Frame_cache.plan) *)
  st_ranges : (int * int) list;  (* the lines stored into [st_frame] *)
}

(* Pin (or unpin) a block's existing version, so admission cannot evict
   a block the transaction itself is about to remap. *)
let pin r blkno v = Option.iter (fun p -> Fc.set_pinned p v) (Fc.find r.fc blkno)

(* Admission: room for a fresh frame per block without a spare (a
   pinned block's spare is its own target, never reclaimed) and a slot
   per block that has none yet. *)
let admit r blknos =
  let count f = List.length (List.filter (fun blkno -> f (Fc.find r.fc blkno)) blknos) in
  make_room r
    ~frames:(count (function Some p -> p.Fc.spare < 0 | None -> true))
    ~slots:(count (function Some p -> p.slot < 0 | None -> true))

(* Write one table entry.  The production path is a single 16 B atomic
   swing; the planted [`Torn_swing] fault splits it into two 8 B halves
   and makes the first durable on its own, opening the exact window the
   checkers must catch. *)
let write_entry r ~slot e =
  let b = encode_entry e in
  let off = entry_off r.geom slot in
  (match !fault with
  | None -> Pmem.atomic_write16 r.pmem ~off b
  | Some `Torn_swing ->
      Pmem.atomic_write8 r.pmem ~off (Codec.get_u64 b 0);
      Pmem.persist r.pmem ~off ~len:8;
      Pmem.atomic_write8 r.pmem ~off:(off + 8) (Codec.get_u64 b 8));
  r.swings <- r.swings + 1
[@@pmem.defer
  "one 16 B atomic entry swing: every caller folds the entry's lines into an existing \
   flush+fence (the commit's stage fence, the unstage fence, recovery's guarded fence), and \
   the swing is atomic so an unfenced entry is whole-or-absent, never torn"]

let zero_swing r slot =
  Pmem.atomic_write16 r.pmem ~off:(entry_off r.geom slot) (Bytes.make entry_size '\000');
  r.swings <- r.swings + 1
[@@pmem.defer
  "a zeroing swing of a staged or rolled-back entry: the caller fences the entry's range with \
   the rest of its batch (Shard's unstage fence, recovery's guarded fence)"]

(* COW [data] into a free frame and swing the block's entry under epoch
   E+1: durable-but-dead until the epoch word says E+1.  Raises
   [Transaction_too_large] (holding nothing) when no frame or slot is
   free. *)
let stage r blkno data =
  let old = Fc.find r.fc blkno in
  let plan = Fc.plan_write r.fc old data in
  let frame =
    if plan.Fc.target >= 0 then plan.Fc.target
    else match Fc.alloc_frame r.fc with Some f -> f | None -> raise Cache.Transaction_too_large
  in
  let old_slot = match old with Some p when p.slot >= 0 -> Some p | _ -> None in
  let slot =
    match old_slot with
    | Some p -> p.slot
    | None -> (
        match Fc.alloc_slot r.fc with
        | Some sl -> sl
        | None ->
            Fc.free_frame r.fc frame;
            raise Cache.Transaction_too_large)
  in
  Pmem.set_site r.pmem "paging.cow";
  let off = frame_off r.geom frame in
  let runs = Fc.runs plan ~block_size:r.geom.block_size in
  List.iter (fun (pos, len) -> Pmem.write_sub r.pmem ~off:(off + pos) data ~pos ~len) runs;
  Pmem.set_site r.pmem "paging.swing";
  write_entry r ~slot
    {
      e_valid = true;
      e_has_old = old_slot <> None;
      e_frame_a = (match old_slot with Some p -> p.frame | None -> 0);
      e_frame_b = frame;
      e_blkno = blkno;
      e_epoch = r.epoch + 1;
    };
  { st_blkno = blkno; st_slot = slot; st_frame = frame; st_old = old; st_data = data;
    st_mask = plan.Fc.mask; st_ranges = List.map (fun (pos, len) -> (off + pos, len)) runs }
[@@pmem.defer
  "the COWed page and its staged entry are dead until the epoch swing: their ranges reach \
   Shard's one stage fence through drain, or its unstage fence on a rollback"]

(* Roll one staged write back: return its frame and fresh slot, restore
   the pinned old version.  An entry already swung to epoch E+1 is
   re-swung to its committed form (or zeroed) — dead media either way
   since the epoch word never moved, but the returned range is fenced
   anyway so no table line is left volatile across a later commit
   point. *)
let unstage r st =
  Fc.free_frame r.fc st.st_frame;
  let ranges =
    match st.st_old with
    | Some p when p.slot >= 0 ->
        write_entry r ~slot:p.slot (committed_entry ~blkno:p.key ~frame:p.frame ~epoch:r.epoch);
        [ (entry_off r.geom p.slot, entry_size) ]
    | Some _ -> []
    | None ->
        zero_swing r st.st_slot;
        Fc.free_slot r.fc st.st_slot;
        [ (entry_off r.geom st.st_slot, entry_size) ]
  in
  Option.iter (fun p -> Fc.set_pinned p false) st.st_old;
  ranges
[@@pmem.defer
  "the rewritten entry ranges are returned: Shard fences every unstaged write's ranges as one \
   batch"]

(* The region's drain: its share of the stage fence, every COWed page
   and staged entry plus the Batch_drain flight record, for Shard to
   fence as one union. *)
let drain r ~cause staged =
  flight_note r ~cause ~a:(List.length staged) Flight.Batch_drain;
  Pmem.set_site r.pmem "paging.stage_fence";
  List.rev_append (flight_take r)
    (List.concat_map (fun st -> st.st_ranges @ [ (entry_off r.geom st.st_slot, entry_size) ]) staged)
[@@pmem.defer
  "the region's stage ranges and its Batch_drain record are returned for Shard's one union fence"]

(* The commit point: one atomic swing of the epoch word to E+1 (and the
   Tail_persist flight record), left for Shard's fence. *)
let commit_point r ~cause =
  let off = r.geom.base + r.geom.epoch_off in
  Pmem.set_site r.pmem "paging.epoch_swing";
  Pmem.atomic_write8_int r.pmem ~off (r.epoch + 1);
  r.epoch_bumps <- r.epoch_bumps + 1;
  flight_note r ~cause ~a:(r.epoch + 1) Flight.Tail_persist;
  r.epoch <- r.epoch + 1;
  (off, 8) :: flight_take r
[@@pmem.defer
  "the epoch swing is the commit point: Shard fences it (with every other region's swing in a \
   multi-shard commit) right after this returns"]

(* Retire a durable commit: fold the new mapping into the volatile state,
   stamped [now] for the cleaner, keeping each staged copy as the shadow
   and each old frame as a spare or freeing it
   (Frame_cache.retire_version), then run the cleaner. *)
let retire r ~now staged =
  Fc.new_drain r.fc;
  List.iter
    (fun st ->
      let p, prev =
        match st.st_old with
        | Some p ->
            Fc.note_write r.fc ~hit:true;
            (* A clean cached block turns dirty: it now owns a slot. *)
            Fc.set_dirty r.fc p true;
            let prev = p.frame in
            Fc.set_frame p st.st_frame;
            Fc.set_slot p st.st_slot;
            Fc.set_pinned p false;
            (p, prev)
        | None ->
            Fc.note_write r.fc ~hit:false;
            ( Fc.insert r.fc ~key:st.st_blkno ~frame:st.st_frame ~slot:st.st_slot ~dirty:true
                ~pinned:false (),
              -1 )
      in
      Fc.retire_version r.fc p ~prev ~mask:st.st_mask st.st_data;
      Fc.stamp_durable p now)
    staged;
  clean ~after_commit:true r

(* Write every dirty page back to disk and drop its entry
   (decommissioning, like the logging scheme's flush_all). *)
let flush_all r = Fc.iter_lru (fun p -> if p.slot >= 0 then writeback r p) r.fc

(* --- recovery ------------------------------------------------------------ *)

let corrupt fmt = Printf.ksprintf (fun m -> raise (Cache.Corrupt m)) fmt

let read_super pmem ~base =
  let b = Pmem.read pmem ~off:base ~len:24 in
  if Codec.get_u64 b 0 <> super_magic then corrupt "paging superblock magic missing at %d" base;
  (Codec.get_u32 b 8, Codec.get_u32 b 12, Codec.get_u32 b 16)

(* Re-attach region [id] from its superblock, without writing anything.
   Every geometry word comes from media: one that no format could have
   written is [Corrupt], not a usage error. *)
let attach ~id ~base ~span ?expect ~pmem ~disk ~clock ~metrics () =
  let block_size, nframes, flight_slots = read_super pmem ~base in
  (match expect with
  | Some (bs, fs) when bs <> block_size || fs <> flight_slots ->
      corrupt "paging: shard %d superblock disagrees with shard 0" id
  | _ -> ());
  if Disk.block_size disk <> block_size then
    corrupt "paging: shard %d block size %d, the disk's is %d" id block_size (Disk.block_size disk);
  let geom =
    match compute_geom ~base ~span ~block_size ~flight_slots with
    | g -> g
    | exception Invalid_argument m -> corrupt "paging: shard %d superblock: %s" id m
  in
  if geom.nframes <> nframes then
    corrupt "paging: shard %d frame count %d contradicts the geometry %d" id nframes geom.nframes;
  let cfg = { default_config with block_size; flight_slots } in
  make ~id ~cfg ~geom ~pmem ~disk ~clock ~metrics

(* Recover one region: validate the table against itself (frames in
   range, blocks on the disk and on this shard, no duplicate blknos,
   sane epochs — a torn swing is DETECTED here, not trusted), resolve
   staged entries by [roll_forward], and rebuild the volatile index and
   free monitors from the live sides. *)
let recover r ~owns ~roll_forward =
  let g = r.geom in
  let epoch = Ring.read_word r.pmem ~off:(g.base + g.epoch_off) in
  if epoch < 0 then corrupt "paging: shard %d epoch word beyond the int range" r.id;
  (* Flight scan before recovery writes anything; the cursor resumes
     after the highest surviving sequence number. *)
  (match r.flight with
  | Some cur ->
      let read i = Pmem.read r.pmem ~off:(flight_slot_off g i) ~len:Flight.record_size in
      let records, torn = Flight.scan ~slots:g.flight_slots ~read in
      r.flight_scan <- Some (records, torn);
      cur.Flight.seq <- (match List.rev records with (seq, _) :: _ -> seq + 1 | [] -> 0)
  | None -> ());
  let seen_blkno = Hashtbl.create 64 in
  (* Every frame recovery may keep — each valid slot's new side, and a
     staged slot's old side — is claimed once: a second claim is refused
     here, before recovery writes anything, not by the frame cache after
     roll-forward has written.  A live slot's old side is stale (freed at
     its commit, perhaps reused since) and claims nothing. *)
  let claimed = Bytes.make g.nframes '\000' in
  let claim slot f =
    if Bytes.get claimed f <> '\000' then corrupt "paging: slot %d names frame %d twice over" slot f;
    Bytes.set claimed f '\001'
  in
  let staged = ref [] in
  let live = ref [] in
  (* The whole table in one read, so each line is charged once. *)
  let table = Pmem.read r.pmem ~off:(entry_off g 0) ~len:(g.nframes * entry_size) in
  for slot = 0 to g.nframes - 1 do
    let off = slot * entry_size in
    if not (entry_is_zero_at table off) then begin
      let e = decode_entry_at table off in
      if not e.e_valid then corrupt "paging: slot %d nonzero but invalid (torn swing?)" slot;
      if Codec.get_u8 table (off + 7) <> 0 then
        corrupt "paging: slot %d reserved byte nonzero (torn swing?)" slot;
      if e.e_frame_b >= g.nframes then corrupt "paging: slot %d frame_b %d out of range" slot e.e_frame_b;
      if e.e_has_old && (e.e_frame_a >= g.nframes || e.e_frame_a = e.e_frame_b) then
        corrupt "paging: slot %d frame_a %d invalid" slot e.e_frame_a;
      claim slot e.e_frame_b;
      if e.e_has_old && e.e_epoch > epoch then claim slot e.e_frame_a;
      if e.e_blkno >= Disk.nblocks r.disk then
        corrupt "paging: slot %d blkno %d beyond the device" slot e.e_blkno;
      if not (owns e.e_blkno) then
        corrupt "paging: slot %d blkno %d striped to the wrong shard" slot e.e_blkno;
      if e.e_epoch > epoch + 1 then
        corrupt "paging: slot %d epoch %d above the durable epoch %d + 1" slot e.e_epoch epoch;
      if Hashtbl.mem seen_blkno e.e_blkno then
        corrupt "paging: blkno %d mapped by two table slots" e.e_blkno;
      Hashtbl.replace seen_blkno e.e_blkno slot;
      if e.e_epoch > epoch then staged := (slot, e) :: !staged else live := (slot, e) :: !live
    end
  done;
  flight_note r ~a:epoch ~c:(List.length (fst (flight_scan r))) Flight.Recovery_start;
  (* Resolve the staged generation. *)
  let ranges = ref [] in
  let bumped = roll_forward && !staged <> [] in
  if bumped then begin
    (* The seal directs roll-forward: the staged generation was fenced
       durable before the seal, so adopting it is safe and idempotent. *)
    Pmem.set_site r.pmem "paging.recover";
    Pmem.atomic_write8_int r.pmem ~off:(g.base + g.epoch_off) (epoch + 1);
    ranges := (g.base + g.epoch_off, 8) :: !ranges;
    live := !staged @ !live;
    List.iter (fun (_, e) -> flight_note r ~a:0 ~b:e.e_blkno Flight.Recovery_decision) !staged
  end
  else
    List.iter
      (fun (slot, e) ->
        (* Roll back: the old side (if any) is the durable committed
           version; a staged miss vanishes. *)
        Pmem.set_site r.pmem "paging.recover";
        if e.e_has_old then
          write_entry r ~slot (committed_entry ~blkno:e.e_blkno ~frame:e.e_frame_a ~epoch)
        else zero_swing r slot;
        ranges := (entry_off g slot, entry_size) :: !ranges;
        flight_note r ~a:1 ~b:e.e_blkno Flight.Recovery_decision;
        if e.e_has_old then
          live :=
            (slot, { e with e_has_old = false; e_frame_a = 0; e_frame_b = e.e_frame_a; e_epoch = epoch })
            :: !live)
      !staged;
  r.epoch <- (if bumped then epoch + 1 else epoch);
  (* Rebuild the volatile index and free monitors from the live sides. *)
  List.iter
    (fun (slot, e) ->
      Fc.claim_frame r.fc e.e_frame_b;
      Fc.claim_slot r.fc slot;
      ignore (Fc.insert r.fc ~key:e.e_blkno ~frame:e.e_frame_b ~slot ~dirty:true ~pinned:false ()))
    !live;
  ranges := List.rev_append (flight_take r) !ranges;
  if !ranges <> [] then begin
    Pmem.flush_ranges r.pmem !ranges;
    Pmem.sfence r.pmem
  end
[@@pmem.defer
  "every roll-back/roll-forward entry rewrite and flight record is fenced by the guarded \
   flush_ranges + sfence: the guard `ranges <> []` is true exactly when recovery rewrote \
   media, which the syntactic dataflow cannot correlate"]

(* --- stats / wear / invariants ------------------------------------------ *)

(* The region's summable stats rows, in the order the shard layer
   reports them. *)
let counts r =
  let dirty = Fc.dirty_count r.fc in
  [
    ("pool_frames", r.geom.nframes);
    ("pool_frames_free", Fc.free_frames r.fc);
    ("spare_frames", Fc.spare_count r.fc);
    ("table_swings", r.swings);
    ("epoch_swings", r.epoch_bumps);
    ("dirty_pages", dirty);
    (* Cached blocks are dirty (holding a slot) or clean; the audit pins
       the dirty count to a recount. *)
    ("clean_cached", Fc.length r.fc - dirty);
    ("read_hits", Fc.read_hits r.fc);
    ("read_misses", Fc.read_misses r.fc);
    ("write_hits", Fc.write_hits r.fc);
    ("write_misses", Fc.write_misses r.fc);
  ]

let epoch r = r.epoch

let region_wear r =
  let g = r.geom in
  let row name ~off ~len =
    (name, Pmem.wear_sum_in r.pmem ~off ~len, Pmem.wear_max_in r.pmem ~off ~len)
  in
  [
    row "super" ~off:g.base ~len:64;
    row "epoch" ~off:(g.base + g.epoch_off) ~len:64;
    row "flight" ~off:(g.base + g.flight_off) ~len:(max 64 (g.flight_slots * Flight.record_size));
    row "table" ~off:(g.base + g.table_off) ~len:(g.pool_off - g.table_off);
    row "pool" ~off:(g.base + g.pool_off) ~len:(g.nframes * g.block_size);
  ]

let check_invariants r =
  let fail fmt = Printf.ksprintf (fun m -> raise (Cache.Invariant_violation m)) ("paging shard %d: " ^^ fmt) r.id in
  let g = r.geom in
  let durable_epoch = Pmem.read_u64_int r.pmem ~off:(g.base + g.epoch_off) in
  if durable_epoch <> r.epoch then fail "volatile epoch %d != durable %d" r.epoch durable_epoch;
  (match Fc.audit r.fc with Ok () -> () | Error m -> fail "%s" m);
  (match
     Fc.audit_versions r.fc
       ~read:(fun f -> Pmem.dma_read r.pmem ~off:(frame_off g f) ~len:g.block_size)
       ~committed:(fun p -> p.frame)
   with
  | Ok () -> ()
  | Error m -> fail "%s" m);
  Fc.fold
    (fun (p : pinfo) () ->
      let blkno = p.key in
      if p.dirty <> (p.slot >= 0) then fail "blkno %d dirty %b but slot %d" blkno p.dirty p.slot;
      if p.slot >= 0 then begin
        let e = decode_entry_at (Pmem.read r.pmem ~off:(entry_off g p.slot) ~len:entry_size) 0 in
        if not e.e_valid then fail "blkno %d slot %d invalid on media" blkno p.slot;
        if e.e_blkno <> blkno then fail "slot %d maps blkno %d, index says %d" p.slot e.e_blkno blkno;
        if e.e_epoch > r.epoch then
          fail "slot %d staged (epoch %d > %d) outside a commit" p.slot e.e_epoch r.epoch;
        if e.e_frame_b <> p.frame then
          fail "slot %d live frame %d, index says %d" p.slot e.e_frame_b p.frame
      end)
    r.fc ()
