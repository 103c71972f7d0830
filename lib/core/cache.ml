open Tinca_sim
module Pmem = Tinca_pmem.Pmem

let log_src = Logs.Src.create "tinca.cache" ~doc:"Tinca transactional NVM cache"

module Log = (val Logs.src_log log_src : Logs.LOG)
module Disk = Tinca_blockdev.Disk
module Fc = Tinca_cachelib.Frame_cache
module Trace = Tinca_obs.Trace
module Flight = Tinca_obs.Flight

type mode = Write_back | Write_through

type pipeline = Per_block | Batched

type config = {
  block_size : int;
  ring_slots : int;
  mode : mode;
  alloc_policy : Tinca_cachelib.Free_monitor.policy;
  commit_pipeline : pipeline;
      (* Batched (default): the staged group commit — all COW data and
         entry lines under one fence, all ring slots under one more, one
         Head persist; O(1) fences per commit.  Per_block: the paper's
         literal per-block protocol (~4 fences per block), kept for the
         fig_commit_batch ablation. *)
  flight_slots : int;
      (* NVM-resident flight-recorder records (64 B each) reserved in the
         layout; 0 disables the recorder entirely (ISSUE 9).  Recorded in
         the superblock so recovery finds the same geometry. *)
}

let default_config =
  { block_size = 4096; ring_slots = 131072; mode = Write_back;
    alloc_policy = Tinca_cachelib.Free_monitor.Lifo; commit_pipeline = Batched; flight_slots = 0 }

exception Transaction_too_large

exception Cache_exhausted
(** Replacement found no victim: every cached block is pinned by the
    in-flight transaction.  [Txn.commit] maps this to
    {!Transaction_too_large} after rolling the partial commit back. *)

exception Corrupt = Ring.Corrupt
(** Recovery rejected the media: unformatted NVM, corrupt superblock
    geometry, ring pointers out of bounds, or an entry table that
    contradicts itself.  Typed (not [Failure]) so callers can tell "the
    medium is bad" from an arbitrary internal error; the facade maps it
    to [Tinca.Unformatted]. *)

exception Invariant_violation of string
(** An internal-invariant audit failed ([check_invariants], or a
    bookkeeping structure caught mid-corruption): a programming error,
    never an API or media error.  Typed (not [Failure]) so the lockstep
    sweep and the crash checker can key on the audit outcome without
    pattern-matching exception payloads of unrelated [Failure]s. *)

let () =
  Printexc.register_printer (function
    | Corrupt m -> Some (Printf.sprintf "Tinca_core.Cache.Corrupt(%S)" m)
    | Invariant_violation m -> Some (Printf.sprintf "Tinca_core.Cache.Invariant_violation(%S)" m)
    | _ -> None)

(* The logging side of one cached block (§4.6: reconstructible from the
   persistent entry table).  The frame cache holds the rest: [key] is
   the disk block, [frame] the current NVM data block, [slot] the entry
   index.  A block is pinned while it is in log role, and from the group
   commit's allocation pass on (before [role_log] starts protecting
   it). *)
type ext = {
  mutable prev : int option;
  mutable role_log : bool;
  mutable pre_dirty : bool;
      (* dirty bit as of just before the in-flight COW update; meaningful
         only while [role_log].  In-process revocation restores it, so
         aborting a transaction over a clean cached block does not turn
         the block spuriously dirty.  Post-crash recovery cannot read it
         back from media (the entry's M bit was overwritten by the COW
         update), so recovered infos conservatively set it to [true]. *)
  mutable mask : int64;
      (* lines where the in-flight version differs from [prev]'s
         (Frame_cache.plan_write); [Fc.full] when unknown *)
}

type info = ext Fc.block

(* The per-operation counters, resolved once at construction. *)
type counters = {
  c_flight_records : Metrics.counter;
  c_writebacks : Metrics.counter;
  c_fg_writebacks : Metrics.counter;
  c_bg_deferred : Metrics.counter;
  c_evictions : Metrics.counter;
  c_cleaned : Metrics.counter;
  c_revoked : Metrics.counter;
  c_read_hits : Metrics.counter;
  c_read_misses : Metrics.counter;
  c_write_hits : Metrics.counter;
  c_write_misses : Metrics.counter;
  c_head_advance : Metrics.counter;
  c_commits : Metrics.counter;
  c_commit_blocks : Metrics.counter;
  c_aborts : Metrics.counter;
}

let counters metrics =
  let c = Metrics.counter metrics in
  {
    c_flight_records = c "tinca.flight.records";
    c_writebacks = c "tinca.writebacks";
    c_fg_writebacks = c "cache.fg_writebacks";
    c_bg_deferred = c "cache.bg_deferred";
    c_evictions = c "tinca.evictions";
    c_cleaned = c "tinca.cleaned";
    c_revoked = c "tinca.revoked";
    c_read_hits = c "tinca.read_hits";
    c_read_misses = c "tinca.read_misses";
    c_write_hits = c "tinca.write_hits";
    c_write_misses = c "tinca.write_misses";
    c_head_advance = c "tinca.head_advance";
    c_commits = c "tinca.commits";
    c_commit_blocks = c "tinca.commit.blocks";
    c_aborts = c "tinca.aborts";
  }

type t = {
  cfg : config;
  layout : Layout.t;
  pmem : Pmem.t;
  disk : Disk.t;
  clock : Clock.t;
  metrics : Metrics.t;
  ctr : counters;
  cpu : Latency.cpu;
  ring : Ring.t;
  fc : ext Fc.t;
  cleaner : ext Fc.cleaner Lazy.t;
  mutable pinned : int; (* infos currently in log role *)
  mutable cow_pinned : int; (* NVM blocks held as previous versions *)
  mutable peak_cow : int;
  mutable committing : bool;
  (* Flight recorder (ISSUE 9): volatile cursor over the NVM record
     ring, the record lines written since the last commit-path fence
     (folded into that fence, never fenced on their own), the drain
     counter that numbers batches, and the records recovered by the last
     [recover_region] scan. *)
  flight : Flight.cursor option;
  mutable flight_dirty : (int * int) list;
  mutable flight_batch : int;
  mutable flight_cur_batch : int;
  mutable flight_shard : int;
  mutable flight_scan : ((int * Flight.event) list * int) option;
}

let layout t = t.layout
let config t = t.cfg

(* --- flight recorder (ISSUE 9) ----------------------------------------- *)

let set_flight_shard t s = t.flight_shard <- s
let flight_scan_result t = t.flight_scan

(* Volatile store of one 64 B record (exactly one line): no flush, no
   fence — the dirtied line waits in [flight_dirty] for the commit
   path's next fence stage.  Restores the pmem call-site label so the
   sanitizer keeps attributing the surrounding protocol step. *)
let flight_note t ?(batch = -1) ?(cause = Flight.Sync) ?(a = 0) ?(b = 0) ?(c = 0) ?(d = 0) kind =
  match t.flight with
  | None -> ()
  | Some cur ->
      let site = Pmem.site t.pmem in
      Pmem.set_site t.pmem "flight.record";
      let ev =
        { Flight.kind; shard = t.flight_shard; cause; a; b; c; d; batch;
          t_ns = int_of_float (Clock.now_ns t.clock) }
      in
      let off = Layout.flight_slot_off t.layout cur.Flight.seq in
      Pmem.write t.pmem ~off (Flight.encode ~seq:cur.Flight.seq ev);
      cur.Flight.seq <- cur.Flight.seq + 1;
      t.flight_dirty <- (off, Layout.flight_record_size) :: t.flight_dirty;
      Metrics.add t.ctr.c_flight_records 1;
      Pmem.set_site t.pmem site
[@@pmem.defer
  "a flight record is deliberately left unflushed: the dirtied line is parked in flight_dirty \
   until flight_flush_into_fence folds it into the commit path's next existing flush+fence stage \
   (zero added fences); a record torn by a crash before that fence fails its CRC and is dropped \
   by Flight.scan — detected, not trusted"]

(* Record ranges awaiting a fence, surrendered to the caller (who folds
   them into an imminent flush_ranges batch). *)
let flight_take t =
  match t.flight_dirty with
  | [] -> []
  | ranges ->
      t.flight_dirty <- [];
      ranges

(* clflush the pending record lines into the caller's imminent fence —
   never a fence of its own, so the commit path's sfence count is
   untouched by the recorder. *)
let flight_flush_into_fence t =
  List.iter (fun (off, len) -> Pmem.clflush t.pmem ~off ~len) (flight_take t)

(* --- superblock ------------------------------------------------------- *)

let magic = 0x314143_4E49_54L (* "TINCA1" little-endian-ish tag *)

let write_super t =
  Pmem.set_site t.pmem "cache.super";
  let b = Bytes.make 64 '\000' in
  Bytes.set_int64_le b 0 magic;
  Tinca_util.Codec.set_u32 b 8 t.cfg.block_size;
  Tinca_util.Codec.set_u32 b 12 t.cfg.ring_slots;
  Tinca_util.Codec.set_u32 b 16 t.layout.Layout.nblocks;
  (* Flight-recorder geometry (0 = recorder off).  Legacy superblocks
     carry zeros here, so pre-recorder media recovers unchanged. *)
  Tinca_util.Codec.set_u32 b 20 t.layout.Layout.flight_slots;
  Pmem.write t.pmem ~off:t.layout.Layout.super_off b;
  Pmem.persist t.pmem ~off:t.layout.Layout.super_off ~len:64

(* Read and *validate* the superblock: a corrupt one must surface as a
   clean "unformatted/corrupt NVM" failure, never as a division by zero
   or an absurd layout handed to the rest of recovery.  [base]/[mem_bytes]
   bound the region this cache may own (a shard of a partitioned device);
   they default to the whole device. *)
let read_super ~base ~mem_bytes pmem =
  let corrupt fmt = Printf.ksprintf (fun m -> raise (Corrupt ("Tinca.Cache: " ^ m))) fmt in
  if mem_bytes < base + 64 || mem_bytes > Pmem.size pmem then
    corrupt "unformatted NVM (region smaller than a superblock)";
  let b = Pmem.read pmem ~off:base ~len:64 in
  if Bytes.get_int64_le b 0 <> magic then corrupt "unformatted NVM (bad magic)";
  let block_size = Tinca_util.Codec.get_u32 b 8 in
  let ring_slots = Tinca_util.Codec.get_u32 b 12 in
  let nblocks = Tinca_util.Codec.get_u32 b 16 in
  let flight_slots = Tinca_util.Codec.get_u32 b 20 in
  if block_size <= 0 || block_size mod 64 <> 0 then
    corrupt "corrupt superblock (block_size %d)" block_size;
  if ring_slots <= 0 then corrupt "corrupt superblock (ring_slots %d)" ring_slots;
  if nblocks <= 0 then corrupt "corrupt superblock (nblocks %d)" nblocks;
  if flight_slots < 0 then corrupt "corrupt superblock (flight_slots %d)" flight_slots;
  let layout =
    try Layout.compute_flight ~flight_slots ~base ~pmem_bytes:mem_bytes ~block_size ~ring_slots
    with Invalid_argument _ -> corrupt "corrupt superblock (geometry does not fit the device)"
  in
  if layout.Layout.nblocks <> nblocks then
    corrupt "corrupt superblock (stored %d blocks, device fits %d)" nblocks
      layout.Layout.nblocks;
  layout

(* --- entry I/O --------------------------------------------------------- *)

(* Create or modify a cache entry with a 16 B atomic write + clflush +
   sfence, the paper's fine-grained metadata update. *)
let write_entry t idx e =
  let off = Layout.entry_off t.layout idx in
  Pmem.atomic_write16 t.pmem ~off (Entry.encode e);
  Pmem.clflush t.pmem ~off ~len:Entry.size;
  Pmem.sfence t.pmem

(* Batched entry updates (role switches, background cleaning): write all
   the 16 B entries atomically first, then flush each dirtied cache line
   exactly once, then fence.  Four entries share a 64 B line, so
   interleaving write/clflush per entry both stores into flush-pending
   lines (adversarial write-back resolution) and starts up to four medium
   write-backs per line where one suffices — the persistence sanitizer's
   persist-race / redundant-flush finding on this path. *)
let write_entries_batched t updates =
  match updates with
  | [] -> ()
  | updates ->
      let lines = Hashtbl.create 8 in
      List.iter
        (fun (idx, e) ->
          let off = Layout.entry_off t.layout idx in
          Pmem.atomic_write16 t.pmem ~off (Entry.encode e);
          Hashtbl.replace lines (off / Pmem.line_size) ())
        updates;
      Hashtbl.iter
        (fun line () ->
          Pmem.clflush t.pmem ~off:(line * Pmem.line_size) ~len:Pmem.line_size)
        lines;
      Pmem.sfence t.pmem

let entry_at t idx = Entry.decode (Pmem.read t.pmem ~off:(Layout.entry_off t.layout idx) ~len:Entry.size)

let entry_of_info ~role (info : info) =
  {
    Entry.valid = true;
    role;
    modified = info.dirty;
    disk_blkno = info.key;
    prev = info.ext.prev;
    cur = info.frame;
  }

let invalid_entry () =
  { Entry.valid = false; role = Buffer; modified = false; disk_blkno = 0; prev = None; cur = 0 }

(* --- allocation & replacement (§4.6) ----------------------------------- *)

let read_data_block t nvm_blk =
  Pmem.read t.pmem ~off:(Layout.data_block_off t.layout nvm_blk) ~len:t.cfg.block_size

(* Write a dirty block back to disk and mark it clean; returns the
   buffer-role entry update that persists the clean mark. *)
let writeback t (info : info) =
  Disk.write_block t.disk info.key (read_data_block t info.frame);
  Metrics.add t.ctr.c_writebacks 1;
  Fc.set_dirty t.fc info false;
  (info.slot, entry_of_info ~role:Entry.Buffer info)

(* The NVM side of evicting a victim: write it back if dirty, then
   persistently invalidate its entry so recovery cannot resurrect a
   block whose NVM space is about to be reused.  A victim without an
   entry slot is a volatile clean fill: no entry names it, so it costs
   nothing.  Victims are unpinned, so never in log role: a log-role
   block pins both its current and previous NVM blocks. *)
let evict_hooks t =
  {
    Fc.evict =
      (fun info ->
        if info.slot >= 0 then begin
          if info.dirty then begin
            ignore (writeback t info);
            Metrics.add t.ctr.c_fg_writebacks 1
          end;
          Pmem.set_site t.pmem "cache.evict";
          write_entry t info.slot (invalid_entry ())
        end;
        Metrics.add t.ctr.c_evictions 1);
  }

let alloc_data t =
  match Fc.take_frame t.fc (evict_hooks t) with Some i -> i | None -> raise Cache_exhausted

let alloc_entry t =
  match Fc.take_slot t.fc (evict_hooks t) with Some i -> i | None -> raise Cache_exhausted

let find_exn t blkno =
  match Fc.find t.fc blkno with
  | Some info -> info
  | None -> raise (Invariant_violation (Printf.sprintf "Tinca.Cache: block %d not cached" blkno))

(* The cleaner (Frame_cache.clean), built once per cache: every frame it
   writes goes to disk by DMA, uncharged; the clean marks of every block
   written ride one batched entry update on the caller's clock. *)
let make_cleaner t =
  {
    Fc.disk = t.disk;
    dma_read =
      (fun (info : info) ->
        Pmem.dma_read t.pmem ~off:(Layout.data_block_off t.layout info.frame) ~len:t.cfg.block_size);
    cleaned =
      (fun written ->
        Trace.begin_span ~clock:t.clock "tinca.bg_clean";
        Pmem.set_site t.pmem "cache.bg_clean";
        write_entries_batched t
          (List.map (fun (info : info) -> (info.slot, entry_of_info ~role:Entry.Buffer info)) written);
        let n = List.length written in
        Metrics.add t.ctr.c_writebacks n;
        Metrics.add t.ctr.c_cleaned n;
        Trace.end_span "tinca.bg_clean");
    deferred = t.ctr.c_bg_deferred;
  }

let clean ~after_commit t = ignore (Fc.clean t.fc (Lazy.force t.cleaner) ~after_commit)

(* --- construction ------------------------------------------------------ *)

let make_t ~config:cfg ~layout ~pmem ~disk ~clock ~metrics =
  let ring = Ring.attach ~pmem ~layout in
  let fc =
    Fc.create ~policy:cfg.alloc_policy ~metrics ~frames:layout.Layout.nblocks
      ~slots:layout.Layout.nblocks ~index_size:4096 ()
  in
  let flight =
    if layout.Layout.flight_slots > 0 then Some (Flight.cursor ~slots:layout.Layout.flight_slots)
    else None
  in
  let rec t =
    {
      cfg;
      layout;
      pmem;
      disk;
      clock;
      metrics;
      ctr = counters metrics;
      cpu = Latency.default_cpu;
      ring;
      fc;
      cleaner = lazy (make_cleaner t);
      pinned = 0;
      cow_pinned = 0;
      peak_cow = 0;
      committing = false;
      flight;
      flight_dirty = [];
      flight_batch = 0;
      flight_cur_batch = -1;
      flight_shard = 0;
      flight_scan = None;
    }
  in
  t

let format_region ~base ~mem_bytes ~config:cfg ~pmem ~disk ~clock ~metrics =
  let layout =
    Layout.compute_flight ~flight_slots:cfg.flight_slots ~base ~pmem_bytes:mem_bytes
      ~block_size:cfg.block_size ~ring_slots:cfg.ring_slots
  in
  if Disk.block_size disk <> cfg.block_size then
    invalid_arg "Tinca.Cache.format: disk block size mismatch";
  let t = make_t ~config:cfg ~layout ~pmem ~disk ~clock ~metrics in
  (* Zero the entry table persistently, then the pointers and superblock. *)
  Pmem.set_site pmem "cache.format";
  Pmem.fill pmem ~off:layout.Layout.entries_off
    ~len:(layout.Layout.nblocks * Entry.size)
    '\000';
  Pmem.persist pmem ~off:layout.Layout.entries_off ~len:(layout.Layout.nblocks * Entry.size);
  (* Zero the flight ring so every slot scans as empty, not torn. *)
  if layout.Layout.flight_slots > 0 then begin
    Pmem.fill pmem ~off:layout.Layout.flight_off
      ~len:(layout.Layout.flight_slots * Layout.flight_record_size)
      '\000';
    Pmem.persist pmem ~off:layout.Layout.flight_off
      ~len:(layout.Layout.flight_slots * Layout.flight_record_size)
  end;
  Ring.format t.ring;
  write_super t;
  t

let format ~config ~pmem ~disk ~clock ~metrics =
  format_region ~base:0 ~mem_bytes:(Pmem.size pmem) ~config ~pmem ~disk ~clock ~metrics

(* --- revocation (shared by abort and recovery, §4.5) -------------------- *)

(* Undo one block of the in-flight transaction using the DRAM info (which
   mirrors the media entry); a block not in log role is left alone.

   Recovery puts the blocks named in the ring range [Tail, Head) in log
   role whatever their entry's role: the Head advance that put them in
   range is persisted strictly after their new entry, so whatever entry
   it sees (log, or buffer when a role-switch flush happened to complete
   before the crash) is the in-flight transaction's version. *)
let revoke_block t blkno =
  match Fc.find t.fc blkno with
  | None -> () (* entry write never became durable: nothing to undo *)
  | Some info ->
      let x = info.ext in
      if x.role_log then begin
        Fc.set_pinned info false;
        Pmem.set_site t.pmem "cache.revoke";
        (match x.prev with
        | Some p ->
            (* Roll back to the previous version, restoring the dirty bit
               the block had before the COW update.  For in-process aborts
               [pre_dirty] is exact, so rolling back over a clean cached
               block does not schedule a spurious disk writeback; recovered
               infos carry the conservative [pre_dirty = true] because the
               pre-transaction M bit is unrecoverable from media. *)
            Fc.free_frame t.fc info.frame;
            Fc.set_frame info p;
            x.prev <- None;
            t.cow_pinned <- t.cow_pinned - 1;
            Fc.set_dirty t.fc info x.pre_dirty;
            if x.role_log then begin
              x.role_log <- false;
              t.pinned <- t.pinned - 1
            end;
            write_entry t info.slot (entry_of_info ~role:Entry.Buffer info)
        | None ->
            (* Write miss with no prior version: delete block and entry. *)
            Fc.set_dirty t.fc info false;
            write_entry t info.slot (invalid_entry ());
            Fc.remove t.fc info;
            if x.role_log then begin
              x.role_log <- false;
              t.pinned <- t.pinned - 1
            end);
        Metrics.add t.ctr.c_revoked 1
      end

let recover_region ?(flight_replay = true) ~base ~mem_bytes ~pmem ~disk ~clock ~metrics () =
  let layout = read_super ~base ~mem_bytes pmem in
  let block_size = layout.Layout.block_size and ring_slots = layout.Layout.ring_slots in
  if Disk.block_size disk <> block_size then
    raise (Corrupt "Tinca.Cache.recover: disk block size mismatch");
  let cfg =
    { default_config with block_size; ring_slots; flight_slots = layout.Layout.flight_slots }
  in
  let t = make_t ~config:cfg ~layout ~pmem ~disk ~clock ~metrics in
  Trace.begin_span ~clock "tinca.recover";
  (* Flight recorder: capture the surviving pre-crash records BEFORE any
     recovery action overwrites ring slots, then resume the sequence
     past the newest survivor so post-recovery records keep the total
     order.  [flight_replay = false] skips the scan (the dossier) but
     changes nothing else — the recovery-semantics-unchanged pin in
     check-flight holds recovery byte-identical either way. *)
  (match t.flight with
  | Some cur ->
      if flight_replay then Trace.begin_span ~clock "tinca.recover.flight_scan";
      let records, torn =
        Flight.scan ~slots:layout.Layout.flight_slots ~read:(fun i ->
            Pmem.read pmem
              ~off:(layout.Layout.flight_off + (i * Layout.flight_record_size))
              ~len:Layout.flight_record_size)
      in
      (* Without replay too: later records must never collide with
         survivors. *)
      cur.Flight.seq <- (match List.rev records with (seq, _) :: _ -> seq + 1 | [] -> 0);
      if flight_replay then begin
        t.flight_scan <- Some (records, torn);
        Trace.end_span "tinca.recover.flight_scan";
        flight_note t Flight.Recovery_start ~a:(Ring.head t.ring) ~b:(Ring.tail t.ring)
          ~c:(List.length records)
      end
  | None -> ());
  (* Blocks named by the ring range are the in-flight transaction's; their
     entries must be interpreted as in-flight even when a role-switch
     flush leaked to the medium before the crash (see revoke_block). *)
  Trace.begin_span ~clock "tinca.recover.ring_scan";
  let in_ring = Hashtbl.create 16 in
  List.iter (fun b -> Hashtbl.replace in_ring b ()) (Ring.pending_blknos t.ring);
  Trace.end_span "tinca.recover.ring_scan";
  (* Rebuild the DRAM index from the persistent entry table, read in one
     piece so that each 64 B line is charged once. *)
  Trace.begin_span ~clock "tinca.recover.entry_scan";
  let nblocks = layout.Layout.nblocks in
  let table = Pmem.read pmem ~off:layout.Layout.entries_off ~len:(nblocks * Entry.size) in
  (* Every frame number comes from media: bound it and refuse a second
     claim before the frame cache sees it.  Slots are the scan index, so
     each is claimed once by construction. *)
  let claimed = Bytes.make nblocks '\000' in
  let leaked = ref [] in
  let claim i f =
    if f < 0 || f >= nblocks then
      raise
        (Corrupt
           (Printf.sprintf "Tinca.Cache.recover: entry %d names frame %d, not in [0, %d)" i f
              nblocks));
    if Bytes.get claimed f <> '\000' then
      raise
        (Corrupt (Printf.sprintf "Tinca.Cache.recover: entry %d names frame %d twice over" i f));
    Bytes.set claimed f '\001'
  in
  for i = 0 to nblocks - 1 do
    let e = Entry.decode_at table (i * Entry.size) in
    if e.Entry.valid then begin
      (* A block beyond the disk would only fail at its first write-back. *)
      if e.Entry.disk_blkno >= Disk.nblocks disk then
        raise
          (Corrupt
             (Printf.sprintf "Tinca.Cache.recover: entry %d names disk block %d beyond the disk" i
                e.Entry.disk_blkno));
      if Fc.mem t.fc e.Entry.disk_blkno then
        raise (Corrupt "Tinca.Cache.recover: duplicate valid entry for a disk block");
      let role_log = e.Entry.role = Entry.Log || Hashtbl.mem in_ring e.Entry.disk_blkno in
      (* prev is meaningful (and pins NVM space) only for in-flight
         blocks; other buffer-role entries carry a stale prev. *)
      let prev = if role_log then e.Entry.prev else None in
      claim i e.Entry.cur;
      (match prev with Some p -> claim i p | None -> ());
      Fc.claim_slot t.fc i;
      Fc.claim_frame t.fc e.Entry.cur;
      (match prev with Some p -> Fc.claim_frame t.fc p | None -> ());
      let info =
        Fc.insert t.fc ~key:e.Entry.disk_blkno ~frame:e.Entry.cur ~slot:i ~dirty:e.Entry.modified
          ~pinned:role_log { prev; role_log; pre_dirty = true; mask = Fc.full }
      in
      if role_log && e.Entry.role = Entry.Buffer then leaked := info :: !leaked;
      if role_log then t.pinned <- t.pinned + 1;
      if prev <> None then t.cow_pinned <- t.cow_pinned + 1
    end
  done;
  Trace.end_span "tinca.recover.entry_scan";
  (* Revoke set = ring range [Tail, Head) ∪ all log-role entries.  The
     union is required: an entry can be persisted before its ring slot
     (commit step 1 precedes step 2), and a role-switched (buffer) entry
     of the in-flight transaction is only named by the ring.  So such an
     entry first goes back to log role, and Tail moves, before anything
     is revoked: from then on the log-role scan alone names the in-flight
     blocks, and a second crash mid-revocation cannot mistake a revoked
     hit (buffer role, no prev) for a write miss the ring still names. *)
  let before = Metrics.get t.metrics "tinca.revoked" in
  Trace.begin_span ~clock "tinca.recover.revoke";
  write_entries_batched t
    (List.map (fun (info : info) -> (info.slot, entry_of_info ~role:Entry.Log info)) !leaked);
  flight_flush_into_fence t;
  Ring.commit_point t.ring;
  List.iter
    (fun (info : info) ->
      if info.ext.role_log then begin
        (* Each revocation is a recovery decision worth keeping: the
           record line rides the revocation's own entry fence. *)
        flight_note t Flight.Recovery_decision ~a:1 ~b:info.key;
        flight_flush_into_fence t;
        revoke_block t info.key
      end)
    (List.rev (Fc.fold List.cons t.fc []));
  Trace.end_span "tinca.recover.revoke";
  Trace.end_span "tinca.recover";
  Metrics.incr t.metrics "tinca.recoveries" ~by:1;
  Log.info (fun m ->
      m "recovered: %d cached blocks, %d in-flight blocks revoked (%d named by ring)"
        (Fc.length t.fc)
        (Metrics.get t.metrics "tinca.revoked" - before)
        (Hashtbl.length in_ring));
  t

let recover ?(flight_replay = true) ~pmem ~disk ~clock ~metrics () =
  recover_region ~flight_replay ~base:0 ~mem_bytes:(Pmem.size pmem) ~pmem ~disk ~clock ~metrics ()

let read_layout ~base ~mem_bytes pmem = read_super ~base ~mem_bytes pmem

(* --- block I/O ---------------------------------------------------------- *)

let charge_op t = Clock.advance t.clock t.cpu.Latency.op_overhead_ns
let charge_lookup t = Clock.advance t.clock t.cpu.Latency.hash_lookup_ns

let fresh_ext ~role_log = { prev = None; role_log; pre_dirty = false; mask = Fc.full }

(* Read-miss fill: a frame but no entry slot, no flush, no fence.  When
   every cached block is pinned there is no victim: the block is served
   from disk and stays uncached. *)
let insert_clean t blkno data =
  match Fc.take_frame t.fc (evict_hooks t) with
  | None -> ()
  | Some nvm_blk ->
      Pmem.set_site t.pmem "cache.read_fill";
      Pmem.write t.pmem ~off:(Layout.data_block_off t.layout nvm_blk) data;
      ignore
        (Fc.insert t.fc ~key:blkno ~frame:nvm_blk ~slot:(-1) ~dirty:false ~pinned:false
           (fresh_ext ~role_log:false))
[@@pmem.defer
  "read-miss fill of a clean block: no entry is written, so the block's durable home stays \
   the disk — a crash simply un-caches it (recovery rebuilds from the entry table, which never \
   saw it); flushing the fill would buy nothing"]

let read t blkno =
  clean ~after_commit:false t;
  charge_op t;
  charge_lookup t;
  match Fc.lookup_read t.fc blkno with
  | Some info ->
      Metrics.add t.ctr.c_read_hits 1;
      read_data_block t info.frame
  | None ->
      Metrics.add t.ctr.c_read_misses 1;
      let data = Disk.read_block t.disk blkno in
      insert_clean t blkno data;
      data
[@@pmem.defer
  "a read miss fills the cache volatilely (insert_clean): the fill has no entry, so its durable \
   home stays the disk"]

(* --- transactions (§4.3–§4.4) ------------------------------------------ *)

module Txn = struct
  type state = Running | Committing | Finished

  (* The hit/miss classification the allocation pass records per block.
     Pinning makes it stable for the rest of the commit — a pinned hit
     cannot be evicted and nothing inserts missing blocks mid-commit — so
     the store pass branches on the record instead of re-probing the
     index (which would need an unreachable-by-construction failure
     arm). *)
  type staged_alloc = Hit of info | Miss of int  (* fresh entry slot *)

  (* One block of the allocation pass: its COW frame, hit or miss, its
     write plan, its store chunks and their flush ranges. *)
  type alloc = {
    a_blkno : int;
    a_frame : int;
    a_kind : staged_alloc;
    a_plan : Fc.plan;
    a_stores : (int * bytes) list;
    a_ranges : (int * int) list;
  }

  type handle = {
    cache : t;
    staged : (int, bytes) Hashtbl.t;
    mutable order : int list; (* reversed insertion order *)
    mutable state : state;
    (* The data and entry ranges [seal]'s stores dirtied, until [drain]
       fences them. *)
    mutable ranges : (int * int) list;
    (* Sealed by a synchronous commit, whose seal opened the drain: its
       Batch_drain record is already stored. *)
    mutable sync : bool;
    (* Facade ticket id for the flight recorder's Txn_seal record; -1
       when the transaction has no ticket (sync path). *)
    mutable flight_ticket : int;
  }

  let init cache =
    Trace.instant ~clock:cache.clock "tinca.txn.init";
    { cache; staged = Hashtbl.create 16; order = []; state = Running; ranges = []; sync = false;
      flight_ticket = -1 }

  let set_flight_ticket h id = h.flight_ticket <- id

  let add h blkno data =
    if h.state <> Running then invalid_arg "Tinca.Txn.add: transaction not running";
    let t = h.cache in
    if Bytes.length data <> t.cfg.block_size then invalid_arg "Tinca.Txn.add: wrong block size";
    Clock.advance t.clock t.cpu.Latency.memcpy_4k_ns;
    if not (Hashtbl.mem h.staged blkno) then h.order <- blkno :: h.order;
    Hashtbl.replace h.staged blkno (Bytes.copy data)

  let block_count h = List.length h.order
  let blocks h = List.rev h.order

  (* Point a cached block at its COW copy [new_blk], keeping the old
     version as [prev] and pinning the block in log role (§4.3). *)
  let cow_hit t (info : info) new_blk (plan : Fc.plan) =
    let x = info.ext in
    Fc.note_write t.fc ~hit:true;
    Metrics.add t.ctr.c_write_hits 1;
    x.mask <- plan.Fc.mask;
    x.pre_dirty <- info.dirty;
    x.prev <- Some info.frame;
    Fc.set_frame info new_blk;
    x.role_log <- true;
    Fc.set_pinned info true;
    Fc.set_dirty t.fc info true;
    t.pinned <- t.pinned + 1;
    t.cow_pinned <- t.cow_pinned + 1;
    if t.cow_pinned > t.peak_cow then t.peak_cow <- t.cow_pinned

  (* Cache a write miss at its COW block [new_blk] and fresh entry slot,
     dirty and pinned in log role with no previous version. *)
  let cow_miss t blkno new_blk entry_idx =
    Fc.note_write t.fc ~hit:false;
    Metrics.add t.ctr.c_write_misses 1;
    t.pinned <- t.pinned + 1;
    Fc.insert t.fc ~key:blkno ~frame:new_blk ~slot:entry_idx ~dirty:true ~pinned:true
      (fresh_ext ~role_log:true)

  (* Run before a write to [blkno] allocates anything.  A cached block
     without an entry slot is a volatile clean fill whose frame was never
     made durable, so it must never become [prev]: it is dropped, and the
     write takes the miss path (fresh frame and slot, no [prev]), so
     revoking it invalidates the entry and the disk keeps the pre-image. *)
  let drop_fill t blkno =
    match Fc.find t.fc blkno with
    | Some info when info.slot < 0 -> Fc.remove t.fc info
    | _ -> ()

  (* Where a write's COW copy goes: the block's spare, written on the
     plan's lines, or a fresh frame written whole.  Raises
     [Cache_exhausted] holding nothing. *)
  let cow_frame t blkno data =
    let plan = Fc.plan_write t.fc (Fc.find t.fc blkno) data in
    ((if plan.Fc.target >= 0 then plan.Fc.target else alloc_data t), plan)

  (* The plan's lines of [data] as store chunks, and their flush ranges,
     of the frame at [off]; a fresh frame is one chunk, the whole
     block. *)
  let cow_chunks t off data plan =
    let runs = Fc.runs plan ~block_size:t.cfg.block_size in
    ( List.map
        (fun (pos, len) ->
          (off + pos, if len = Bytes.length data then data else Bytes.sub data pos len))
        runs,
      List.map (fun (pos, len) -> (off + pos, len)) runs )

  (* Commit one block: paper §4.4 steps 1–3 (write data COW; swing the
     entry atomically; record the block number in the ring and advance
     Head). *)
  let commit_block t blkno data =
    drop_fill t blkno;
    let new_blk, plan = cow_frame t blkno data in
    Pmem.set_site t.pmem "commit.data";
    let off = Layout.data_block_off t.layout new_blk in
    let stores, ranges = cow_chunks t off data plan in
    List.iter (fun (off, b) -> Pmem.write t.pmem ~off b) stores;
    List.iter (fun (off, len) -> Pmem.clflush t.pmem ~off ~len) ranges;
    if ranges <> [] then Pmem.sfence t.pmem;
    Pmem.set_site t.pmem "commit.entry";
    (match Fc.find t.fc blkno with
    | Some info ->
        (* Write hit: COW block write (§4.3). *)
        cow_hit t info new_blk plan;
        write_entry t info.slot (entry_of_info ~role:Entry.Log info)
    | None ->
        (* Write miss: fresh entry, previous version = FRESH.  If the
           entry allocation fails, the COW data block allocated above
           must be returned to the pool before the exception escapes:
           the block never reached the index, so neither
           [revoke_partial] nor recovery can ever reclaim it, and
           [check_invariants] would flag the leak. *)
        let entry_idx =
          try alloc_entry t
          with e ->
            Fc.free_frame t.fc new_blk;
            raise e
        in
        let info = cow_miss t blkno new_blk entry_idx in
        write_entry t entry_idx (entry_of_info ~role:Entry.Log info));
    Ring.record t.ring blkno;
    Metrics.add t.ctr.c_head_advance 1

  (* Allocation pass (volatile): pin every staged cached block, then
     allocate all COW data blocks and fresh entry slots up front, so
     replacement — including its persistent entry invalidations — runs to
     completion before the first staged store.  Every block's spare is
     taken as its target before any fresh frame is allocated, so
     replacement reclaims other blocks' spares, or evicts, exactly where
     it would have found those frames free.  A failure here is rolled
     back completely and re-raised with the cache exactly as before the
     call (a taken spare is freed); nothing has been written, the ring is
     untouched. *)
  let alloc_group t staged blocks =
    List.iter
      (fun blkno ->
        drop_fill t blkno;
        match Fc.find t.fc blkno with Some info -> Fc.set_pinned info true | None -> ())
      blocks;
    let plans =
      List.map
        (fun blkno ->
          let data = Hashtbl.find staged blkno in
          (blkno, data, Fc.plan_write t.fc (Fc.find t.fc blkno) data))
        blocks
    in
    let allocs = ref [] and unallocated = ref plans in
    Trace.begin_span ~clock:t.clock "tinca.commit.alloc";
    (try
       List.iter
         (fun (blkno, data, plan) ->
           unallocated := List.tl !unallocated;
           let frame = if plan.Fc.target >= 0 then plan.Fc.target else alloc_data t in
           let kind =
             match Fc.find t.fc blkno with
             | Some info -> Hit info
             | None -> (
                 try Miss (alloc_entry t)
                 with e ->
                   Fc.free_frame t.fc frame;
                   raise e)
           in
           let stores, ranges = cow_chunks t (Layout.data_block_off t.layout frame) data plan in
           allocs :=
             {
               a_blkno = blkno;
               a_frame = frame;
               a_kind = kind;
               a_plan = plan;
               a_stores = stores;
               a_ranges = ranges;
             }
             :: !allocs)
         plans
     with e ->
       List.iter
         (fun (_, _, plan) -> if plan.Fc.target >= 0 then Fc.free_frame t.fc plan.Fc.target)
         !unallocated;
       List.iter
         (fun a ->
           Fc.free_frame t.fc a.a_frame;
           match a.a_kind with
           | Miss i -> Fc.free_slot t.fc i
           | Hit _ -> ())
         !allocs;
       List.iter
         (fun blkno ->
           match Fc.find t.fc blkno with
           | Some info -> Fc.set_pinned info info.ext.role_log
           | None -> ())
         blocks;
       Trace.end_span "tinca.commit.alloc";
       raise e);
    Trace.end_span "tinca.commit.alloc";
    List.rev !allocs

  (* Store pass (cannot fail): write all COW data blocks (one vectored
     write per block), swing all entries with 16 B atomic writes, and
     keep every dirtied byte range for [drain]'s stage-A fence.  The
     relative durability order of data vs. entry lines within the stage
     is irrelevant: until Head covers the blocks, recovery revokes
     whatever subset became durable. *)
  let store h allocs =
    let t = h.cache in
    Pmem.set_site t.pmem "commit.data";
    List.iter (fun a -> Pmem.writev t.pmem a.a_stores) allocs;
    Pmem.set_site t.pmem "commit.entry";
    let ranges = ref [] in
    let swing off info =
      Pmem.atomic_write16 t.pmem ~off (Entry.encode (entry_of_info ~role:Entry.Log info));
      ranges := (off, Entry.size) :: !ranges
    in
    List.iter
      (fun a ->
        List.iter (fun r -> ranges := r :: !ranges) a.a_ranges;
        match a.a_kind with
        | Hit info ->
            (* Write hit: COW block write (§4.3). *)
            cow_hit t info a.a_frame a.a_plan;
            swing (Layout.entry_off t.layout info.slot) info
        | Miss entry_idx ->
            (* Write miss: fresh entry, previous version = FRESH. *)
            swing (Layout.entry_off t.layout entry_idx) (cow_miss t a.a_blkno a.a_frame entry_idx))
      allocs;
    h.ranges <- !ranges
  [@@pmem.defer
    "the store pass deliberately leaves its dirtied ranges unflushed: drain folds every member \
     transaction's data + entry lines into ONE flush_ranges + sfence (the point of the fence \
     amortization), and until Head covers the blocks recovery revokes any subset that became \
     durable"]

  (* Head is rewound before any entry is: a revoked entry names no
     previous version, so while the ring still named its block a crash
     would make recovery delete it as a write miss.  With Head rewound
     first, every entry not yet revoked is still in log role and
     recovery's log-role scan revokes it to its [prev]. *)
  let revoke_partial h blocks_done =
    let t = h.cache in
    Ring.rewind_head t.ring;
    List.iter (fun blkno -> revoke_block t blkno) blocks_done;
    t.committing <- false

  (* Admission control.  A rejected transaction is terminal (the handle
     moves to Finished) and leaves the cache untouched.

     Capacity accounting: the commit needs [n] fresh NVM data blocks
     (every staged block gets a COW copy) and one entry slot per write
     miss.  Supply is the free pools plus evictions, each of which frees
     exactly one data block and one entry slot — but the transaction's
     own cached blocks must not be counted as victims: every write hit
     pins its LRU node (and both its [cur] and [prev] NVM blocks) once
     its turn in the commit loop comes. *)
  let admit h blocks n =
    let t = h.cache in
    let reject () =
      h.state <- Finished;
      raise Transaction_too_large
    in
    if n > t.cfg.ring_slots then reject ();
    (* A cached block without an entry slot needs one: a miss. *)
    let hits =
      List.fold_left
        (fun acc b ->
          match Fc.find t.fc b with Some info when info.slot >= 0 -> acc + 1 | _ -> acc)
        0 blocks
    in
    let misses = n - hits in
    let evictable = Fc.length t.fc - t.pinned - hits in
    if n > Fc.free_frames t.fc + evictable then reject ();
    if misses > Fc.free_slots t.fc + evictable then reject ()

  (* --- the region contract: seal, drain, retire ---------------------------
     Every commit, of one transaction or of a group-commit batch, runs

       seal h          per transaction: admission, allocation, the COW
                       data and entry stores — no flush, no fence;
       drain hs        stage A: every member's stores flushed once, one
                       fence; stage B: every member's ring slots stored
                       from Head on and fenced;
       advance_head hs one Head persist over every slot (§4.4 step 3);
       commit_point hs one batched role switch, then Tail := Head;
       retire ~now hs  volatile bookkeeping, write-through, the cleaner.

     {!Shard} puts the cross-shard seal word between [advance_head] and
     [commit_point].  Until Head moves a crash revokes the batch through
     the log-role entry scan; after it the ring range names the whole
     batch.  A synchronous commit is a drain of one whose seal opens the
     drain.  [Per_block] seals only admit, and its drain runs the
     paper's per-block protocol (~4 fences per block) for each member,
     Head advancing as it goes. *)

  (* Number the next drain and store its Batch_drain record, which rides
     the stage-A flush. *)
  let open_drain t ~cause n =
    t.flight_cur_batch <- t.flight_batch;
    t.flight_batch <- t.flight_batch + 1;
    flight_note t Flight.Batch_drain ~cause ~a:n ~batch:t.flight_cur_batch
  [@@pmem.defer
    "the Batch_drain record waits in flight_dirty for the drain's stage-A flush + fence (zero \
     added fences)"]

  (* A seal applies the transaction volatilely: the DRAM index serves
     reads from the new versions at once, but nothing is durable and its
     ring slots are only reserved, so a crash before its drain's Head
     persist rolls it back.  Raises [Transaction_too_large] with the
     handle finished and the cache as before the call. *)
  let seal ?(sync = false) h =
    if h.state <> Running then invalid_arg "Tinca.Txn.seal: transaction not running";
    let t = h.cache in
    let blocks = blocks h in
    let n = List.length blocks in
    if n = 0 then invalid_arg "Tinca.Txn.seal: empty transaction";
    admit h blocks n;
    h.state <- Committing;
    t.committing <- true;
    charge_op t;
    h.sync <- sync;
    if sync then open_drain t ~cause:Flight.Sync 1;
    if t.cfg.commit_pipeline = Batched then begin
      (* A synchronous commit's seal is its stage A's first half. *)
      let span = if sync then "tinca.commit.stage_a" else "tinca.commit.seal" in
      Trace.begin_span ~clock:t.clock span;
      (match alloc_group t h.staged blocks with
      | allocs -> store h allocs
      | exception Cache_exhausted ->
          Trace.end_span span;
          (* Earlier sealed transactions keep the commit window open. *)
          if Ring.reserved t.ring = 0 then t.committing <- false;
          h.state <- Finished;
          raise Transaction_too_large);
      Ring.reserve t.ring n;
      (* Seal record: volatile like the seal itself — it becomes durable
         with the batch's stage-A flush, naming the ticket, the footprint
         and the first block's payload checksum for the dossier's
         acked-vs-survived probe.  Without a flight ring nobody reads the
         checksum, so it is not computed. *)
      (match (t.flight, blocks) with
      | Some _, first :: _ when not sync ->
          let data = Hashtbl.find h.staged first in
          let crc = Tinca_util.Codec.crc32 data ~pos:0 ~len:(Bytes.length data) in
          flight_note t Flight.Txn_seal ~a:(h.flight_ticket + 1) ~b:n ~c:first
            ~d:(Int32.to_int crc land 0xFFFF_FFFF) ~batch:t.flight_batch
      | _ -> ());
      Trace.end_span span
    end
  [@@pmem.defer
    "a seal is volatile by contract: its stores and records reach the stage-A flush + fence of \
     the drain that covers it, and until that drain's Head persist recovery revokes whatever \
     subset became durable"]

  (* Drop a sealed, undrained transaction: revoke its blocks (all in log
     role, with exact pre-images in DRAM) and release its slot
     reservation. *)
  let unseal h =
    if h.state <> Committing then invalid_arg "Tinca.Txn.unseal: transaction not sealed";
    let t = h.cache in
    List.iter (fun blkno -> revoke_block t blkno) (blocks h);
    if t.cfg.commit_pipeline = Batched then Ring.release t.ring (block_count h);
    if Ring.reserved t.ring = 0 && Ring.in_flight t.ring = 0 then t.committing <- false;
    h.state <- Finished;
    Metrics.add t.ctr.c_aborts 1

  (* The paper's literal protocol for one sealed transaction.  On a
     capacity failure the partial work is fully revoked, the handle
     finished, and [Transaction_too_large] raised with the cache as
     before: admission is exact for the states normal operation
     produces, but replacement may still run out of victims mid-commit. *)
  let per_block h =
    let t = h.cache in
    let committed = ref [] in
    try
      List.iter
        (fun blkno ->
          commit_block t blkno (Hashtbl.find h.staged blkno);
          committed := blkno :: !committed)
        (blocks h)
    with e ->
      revoke_partial h !committed;
      h.state <- Finished;
      raise (match e with Cache_exhausted -> Transaction_too_large | e -> e)

  let drain ?(cause = Flight.Barrier) hs =
    match hs with
    | [] -> ()
    | h0 :: _ -> (
        let t = h0.cache in
        List.iter
          (fun h ->
            if h.state <> Committing then invalid_arg "Tinca.Txn.drain: transaction not sealed";
            if h.cache != t then invalid_arg "Tinca.Txn.drain: mixed caches")
          hs;
        match t.cfg.commit_pipeline with
        | Per_block -> List.iter per_block hs
        | Batched ->
            if not h0.sync then open_drain t ~cause (List.length hs);
            (* Stage A: every dirtied data and entry line, flushed once,
               with the pending flight-record lines, under one fence. *)
            Trace.begin_span ~clock:t.clock "tinca.commit.stage_a";
            Pmem.set_site t.pmem "commit.flush";
            Pmem.flush_ranges t.pmem
              (List.rev_append (flight_take t) (List.concat_map (fun h -> h.ranges) hs));
            Pmem.sfence t.pmem;
            Trace.end_span "tinca.commit.stage_a";
            (* Stage B: every slot stored and fenced; Head still excludes
               them. *)
            Trace.begin_span ~clock:t.clock "tinca.commit.stage_b";
            Ring.record_batch t.ring (List.concat_map blocks hs);
            Trace.end_span "tinca.commit.stage_b")

  let advance_head hs =
    match hs with
    | h0 :: _ when h0.cache.cfg.commit_pipeline = Batched ->
        let t = h0.cache in
        let n = List.fold_left (fun acc h -> acc + block_count h) 0 hs in
        Trace.begin_span ~clock:t.clock "tinca.commit.head";
        flight_note t Flight.Head_advance ~a:n ~batch:t.flight_cur_batch;
        flight_flush_into_fence t;
        Ring.publish t.ring n;
        Metrics.add t.ctr.c_head_advance 1;
        Trace.end_span "tinca.commit.head"
    | _ -> ()

  let infos hs = List.concat_map (fun h -> List.map (find_exn h.cache) (blocks h)) hs

  (* §4.4 steps 4–5 over the batch: the role switches under one fence,
     which must complete BEFORE the Tail update so a crash cannot
     surface a half-switched committed transaction, then Tail := Head —
     the durable commit point for every member.  The batch's
     Tail_persist record — the durability evidence the crash dossier
     reconciles against — flushes under that very fence, so it is
     durable exactly when the batch is. *)
  let commit_point hs =
    match hs with
    | [] -> ()
    | h0 :: _ ->
        let t = h0.cache in
        let infos = infos hs in
        Pmem.set_site t.pmem "commit.role_switch";
        Trace.begin_span ~clock:t.clock "tinca.commit.role_switch";
        flight_note t Flight.Role_switch ~a:(List.length infos) ~batch:t.flight_cur_batch;
        flight_flush_into_fence t;
        write_entries_batched t
          (List.map
             (fun (info : info) ->
               info.ext.role_log <- false;
               Fc.set_pinned info false;
               t.pinned <- t.pinned - 1;
               (info.slot, entry_of_info ~role:Entry.Buffer info))
             infos);
        Trace.end_span "tinca.commit.role_switch";
        Trace.begin_span ~clock:t.clock "tinca.commit.tail";
        flight_note t Flight.Tail_persist ~a:(List.length hs) ~batch:t.flight_cur_batch;
        flight_flush_into_fence t;
        Ring.commit_point t.ring;
        Trace.end_span "tinca.commit.tail"

  (* After the commit point: stamp the versions made durable at [now] for
     the cleaner, keep each staged copy as its block's shadow and each
     previous version as a spare or free it (Frame_cache.retire_version),
     promote to MRU (§4.6 rule 2b), count the commits, propagate to disk
     under write-through (kept for the ablation study; the clean marks
     ride one batched entry update), then run the cleaner. *)
  let retire ~now hs =
    match hs with
    | [] -> ()
    | h0 :: _ ->
        let t = h0.cache in
        Fc.new_drain t.fc;
        List.iter
          (fun h ->
            List.iter
              (fun blkno ->
                let info = find_exn t blkno in
                Fc.stamp_durable info now;
                let prev =
                  match info.ext.prev with
                  | Some p ->
                      info.ext.prev <- None;
                      t.cow_pinned <- t.cow_pinned - 1;
                      p
                  | None -> -1
                in
                Fc.retire_version t.fc info ~prev ~mask:info.ext.mask (Hashtbl.find h.staged blkno))
              (blocks h))
          hs;
        t.committing <- false;
        List.iter
          (fun h ->
            let n = block_count h in
            h.state <- Finished;
            Log.debug (fun m ->
                m "committed transaction of %d blocks (ring head %d)" n (Ring.head t.ring));
            Metrics.add t.ctr.c_commits 1;
            Metrics.add t.ctr.c_commit_blocks n)
          hs;
        if t.cfg.mode = Write_through then begin
          Pmem.set_site t.pmem "cache.writeback";
          Trace.begin_span ~clock:t.clock "tinca.commit.writeback";
          write_entries_batched t (List.map (writeback t) (infos hs));
          Trace.end_span "tinca.commit.writeback"
        end;
        clean ~after_commit:true t

  let commit h =
    if h.state <> Running then invalid_arg "Tinca.Txn.commit: transaction not running";
    let t = h.cache in
    if h.order = [] then begin
      h.state <- Finished;
      Metrics.add t.ctr.c_commits 1
    end
    else begin
      Trace.begin_span ~clock:t.clock "tinca.commit";
      Trace.attr_int "blocks" (block_count h);
      (try
         seal ~sync:true h;
         drain [ h ];
         advance_head [ h ];
         commit_point [ h ]
       with e ->
         Trace.end_span "tinca.commit";
         raise e);
      Trace.end_span "tinca.commit";
      retire ~now:(Clock.now_ns t.clock) [ h ]
    end

  (* Failure injection for tests and the crash-space checker: run the
     commit protocol for the first [k] staged blocks and stop, as an
     injected mid-commit failure would.  [abort] then exercises the
     production revocation path. *)
  let commit_prefix h k =
    if h.state <> Running then invalid_arg "Tinca.Txn.commit_prefix: transaction not running";
    let t = h.cache in
    let blocks = blocks h in
    if k < 0 || k > List.length blocks then invalid_arg "Tinca.Txn.commit_prefix: bad prefix";
    h.state <- Committing;
    t.committing <- true;
    let prefix = List.filteri (fun i _ -> i < k) blocks in
    match t.cfg.commit_pipeline with
    | Batched when k > 0 ->
        (* The prefix stands in for the transaction; abort revokes by
           [order], and the blocks after the prefix were never touched. *)
        h.order <- List.rev prefix;
        store h (alloc_group t h.staged prefix);
        drain [ h ];
        advance_head [ h ]
    | Batched -> ()
    | Per_block ->
        List.iter (fun blkno -> commit_block t blkno (Hashtbl.find h.staged blkno)) prefix

  let abort h =
    let t = h.cache in
    match h.state with
    | Finished -> invalid_arg "Tinca.Txn.abort: transaction already finished"
    | Running ->
        h.state <- Finished;
        Metrics.add t.ctr.c_aborts 1
    | Committing ->
        (* Mid-commit abort: revoke what the ring has recorded, plus the
           transaction's own blocks, after rewinding Head (see
           [revoke_partial]).  [revoke_block] is role-guarded, so blocks
           already revoked via the ring pass (or never staged) are
           untouched. *)
        let pending = Ring.pending_blknos t.ring in
        Ring.rewind_head t.ring;
        List.iter (fun blkno -> revoke_block t blkno) pending;
        List.iter (fun blkno -> revoke_block t blkno) (blocks h);
        t.committing <- false;
        h.state <- Finished;
        Metrics.add t.ctr.c_aborts 1
end

let write_direct t blkno data =
  let h = Txn.init t in
  Txn.add h blkno data;
  Txn.commit h

(* --- maintenance -------------------------------------------------------- *)

let flush_all t =
  Pmem.set_site t.pmem "cache.writeback";
  (* All clean marks under one batched entry update (one fence), instead
     of a flush + fence per dirty block. *)
  let updates =
    Fc.fold
      (fun info acc -> if info.dirty && not info.ext.role_log then writeback t info :: acc else acc)
      t.fc []
  in
  write_entries_batched t updates

let cached_blocks t = Fc.length t.fc
let free_blocks t = Fc.free_frames t.fc
let contains t blkno = Fc.mem t.fc blkno

let ratio a b = if a + b = 0 then 0.0 else float_of_int a /. float_of_int (a + b)
let write_hit_rate t = ratio (Fc.write_hits t.fc) (Fc.write_misses t.fc)
let peak_cow_blocks t = t.peak_cow

let peek t blkno =
  match Fc.find t.fc blkno with
  | Some info -> Some (read_data_block t info.frame)
  | None -> None

(* --- /proc-style stats snapshot ---------------------------------------- *)

type stats = {
  capacity_blocks : int;
  cached : int;
  free_data : int;
  free_entries : int;
  dirty : int;
  dirty_ratio : float;
  pinned : int;
  cow_pinned : int;
  peak_cow : int;
  spares : int;
  read_hits : int;
  read_misses : int;
  read_hit_ratio : float;
  write_hits : int;
  write_misses : int;
  write_hit_ratio : float;
  commits : int;
  aborts : int;
  revoked : int;
  recoveries : int;
  ring_slots : int;
  ring_in_flight : int;
  ring_high_water : int;
  wear_max : int;
  wear_mean : float;
}

(* Structural fields are summed over [caches]; metric-derived totals
   (commits, aborts, revoked, recoveries) come from the shared registry
   and wear from the shared device; ring_high_water is the MAX — per-ring
   peaks do not add up to a meaningful global peak. *)
let stats_of caches =
  let t = caches.(0) in
  let sum f = Array.fold_left (fun a c -> a + f c) 0 caches in
  let nblocks = sum (fun c -> c.layout.Layout.nblocks) in
  let nlines = Pmem.size t.pmem / Pmem.line_size in
  let dirty = sum (fun c -> Fc.dirty_count c.fc) in
  let read_hits = sum (fun c -> Fc.read_hits c.fc) and read_misses = sum (fun c -> Fc.read_misses c.fc) in
  let write_hits = sum (fun c -> Fc.write_hits c.fc)
  and write_misses = sum (fun c -> Fc.write_misses c.fc) in
  {
    capacity_blocks = nblocks;
    cached = sum (fun c -> Fc.length c.fc);
    free_data = sum (fun c -> Fc.free_frames c.fc);
    free_entries = sum (fun c -> Fc.free_slots c.fc);
    dirty;
    dirty_ratio = (if nblocks = 0 then 0.0 else float_of_int dirty /. float_of_int nblocks);
    pinned = sum (fun c -> c.pinned);
    cow_pinned = sum (fun c -> c.cow_pinned);
    peak_cow = sum (fun c -> c.peak_cow);
    spares = sum (fun c -> Fc.spare_count c.fc);
    read_hits;
    read_misses;
    read_hit_ratio = ratio read_hits read_misses;
    write_hits;
    write_misses;
    write_hit_ratio = ratio write_hits write_misses;
    commits = Metrics.get t.metrics "tinca.commits";
    aborts = Metrics.get t.metrics "tinca.aborts";
    revoked = Metrics.get t.metrics "tinca.revoked";
    recoveries = Metrics.get t.metrics "tinca.recoveries";
    ring_slots = sum (fun c -> Ring.slots c.ring);
    ring_in_flight = sum (fun c -> Ring.in_flight c.ring);
    ring_high_water = Array.fold_left (fun a c -> max a (Ring.high_water c.ring)) 0 caches;
    wear_max = Pmem.wear_max t.pmem;
    wear_mean =
      (if nlines = 0 then 0.0
       else float_of_int (Pmem.wear_total t.pmem) /. float_of_int nlines);
  }

let stats t = stats_of [| t |]

let stats_kv s =
  let i = string_of_int and f = Printf.sprintf "%.3f" in
  [
    ("capacity_blocks", i s.capacity_blocks);
    ("cached_blocks", i s.cached);
    ("free_data_blocks", i s.free_data);
    ("free_entry_slots", i s.free_entries);
    ("dirty_blocks", i s.dirty);
    ("dirty_ratio", f s.dirty_ratio);
    ("pinned_entries", i s.pinned);
    ("cow_pinned_blocks", i s.cow_pinned);
    ("peak_cow_blocks", i s.peak_cow);
    ("spare_frames", i s.spares);
    ("read_hits", i s.read_hits);
    ("read_misses", i s.read_misses);
    ("read_hit_ratio", f s.read_hit_ratio);
    ("write_hits", i s.write_hits);
    ("write_misses", i s.write_misses);
    ("write_hit_ratio", f s.write_hit_ratio);
    ("commits", i s.commits);
    ("aborts", i s.aborts);
    ("revoked_blocks", i s.revoked);
    ("recoveries", i s.recoveries);
    ("ring_slots", i s.ring_slots);
    ("ring_in_flight", i s.ring_in_flight);
    ("ring_high_water", i s.ring_high_water);
    ("nvm_wear_max", i s.wear_max);
    ("nvm_wear_mean", f s.wear_mean);
  ]

(* Region-attributed wear: (region, total write-backs, max per line),
   regions in layout order.  Pointer lines are reported separately from
   the superblock — they are the hot lines wear-leveling cares about. *)
let region_wear t =
  let l = t.layout in
  let span name off len =
    if len <= 0 then (name, 0, 0)
    else (name, Pmem.wear_sum_in t.pmem ~off ~len, Pmem.wear_max_in t.pmem ~off ~len)
  in
  [
    span "super" l.Layout.super_off (l.Layout.head_off - l.Layout.super_off);
    span "head" l.Layout.head_off (l.Layout.tail_off - l.Layout.head_off);
    span "tail" l.Layout.tail_off (l.Layout.ring_off - l.Layout.tail_off);
    span "ring" l.Layout.ring_off (l.Layout.flight_off - l.Layout.ring_off);
    span "flight" l.Layout.flight_off (l.Layout.entries_off - l.Layout.flight_off);
    span "entries" l.Layout.entries_off (l.Layout.data_off - l.Layout.entries_off);
    span "data" l.Layout.data_off (l.Layout.total_bytes - l.Layout.data_off);
  ]

(* --- invariant audit ----------------------------------------------------- *)

let check_invariants t =
  let fail fmt =
    Printf.ksprintf (fun m -> raise (Invariant_violation m)) ("Tinca.Cache invariant: " ^^ fmt)
  in
  (match Fc.audit ~also_holds:(fun info -> Option.value ~default:(-1) info.ext.prev) t.fc with
  | Ok () -> ()
  | Error m -> fail "%s" m);
  (* Shadows mirror the committed version: [prev] while a block is in
     flight.  Read by DMA, so the audit charges nothing. *)
  (match
     Fc.audit_versions t.fc
       ~read:(fun f ->
         Pmem.dma_read t.pmem ~off:(Layout.data_block_off t.layout f) ~len:t.cfg.block_size)
       ~committed:(fun info -> Option.value ~default:info.frame info.ext.prev)
   with
  | Ok () -> ()
  | Error m -> fail "%s" m);
  if (not t.committing) && Ring.head t.ring <> Ring.tail t.ring then
    fail "ring not quiescent outside commit (head=%d tail=%d)" (Ring.head t.ring)
      (Ring.tail t.ring);
  let fills = Hashtbl.create 16 in
  let pinned =
    Fc.fold
      (fun info n ->
        let blkno = info.key and x = info.ext in
        if x.prev <> None && not x.role_log then fail "block %d has prev but buffer role" blkno;
        if x.role_log && not info.pinned then fail "log-role block %d not pinned" blkno;
        if info.slot < 0 then begin
          (* A volatile clean fill: nothing on media may depend on it. *)
          if info.dirty || info.pinned || x.role_log || x.prev <> None then
            fail "slot-less block %d is not a clean unpinned buffer block" blkno;
          Hashtbl.replace fills blkno ();
          n
        end
        else begin
          let e = entry_at t info.slot in
          (* Buffer-role media entries legitimately keep a stale prev field
             after the role switch (it is only dead weight until the next COW
             update overwrites it), so normalize prev before comparing. *)
          let e = if e.Entry.role = Entry.Buffer then { e with Entry.prev = x.prev } else e in
          if
            not
              (Entry.equal e
                 (entry_of_info ~role:(if x.role_log then Entry.Log else Entry.Buffer) info))
          then
            fail "media entry %s disagrees with DRAM info for block %d"
              (Format.asprintf "%a" Entry.pp e)
              blkno;
          if x.role_log then n + 1 else n
        end)
      t.fc 0
  in
  if pinned <> t.pinned then fail "pinned count %d <> recomputed %d" t.pinned pinned;
  if Hashtbl.length fills > 0 then
    for i = 0 to t.layout.Layout.nblocks - 1 do
      let e = entry_at t i in
      if e.Entry.valid && Hashtbl.mem fills e.Entry.disk_blkno then
        fail "valid entry %d names slot-less block %d" i e.Entry.disk_blkno
    done
