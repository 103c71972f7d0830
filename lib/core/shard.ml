open Tinca_sim
module Pmem = Tinca_pmem.Pmem
module Trace = Tinca_obs.Trace
module Codec = Tinca_util.Codec
module Flight = Tinca_obs.Flight

let log_src = Logs.Src.create "tinca.shard" ~doc:"Tinca sharded cache layer"

module Log = (val Logs.src_log log_src : Logs.LOG)

(* --- media header ------------------------------------------------------- *)

(* Two reserved cache lines in front of the regions: line 0 is the shard
   directory (each engine's magic and the shard count; logging adds its
   geometry), line 1 the cross-shard commit record ("seal"): 0, or
   (shard mask << 32) | epoch in one atomic 8-byte write.  Everything
   from byte 128 on is [nshards] equal spans, one region each.  With ONE
   shard there is no header: the plain region layout sits at byte 0, so
   N=1 reproduces the unsharded numbers exactly and never needs a seal. *)

let dir_off = 0
let seal_off = 64
let header_bytes = 128
(* Each engine's directory magic: "TINCASHD" (logging), "TINCAPGD". *)
let log_dir_magic = 0x44485341434E4954L
let page_dir_magic = 0x4447_5041_434E_4954L

(* The seal packs the shard mask above a 32-bit epoch; 30 shards keep
   (mask << 32) inside OCaml's 63-bit int. *)
let max_shards = 30

let span_of ~pmem_bytes ~nshards =
  if nshards = 1 then pmem_bytes else (pmem_bytes - header_bytes) / nshards / 64 * 64

let base_of ~nshards ~span i = if nshards = 1 then 0 else header_bytes + (i * span)

(* The two engines, a closed set.  Every region of one device runs the
   same engine. *)
type regions = Log of Cache.t array | Page of Paging.region array
type engine = Logging of Cache.config | Paging of Paging.config

(* The per-operation counters, resolved once at construction. *)
type counters = {
  c_seals : Metrics.counter;
  c_multi_commits : Metrics.counter;
  c_multi_commit_shards : Metrics.counter;
  c_commits : Metrics.counter;
  c_group_commits : Metrics.counter;
  c_group_commit_txns : Metrics.counter;
}

type t = {
  pmem : Pmem.t;
  clock : Clock.t;
  metrics : Metrics.t;
  ctr : counters;
  nshards : int;
  regions : regions;
  lanes : float array;
      (* Per-shard virtual completion times for the parallel-throughput
         model: shard work runs serially on the one simulated clock, and
         each delta is attributed to its shard's lane; cross-shard sync
         points equalize the lanes.  The makespan (max lane) is the
         wall-clock a per-shard-threaded execution would take. *)
  mutable epoch : int; (* seal epochs issued since attach *)
}

let nshards t = t.nshards

let make ~pmem ~clock ~metrics regions =
  let c = Metrics.counter metrics in
  let nshards = match regions with Log a -> Array.length a | Page a -> Array.length a in
  {
    pmem;
    clock;
    metrics;
    ctr =
      {
        c_seals = c "tinca.shard.seals";
        c_multi_commits = c "tinca.shard.multi_commits";
        c_multi_commit_shards = c "tinca.shard.multi_commit.shards";
        c_commits = c "tinca.commits";
        c_group_commits = c "tinca.shard.group_commits";
        c_group_commit_txns = c "tinca.shard.group_commit.txns";
      };
    nshards;
    regions;
    lanes = Array.make nshards 0.0;
    epoch = 0;
  }

let scheme_name t = match t.regions with Log _ -> "logging" | Page _ -> "paging"

(* Surfaces below the commit scheme (per-shard caches, ring geometry,
   group commit) exist only for logging; asking on paging media is a
   usage error, not a zero. *)
let log_caches ~who t =
  match t.regions with
  | Log caches -> caches
  | Page _ -> invalid_arg (Printf.sprintf "%s: logging-scheme-only (this cache is paging)" who)

let require_logging ~who t =
  ignore (log_caches ~who t);
  t

let caches t = Array.copy (log_caches ~who:"Tinca.Shard.caches" t)

let page_layouts t =
  match t.regions with
  | Page regions -> Array.to_list (Array.map Paging.layout regions)
  | Log _ -> invalid_arg "Tinca.Shard.page_layouts: paging-scheme-only (this cache is logging)"

let block_size t =
  match t.regions with
  | Log caches -> (Cache.config caches.(0)).Cache.block_size
  | Page regions -> Paging.block_size regions.(0)

(* --- striping ----------------------------------------------------------- *)

(* Fibonacci-hash striping: stable (pure function of the block number),
   total (every block maps to exactly one shard) and balanced (the
   multiplier scrambles sequential block numbers across shards).  Kept
   independent of geometry so reformatting with the same shard count
   never migrates blocks. *)
let stripe ~nshards blkno =
  if nshards = 1 then 0
  else
    let h = blkno * 0x9E3779B97F4A7C1 in
    (h lxor (h lsr 29)) land max_int mod nshards

let shard_of t blkno = stripe ~nshards:t.nshards blkno

(* --- lane accounting ---------------------------------------------------- *)

(* Lanes read the clock and never advance it. *)
let exec t i f =
  let t0 = Clock.now_ns t.clock in
  let r = f () in
  t.lanes.(i) <- t.lanes.(i) +. (Clock.now_ns t.clock -. t0);
  r

(* Cross-shard synchronization point: no lane proceeds until every lane
   has arrived. *)
let barrier t =
  let m = Array.fold_left max 0.0 t.lanes in
  Array.fill t.lanes 0 (Array.length t.lanes) m

(* Coordinator work (the seal writes, union fences): all lanes wait for
   it. *)
let exec_global t f =
  barrier t;
  let t0 = Clock.now_ns t.clock in
  let r = f () in
  let dt = Clock.now_ns t.clock -. t0 in
  for i = 0 to Array.length t.lanes - 1 do
    t.lanes.(i) <- t.lanes.(i) +. dt
  done;
  r

(* One fence over the union of several regions' flushes: after a
   barrier, each lane is charged the share of it that its ranges' bytes
   make up, since each region could issue its own flushes in parallel. *)
let exec_shared t per_region f =
  barrier t;
  let t0 = Clock.now_ns t.clock in
  let r = f () in
  let dt = Clock.now_ns t.clock -. t0 in
  let bytes ranges = float_of_int (List.fold_left (fun acc (_, len) -> acc + len) 0 ranges) in
  let total = List.fold_left (fun acc (_, ranges) -> acc +. bytes ranges) 0.0 per_region in
  List.iter
    (fun (i, ranges) -> t.lanes.(i) <- t.lanes.(i) +. (dt *. bytes ranges /. total))
    per_region;
  r

let makespan_ns t = Array.fold_left max 0.0 t.lanes
let reset_lanes t = Array.fill t.lanes 0 (Array.length t.lanes) 0.0

(* --- fault injection (harness self-tests) -------------------------------- *)

(* Deliberately planted commit-path mutations, used by the lockstep
   refinement harness to prove it would catch the bug classes:

   - [`Skip_seal] — the cross-shard commit record is never persisted,
     so a crash between two shards' finalize steps recovers one shard's
     sub-commit and rolls the other back — the partial mix the seal
     exists to prevent.
   - [`Drop_durable_notify] — the group committer publishes a batch
     (data, slots and Heads durable) but then "forgets" to seal and
     finalize it, while the facade still reports the member
     transactions durable to their awaiters.  A crash before the next
     (healing) commit point finds the batch inside [Tail, Head) and
     revokes it — acknowledged-durable transactions vanish, exactly
     the lost-ack bug class the crash sweep must observe.

   Never set outside tests. *)
let fault : [ `Skip_seal | `Drop_durable_notify ] option ref = ref None
let set_fault f = fault := f

(* --- the cross-shard commit record -------------------------------------- *)

let seal_value ~mask ~epoch = (mask lsl 32) lor (epoch land 0xFFFFFFFF)
let seal_mask v = v lsr 32

let corrupt fmt = Printf.ksprintf (fun m -> raise (Cache.Corrupt ("Tinca.Shard: " ^ m))) fmt

let read_seal pmem =
  let v = Ring.read_word pmem ~off:seal_off in
  if v < 0 then corrupt "seal word beyond the int range";
  v

let persist_seal pmem v =
  Pmem.set_site pmem "shard.seal";
  Pmem.atomic_write8_int pmem ~off:seal_off v;
  Pmem.persist pmem ~off:seal_off ~len:8

let write_seal t mask =
  if !fault <> Some `Skip_seal then begin
    t.epoch <- t.epoch + 1;
    (* Logging: a seal-epoch flight record on the lowest shard in the
       mask; its finalize step (role-switch fence) follows immediately
       and flushes the record's line, so the seal itself stays one
       persist. *)
    (match t.regions with
    | Log caches when mask <> 0 ->
        let rec lowest i = if mask land (1 lsl i) <> 0 then i else lowest (i + 1) in
        Cache.flight_note caches.(lowest 0) Flight.Seal_epoch ~a:t.epoch ~b:mask
    | Log _ | Page _ -> ());
    persist_seal t.pmem (seal_value ~mask ~epoch:t.epoch);
    Metrics.add t.ctr.c_seals 1
  end

let clear_seal t = persist_seal t.pmem 0

(* One fence over the ranges a step left unfenced; no ranges, no fence. *)
let fence pmem = function
  | [] -> ()
  | ranges ->
      Pmem.flush_ranges pmem ranges;
      Pmem.sfence pmem

(* --- format ------------------------------------------------------------- *)

let format ~nshards ~config ~pmem ~disk ~clock ~metrics =
  if nshards < 1 || nshards > max_shards then
    invalid_arg
      (Printf.sprintf "Tinca.Shard.format: nshards %d not in [1, %d]" nshards max_shards);
  let span = span_of ~pmem_bytes:(Pmem.size pmem) ~nshards in
  if span < 64 then invalid_arg "Tinca.Shard.format: pmem too small for this shard count";
  let base = base_of ~nshards ~span in
  match config with
  | Logging config ->
      (* The directory is persisted before any region is formatted. *)
      if nshards > 1 then begin
        Pmem.set_site pmem "shard.format";
        let b = Bytes.make 64 '\000' in
        Bytes.set_int64_le b 0 log_dir_magic;
        Codec.set_u32 b 8 nshards;
        Codec.set_u32 b 12 config.Cache.block_size;
        Codec.set_u32 b 16 config.Cache.ring_slots;
        Pmem.write pmem ~off:dir_off b;
        Pmem.persist pmem ~off:dir_off ~len:64;
        persist_seal pmem 0
      end;
      let caches =
        Array.init nshards (fun i ->
            let c =
              Cache.format_region ~base:(base i) ~mem_bytes:(base i + span) ~config ~pmem ~disk
                ~clock ~metrics
            in
            Cache.set_flight_shard c i;
            c)
      in
      make ~pmem ~clock ~metrics (Log caches)
  | Paging config ->
      (* Every region's geometry is checked before anything is written,
         then the directory and every region are fenced at once. *)
      let regions =
        Array.init nshards (fun i ->
            Paging.create ~id:i ~base:(base i) ~span ~config ~pmem ~disk ~clock ~metrics)
      in
      let dir =
        if nshards = 1 then []
        else begin
          let hdr = Bytes.make header_bytes '\000' in
          Codec.set_u64 hdr 0 page_dir_magic;
          Codec.set_u32 hdr 8 nshards;
          Pmem.set_site pmem "paging.format";
          Pmem.write pmem ~off:dir_off hdr;
          [ (dir_off, header_bytes) ]
        end
      in
      fence pmem (dir @ List.concat_map Paging.format (Array.to_list regions));
      make ~pmem ~clock ~metrics (Page regions)
[@@pmem.defer
  "paging's directory store is folded with every region's format ranges into the one \
   flush_ranges + sfence below it (the list is never empty: each region returns three ranges)"]

(* --- recovery ----------------------------------------------------------- *)

(* Seal-directed roll-forward for logging (recovery's all-or-nothing
   rule, forward direction).  A durable seal proves that every shard in
   the mask had staged its sub-commit (data, entries, ring slots fenced
   durable) and advanced its Head before the crash — the seal write is
   ordered after all of them.  So the transaction is re-committed, not
   revoked: each shard's remaining log-role entries are flipped to
   buffer role (the interrupted step-4 role switch, batched under one
   fence) and its Tail moved to Head (the step-5 commit point), after
   which the seal retires.  Every step is idempotent, so a crash
   mid-roll-forward just rolls forward again.  Runs on raw media, before
   any cache attaches. *)
let roll_forward ~pmem ~nshards ~span ~mask ~clock =
  (* Every shard the seal names is bounded before anything is written:
     each ring's pointers satisfy 0 <= Tail <= Head <= Tail + slots, so
     the Tail := Head below cannot publish a Head that a flipped bit
     moved. *)
  let sealed =
    List.filter_map
      (fun i ->
        if mask land (1 lsl i) = 0 then None
        else begin
          let base = base_of ~nshards ~span i in
          let layout = Cache.read_layout ~base ~mem_bytes:(base + span) pmem in
          let head = Ring.read_word pmem ~off:layout.Layout.head_off
          and tail = Ring.read_word pmem ~off:layout.Layout.tail_off in
          if not (0 <= tail && tail <= head && head <= tail + layout.Layout.ring_slots) then
            corrupt "shard %d: Head %d and Tail %d are not 0 <= Tail <= Head <= Tail + %d" i head
              tail layout.Layout.ring_slots;
          Some (i, layout, head, tail)
        end)
      (List.init nshards Fun.id)
  in
  Pmem.set_site pmem "shard.roll_forward";
  List.iter
    (fun (i, layout, head, tail) ->
      let ranges = ref [] in
      (* Flight recorder, raw-media edition: roll-forward runs before any
         cache attaches, so it appends its replay decisions directly —
         continuing the survivor sequence and riding the role-switch
         fence below (no extra sfence). *)
      let flight_seq =
        ref
          (if layout.Layout.flight_slots = 0 then -1
           else
             let read_slot k =
               Pmem.read pmem
                 ~off:(layout.Layout.flight_off + (k * Layout.flight_record_size))
                 ~len:Layout.flight_record_size
             in
             let survivors, _ = Flight.scan ~slots:layout.Layout.flight_slots ~read:read_slot in
             List.fold_left (fun acc (s, _) -> max acc s) (-1) survivors)
      in
      let flight_decision blkno =
        if layout.Layout.flight_slots > 0 then begin
          flight_seq := !flight_seq + 1;
          let ev =
            {
              Flight.kind = Flight.Recovery_decision;
              shard = i;
              cause = Flight.Sync;
              a = 0 (* roll-forward replay *);
              b = blkno;
              c = 0;
              d = 0;
              batch = -1;
              t_ns = int_of_float (Clock.now_ns clock);
            }
          in
          let off = Layout.flight_slot_off layout !flight_seq in
          Pmem.write pmem ~off (Flight.encode ~seq:!flight_seq ev);
          ranges := (off, Layout.flight_record_size) :: !ranges
        end
      in
      (* The entry table in one read (each line charged once); the loop
         only rewrites the entry it has just decoded, so the copy stays
         current for every entry still to come. *)
      let table =
        Pmem.read pmem ~off:layout.Layout.entries_off ~len:(layout.Layout.nblocks * Entry.size)
      in
      for idx = 0 to layout.Layout.nblocks - 1 do
        let e = Entry.decode_at table (idx * Entry.size) in
        if e.Entry.valid && e.Entry.role = Entry.Log then begin
          let off = Layout.entry_off layout idx in
          Pmem.atomic_write16 pmem ~off (Entry.encode { e with Entry.role = Entry.Buffer });
          ranges := (off, Entry.size) :: !ranges;
          flight_decision e.Entry.disk_blkno
        end
      done;
      (* Role switches fenced durable strictly before the Tail advance,
         exactly as in the live commit path. *)
      fence pmem !ranges;
      if tail <> head then begin
        Pmem.atomic_write8_int pmem ~off:layout.Layout.tail_off head;
        Pmem.persist pmem ~off:layout.Layout.tail_off ~len:8
      end)
    sealed;
  persist_seal pmem 0
[@@pmem.defer
  "every mutated range is persisted in-loop: role switches are fenced by [fence], which skips \
   only an empty range list, the Tail advance by its own persist, and the seal retirement by \
   persist_seal"]

(* The directory's shard count, then the seal word; a mask naming a
   shard that does not exist is corruption. *)
let read_directory pmem =
  if Pmem.size pmem < header_bytes then
    corrupt "unformatted NVM (device smaller than the shard header)";
  let nshards = Codec.get_u32 (Pmem.read pmem ~off:dir_off ~len:16) 8 in
  if nshards < 2 || nshards > max_shards then
    corrupt "corrupt shard directory (nshards %d)" nshards;
  let seal = read_seal pmem in
  if seal_mask seal lsr nshards <> 0 then
    corrupt "seal mask %#x names shards beyond %d" (seal_mask seal) nshards;
  (nshards, seal)

let media_magic pmem = Codec.get_u64 (Pmem.read pmem ~off:0 ~len:8) 0

(* A directory's seal is the cross-shard decision: durable => the sealed
   transaction rolls forward on every region in its mask; absent => every
   region rolls its own share back, so no partial multi-shard transaction
   survives.  Logging rolls forward on raw media before any cache
   attaches; paging attaches every region (checked against shard 0's
   superblock) before any recovers, and retires the seal once all have
   adopted it.  Media without a directory is one plain region; garbage
   fails the logging superblock check.

   The magic is read twice, once to pick the engine and once to pick its
   layout: one charged line that every pinned recovery time includes. *)
let recover ?(flight_replay = true) ~pmem ~disk ~clock ~metrics () =
  let paging = List.mem (media_magic pmem) [ Paging.super_magic; page_dir_magic ] in
  let nshards, seal =
    let m = media_magic pmem in
    if m = log_dir_magic || m = page_dir_magic then read_directory pmem else (1, 0)
  in
  if seal <> 0 then begin
    Log.info (fun m ->
        m "sealed multi-shard transaction found (mask %#x): rolling forward" (seal_mask seal));
    Metrics.incr metrics "tinca.shard.roll_forwards" ~by:1
  end;
  let span = span_of ~pmem_bytes:(Pmem.size pmem) ~nshards in
  let base = base_of ~nshards ~span and mask = seal_mask seal in
  let regions =
    if not paging then begin
      if nshards > 1 then Trace.begin_span ~clock "tinca.shard.recover";
      if seal <> 0 then roll_forward ~pmem ~nshards ~span ~mask ~clock;
      let caches =
        Array.init nshards (fun i ->
            let c =
              Cache.recover_region ~flight_replay ~base:(base i) ~mem_bytes:(base i + span) ~pmem
                ~disk ~clock ~metrics ()
            in
            Cache.set_flight_shard c i;
            c)
      in
      if nshards > 1 then Trace.end_span "tinca.shard.recover";
      Log caches
    end
    else begin
      let expect =
        if nshards = 1 then None
        else
          let block_size, _, flight_slots = Paging.read_super pmem ~base:(base 0) in
          Some (block_size, flight_slots)
      in
      let regions =
        Array.init nshards (fun i ->
            Paging.attach ~id:i ~base:(base i) ~span ?expect ~pmem ~disk ~clock ~metrics ())
      in
      Array.iteri
        (fun i r ->
          Paging.recover r
            ~owns:(fun blkno -> stripe ~nshards blkno = i)
            ~roll_forward:(mask land (1 lsl i) <> 0))
        regions;
      if seal <> 0 then persist_seal pmem 0;
      Page regions
    end
  in
  make ~pmem ~clock ~metrics regions

(* --- block I/O ---------------------------------------------------------- *)

let read t blkno =
  let i = shard_of t blkno in
  exec t i (fun () ->
      match t.regions with
      | Log caches -> Cache.read caches.(i) blkno
      | Page regions -> Paging.read regions.(i) blkno)

let contains t blkno =
  let i = shard_of t blkno in
  match t.regions with
  | Log caches -> Cache.contains caches.(i) blkno
  | Page regions -> Paging.contains regions.(i) blkno

let peek t blkno =
  let i = shard_of t blkno in
  match t.regions with
  | Log caches -> Cache.peek caches.(i) blkno
  | Page regions -> Paging.peek regions.(i) blkno

let flush_all t =
  match t.regions with
  | Log caches -> Array.iter Cache.flush_all caches
  | Page regions -> Array.iter Paging.flush_all regions

(* --- the striped commit scheduler --------------------------------------- *)

module Txn = struct
  type state = Running | Sealed | Finished

  type handle = {
    s : t;
    mutable subs : (int * Cache.Txn.handle) list;
        (* logging: one sub-transaction per shard touched, reversed
           creation order; each write is applied to it as it is added *)
    writes : (int, bytes) Hashtbl.t;  (* paging: buffered until commit, last write wins *)
    mutable order : int list;  (* paging: blocks in reversed first-write order *)
    mutable state : state;
  }

  let init s =
    Trace.instant ~clock:s.clock "tinca.shard.txn.init";
    { s; subs = []; writes = Hashtbl.create 8; order = []; state = Running }

  let sub_for h caches i =
    match List.assoc_opt i h.subs with
    | Some sub -> sub
    | None ->
        let sub = Cache.Txn.init caches.(i) in
        h.subs <- (i, sub) :: h.subs;
        sub

  let add h blkno data =
    if h.state <> Running then invalid_arg "Tinca.Shard.Txn.add: transaction not running";
    let i = shard_of h.s blkno in
    match h.s.regions with
    | Log caches ->
        let sub = sub_for h caches i in
        exec h.s i (fun () -> Cache.Txn.add sub blkno data)
    | Page regions ->
        if Bytes.length data <> Paging.block_size regions.(i) then
          invalid_arg "Tinca.Shard.Txn.add: wrong block size";
        if not (Hashtbl.mem h.writes blkno) then h.order <- blkno :: h.order;
        Hashtbl.replace h.writes blkno (Bytes.copy data)

  let block_count h =
    List.fold_left (fun acc (_, sub) -> acc + Cache.Txn.block_count sub) (Hashtbl.length h.writes) h.subs

  (* The shards a paging write-set touches, ascending, each with its
     blocks in first-write order. *)
  let groups s blocks =
    let by = Array.make s.nshards [] in
    List.iter (fun b -> by.(shard_of s b) <- b :: by.(shard_of s b)) (List.rev blocks);
    List.filter_map
      (fun i -> if by.(i) = [] then None else Some (i, by.(i)))
      (List.init s.nshards Fun.id)

  (* One region's share of a commit, as [commit_regions] drives it. *)
  type part = Log_part of Cache.Txn.handle | Page_part of Paging.region * Paging.staged list

  (* Every commit but logging's single-shard fast path runs these steps
     over its regions (logging in first-touch order, paging ascending):

     stage    logging stages and fences its share (Cache.Txn.stage);
              paging's COW pages and entries, written by [commit_pages],
              are fenced as one union.  A crash revokes it all.
     publish  logging advances every Head.  A crash here finds no seal,
              so every shard rolls back, by ring range or log-role scan.
     seal     (multi-shard only) from here recovery rolls forward.
     commit   logging finalizes (role switch, then Tail); paging swings
              every epoch word, fenced as one union.
     retire   the seal clears; paging folds the commit into each
              region's volatile state and runs its cleaner.

     Multi-shard commits put each step on its region's lane and the seal
     and union fences on every lane.  A capacity rejection at logging's
     stage aborts every sub-commit and re-raises. *)
  let commit_regions s ~cause parts =
    let multi = List.length parts > 1 in
    let on_lane i f = if multi then exec s i f else f () in
    let step name (i, part) f =
      if multi then begin
        Trace.begin_span ~clock:s.clock name;
        Trace.attr "shard" (string_of_int i)
      end;
      let r = on_lane i (fun () -> f part) in
      if multi then Trace.end_span name;
      r
    in
    let cross_shard name f =
      if multi then begin
        Trace.begin_span ~clock:s.clock name;
        exec_global s f;
        Trace.end_span name
      end
    in
    let fence_union per_region =
      match List.concat_map snd per_region with
      | [] -> ()
      | ranges when multi -> exec_shared s per_region (fun () -> fence s.pmem ranges)
      | ranges -> fence s.pmem ranges
    in
    let mask = List.fold_left (fun m (i, _) -> m lor (1 lsl i)) 0 parts in
    if multi then begin
      Trace.begin_span ~clock:s.clock "tinca.xcommit";
      Trace.attr "shards" (string_of_int (List.length parts))
    end;
    let staged = ref 0 in
    let ranges =
      try
        List.map
          (fun ((i, _) as p) ->
            let r =
              step "tinca.xcommit.stage" p (function
                | Log_part sub ->
                    Cache.Txn.stage sub;
                    []
                | Page_part (r, staged) -> Paging.stage_ranges r ~cause staged)
            in
            incr staged;
            (i, r))
          parts
      with Cache.Transaction_too_large ->
        if multi then Trace.end_span "tinca.xcommit.stage";
        (* The rejecting sub-handle finished itself; earlier ones are
           staged-but-unpublished (abort revokes them), later ones still
           running (abort just drops them). *)
        List.iteri
          (fun k (i, part) ->
            match part with
            | Log_part sub when k <> !staged -> exec s i (fun () -> Cache.Txn.abort sub)
            | Log_part _ | Page_part _ -> ())
          parts;
        if multi then Trace.end_span "tinca.xcommit";
        raise Cache.Transaction_too_large
    in
    fence_union ranges;
    if multi then barrier s;
    List.iter
      (fun p ->
        step "tinca.xcommit.publish" p (function
          | Log_part sub -> Cache.Txn.publish sub
          | Page_part _ -> ()))
      parts;
    cross_shard "tinca.xcommit.seal" (fun () -> write_seal s mask);
    let ranges =
      List.map
        (fun ((i, _) as p) ->
          ( i,
            step "tinca.xcommit.finalize" p (function
              | Log_part sub ->
                  Cache.Txn.finalize sub;
                  []
              | Page_part (r, _) -> Paging.commit_point r ~cause) ))
        parts
    in
    fence_union ranges;
    cross_shard "tinca.xcommit.retire" (fun () -> clear_seal s);
    let now = Clock.now_ns s.clock in
    List.iter
      (fun (i, part) ->
        match part with
        | Page_part (r, staged) -> on_lane i (fun () -> Paging.finish r ~now staged)
        | Log_part _ -> ())
      parts;
    if multi then begin
      Metrics.add s.ctr.c_multi_commits 1;
      Metrics.add s.ctr.c_multi_commit_shards (List.length parts);
      Trace.end_span "tinca.xcommit"
    end

  (* Paging applies its write-set at commit: pin every existing version
     (admission must not evict a block the transaction remaps), admit
     every region's share all-or-nothing, COW every write in first-write
     order, or unwind it all under one fence. *)
  let commit_pages s ~cause regions writes =
    let groups = groups s (List.map fst writes) in
    let multi = List.length groups > 1 in
    let on_lane i f = if multi then exec s i f else f () in
    let pins v = List.iter (fun (b, _) -> Paging.pin regions.(shard_of s b) b v) writes in
    pins true;
    if not (List.for_all (fun (i, blocks) -> on_lane i (fun () -> Paging.admit regions.(i) blocks)) groups)
    then begin
      pins false;
      raise Cache.Transaction_too_large
    end;
    let staged = ref [] in
    (try
       List.iter
         (fun (b, data) ->
           let i = shard_of s b in
           staged := (i, on_lane i (fun () -> Paging.stage regions.(i) b data)) :: !staged)
         writes
     with Cache.Transaction_too_large ->
       fence s.pmem (List.concat_map (fun (i, st) -> Paging.unstage regions.(i) st) !staged);
       pins false;
       raise Cache.Transaction_too_large);
    commit_regions s ~cause
      (List.map
         (fun (i, _) ->
           ( i,
             Page_part
               (regions.(i), List.rev (List.filter_map (fun (j, st) -> if j = i then Some st else None) !staged)) ))
         groups)

  let commit ?(cause = Flight.Sync) h =
    if h.state <> Running then invalid_arg "Tinca.Shard.Txn.commit: transaction not running";
    h.state <- Finished;
    match h.s.regions with
    | Log _ -> (
        match List.rev h.subs with
        | [] -> Metrics.add h.s.ctr.c_commits 1
        | [ (i, sub) ] ->
            (* Single-shard fast path: the plain §4.4 commit, operation
               for operation the unsharded cache — no seal, no extra
               fences.  This is what makes N=1 reproduce single-ring
               numbers exactly. *)
            exec h.s i (fun () -> Cache.Txn.commit sub)
        | subs -> commit_regions h.s ~cause (List.map (fun (i, sub) -> (i, Log_part sub)) subs))
    | Page regions -> (
        let writes = List.rev_map (fun b -> (b, Hashtbl.find h.writes b)) h.order in
        match groups h.s (List.map fst writes) with
        | [] -> ()
        | [ (i, _) ] -> exec h.s i (fun () -> commit_pages h.s ~cause regions writes)
        | _ -> commit_pages h.s ~cause regions writes)

  let abort h =
    match h.state with
    | Finished -> invalid_arg "Tinca.Shard.Txn.abort: transaction already finished"
    | Sealed -> invalid_arg "Tinca.Shard.Txn.abort: transaction already sealed"
    | Running ->
        List.iter (fun (i, sub) -> exec h.s i (fun () -> Cache.Txn.abort sub)) h.subs;
        Hashtbl.reset h.writes;
        h.order <- [];
        h.state <- Finished

  (* --- group commit (async commit; logging only) ------------------------ *)

  (* [seal h] volatilely applies the whole transaction on every shard it
     touches (Cache.Txn.seal: admission, COW data stores, entry swings,
     ring-slot staging — no flush, no fence).  The facade's group
     committer later drains many sealed transactions with one
     [commit_group].  A capacity rejection on any shard unwinds the
     already-sealed sub-commits ([Cache.Txn.unseal]; their staged slots
     are the newest on their shards' rings because the facade seals
     transactions one at a time) and aborts the not-yet-sealed ones —
     all-or-nothing in the failure direction. *)
  let seal h =
    ignore (log_caches ~who:"Tinca.Shard.Txn.seal" h.s);
    if h.state <> Running then invalid_arg "Tinca.Shard.Txn.seal: transaction not running";
    let subs = List.rev h.subs in
    if subs = [] then invalid_arg "Tinca.Shard.Txn.seal: empty transaction";
    let nsealed = ref 0 in
    (try
       List.iter
         (fun (i, sub) ->
           exec h.s i (fun () -> Cache.Txn.seal sub);
           incr nsealed)
         subs
     with Cache.Transaction_too_large ->
       (* The rejecting sub-handle finished itself; earlier subs are
          sealed (unseal revokes their volatile staging), later ones
          still running (abort just drops them). *)
       List.iteri
         (fun k (i, sub) ->
           if k < !nsealed then exec h.s i (fun () -> Cache.Txn.unseal sub)
           else if k > !nsealed then exec h.s i (fun () -> Cache.Txn.abort sub))
         subs;
       h.state <- Finished;
       raise Cache.Transaction_too_large);
    h.state <- Sealed

  let shard_mask h = List.fold_left (fun m (i, _) -> m lor (1 lsl i)) 0 h.subs

  (* Tag every sub-handle with the facade's durable-notification ticket
     id, so each shard's [Txn_seal] flight record names it. *)
  let set_flight_ticket h id =
    List.iter (fun (_, sub) -> Cache.Txn.set_flight_ticket sub id) h.subs
end

let write_direct t blkno data =
  match t.regions with
  | Log caches ->
      let i = shard_of t blkno in
      exec t i (fun () -> Cache.write_direct caches.(i) blkno data)
  | Page _ ->
      let h = Txn.init t in
      Txn.add h blkno data;
      Txn.commit ~cause:Flight.Barrier h

(* One durability sequence for a whole batch of sealed transactions —
   the group-commit analogue of [Txn.commit_regions] (logging only):

   Flush    each touched shard runs stages A–B plus its single Head
            advance over ALL its member sub-commits
            (Cache.Txn.flush_sealed): two fences and one Head persist
            per shard, however many transactions the batch holds.  A
            crash before a shard's Head advance revokes its
            sub-commits via the log-role entry scan; after, via the
            ring range — and with no seal yet, every other shard rolls
            back too, so the batch disappears as one unit.
   Seal     when the batch touches >= 2 shards, one cross-shard commit
            record over the union mask, persisted after all Heads —
            from here recovery rolls the entire batch forward on every
            shard instead.  Single-shard batches need no seal: their
            one Head persist is already the all-or-nothing pivot.
   Finalize each shard retires its members with one batched role
            switch and one Tail persist (Cache.Txn.finalize_sealed),
            then the seal (if any) retires.

   Under the planted [`Drop_durable_notify] fault the batch is
   published but neither sealed nor finalized — the lost-ack bug the
   crash sweep must catch (the caller still acknowledges durability). *)
let commit_group ?(cause = Flight.Barrier) s handles =
  match handles with
  | [] -> ()
  | handles ->
      List.iter
        (fun h ->
          if h.Txn.state <> Txn.Sealed then
            invalid_arg "Tinca.Shard.commit_group: transaction not sealed";
          if h.Txn.s != s then invalid_arg "Tinca.Shard.commit_group: mixed shard sets")
        handles;
      let groups = Array.make (nshards s) [] in
      List.iter
        (fun h ->
          List.iter (fun (i, sub) -> groups.(i) <- sub :: groups.(i)) (List.rev h.Txn.subs))
        handles;
      let group i = List.rev groups.(i) in
      let touched = List.filter (fun i -> groups.(i) <> []) (List.init (nshards s) Fun.id) in
      let mask = List.fold_left (fun m h -> m lor Txn.shard_mask h) 0 handles in
      let multi = List.length touched > 1 in
      List.iter
        (fun i ->
          Trace.begin_span ~clock:s.clock "tinca.gcommit.flush";
          Trace.attr "shard" (string_of_int i);
          exec s i (fun () -> Cache.Txn.flush_sealed ~cause (group i));
          Trace.end_span "tinca.gcommit.flush")
        touched;
      barrier s;
      if !fault = Some `Drop_durable_notify then
        List.iter (fun h -> h.Txn.state <- Txn.Finished) handles
      else begin
        if multi then begin
          Trace.begin_span ~clock:s.clock "tinca.gcommit.seal";
          exec_global s (fun () -> write_seal s mask);
          Trace.end_span "tinca.gcommit.seal"
        end;
        List.iter
          (fun i ->
            Trace.begin_span ~clock:s.clock "tinca.gcommit.finalize";
            Trace.attr "shard" (string_of_int i);
            exec s i (fun () -> Cache.Txn.finalize_sealed (group i));
            Trace.end_span "tinca.gcommit.finalize")
          touched;
        if multi then begin
          Trace.begin_span ~clock:s.clock "tinca.gcommit.retire";
          exec_global s (fun () -> clear_seal s);
          Trace.end_span "tinca.gcommit.retire"
        end;
        List.iter (fun h -> h.Txn.state <- Txn.Finished) handles;
        Metrics.add s.ctr.c_group_commits 1;
        Metrics.add s.ctr.c_group_commit_txns (List.length handles)
      end

(* --- stats -------------------------------------------------------------- *)

type stats = {
  nshards : int;
  agg : Cache.stats;  (* see [Cache.stats_of] *)
  ring_high_water_per_shard : int array;
  multi_commits : int;
  seals : int;
  roll_forwards : int;
}

let multi_commits t = Metrics.get t.metrics "tinca.shard.multi_commits"
let seals t = Metrics.get t.metrics "tinca.shard.seals"
let roll_forwards t = Metrics.get t.metrics "tinca.shard.roll_forwards"

let stats (t : t) =
  let caches = log_caches ~who:"Tinca.Shard.stats" t in
  {
    nshards = t.nshards;
    agg = Cache.stats_of caches;
    ring_high_water_per_shard = Array.map (fun c -> (Cache.stats c).Cache.ring_high_water) caches;
    multi_commits = multi_commits t;
    seals = seals t;
    roll_forwards = roll_forwards t;
  }

let counter_rows t =
  [
    ("multi_shard_commits", string_of_int (multi_commits t));
    ("cross_shard_seals", string_of_int (seals t));
    ("seal_roll_forwards", string_of_int (roll_forwards t));
  ]

(* Each engine reports its own vocabulary: under paging the logging-only
   rows (ring high water, role switches) are absent rather than
   zero-and-misleading, and vice versa. *)
let stats_kv (t : t) =
  match t.regions with
  | Log _ ->
      let st = stats t in
      (("nshards", string_of_int st.nshards)
       :: List.map
            (fun (k, v) -> if k = "ring_high_water" then ("ring_high_water_max", v) else (k, v))
            (Cache.stats_kv st.agg))
      @ Array.to_list
          (Array.mapi
             (fun i v -> (Printf.sprintf "ring_high_water_shard%d" i, string_of_int v))
             st.ring_high_water_per_shard)
      @ counter_rows t
  | Page regions ->
      let rows =
        List.map
          (fun (k, _) ->
            (k, Array.fold_left (fun acc r -> acc + List.assoc k (Paging.counts r)) 0 regions))
          (Paging.counts regions.(0))
      in
      let total = List.assoc "pool_frames" rows and free = List.assoc "pool_frames_free" rows in
      let occupancy =
        if total = 0 then 0.0 else 100.0 *. float_of_int (total - free) /. float_of_int total
      in
      [ ("scheme", "paging"); ("nshards", string_of_int t.nshards); ("block_size", string_of_int (block_size t)) ]
      @ List.concat_map
          (fun (k, v) ->
            (k, string_of_int v)
            ::
            (if k <> "pool_frames_free" then []
             else [ ("pool_occupancy_pct", Printf.sprintf "%.1f" occupancy); ("table_slots", string_of_int total) ]))
          rows
      @ [
          ("evictions", string_of_int (Metrics.get t.metrics "tinca.evictions"));
          ("writebacks", string_of_int (Metrics.get t.metrics "tinca.writebacks"));
        ]
      @ counter_rows t
      @
      if t.nshards = 1 then []
      else
        Array.to_list
          (Array.mapi (fun i r -> (Printf.sprintf "s%d.epoch" i, string_of_int (Paging.epoch r))) regions)

let write_hit_rate t =
  let kv = stats_kv t in
  let hits = int_of_string (List.assoc "write_hits" kv)
  and misses = int_of_string (List.assoc "write_misses" kv) in
  if hits + misses = 0 then 0.0 else float_of_int hits /. float_of_int (hits + misses)

(* --- flight recorder / forensics surface --------------------------------- *)

(* Per-shard survivor scans from the last recovery, shaped for
   [Tinca_obs.Forensics.build].  Shards recovered without a flight ring
   (or before any recovery) contribute an empty track. *)
let flight_scans t =
  match t.regions with
  | Log caches ->
      Array.map (fun c -> Option.value (Cache.flight_scan_result c) ~default:([], 0)) caches
  | Page regions -> Array.map Paging.flight_scan regions

(* Region-attributed NVM wear.  N=1: the plain per-region table.  N>1:
   the shard header (directory + seal lines) plus every shard's regions,
   names prefixed "s<i>.". *)
let region_wear (t : t) =
  let per_shard =
    match t.regions with
    | Log caches -> Array.map Cache.region_wear caches
    | Page regions -> Array.map Paging.region_wear regions
  in
  if t.nshards = 1 then per_shard.(0)
  else
    ( "header",
      Pmem.wear_sum_in t.pmem ~off:0 ~len:header_bytes,
      Pmem.wear_max_in t.pmem ~off:0 ~len:header_bytes )
    :: List.concat
         (List.mapi
            (fun i rows -> List.map (fun (n, s, m) -> (Printf.sprintf "s%d.%s" i n, s, m)) rows)
            (Array.to_list per_shard))

(* --- invariant audit ----------------------------------------------------- *)

let check_invariants (t : t) =
  (* One-shard media has no header, hence no seal word to audit. *)
  if t.nshards > 1 && read_seal t.pmem <> 0 then
    raise
      (Cache.Invariant_violation "Tinca.Shard invariant: cross-shard seal set outside a commit");
  match t.regions with
  | Log caches -> Array.iter Cache.check_invariants caches
  | Page regions -> Array.iter Paging.check_invariants regions
