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

(* The union of several regions' unfenced ranges under one fence: shared
   by their lanes, each charged its ranges' share, when there are
   several. *)
let fence_union s ~multi per_region =
  match (List.concat_map snd per_region, per_region) with
  | ranges, (i, _) :: _ when ranges <> [] ->
      if multi then exec_shared s per_region (fun () -> fence s.pmem ranges)
      else exec s i (fun () -> fence s.pmem ranges)
  | _ -> ()

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
   fails the logging superblock check. *)
let recover ?(flight_replay = true) ~pmem ~disk ~clock ~metrics () =
  let m = media_magic pmem in
  let paging = m = Paging.super_magic || m = page_dir_magic in
  let nshards, seal =
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
[@@pmem.defer
  "paging recovery fences its own rewrites behind a guard the dataflow cannot correlate (see \
   Paging.recover); logging's ends in its own commit point"]

(* --- block I/O ---------------------------------------------------------- *)

let read t blkno =
  let i = shard_of t blkno in
  exec t i (fun () ->
      match t.regions with
      | Log caches -> Cache.read caches.(i) blkno
      | Page regions -> Paging.read regions.(i) blkno)
[@@pmem.defer "a read miss fills the cache volatilely (Cache.read, Paging.read)"]

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

(* --- the commit driver ---------------------------------------------------- *)

module Txn = struct
  type state = Running | Sealed | Finished

  type handle = {
    s : t;
    mutable subs : (int * Cache.Txn.handle) list;
        (* logging: one sub-transaction per shard touched, reversed
           creation order; each write is applied to it as it is added *)
    mutable writes : (int, bytes) Hashtbl.t option;
        (* paging: buffered until commit, last write wins; made by the
           first write *)
    mutable order : int list;  (* paging: blocks in reversed first-write order *)
    mutable pages : (int * Paging.staged list) list;
        (* paging, once sealed: each region's writes, regions ascending *)
    mutable state : state;
  }

  let init s =
    Trace.instant ~clock:s.clock "tinca.shard.txn.init";
    { s; subs = []; writes = None; order = []; pages = []; state = Running }

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
        let writes =
          match h.writes with
          | Some w -> w
          | None ->
              let w = Hashtbl.create 8 in
              h.writes <- Some w;
              w
        in
        if not (Hashtbl.mem writes blkno) then h.order <- blkno :: h.order;
        Hashtbl.replace writes blkno (Bytes.copy data)

  let block_count h =
    List.fold_left
      (fun acc (_, sub) -> acc + Cache.Txn.block_count sub)
      (match h.writes with Some w -> Hashtbl.length w | None -> 0)
      h.subs

  (* The shards a paging write-set touches, ascending, each with its
     blocks in first-write order. *)
  let groups s blocks =
    let by = Array.make s.nshards [] in
    List.iter (fun b -> by.(shard_of s b) <- b :: by.(shard_of s b)) (List.rev blocks);
    List.filter_map
      (fun i -> if by.(i) = [] then None else Some (i, by.(i)))
      (List.init s.nshards Fun.id)


  (* Seal the whole transaction, all or nothing: a group member, or a
     synchronous paging commit (a synchronous logging commit seals each
     shard's share as the first half of its drain, in the same order).
     Logging seals every shard's sub-transaction in first-touch order; a
     capacity rejection on any shard unseals the ones before it and
     drops the ones after.
     Paging pins every written block's existing version (so admission
     cannot evict a block the transaction remaps), admits every region's
     share, then COWs every write in first-write order, or unwinds it
     all under one fence. *)
  let seal_all h =
    let s = h.s in
    (match s.regions with
    | Log _ ->
        let subs = List.rev h.subs in
        let nsealed = ref 0 in
        (try
           List.iter
             (fun (i, sub) ->
               exec s i (fun () -> Cache.Txn.seal sub);
               incr nsealed)
             subs
         with Cache.Transaction_too_large ->
           (* The rejecting sub-handle finished itself. *)
           List.iteri
             (fun k (i, sub) ->
               if k < !nsealed then exec s i (fun () -> Cache.Txn.unseal sub)
               else if k > !nsealed then exec s i (fun () -> Cache.Txn.abort sub))
             subs;
           h.state <- Finished;
           raise Cache.Transaction_too_large)
    | Page regions ->
        let writes =
          match h.writes with
          | Some w -> List.rev_map (fun b -> (b, Hashtbl.find w b)) h.order
          | None -> []
        in
        let groups = groups s (List.map fst writes) in
        let reject () =
          h.state <- Finished;
          raise Cache.Transaction_too_large
        in
        let pins v = List.iter (fun (b, _) -> Paging.pin regions.(shard_of s b) b v) writes in
        pins true;
        if
          not
            (List.for_all
               (fun (i, blocks) -> exec s i (fun () -> Paging.admit regions.(i) blocks))
               groups)
        then begin
          pins false;
          reject ()
        end;
        let staged = ref [] in
        (try
           List.iter
             (fun (b, data) ->
               let i = shard_of s b in
               staged := (i, exec s i (fun () -> Paging.stage regions.(i) b data)) :: !staged)
             writes
         with Cache.Transaction_too_large ->
           fence s.pmem (List.concat_map (fun (i, st) -> Paging.unstage regions.(i) st) !staged);
           pins false;
           reject ());
        h.pages <-
          List.map
            (fun (i, _) ->
              (i, List.rev (List.filter_map (fun (j, st) -> if j = i then Some st else None) !staged)))
            groups);
    h.state <- Sealed
  [@@pmem.defer
    "a seal is volatile by contract (Cache.Txn.seal, Paging.stage): the drain that covers it \
     fences its stores"]

  (* One region's share of a drained batch, and the region contract's
     steps on it.  Logging fences its own stage and commit point and
     returns no ranges; paging returns its ranges for one union fence. *)
  type share = Log_share of Cache.Txn.handle list | Page_share of Paging.region * Paging.staged list

  let drain_share ~cause ~seal = function
    | Log_share subs ->
        if seal then List.iter (fun sub -> Cache.Txn.seal ~sync:true sub) subs;
        Cache.Txn.drain ~cause subs;
        []
    | Page_share (r, staged) -> Paging.drain r ~cause staged
  [@@pmem.defer "paging's stage ranges are returned for the driver's union fence"]

  let publish_share = function
    | Log_share subs -> Cache.Txn.advance_head subs
    | Page_share _ -> ()

  let commit_share ~cause = function
    | Log_share subs ->
        Cache.Txn.commit_point subs;
        []
    | Page_share (r, _) -> Paging.commit_point r ~cause
  [@@pmem.defer "paging's epoch swing is returned for the driver's union fence"]

  let retire_share ~now = function
    | Log_share subs -> Cache.Txn.retire ~now subs
    | Page_share (r, staged) -> Paging.retire r ~now staged

  (* Undo a logging share whose batch failed to drain: a drained one is
     revoked and its Head rewound, an unsealed one dropped. *)
  let abandon_share = function
    | Log_share subs -> List.iter Cache.Txn.abort subs
    | Page_share _ -> ()

  (* The batch's shares, one per region in the order its members touch
     them, each with every member's part in seal order. *)
  let shares s handles =
    let merge parts =
      List.rev_map
        (fun (i, xs) -> (i, List.rev xs))
        (List.fold_left
           (fun acc (i, x) ->
             if List.mem_assoc i acc then
               List.map (fun (j, xs) -> if j = i then (j, x :: xs) else (j, xs)) acc
             else (i, [ x ]) :: acc)
           [] parts)
    in
    match s.regions with
    | Log _ ->
        List.map
          (fun (i, subs) -> (i, Log_share subs))
          (merge (List.concat_map (fun h -> List.rev h.subs) handles))
    | Page regions ->
        List.map
          (fun (i, staged) -> (i, Page_share (regions.(i), List.concat staged)))
          (merge (List.concat_map (fun h -> h.pages) handles))

  (* Step span names: a synchronous multi-shard commit's, a group
     drain's. *)
  type names = { stage : string; publish : string; seal : string; commit : string; clear : string }

  let xcommit =
    { stage = "tinca.xcommit.stage"; publish = "tinca.xcommit.publish"; seal = "tinca.xcommit.seal";
      commit = "tinca.xcommit.finalize"; clear = "tinca.xcommit.retire" }

  let gcommit =
    { stage = "tinca.gcommit.flush"; publish = "tinca.gcommit.flush"; seal = "tinca.gcommit.seal";
      commit = "tinca.gcommit.finalize"; clear = "tinca.gcommit.retire" }

  (* The one commit driver, for a synchronous commit (a drain of one,
     sealed here) or a group-commit batch sealed earlier, on one shard or
     many:

     stage    each region's drain: logging stages and fences its share
              (sealing it first in a synchronous commit); paging, whose
              synchronous seal admits every region's share before any
              is staged, returns its ranges for one union fence.  A
              crash revokes it all.
     publish  logging advances every Head.  A crash here finds no seal,
              so every shard rolls back, by ring range or log-role scan.
     seal     (multi-shard only) from here recovery rolls forward.
     commit   logging switches roles, moves Tail and retires at once;
              paging swings every epoch word, fenced as one union.
     clear    the seal retires.
     retire   every paging region folds the commit into its volatile
              state and runs its cleaner.

     Multi-shard batches put each step on its region's lane and the seal
     and union fences on every lane.  Under the planted
     [`Drop_durable_notify] a group batch is published but neither
     sealed nor committed — the lost-ack bug the crash sweep must catch
     (the caller still acknowledges durability). *)
  let drive ~cause ~group handles =
    let s = (List.hd handles).s in
    (match s.regions with Page _ when not group -> seal_all (List.hd handles) | Log _ | Page _ -> ());
    let shares = shares s handles in
    let multi = List.length shares > 1 in
    let whole = if group then None else Some (if multi then "tinca.xcommit" else "tinca.commit") in
    let close_whole () = Option.iter Trace.end_span whole in
    Option.iter
      (fun name ->
        Trace.begin_span ~clock:s.clock name;
        if multi then Trace.attr_int "shards" (List.length shares)
        else Trace.attr_int "blocks" (block_count (List.hd handles)))
      whole;
    let names = if group then gcommit else xcommit and spans = group || multi in
    let step name (i, share) f =
      if spans then begin
        Trace.begin_span ~clock:s.clock name;
        Trace.attr_int "shard" i
      end;
      let r = exec s i (fun () -> f share) in
      if spans then Trace.end_span name;
      r
    in
    let cross_shard label f =
      Trace.begin_span ~clock:s.clock label;
      exec_global s f;
      Trace.end_span label
    in
    let mask = List.fold_left (fun m (i, _) -> m lor (1 lsl i)) 0 shares in
    let drained = ref 0 in
    let ranges =
      try
        List.map
          (fun ((i, _) as p) ->
            let r = step names.stage p (drain_share ~cause ~seal:(not group)) in
            incr drained;
            (i, r))
          shares
      with Cache.Transaction_too_large ->
        (* A logging seal or per-block drain rejected its share, which
           finished itself. *)
        List.iteri
          (fun k (i, share) -> if k <> !drained then exec s i (fun () -> abandon_share share))
          shares;
        List.iter (fun h -> h.state <- Finished) handles;
        close_whole ();
        raise Cache.Transaction_too_large
    in
    fence_union s ~multi ranges;
    if multi then barrier s;
    List.iter (fun p -> step names.publish p publish_share) shares;
    if not (group && !fault = Some `Drop_durable_notify) then begin
      if multi then cross_shard names.seal (fun () -> write_seal s mask);
      (* A region whose commit point left nothing to fence (logging) is
         durable at once and retires in the same step; the others retire
         after the union fence and the seal clear, at one [now]. *)
      let unfenced =
        List.filter_map
          (fun ((i, _) as p) ->
            step names.commit p (fun share ->
                match commit_share ~cause share with
                | [] ->
                    retire_share ~now:(Clock.now_ns s.clock) share;
                    None
                | ranges -> Some ((i, ranges), p)))
          shares
      in
      fence_union s ~multi (List.map fst unfenced);
      if multi then cross_shard names.clear (fun () -> clear_seal s);
      let now = Clock.now_ns s.clock in
      List.iter (fun (_, p) -> step names.commit p (retire_share ~now)) unfenced;
      if group then begin
        Metrics.add s.ctr.c_group_commits 1;
        Metrics.add s.ctr.c_group_commit_txns (List.length handles)
      end
      else if multi then begin
        Metrics.add s.ctr.c_multi_commits 1;
        Metrics.add s.ctr.c_multi_commit_shards (List.length shares)
      end
    end;
    List.iter (fun h -> h.state <- Finished) handles;
    close_whole ()

  let commit ?(cause = Flight.Sync) h =
    if h.state <> Running then invalid_arg "Tinca.Shard.Txn.commit: transaction not running";
    if h.subs <> [] || h.order <> [] then drive ~cause ~group:false [ h ]
    else begin
      h.state <- Finished;
      match h.s.regions with Log _ -> Metrics.add h.s.ctr.c_commits 1 | Page _ -> ()
    end

  let abort h =
    match h.state with
    | Finished -> invalid_arg "Tinca.Shard.Txn.abort: transaction already finished"
    | Sealed -> invalid_arg "Tinca.Shard.Txn.abort: transaction already sealed"
    | Running ->
        List.iter (fun (i, sub) -> exec h.s i (fun () -> Cache.Txn.abort sub)) h.subs;
        h.writes <- None;
        h.order <- [];
        h.state <- Finished

  (* --- group commit (async commit; logging only) ------------------------ *)

  (* [seal h] volatilely applies the whole transaction on every shard it
     touches (Cache.Txn.seal: admission, allocation, COW data and entry
     stores, a slot reservation — no flush, no fence); the facade's group
     committer later drains many sealed transactions with one [drain].
     The facade seals transactions one at a time, so an unwound seal's
     reservations are the newest on their rings. *)
  let seal h =
    ignore (log_caches ~who:"Tinca.Shard.Txn.seal" h.s);
    if h.state <> Running then invalid_arg "Tinca.Shard.Txn.seal: transaction not running";
    if h.subs = [] then invalid_arg "Tinca.Shard.Txn.seal: empty transaction";
    seal_all h
  [@@pmem.defer "a seal is volatile by contract; see [seal_all]"]

  let drain ?(cause = Flight.Barrier) handles =
    match handles with
    | [] -> ()
    | h0 :: _ ->
        List.iter
          (fun h ->
            if h.state <> Sealed then invalid_arg "Tinca.Shard.Txn.drain: transaction not sealed";
            if h.s != h0.s then invalid_arg "Tinca.Shard.Txn.drain: mixed shard sets")
          handles;
        drive ~cause ~group:true handles

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
