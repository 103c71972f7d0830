open Tinca_sim
module Pmem = Tinca_pmem.Pmem
module Trace = Tinca_obs.Trace
module Codec = Tinca_util.Codec
module Flight = Tinca_obs.Flight

let log_src = Logs.Src.create "tinca.shard" ~doc:"Tinca sharded cache layer"

module Log = (val Logs.src_log log_src : Logs.LOG)

(* --- media header ------------------------------------------------------- *)

(* Two reserved cache lines in front of the shard regions:

   line 0  shard directory — magic, shard count and the per-shard
           geometry parameters, written once at format time;
   line 1  cross-shard commit record ("seal") — a single 8-byte value,
           0 when no multi-shard transaction is in its publish window,
           else (shard mask << 32) | epoch.  One atomic write, so a
           crash observes either no seal or a whole one.

   Everything from byte 128 on is divided into [nshards] equal spans,
   each holding one full Cache layout (superblock included).

   With ONE shard there is no header at all: the media is the plain
   unsharded Cache layout at byte 0, byte for byte — which is what lets
   N=1 reproduce the single-ring commit-point numbers exactly (the
   header would shift the data region and change the fitted block
   count).  A seal is never needed there either: the cross-shard commit
   record only exists for transactions spanning >= 2 shards.  Recovery
   discriminates by the magic at offset 0 (the shard directory's
   "TINCASHD" vs the Cache superblock's own tag). *)

let dir_off = 0
let seal_off = 64
let header_bytes = 128
let magic = 0x44485341434E4954L (* "TINCASHD" *)

(* The seal packs the shard mask above a 32-bit epoch; 30 shards keep
   (mask << 32) inside OCaml's 63-bit int. *)
let max_shards = 30

let span_of ~pmem ~nshards = (Pmem.size pmem - header_bytes) / nshards / 64 * 64
let base_of ~span i = header_bytes + (i * span)

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
  caches : Cache.t array;
  lanes : float array;
      (* Per-shard virtual completion times for the parallel-throughput
         model: shard work runs serially on the one simulated clock, and
         each delta is attributed to its shard's lane; cross-shard sync
         points equalize the lanes.  The makespan (max lane) is the
         wall-clock a per-shard-threaded execution would take. *)
  mutable epoch : int; (* seal epochs issued since attach *)
}

let nshards t = Array.length t.caches

let make ~pmem ~clock ~metrics caches =
  let c = Metrics.counter metrics in
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
    caches;
    lanes = Array.make (Array.length caches) 0.0;
    epoch = 0;
  }

let cache t i = t.caches.(i)
let caches t = Array.copy t.caches

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

let shard_of t blkno = stripe ~nshards:(nshards t) blkno

(* --- lane accounting ---------------------------------------------------- *)

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

(* Coordinator work (the seal writes): all lanes wait for it. *)
let exec_global t f =
  barrier t;
  let t0 = Clock.now_ns t.clock in
  let r = f () in
  let dt = Clock.now_ns t.clock -. t0 in
  for i = 0 to Array.length t.lanes - 1 do
    t.lanes.(i) <- t.lanes.(i) +. dt
  done;
  r

let makespan_ns t = Array.fold_left max 0.0 t.lanes
let lane_ns t = Array.copy t.lanes
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
    (* Seal-epoch flight record on the lowest shard in the mask; its
       finalize step (role-switch fence) follows immediately and flushes
       the record's line, so the seal itself stays one persist. *)
    (let rec lowest i = if mask land (1 lsl i) <> 0 then i else lowest (i + 1) in
     if mask <> 0 then
       Cache.flight_note t.caches.(lowest 0) Flight.Seal_epoch ~a:t.epoch ~b:mask);
    persist_seal t.pmem (seal_value ~mask ~epoch:t.epoch);
    Metrics.add t.ctr.c_seals 1
  end

let clear_seal t = persist_seal t.pmem 0

(* --- format / recover --------------------------------------------------- *)

let format ~nshards ~config ~pmem ~disk ~clock ~metrics =
  if nshards < 1 || nshards > max_shards then
    invalid_arg
      (Printf.sprintf "Tinca.Shard.format: nshards %d not in [1, %d]" nshards max_shards);
  if nshards = 1 then
    (* Plain unsharded layout, no header: byte-identical media and
       commit path to the pre-sharding cache. *)
    let c = Cache.format ~config ~pmem ~disk ~clock ~metrics in
    make ~pmem ~clock ~metrics [| c |]
  else begin
    let span = span_of ~pmem ~nshards in
    if span < 64 then invalid_arg "Tinca.Shard.format: pmem too small for this shard count";
    Pmem.set_site pmem "shard.format";
    let b = Bytes.make 64 '\000' in
    Bytes.set_int64_le b 0 magic;
    Codec.set_u32 b 8 nshards;
    Codec.set_u32 b 12 config.Cache.block_size;
    Codec.set_u32 b 16 config.Cache.ring_slots;
    Pmem.write pmem ~off:dir_off b;
    Pmem.persist pmem ~off:dir_off ~len:64;
    persist_seal pmem 0;
    let caches =
      Array.init nshards (fun i ->
          let base = base_of ~span i in
          let c =
            Cache.format_region ~base ~mem_bytes:(base + span) ~config ~pmem ~disk ~clock ~metrics
          in
          Cache.set_flight_shard c i;
          c)
    in
    make ~pmem ~clock ~metrics caches
  end

(* Seal-directed roll-forward (recovery's all-or-nothing rule, forward
   direction).  A durable seal proves that every shard in the mask had
   staged its sub-commit (data, entries, ring slots fenced durable) and
   advanced its Head before the crash — the seal write is ordered after
   all of them.  So the transaction is re-committed, not revoked: each
   shard's remaining log-role entries are flipped to buffer role (the
   interrupted step-4 role switch, batched under one fence) and its Tail
   moved to Head (the step-5 commit point), after which the seal
   retires.  Every step is idempotent, so a crash mid-roll-forward just
   rolls forward again.  Runs on raw media, before any cache attaches. *)
let roll_forward ~pmem ~nshards ~span ~mask ~clock =
  (* Every shard the seal names is bounded before anything is written:
     the mask names only existing shards, and each ring's pointers
     satisfy 0 <= Tail <= Head <= Tail + slots, so the Tail := Head
     below cannot publish a Head that a flipped bit moved. *)
  if mask lsr nshards <> 0 then corrupt "seal mask %#x names shards beyond %d" mask nshards;
  let sealed =
    List.filter_map
      (fun i ->
        if mask land (1 lsl i) = 0 then None
        else begin
          let base = base_of ~span i in
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
      if !ranges <> [] then begin
        Pmem.flush_ranges pmem !ranges;
        Pmem.sfence pmem
      end;
      if tail <> head then begin
        Pmem.atomic_write8_int pmem ~off:layout.Layout.tail_off head;
        Pmem.persist pmem ~off:layout.Layout.tail_off ~len:8
      end)
    sealed;
  persist_seal pmem 0
[@@pmem.defer
  "every mutated range is persisted in-loop: role switches are fenced by the guarded \
   flush_ranges+sfence (the guard `ranges <> []` is true exactly when a switch was written, which \
   the syntactic dataflow cannot correlate), the Tail advance by its own persist, and the seal \
   retirement by persist_seal"]

(* Media without the shard directory magic is a plain unsharded Cache
   (the N=1 format above, or pre-sharding media): recover it as one
   shard.  Media with the magic carries the directory's shard count. *)
let is_sharded_media pmem =
  Pmem.size pmem >= 8 && Pmem.read_u64 pmem ~off:dir_off = magic

let recover_sharded ~flight_replay ~pmem ~disk ~clock ~metrics =
  if Pmem.size pmem < header_bytes then corrupt "unformatted NVM (device smaller than the shard header)";
  let b = Pmem.read pmem ~off:dir_off ~len:64 in
  let nshards = Codec.get_u32 b 8 in
  if nshards < 2 || nshards > max_shards then
    corrupt "corrupt shard directory (nshards %d)" nshards;
  let span = span_of ~pmem ~nshards in
  Trace.begin_span ~clock "tinca.shard.recover";
  (* The cross-shard decision precedes every per-shard recovery: seal
     durable => roll the sealed transaction forward on all its shards;
     no seal => each shard rolls its own sub-commit back (Cache.recover's
     ring-range ∪ log-role revocation), so nothing of the transaction
     survives on any shard.  Either way, no partially committed
     multi-shard transaction can be observed after recovery. *)
  let seal = read_seal pmem in
  if seal <> 0 then begin
    Log.info (fun m -> m "sealed multi-shard transaction found (mask %#x): rolling forward" (seal_mask seal));
    Metrics.incr metrics "tinca.shard.roll_forwards" ~by:1;
    roll_forward ~pmem ~nshards ~span ~mask:(seal_mask seal) ~clock
  end;
  let caches =
    Array.init nshards (fun i ->
        let base = base_of ~span i in
        let c =
          Cache.recover_region ~flight_replay ~base ~mem_bytes:(base + span) ~pmem ~disk ~clock
            ~metrics ()
        in
        Cache.set_flight_shard c i;
        c)
  in
  Trace.end_span "tinca.shard.recover";
  make ~pmem ~clock ~metrics caches

let recover ?(flight_replay = true) ~pmem ~disk ~clock ~metrics () =
  if is_sharded_media pmem then recover_sharded ~flight_replay ~pmem ~disk ~clock ~metrics
  else
    let c = Cache.recover ~flight_replay ~pmem ~disk ~clock ~metrics () in
    make ~pmem ~clock ~metrics [| c |]

(* --- block I/O ---------------------------------------------------------- *)

let read t blkno =
  let i = shard_of t blkno in
  exec t i (fun () -> Cache.read t.caches.(i) blkno)

let write_direct t blkno data =
  let i = shard_of t blkno in
  exec t i (fun () -> Cache.write_direct t.caches.(i) blkno data)

let contains t blkno = Cache.contains t.caches.(shard_of t blkno) blkno

let peek t blkno = Cache.peek t.caches.(shard_of t blkno) blkno

(* --- the striped commit scheduler --------------------------------------- *)

module Txn = struct
  type state = Running | Sealed | Finished

  type handle = {
    s : t;
    mutable subs : (int * Cache.Txn.handle) list; (* reversed creation order *)
    mutable state : state;
  }

  let init s =
    Trace.instant ~clock:s.clock "tinca.shard.txn.init";
    { s; subs = []; state = Running }

  let sub_for h i =
    match List.assoc_opt i h.subs with
    | Some sub -> sub
    | None ->
        let sub = Cache.Txn.init h.s.caches.(i) in
        h.subs <- (i, sub) :: h.subs;
        sub

  let add h blkno data =
    if h.state <> Running then invalid_arg "Tinca.Shard.Txn.add: transaction not running";
    let i = shard_of h.s blkno in
    let sub = sub_for h i in
    exec h.s i (fun () -> Cache.Txn.add sub blkno data)

  let block_count h =
    List.fold_left (fun acc (_, sub) -> acc + Cache.Txn.block_count sub) 0 h.subs

  let shard_count h = List.length h.subs

  (* Two-phase publish for a transaction spanning several shards:

     Phase 1  every shard stages its sub-commit (§4.4 steps 1–2 plus
              ring-slot staging; Cache.Txn.stage) — data, entries and
              slots are fenced durable everywhere, but no Head has
              moved, so a crash now revokes everything shard-locally.
     Phase 2  every shard advances its Head (Cache.Txn.publish).  A
              crash anywhere in this window — including between two
              Head advances — finds no seal, and recovery rolls every
              shard back: the published shards via their ring ranges,
              the rest via the log-role entry scan.
     Seal     one atomic cross-shard commit record, persisted after all
              Heads: from here the transaction is committed, and
              recovery rolls it forward instead.
     Phase 3  every shard finalizes (role switch fenced before its Tail
              advance), then the seal retires.

     A capacity rejection during phase 1 aborts the already-staged
     sub-commits (their slots are unpublished, so Cache.Txn.abort's
     staged-block revocation applies) and re-raises — all-or-nothing in
     the failure direction too. *)
  let commit_multi h subs =
    let s = h.s in
    let mask = List.fold_left (fun m (i, _) -> m lor (1 lsl i)) 0 subs in
    Trace.begin_span ~clock:s.clock "tinca.xcommit";
    Trace.attr "shards" (string_of_int (List.length subs));
    let staged = ref 0 in
    (try
       List.iter
         (fun (i, sub) ->
           Trace.begin_span ~clock:s.clock "tinca.xcommit.stage";
           Trace.attr "shard" (string_of_int i);
           exec s i (fun () -> Cache.Txn.stage sub);
           Trace.end_span "tinca.xcommit.stage";
           incr staged)
         subs
     with Cache.Transaction_too_large ->
       Trace.end_span "tinca.xcommit.stage";
       (* The rejecting sub-handle finished itself; earlier ones are
          staged-but-unpublished (abort revokes them), later ones still
          running (abort just drops them). *)
       List.iteri
         (fun k (i, sub) -> if k <> !staged then exec s i (fun () -> Cache.Txn.abort sub))
         subs;
       h.state <- Finished;
       Trace.end_span "tinca.xcommit";
       raise Cache.Transaction_too_large);
    barrier s;
    List.iter
      (fun (i, sub) ->
        Trace.begin_span ~clock:s.clock "tinca.xcommit.publish";
        Trace.attr "shard" (string_of_int i);
        exec s i (fun () -> Cache.Txn.publish sub);
        Trace.end_span "tinca.xcommit.publish")
      subs;
    Trace.begin_span ~clock:s.clock "tinca.xcommit.seal";
    exec_global s (fun () -> write_seal s mask);
    Trace.end_span "tinca.xcommit.seal";
    List.iter
      (fun (i, sub) ->
        Trace.begin_span ~clock:s.clock "tinca.xcommit.finalize";
        Trace.attr "shard" (string_of_int i);
        exec s i (fun () -> Cache.Txn.finalize sub);
        Trace.end_span "tinca.xcommit.finalize")
      subs;
    Trace.begin_span ~clock:s.clock "tinca.xcommit.retire";
    exec_global s (fun () -> clear_seal s);
    Trace.end_span "tinca.xcommit.retire";
    h.state <- Finished;
    Metrics.add s.ctr.c_multi_commits 1;
    Metrics.add s.ctr.c_multi_commit_shards (List.length subs);
    Trace.end_span "tinca.xcommit"

  let commit h =
    if h.state <> Running then invalid_arg "Tinca.Shard.Txn.commit: transaction not running";
    let subs = List.rev h.subs in
    match subs with
    | [] ->
        h.state <- Finished;
        Metrics.add h.s.ctr.c_commits 1
    | [ (i, sub) ] -> (
        (* Single-shard fast path: the plain §4.4 commit, operation for
           operation the unsharded cache — no seal, no extra fences.
           This is what makes N=1 reproduce single-ring numbers exactly. *)
        match exec h.s i (fun () -> Cache.Txn.commit sub) with
        | () -> h.state <- Finished
        | exception e ->
            h.state <- Finished;
            raise e)
    | subs -> commit_multi h subs

  let abort h =
    match h.state with
    | Finished -> invalid_arg "Tinca.Shard.Txn.abort: transaction already finished"
    | Sealed -> invalid_arg "Tinca.Shard.Txn.abort: transaction already sealed"
    | Running ->
        List.iter (fun (i, sub) -> exec h.s i (fun () -> Cache.Txn.abort sub)) h.subs;
        h.state <- Finished

  (* --- group commit (async commit, ISSUE 8) ----------------------------- *)

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

(* One durability sequence for a whole batch of sealed transactions —
   the group-commit analogue of [Txn.commit_multi]:

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

let stats t =
  {
    nshards = nshards t;
    agg = Cache.stats_of t.caches;
    ring_high_water_per_shard = Array.map (fun c -> (Cache.stats c).Cache.ring_high_water) t.caches;
    multi_commits = Metrics.get t.metrics "tinca.shard.multi_commits";
    seals = Metrics.get t.metrics "tinca.shard.seals";
    roll_forwards = Metrics.get t.metrics "tinca.shard.roll_forwards";
  }

let stats_kv st =
  let base =
    List.map
      (fun (k, v) -> if k = "ring_high_water" then ("ring_high_water_max", v) else (k, v))
      (Cache.stats_kv st.agg)
  in
  (("nshards", string_of_int st.nshards) :: base)
  @ Array.to_list
      (Array.mapi
         (fun i v -> (Printf.sprintf "ring_high_water_shard%d" i, string_of_int v))
         st.ring_high_water_per_shard)
  @ [
      ("multi_shard_commits", string_of_int st.multi_commits);
      ("cross_shard_seals", string_of_int st.seals);
      ("seal_roll_forwards", string_of_int st.roll_forwards);
    ]

(* --- flight recorder / forensics surface --------------------------------- *)

(* Per-shard survivor scans from the last recovery, shaped for
   [Tinca_obs.Forensics.build].  Shards recovered without a flight ring
   (or before any recovery) contribute an empty track. *)
let flight_scans t =
  Array.map
    (fun c -> match Cache.flight_scan_result c with Some r -> r | None -> ([], 0))
    t.caches

(* Region-attributed NVM wear.  N=1: the plain per-region table.  N>1:
   the shard header (directory + seal lines) plus every shard's regions,
   names prefixed "s<i>.". *)
let sharded_wear pmem = function
  | [ rows ] -> rows
  | per_shard ->
      ( "header",
        Pmem.wear_sum_in pmem ~off:0 ~len:header_bytes,
        Pmem.wear_max_in pmem ~off:0 ~len:header_bytes )
      :: List.concat
           (List.mapi
              (fun i rows -> List.map (fun (n, s, m) -> (Printf.sprintf "s%d.%s" i n, s, m)) rows)
              per_shard)

let region_wear t = sharded_wear t.pmem (List.map Cache.region_wear (Array.to_list t.caches))

(* --- invariant audit ----------------------------------------------------- *)

let check_invariants t =
  (* One-shard media has no header, hence no seal word to audit. *)
  if Array.length t.caches > 1 && read_seal t.pmem <> 0 then
    raise
      (Cache.Invariant_violation "Tinca.Shard invariant: cross-shard seal set outside a commit");
  Array.iter Cache.check_invariants t.caches
