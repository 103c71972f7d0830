open Tinca_sim
module Pmem = Tinca_pmem.Pmem
module Disk = Tinca_blockdev.Disk
module Fc = Tinca_cachelib.Frame_cache

type config = { block_size : int; checkpoint_low_water : float }

let default_config = { block_size = 4096; checkpoint_low_water = 0.25 }

type txn_record = { blocks : (int * int) list (* disk blkno, frozen NVM block *) }

type t = {
  cfg : config;
  pmem : Pmem.t;
  disk : Disk.t;
  clock : Clock.t;
  metrics : Metrics.t;
  cpu : Latency.cpu;
  nblocks : int;
  data_off : int;
  record_off : int; (* commit-record area, written circularly *)
  fc : unit Fc.t;
      (* cached blocks: [frame] holds the newest version, [pinned] means
         frozen (committed in place, not yet checkpointed); no slots *)
  queue : txn_record Queue.t; (* committed, not yet checkpointed; oldest first *)
  mutable record_cursor : int;
}

let create ~config:cfg ~pmem ~disk ~clock ~metrics =
  if Disk.block_size disk <> cfg.block_size then invalid_arg "Ubj: disk block size mismatch";
  let data_off = cfg.block_size in
  let nblocks = (Pmem.size pmem - data_off) / cfg.block_size in
  if nblocks <= 0 then invalid_arg "Ubj: pmem too small";
  {
    cfg;
    pmem;
    disk;
    clock;
    metrics;
    cpu = Latency.default_cpu;
    nblocks;
    data_off;
    record_off = 0;
    fc = Fc.create ~frames:nblocks ~slots:0 ~index_size:4096 ();
    queue = Queue.create ();
    record_cursor = 0;
  }

let block_off t nvm_blk = t.data_off + (nvm_blk * t.cfg.block_size)

let read_block t nvm_blk = Pmem.read t.pmem ~off:(block_off t nvm_blk) ~len:t.cfg.block_size

(* Checkpoint the oldest committed transaction: write every frozen copy
   to disk as one unit (UBJ's transaction-granularity checkpoint), then
   release or unfreeze the NVM blocks. *)
let checkpoint_oldest t =
  match Queue.take_opt t.queue with
  | None -> false
  | Some txn ->
      List.iter
        (fun (disk_blkno, nvm_blk) ->
          Disk.write_block t.disk disk_blkno (read_block t nvm_blk);
          Metrics.incr t.metrics "ubj.checkpoint_writes" ~by:1;
          match Fc.find t.fc disk_blkno with
          | Some info when info.frame = nvm_blk ->
              (* Not updated since the freeze: becomes a clean cached
                 block. *)
              Fc.set_pinned info false
          | Some _ | None ->
              (* Superseded (or evicted): the frozen copy is dead weight
                 now that it is on disk. *)
              Fc.free_frame t.fc nvm_blk)
        txn.blocks;
      Metrics.incr t.metrics "ubj.checkpoints" ~by:1;
      true

(* Victims are clean by construction: unfrozen means checkpointed. *)
let evict_hooks t = { Fc.evict = (fun _ -> Metrics.incr t.metrics "ubj.evictions" ~by:1) }

let rec alloc t =
  match Fc.take_frame t.fc (evict_hooks t) with
  | Some i -> i
  | None ->
      (* Prefer dropping a clean block; otherwise a whole transaction
         must be checkpointed to make room — UBJ's coarse unit. *)
      if checkpoint_oldest t then alloc t
      else failwith "Ubj: NVM exhausted with nothing checkpointable"

let charge_op t =
  Clock.advance t.clock (t.cpu.Latency.op_overhead_ns +. t.cpu.Latency.hash_lookup_ns)

let read t blkno =
  charge_op t;
  match Fc.lookup_read t.fc blkno with
  | Some info ->
      Metrics.incr t.metrics "ubj.read_hits" ~by:1;
      read_block t info.frame
  | None ->
      Metrics.incr t.metrics "ubj.read_misses" ~by:1;
      let data = Disk.read_block t.disk blkno in
      let nvm = alloc t in
      Pmem.write t.pmem ~off:(block_off t nvm) data;
      ignore (Fc.insert t.fc ~key:blkno ~frame:nvm ~slot:(-1) ~dirty:false ~pinned:false ());
      data
[@@pmem.defer
  "read-miss fill of a clean block: its durable home is the disk, so the NVM copy carries no \
   persistence obligation until a write freezes it into a commit"]

let write_nvm_block t nvm data =
  let off = block_off t nvm in
  Pmem.write t.pmem ~off data;
  Pmem.persist t.pmem ~off ~len:t.cfg.block_size

(* Persist one small commit record (freeze marks + block list digest):
   one cache line, circularly over the record area. *)
let persist_commit_record t =
  let off = t.record_off + (t.record_cursor mod (t.cfg.block_size / 64) * 64) in
  t.record_cursor <- t.record_cursor + 1;
  Pmem.write t.pmem ~off (Bytes.make 64 '\001');
  Pmem.persist t.pmem ~off ~len:64

let low_water t =
  float_of_int (Fc.free_frames t.fc) /. float_of_int t.nblocks
  < t.cfg.checkpoint_low_water

module Txn = struct
  type handle = {
    ubj : t;
    staged : (int, bytes) Hashtbl.t;
    mutable order : int list;
    mutable finished : bool;
  }

  let init ubj = { ubj; staged = Hashtbl.create 16; order = []; finished = false }

  let add h blkno data =
    if h.finished then invalid_arg "Ubj.Txn.add: finished";
    let t = h.ubj in
    if Bytes.length data <> t.cfg.block_size then invalid_arg "Ubj.Txn.add: wrong block size";
    Clock.advance t.clock t.cpu.Latency.memcpy_4k_ns;
    if not (Hashtbl.mem h.staged blkno) then h.order <- blkno :: h.order;
    Hashtbl.replace h.staged blkno (Bytes.copy data)

  let commit h =
    if h.finished then invalid_arg "Ubj.Txn.commit: finished";
    h.finished <- true;
    let t = h.ubj in
    let ids = List.rev h.order in
    if ids <> [] then begin
      charge_op t;
      let frozen_list = ref [] in
      List.iter
        (fun blkno ->
          let data = Hashtbl.find h.staged blkno in
          let info =
            match Fc.find t.fc blkno with
            | Some info when not info.pinned ->
                (* Commit-in-place: overwrite the cached version. *)
                write_nvm_block t info.frame data;
                Fc.touch t.fc info;
                info
            | Some info ->
                (* Frozen by an earlier uncheckpointed transaction: the
                   update must go out of place via a memcpy — UBJ's
                   critical-path cost. *)
                Clock.advance t.clock t.cpu.Latency.memcpy_4k_ns;
                Metrics.incr t.metrics "ubj.frozen_copies" ~by:1;
                let fresh = alloc t in
                write_nvm_block t fresh data;
                Fc.set_frame info fresh;
                Fc.touch t.fc info;
                info
            | None ->
                let fresh = alloc t in
                write_nvm_block t fresh data;
                Fc.insert t.fc ~key:blkno ~frame:fresh ~slot:(-1) ~dirty:false ~pinned:false ()
          in
          Fc.set_pinned info true;
          frozen_list := (blkno, info.frame) :: !frozen_list)
        ids;
      persist_commit_record t;
      Queue.add { blocks = List.rev !frozen_list } t.queue;
      Metrics.incr t.metrics "ubj.commits" ~by:1;
      (* Background space pressure: checkpoint oldest transactions until
         above the low-water mark. *)
      while low_water t && checkpoint_oldest t do
        ()
      done
    end
end

let flush_all t =
  while checkpoint_oldest t do
    ()
  done

let cached_blocks t = Fc.length t.fc
let frozen_blocks t = Fc.fold (fun info n -> if info.pinned then n + 1 else n) t.fc 0
let free_blocks t = Fc.free_frames t.fc
