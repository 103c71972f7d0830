(* The benchmark executable.

   Part 1 regenerates every table and figure of the paper (the simulated
   experiments of the registry), printing the same rows/series the paper
   reports alongside the paper's numbers.

   Part 2 runs Bechamel wall-clock micro-benchmarks of the hot code paths
   behind each table/figure — one Test.make per experiment — plus the
   core-library primitives. *)

open Bechamel
open Toolkit
module Registry = Tinca_harness.Registry
module Stacks = Tinca_stacks.Stacks
module Cache = Tinca_core.Cache
module Entry = Tinca_core.Entry
module Fc = Tinca_flashcache.Flashcache
module Journal = Tinca_jbd2.Journal
module Pmem = Tinca_pmem.Pmem
module Disk = Tinca_blockdev.Disk
module Lru = Tinca_cachelib.Lru
module Paging = Tinca_core.Paging
open Tinca_sim

(* --- part 1: the paper's tables and figures --- *)

let run_experiments () =
  print_endline "==============================================================";
  print_endline " Part 1: reproduction of the paper's tables and figures";
  print_endline "==============================================================\n";
  List.iter (fun e -> print_string (Registry.run_experiment e); print_newline ()) Registry.all

(* --- part 2: bechamel micro-benchmarks --- *)

let mk_env ?(nvm = 8 * 1024 * 1024) () =
  let clock = Clock.create () in
  let metrics = Metrics.create () in
  let pmem = Pmem.create ~clock ~metrics ~tech:Latency.Pcm ~size:nvm () in
  let disk = Disk.create ~clock ~metrics ~kind:Latency.Ssd ~nblocks:65536 ~block_size:4096 in
  (pmem, disk, clock, metrics)

let block = Bytes.make 4096 'b'

(* table1/table2: table rendering. *)
let bench_tables =
  Test.make ~name:"table1+2: render"
    (Staged.stage (fun () ->
         ignore (Tinca_util.Tabular.render (Latency.table1 ()));
         ignore (Tinca_util.Tabular.render (Tinca_workloads.Catalogue.table2 ()))))

(* fig3/fig4: the Classic write path — a journalled commit through
   Flashcache (data + synchronous metadata). *)
let bench_classic_commit =
  let pmem, disk, clock, metrics = mk_env () in
  let fc = Fc.create ~config:Fc.default_config ~pmem ~disk ~clock ~metrics in
  let io =
    { Tinca_blockdev.Block_io.block_size = 4096; nblocks = 65536;
      read_block = (fun b -> Fc.read fc b); write_block = (fun b d -> Fc.write fc b d) }
  in
  let j =
    Journal.format ~config:{ Journal.start = 61440; len = 4096; checkpoint_threshold = 0.25 }
      ~io ~metrics ()
  in
  let n = ref 0 in
  Test.make ~name:"fig3/4: classic journalled commit (2 blocks)"
    (Staged.stage (fun () ->
         incr n;
         let h = Journal.init_txn j in
         Journal.stage h (!n mod 4096) block;
         Journal.stage h (4096 + (!n mod 4096)) block;
         Journal.commit h))

(* fig7: Tinca's transactional write path. *)
let bench_tinca_commit =
  let pmem, disk, clock, metrics = mk_env () in
  let cache = Cache.format ~config:Cache.default_config ~pmem ~disk ~clock ~metrics in
  let n = ref 0 in
  Test.make ~name:"fig7: tinca commit (2 blocks, COW)"
    (Staged.stage (fun () ->
         incr n;
         let h = Cache.Txn.init cache in
         Cache.Txn.add h (!n mod 512) block;
         Cache.Txn.add h (512 + (!n mod 512)) block;
         Cache.Txn.commit h))

(* fig8: one TPC-C transaction over a live Tinca stack. *)
let bench_tpcc_txn =
  let env = Stacks.make_env ~nvm_bytes:(8 * 1024 * 1024) ~disk_blocks:65536 () in
  let stack = Stacks.tinca env in
  let fs =
    Tinca_fs.Fs.format
      ~config:{ Tinca_fs.Fs.default_config with ninodes = 256; journal_len = 256 }
      stack.Stacks.backend
  in
  let ops = Tinca_workloads.Ops.of_fs fs in
  let cfg = { Tinca_workloads.Tpcc.default with warehouses = 4; users = 4; txns = 1 } in
  Tinca_workloads.Tpcc.prealloc cfg ops;
  Test.make ~name:"fig8: one tpcc transaction on tinca"
    (Staged.stage (fun () -> ignore (Tinca_workloads.Tpcc.run cfg ops)))

(* fig10: one replicated chunk through the HDFS-like pipeline. *)
let bench_hdfs_chunk =
  let nodes =
    Array.init 4 (fun id ->
        Tinca_cluster.Node.make ~id
          ~config:
            { Tinca_cluster.Node.default_config with nvm_bytes = 4 * 1024 * 1024;
              disk_blocks = 16384 }
          Tinca_cluster.Node.Tinca_node)
  in
  let hdfs = Tinca_cluster.Hdfs.create ~replicas:3 nodes in
  let n = ref 0 in
  Test.make ~name:"fig10: hdfs chunk write (3 replicas)"
    (Staged.stage (fun () ->
         incr n;
         Tinca_cluster.Hdfs.write_chunk hdfs (Printf.sprintf "c%d" (!n mod 64)) 65536))

(* fig11: one replicated file op through the GlusterFS-like client. *)
let bench_gluster_op =
  let nodes =
    Array.init 4 (fun id ->
        Tinca_cluster.Node.make ~id
          ~config:
            { Tinca_cluster.Node.default_config with nvm_bytes = 4 * 1024 * 1024;
              disk_blocks = 16384 }
          Tinca_cluster.Node.Tinca_node)
  in
  let g = Tinca_cluster.Gluster.create ~replicas:2 nodes in
  let ops = Tinca_cluster.Gluster.ops g in
  let n = ref 0 in
  ops.Tinca_workloads.Ops.create "bench";
  Test.make ~name:"fig11: gluster replicated 16KB write"
    (Staged.stage (fun () ->
         incr n;
         ops.Tinca_workloads.Ops.pwrite "bench" ~off:(!n mod 64 * 16384) ~len:16384;
         ops.Tinca_workloads.Ops.fsync ()))

(* fig12: the persistence primitive per NVM technology. *)
let bench_persist tech =
  let clock = Clock.create () in
  let metrics = Metrics.create () in
  let pmem = Pmem.create ~clock ~metrics ~tech ~size:(1 lsl 20) () in
  let n = ref 0 in
  Test.make ~name:(Printf.sprintf "fig12: persist 4KB (%s)" (Latency.nvm_tech_name tech))
    (Staged.stage (fun () ->
         incr n;
         let off = !n mod 128 * 4096 in
         Pmem.write pmem ~off block;
         Pmem.persist pmem ~off ~len:4096))

(* The fence's host cost with a large unflushed volatile layer, as both
   engines' unflushed read-miss fills leave it: 64k lines stored but
   never flushed sit in the line table while one line is persisted.  [sfence] walks only
   the lines flushed since the last fence, so the fence itself is flat in
   the number of unflushed lines; what still grows with them here is the
   GC work on the larger live heap that Bechamel's per-sample
   stabilization charges to each run. *)
let bench_persist_behind_unflushed =
  let clock = Clock.create () in
  let metrics = Metrics.create () in
  let pmem = Pmem.create ~clock ~metrics ~tech:Latency.Pcm ~size:(8 * 1024 * 1024) () in
  let unflushed = 65536 in
  Pmem.fill pmem ~off:0 ~len:(unflushed * Pmem.line_size) 'u';
  let line = Bytes.make Pmem.line_size 'p' in
  let n = ref 0 in
  Test.make ~name:"pmem: persist 1 line behind 64k unflushed lines"
    (Staged.stage (fun () ->
         incr n;
         let off = (unflushed + (!n land 1023)) * Pmem.line_size in
         Pmem.write pmem ~off line;
         Pmem.persist pmem ~off ~len:Pmem.line_size))

(* The line layer under one logging commit, as
   [pmem.store_lines_per_commit] counts it: 538 lines stored — eight 4 KiB
   blocks and 26 scattered single lines — then flushed in one
   [flush_ranges] burst and retired by one fence. *)
let bench_commit_burst =
  let clock = Clock.create () in
  let metrics = Metrics.create () in
  let pmem = Pmem.create ~clock ~metrics ~tech:Latency.Pcm ~size:(8 * 1024 * 1024) () in
  let line = Bytes.make Pmem.line_size 'l' in
  let blocks = List.init 8 (fun i -> (i * 4096, 4096)) in
  let lines = List.init 26 (fun i -> (32768 + (i * 2 * Pmem.line_size), Pmem.line_size)) in
  Test.make ~name:"pmem: commit burst (538 lines store + flush_ranges + sfence)"
    (Staged.stage (fun () ->
         List.iter (fun (off, _) -> Pmem.write pmem ~off block) blocks;
         List.iter (fun (off, _) -> Pmem.write pmem ~off line) lines;
         Pmem.flush_ranges pmem (blocks @ lines);
         Pmem.sfence pmem))

(* The same fence behind the engines' unflushed read-miss fills: every
   line of the device but the last nine 4 KiB blocks is stored and never
   flushed, then those nine blocks (576 lines) are stored, flushed in one
   [flush_ranges] burst and retired by one fence.  Each fence retires a
   few lines out of 130k non-clean ones, so it gives their pre-image
   slots back one by one and the next iteration takes them again. *)
let bench_commit_under_paging_pressure =
  let clock = Clock.create () in
  let metrics = Metrics.create () in
  let size = 8 * 1024 * 1024 in
  let pmem = Pmem.create ~clock ~metrics ~tech:Latency.Pcm ~size () in
  let blocks = List.init 9 (fun i -> (size - ((i + 1) * 4096), 4096)) in
  Pmem.fill pmem ~off:0 ~len:(size - (9 * 4096)) 'u';
  Test.make ~name:"pmem: commit under paging pressure (9 blocks behind 130k unflushed lines)"
    (Staged.stage (fun () ->
         List.iter (fun (off, _) -> Pmem.write pmem ~off block) blocks;
         Pmem.flush_ranges pmem blocks;
         Pmem.sfence pmem))

(* One 4 KiB block stored, flushed in one [flush_ranges] burst and
   fenced.  Unobserved, the burst counts its 64 line events at once;
   an attached observer (here a no-op) makes it build one [Clflush]
   event per line. *)
let bench_flush_burst ~observed =
  let clock = Clock.create () in
  let metrics = Metrics.create () in
  let pmem = Pmem.create ~clock ~metrics ~tech:Latency.Pcm ~size:(1024 * 1024) () in
  if observed then Pmem.set_observer pmem (Some ignore);
  Test.make
    ~name:
      (Printf.sprintf "pmem: flush_ranges 64 lines + sfence (%s)"
         (if observed then "observed" else "unobserved"))
    (Staged.stage (fun () ->
         Pmem.write pmem ~off:0 block;
         Pmem.flush_ranges pmem [ (0, 4096) ];
         Pmem.sfence pmem))

(* Group commit's seal of a 1-block transaction, with and without a
   flight ring; every 32nd seal also drains the batch, as group-32's
   full batches do.  With the ring on, the seal checksums the block for
   its Txn_seal record. *)
let bench_group_seal ~flight_slots =
  let pmem, disk, clock, metrics = mk_env () in
  let cache =
    Cache.format ~config:{ Cache.default_config with flight_slots } ~pmem ~disk ~clock ~metrics
  in
  let n = ref 0 and sealed = ref [] in
  Test.make
    ~name:
      (Printf.sprintf "group: seal 1-block txn (flight %s)" (if flight_slots > 0 then "on" else "off"))
    (Staged.stage (fun () ->
         incr n;
         let h = Cache.Txn.init cache in
         Cache.Txn.add h (!n mod 512) block;
         Cache.Txn.seal h;
         sealed := h :: !sealed;
         if !n mod 32 = 0 then begin
           let batch = List.rev !sealed in
           sealed := [];
           Cache.Txn.drain batch;
           Cache.Txn.advance_head batch;
           Cache.Txn.commit_point batch;
           Cache.Txn.retire ~now:(Clock.now_ns clock) batch
         end))

(* fig13: transaction-size accounting (multi-block commit). *)
let bench_big_commit =
  let pmem, disk, clock, metrics = mk_env () in
  let cache = Cache.format ~config:Cache.default_config ~pmem ~disk ~clock ~metrics in
  let n = ref 0 in
  Test.make ~name:"fig13: tinca commit (32 blocks)"
    (Staged.stage (fun () ->
         incr n;
         let h = Cache.Txn.init cache in
         for i = 0 to 31 do
           Cache.Txn.add h (((!n * 31) mod 997) + (i * 7)) block
         done;
         Cache.Txn.commit h))

(* recoverability: a full recovery scan (entry table + ring). *)
let bench_recovery =
  let pmem, disk, clock, metrics = mk_env ~nvm:(2 * 1024 * 1024) () in
  let cache = Cache.format ~config:Cache.default_config ~pmem ~disk ~clock ~metrics in
  for i = 0 to 200 do
    Cache.write_direct cache i block
  done;
  Test.make ~name:"recoverability: cache recovery scan"
    (Staged.stage (fun () -> ignore (Cache.recover ~pmem ~disk ~clock ~metrics ())))

(* core primitives *)
let bench_entry_codec =
  let e =
    { Entry.valid = true; role = Entry.Log; modified = true; disk_blkno = 123456;
      prev = Some 42; cur = 77 }
  in
  Test.make ~name:"core: entry encode+decode"
    (Staged.stage (fun () -> ignore (Entry.decode (Entry.encode e))))

let bench_crc32 =
  Test.make ~name:"codec: crc32 4 KiB"
    (Staged.stage (fun () -> ignore (Tinca_util.Codec.crc32 block ~pos:0 ~len:4096)))

let bench_lru =
  let lru = Lru.create () in
  let nodes = Array.init 1024 (fun i -> Lru.push_mru lru i) in
  let n = ref 0 in
  Test.make ~name:"core: lru touch"
    (Staged.stage (fun () ->
         incr n;
         Lru.touch lru nodes.(!n land 1023)))

(* One read miss on a full cache, per engine: the LRU victim (clean,
   every block was filled by a read) is evicted and the missed block
   filled into its frame.  Logging persists the fill and writes two
   entries (the victim's invalidation and the new block's); paging only
   stores the frame.  Blocks cycle over 8 192, far beyond the 1 MiB
   cache, so every read misses. *)
let bench_read_miss_fill engine =
  let pmem, disk, clock, metrics = mk_env ~nvm:(1024 * 1024) () in
  let read =
    match engine with
    | `Logging ->
        let config = { Cache.default_config with Cache.ring_slots = 64 } in
        Cache.read (Cache.format ~config ~pmem ~disk ~clock ~metrics)
    | `Paging ->
        let module Shard = Tinca_core.Shard in
        Shard.read
          (Shard.format ~nshards:1 ~config:(Shard.Paging Paging.default_config) ~pmem ~disk ~clock
             ~metrics)
  in
  let n = ref 0 in
  let next () =
    incr n;
    ignore (read (!n mod 8192))
  in
  for _ = 1 to 512 do
    next ()
  done;
  Test.make
    ~name:
      (Printf.sprintf "cache: read-miss fill with eviction (%s)"
         (match engine with `Logging -> "logging" | `Paging -> "paging"))
    (Staged.stage next)

let run_benchmarks () =
  print_endline "==============================================================";
  print_endline " Part 2: Bechamel wall-clock micro-benchmarks (host machine)";
  print_endline "==============================================================";
  let tests =
    [
      bench_tables;
      bench_classic_commit;
      bench_tinca_commit;
      bench_tpcc_txn;
      bench_hdfs_chunk;
      bench_gluster_op;
      bench_persist Latency.Pcm;
      bench_persist Latency.Nvdimm;
      bench_persist Latency.Stt_ram;
      bench_persist_behind_unflushed;
      bench_commit_burst;
      bench_commit_under_paging_pressure;
      bench_flush_burst ~observed:false;
      bench_flush_burst ~observed:true;
      bench_group_seal ~flight_slots:0;
      bench_group_seal ~flight_slots:64;
      bench_big_commit;
      bench_recovery;
      bench_entry_codec;
      bench_crc32;
      bench_lru;
      bench_read_miss_fill `Logging;
      bench_read_miss_fill `Paging;
    ]
  in
  let grouped = Test.make_grouped ~name:"tinca" ~fmt:"%s %s" tests in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |] in
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.25) ~kde:None () in
  let raw = Benchmark.all cfg instances grouped in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows = Hashtbl.fold (fun name o acc -> (name, o) :: acc) results [] in
  List.iter
    (fun (name, o) ->
      match Analyze.OLS.estimates o with
      | Some [ ns ] -> Printf.printf "  %-55s %12.1f ns/run\n" name ns
      | Some _ | None -> Printf.printf "  %-55s (no estimate)\n" name)
    (List.sort (fun (a, _) (b, _) -> String.compare a b) rows)

let () =
  run_experiments ();
  run_benchmarks ();
  print_endline "\nbench: done."
