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

(* The fence's host cost with a large unflushed volatile layer, as paging's
   unflushed read-miss fills leave it: 64k lines stored but never flushed
   sit in the line table while one line is persisted.  [sfence] walks only
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

let bench_lru =
  let lru = Lru.create () in
  let nodes = Array.init 1024 (fun i -> Lru.push_mru lru i) in
  let n = ref 0 in
  Test.make ~name:"core: lru touch"
    (Staged.stage (fun () ->
         incr n;
         Lru.touch lru nodes.(!n land 1023)))

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
      bench_big_commit;
      bench_recovery;
      bench_entry_codec;
      bench_lru;
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
