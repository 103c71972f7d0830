(* Stress and integration tests beyond the per-module suites: long-run
   ring wraparound, interleaved transaction handles, Classic end-to-end
   crash sweeps, cluster determinism, UBJ/Tinca cross-checks. *)
open Tinca_core
open Tinca_sim
module Pmem = Tinca_pmem.Pmem
module Disk = Tinca_blockdev.Disk
module Stacks = Tinca_stacks.Stacks
module Fs = Tinca_fs.Fs

let block c = Bytes.make 4096 c

let mk_cache ?(pmem_bytes = 256 * 1024) ?(ring_slots = 16) () =
  let clock = Clock.create () in
  let metrics = Metrics.create () in
  let pmem = Pmem.create ~clock ~metrics ~tech:Latency.Pcm ~size:pmem_bytes () in
  let disk = Disk.create ~clock ~metrics ~kind:Latency.Ssd ~nblocks:512 ~block_size:4096 in
  let config = { Cache.default_config with ring_slots } in
  (Cache.format ~config ~pmem ~disk ~clock ~metrics, pmem, disk, clock, metrics)

let test_ring_wraps_many_times () =
  (* Thousands of commits through a 16-slot ring: the monotonic pointers
     must wrap cleanly and recovery must still work at any quiescent
     point. *)
  let cache, pmem, disk, clock, metrics = mk_cache () in
  let rng = Tinca_util.Rng.create 3 in
  for i = 0 to 2_000 do
    let h = Cache.Txn.init cache in
    let n = 1 + Tinca_util.Rng.int rng 4 in
    for j = 0 to n - 1 do
      Cache.Txn.add h (((i * 7) + j) mod 128) (block (Char.chr (33 + (i mod 90))))
    done;
    Cache.Txn.commit h
  done;
  Cache.check_invariants cache;
  Pmem.crash ~seed:1 ~survival:0.5 pmem;
  let r = Cache.recover ~pmem ~disk ~clock ~metrics () in
  Cache.check_invariants r

let test_interleaved_handles () =
  (* Multiple running transactions staged concurrently; commits are
     serialized but staging interleaves (the paper's "running
     transactions" are plural). *)
  let cache, _, _, _, _ = mk_cache () in
  let h1 = Cache.Txn.init cache in
  let h2 = Cache.Txn.init cache in
  Cache.Txn.add h1 1 (block 'a');
  Cache.Txn.add h2 2 (block 'b');
  Cache.Txn.add h1 3 (block 'c');
  Cache.Txn.add h2 1 (block 'd');
  (* h2 commits first: its version of block 1 lands first. *)
  Cache.Txn.commit h2;
  Alcotest.(check char) "h2's block 1" 'd' (Bytes.get (Cache.read cache 1) 0);
  Cache.Txn.commit h1;
  Alcotest.(check char) "h1 overwrote block 1" 'a' (Bytes.get (Cache.read cache 1) 0);
  Alcotest.(check char) "h2's block 2" 'b' (Bytes.get (Cache.read cache 2) 0);
  Alcotest.(check char) "h1's block 3" 'c' (Bytes.get (Cache.read cache 3) 0);
  Cache.check_invariants cache

let test_abort_interleaved () =
  let cache, _, _, _, _ = mk_cache () in
  Cache.write_direct cache 5 (block 'o');
  let keep = Cache.Txn.init cache in
  let drop = Cache.Txn.init cache in
  Cache.Txn.add keep 6 (block 'k');
  Cache.Txn.add drop 5 (block 'X');
  Cache.Txn.abort drop;
  Cache.Txn.commit keep;
  Alcotest.(check char) "aborted txn invisible" 'o' (Bytes.get (Cache.read cache 5) 0);
  Alcotest.(check char) "committed txn visible" 'k' (Bytes.get (Cache.read cache 6) 0);
  Cache.check_invariants cache

(* Classic stack systematic crash sweep under survival 1.0 (process-kill
   semantics: all issued stores drain to the NVM).  The Classic design
   only guarantees recovery when its block writes complete — Flashcache
   metadata blocks are not crash-atomic, which is exactly the paper's
   criticism — so the all-survive policy is the regime where journal
   replay must restore every fsynced round. *)
let test_classic_crash_sweep_survival_one () =
  let fs_config = { Fs.default_config with ninodes = 128; journal_len = 256 } in
  let run_once crash_at =
    let env = Stacks.make_env ~nvm_bytes:(4 * 1024 * 1024) ~disk_blocks:16384 () in
    let stack = Stacks.classic ~journal_len:fs_config.Fs.journal_len env in
    let fs = Fs.format ~config:fs_config stack.Stacks.backend in
    let synced = ref 0 in
    Pmem.set_crash_countdown env.Stacks.pmem (Some crash_at);
    (try
       for round = 0 to 15 do
         let name = Printf.sprintf "r%02d" round in
         Fs.create fs name;
         Fs.pwrite fs name ~off:0 (Bytes.make 8192 (Char.chr (65 + round)));
         Fs.fsync fs;
         synced := round + 1
       done;
       Pmem.set_crash_countdown env.Stacks.pmem None
     with Pmem.Crash_point -> ());
    Pmem.crash ~seed:crash_at ~survival:1.0 env.Stacks.pmem;
    let stack2 = Stacks.classic_recover ~journal_len:fs_config.Fs.journal_len env in
    let fs2 = Fs.mount ~config:fs_config stack2.Stacks.backend in
    Fs.fsck fs2;
    for round = 0 to !synced - 1 do
      let name = Printf.sprintf "r%02d" round in
      if not (Fs.exists fs2 name) then Alcotest.failf "crash@%d: %s lost" crash_at name;
      let c = Bytes.get (Fs.pread fs2 name ~off:0 ~len:1) 0 in
      if c <> Char.chr (65 + round) then Alcotest.failf "crash@%d: %s corrupt" crash_at name
    done
  in
  (* Sample crash points across the whole run. *)
  let points = List.init 30 (fun i -> 500 + (i * 1357)) in
  List.iter run_once points

let test_cluster_determinism () =
  let module Node = Tinca_cluster.Node in
  let module Hdfs = Tinca_cluster.Hdfs in
  let module Teragen = Tinca_workloads.Teragen in
  let run () =
    let nodes =
      Array.init 4 (fun id ->
          Node.make ~id
            ~config:{ Node.default_config with nvm_bytes = 4 * 1024 * 1024; disk_blocks = 16384 }
            Node.Tinca_node)
    in
    let hdfs = Hdfs.create ~replicas:2 nodes in
    let cfg = { Teragen.default with total_bytes = 4 * 1024 * 1024; chunk_bytes = 1 lsl 19 } in
    ignore (Teragen.run cfg (Hdfs.ops hdfs));
    Hdfs.execution_ns hdfs
  in
  Alcotest.(check (float 0.0)) "bit-identical execution time" (run ()) (run ())

let test_large_txn_spanning_descriptor_limit_through_fs () =
  (* An FS transaction of >509 blocks forces JBD2 to emit multiple
     descriptor blocks; end-to-end content must survive. *)
  let fs_config =
    { Fs.default_config with ninodes = 64; journal_len = 2048; max_dirty_blocks = 2000 }
  in
  let env = Stacks.make_env ~nvm_bytes:(8 * 1024 * 1024) ~disk_blocks:16384 () in
  let stack = Stacks.classic ~journal_len:fs_config.Fs.journal_len env in
  let fs = Fs.format ~config:fs_config stack.Stacks.backend in
  Fs.create fs "wide";
  Fs.pwrite fs "wide" ~off:0 (Bytes.make (600 * 4096) 'W');
  Fs.fsync fs;
  Alcotest.(check char) "tail intact" 'W'
    (Bytes.get (Fs.pread fs "wide" ~off:((600 * 4096) - 1) ~len:1) 0);
  Fs.fsck fs

let test_pmem_hot_line_wear () =
  let clock = Clock.create () in
  let metrics = Metrics.create () in
  let pmem = Pmem.create ~clock ~metrics ~tech:Latency.Pcm ~size:4096 () in
  for _ = 1 to 5 do
    Pmem.write pmem ~off:0 (Bytes.make 64 'x');
    Pmem.persist pmem ~off:0 ~len:64
  done;
  Alcotest.(check int) "max is the hot line" 5 (Pmem.wear_max pmem);
  Alcotest.(check int) "hot line holds it all" 5 (Pmem.wear_sum_in pmem ~off:0 ~len:64);
  Alcotest.(check int) "other lines untouched" 0 (Pmem.wear_sum_in pmem ~off:64 ~len:(4096 - 64))

let suite =
  [
    ( "stress",
      [
        Alcotest.test_case "ring wraps 2000 txns" `Slow test_ring_wraps_many_times;
        Alcotest.test_case "interleaved handles" `Quick test_interleaved_handles;
        Alcotest.test_case "abort interleaved" `Quick test_abort_interleaved;
        Alcotest.test_case "classic crash sweep (survival 1.0)" `Slow
          test_classic_crash_sweep_survival_one;
        Alcotest.test_case "cluster determinism" `Quick test_cluster_determinism;
        Alcotest.test_case "multi-descriptor txn via fs" `Quick
          test_large_txn_spanning_descriptor_limit_through_fs;
        Alcotest.test_case "pmem hot-line wear" `Quick test_pmem_hot_line_wear;
      ] );
  ]
