(* Crash-consistency validation of Tinca (paper §4.5, §5.1).

   Strategy: run a deterministic workload of multi-block transactions
   against the cache while a countdown hook injects a crash at the k-th
   pmem event; resolve the crash with several survival policies (0 = all
   unflushed lines lost, 1 = all survive, 0.5 = adversarial mix); recover;
   then judge the logical state (cache overlaying disk, whole blocks)
   with the crash checker's judge: the recovered state must equal the
   state as of the last acknowledged commit — or, exactly at the commit
   point, the state with the in-flight transaction fully applied.
   Partial application is a failure. *)

open Tinca_core
open Tinca_sim
module Pmem = Tinca_pmem.Pmem
module Disk = Tinca_blockdev.Disk
module Check = Tinca_checker.Crash_check
module Spec = Tinca_checker.Spec

let universe = 48 (* disk blocks exercised *)
let pmem_bytes = 160 * 1024 (* ~30 data blocks: forces evictions *)

type env = { pmem : Pmem.t; disk : Disk.t; clock : Clock.t; metrics : Metrics.t }

let mk_env () =
  let clock = Clock.create () in
  let metrics = Metrics.create () in
  let pmem = Pmem.create ~clock ~metrics ~tech:Latency.Pcm ~size:pmem_bytes () in
  let disk = Disk.create ~clock ~metrics ~kind:Latency.Ssd ~nblocks:universe ~block_size:4096 in
  { pmem; disk; clock; metrics }

let config = { Cache.default_config with ring_slots = 64 }

(* The deterministic workload: [ncommits] transactions of 1..4 blocks with
   skewed block choice (to exercise COW write hits) and occasional reads.
   [m] follows it: its spec is the last acknowledged commit, its
   in-flight image the transaction being committed. *)
let run_workload ~seed ~ncommits cache (m : Check.model) =
  let rng = Tinca_util.Rng.create seed in
  for _txn = 1 to ncommits do
    let n = 1 + Tinca_util.Rng.int rng 4 in
    let h = Cache.Txn.init cache in
    let stxn = ref (Spec.init_txn m.spec) in
    for _ = 1 to n do
      let blk = Tinca_util.Rng.int rng universe in
      let data = Bytes.make 4096 (Char.chr (Tinca_util.Rng.int rng 256)) in
      Cache.Txn.add h blk data;
      stxn := Result.get_ok (Spec.write m.spec !stxn blk data)
    done;
    (* Sprinkle reads between transactions to mix clean fills in. *)
    if Tinca_util.Rng.chance rng 0.3 then ignore (Cache.read cache (Tinca_util.Rng.int rng universe));
    let post, _ = Result.get_ok (Spec.commit m.spec !stxn) in
    Check.durably m (Some post) (fun () -> Cache.Txn.commit h);
    m.spec <- post
  done

let empty_model () =
  { Check.spec = Spec.create ~nblocks:universe ~block_size:4096; in_flight = None }

(* One torture run: crash at event [crash_at]; returns `Completed if the
   workload finished without reaching the countdown. *)
let torture ~seed ~ncommits ~crash_at ~survival ~survival_seed =
  let env = mk_env () in
  let cache =
    Cache.format ~config ~pmem:env.pmem ~disk:env.disk ~clock:env.clock ~metrics:env.metrics
  in
  let m = empty_model () in
  Pmem.set_crash_countdown env.pmem (Some crash_at);
  match run_workload ~seed ~ncommits cache m with
  | () ->
      Pmem.set_crash_countdown env.pmem None;
      `Completed
  | exception Pmem.Crash_point ->
      Pmem.crash ~seed:survival_seed ~survival env.pmem;
      let recovered =
        Cache.recover ~pmem:env.pmem ~disk:env.disk ~clock:env.clock ~metrics:env.metrics ()
      in
      Cache.check_invariants recovered;
      (match Check.judge m (Check.logical_block (Cache.peek recovered) env.disk) with
      | Ok () -> ()
      | Error e ->
          Alcotest.failf "crash at event %d (survival %.1f, seed %d): %s" crash_at survival seed e);
      `Crashed

(* Count the events of a crash-free run so sweeps cover the whole span. *)
let total_events ~seed ~ncommits =
  let env = mk_env () in
  let cache =
    Cache.format ~config ~pmem:env.pmem ~disk:env.disk ~clock:env.clock ~metrics:env.metrics
  in
  let before = Pmem.event_count env.pmem in
  run_workload ~seed ~ncommits cache (empty_model ());
  Pmem.event_count env.pmem - before

let test_systematic_sweep () =
  let seed = 2024 and ncommits = 6 in
  let span = total_events ~seed ~ncommits in
  let crashes = ref 0 in
  (* The countdown is armed after formatting, so [crash_at] = k crashes
     at the k-th workload event; cover every one under the all-lost and
     adversarial-mix survival policies. *)
  List.iter
    (fun survival ->
      for crash_at = 1 to span do
        match torture ~seed ~ncommits ~crash_at ~survival ~survival_seed:(crash_at * 31) with
        | `Crashed -> incr crashes
        | `Completed -> Alcotest.failf "countdown %d did not fire within span %d" crash_at span
      done)
    [ 0.0; 0.5 ];
  Alcotest.(check bool) "sweep executed" true (!crashes = 2 * span)

let test_randomized_torture () =
  (* Many random (workload, crash point, survival outcome) triples. *)
  let rng = Tinca_util.Rng.create 77 in
  for i = 1 to 150 do
    let seed = Tinca_util.Rng.int rng 100000 in
    let ncommits = 2 + Tinca_util.Rng.int rng 10 in
    let span = total_events ~seed ~ncommits in
    let crash_at = 1 + Tinca_util.Rng.int rng span in
    let survival = [| 0.0; 0.25; 0.5; 0.75; 1.0 |].(Tinca_util.Rng.int rng 5) in
    ignore (torture ~seed ~ncommits ~crash_at ~survival ~survival_seed:i)
  done

let test_crash_before_any_txn () =
  let env = mk_env () in
  let (_ : Cache.t) =
    Cache.format ~config ~pmem:env.pmem ~disk:env.disk ~clock:env.clock ~metrics:env.metrics
  in
  Pmem.crash ~seed:5 ~survival:0.0 env.pmem;
  let recovered =
    Cache.recover ~pmem:env.pmem ~disk:env.disk ~clock:env.clock ~metrics:env.metrics ()
  in
  Cache.check_invariants recovered;
  Alcotest.(check int) "empty cache" 0 (Cache.cached_blocks recovered)

let test_recovery_preserves_committed () =
  let env = mk_env () in
  let cache =
    Cache.format ~config ~pmem:env.pmem ~disk:env.disk ~clock:env.clock ~metrics:env.metrics
  in
  let h = Cache.Txn.init cache in
  Cache.Txn.add h 1 (Bytes.make 4096 'a');
  Cache.Txn.add h 2 (Bytes.make 4096 'b');
  Cache.Txn.commit h;
  Pmem.crash ~seed:5 ~survival:0.0 env.pmem;
  let recovered =
    Cache.recover ~pmem:env.pmem ~disk:env.disk ~clock:env.clock ~metrics:env.metrics ()
  in
  Cache.check_invariants recovered;
  Alcotest.(check char) "block 1" 'a' (Bytes.get (Cache.read recovered 1) 0);
  Alcotest.(check char) "block 2" 'b' (Bytes.get (Cache.read recovered 2) 0)

let test_recovered_dirty_blocks_still_written_back () =
  let env = mk_env () in
  let cache =
    Cache.format ~config ~pmem:env.pmem ~disk:env.disk ~clock:env.clock ~metrics:env.metrics
  in
  let h = Cache.Txn.init cache in
  Cache.Txn.add h 3 (Bytes.make 4096 'z');
  Cache.Txn.commit h;
  Pmem.crash ~seed:6 ~survival:0.0 env.pmem;
  let recovered =
    Cache.recover ~pmem:env.pmem ~disk:env.disk ~clock:env.clock ~metrics:env.metrics ()
  in
  (* The dirty bit must survive recovery so the block eventually reaches
     the disk. *)
  Cache.flush_all recovered;
  Alcotest.(check char) "written back" 'z' (Bytes.get (Disk.read_block env.disk 3) 0)

let test_double_recovery_idempotent () =
  let env = mk_env () in
  let cache =
    Cache.format ~config ~pmem:env.pmem ~disk:env.disk ~clock:env.clock ~metrics:env.metrics
  in
  (* Crash mid-commit. *)
  let h = Cache.Txn.init cache in
  Cache.Txn.add h 1 (Bytes.make 4096 'n');
  Pmem.set_crash_countdown env.pmem (Some 10);
  (try Cache.Txn.commit h with Pmem.Crash_point -> ());
  Pmem.crash ~seed:7 ~survival:0.5 env.pmem;
  let r1 = Cache.recover ~pmem:env.pmem ~disk:env.disk ~clock:env.clock ~metrics:env.metrics () in
  Cache.check_invariants r1;
  let state1 = List.init universe (Cache.peek r1) in
  (* Crash again with nothing dirty; recover again: same state. *)
  Pmem.crash ~seed:8 ~survival:0.0 env.pmem;
  let r2 = Cache.recover ~pmem:env.pmem ~disk:env.disk ~clock:env.clock ~metrics:env.metrics () in
  Cache.check_invariants r2;
  let state2 = List.init universe (Cache.peek r2) in
  Alcotest.(check bool) "idempotent" true (state1 = state2)

let test_recover_unformatted_rejected () =
  let env = mk_env () in
  Alcotest.(check bool) "bad magic" true
    (try
       ignore (Cache.recover ~pmem:env.pmem ~disk:env.disk ~clock:env.clock ~metrics:env.metrics ());
       false
     with Cache.Corrupt _ -> true)

let suite =
  [
    ( "core.recovery",
      [
        Alcotest.test_case "crash before any txn" `Quick test_crash_before_any_txn;
        Alcotest.test_case "committed data survives" `Quick test_recovery_preserves_committed;
        Alcotest.test_case "dirty bit survives" `Quick test_recovered_dirty_blocks_still_written_back;
        Alcotest.test_case "double recovery idempotent" `Quick test_double_recovery_idempotent;
        Alcotest.test_case "unformatted rejected" `Quick test_recover_unformatted_rejected;
      ] );
    ( "core.crash_torture",
      [
        Alcotest.test_case "systematic event sweep" `Slow test_systematic_sweep;
        Alcotest.test_case "randomized torture" `Slow test_randomized_torture;
      ] );
  ]
