(* Flight recorder and crash forensics (ISSUE 9).

   - the record codec detects torn records instead of trusting them;
   - flight replay is deterministic: recovering the same crashed medium
     twice yields the same medium and the same dossier;
   - the recorder adds ZERO fences to the commit pipeline (the
     test_budget pin re-run with the recorder on);
   - the Flight_check crash sweep is clean at N=1 and N=4 (recovery
     identical with replay on/off, dossier agrees with the judge);
   - the planted Drop_durable_notify fault is convicted by the dossier
     alone, with the dead tickets named;
   - region-attributed wear and the group-committer runtime stats are
     exposed through the facade. *)

module Cache = Tinca_core.Cache
module Shard = Tinca_core.Shard
module Pmem = Tinca_pmem.Pmem
module Disk = Tinca_blockdev.Disk
module Flight = Tinca_obs.Flight
module Forensics = Tinca_obs.Forensics
module FCheck = Tinca_checker.Flight_check
module Check = Tinca_checker.Crash_check
open Tinca_sim

(* --- codec: torn records are detected, not trusted ----------------------- *)

let ev kind = { Flight.kind; shard = 0; cause = Flight.Sync; a = 1; b = 2; c = 3; d = 4; batch = 5; t_ns = 6 }

let test_torn_record_detected () =
  let r = Flight.encode ~seq:9 (ev Flight.Txn_seal) in
  (match Flight.decode r with
  | Some (seq, e) ->
      Alcotest.(check int) "seq round-trips" 9 seq;
      Alcotest.(check string) "kind round-trips" "txn_seal" (Flight.kind_name e.Flight.kind)
  | None -> Alcotest.fail "intact record failed decode");
  (* Flip one byte anywhere in the checksummed span: decode must refuse. *)
  for off = 0 to 55 do
    let torn = Bytes.copy r in
    Bytes.set torn off (Char.chr (Char.code (Bytes.get torn off) lxor 0x40));
    Alcotest.(check bool)
      (Printf.sprintf "byte %d flipped -> torn" off)
      true
      (Flight.decode torn = None)
  done

let test_scan_drops_only_torn_tail () =
  let slots = 8 in
  let ring = Array.init slots (fun _ -> Bytes.make Flight.record_size '\000') in
  for seq = 0 to 4 do
    ring.(seq) <- Flight.encode ~seq (ev Flight.Batch_drain)
  done;
  (* Tear the newest record (seq 4) mid-line, as a crash would. *)
  Bytes.set ring.(4) 20 'X';
  let survivors, torn = Flight.scan ~slots ~read:(fun i -> ring.(i)) in
  Alcotest.(check int) "one torn record reported" 1 torn;
  Alcotest.(check (list int)) "survivors are exactly the intact prefix" [ 0; 1; 2; 3 ]
    (List.map fst survivors);
  (* Zeroed slots are empty, not torn. *)
  let _, torn0 = Flight.scan ~slots ~read:(fun _ -> Bytes.make Flight.record_size '\000') in
  Alcotest.(check int) "all-zero ring has no torn records" 0 torn0

(* --- shared environment --------------------------------------------------- *)

type env = { pmem : Pmem.t; disk : Disk.t; clock : Clock.t; metrics : Metrics.t }

let mk_env ?(pmem_bytes = 512 * 1024) ?(nblocks = 64) () =
  let clock = Clock.create () in
  let metrics = Metrics.create () in
  let pmem = Pmem.create ~clock ~metrics ~tech:Latency.Pcm ~size:pmem_bytes () in
  let disk = Disk.create ~clock ~metrics ~kind:Latency.Ssd ~nblocks ~block_size:4096 in
  { pmem; disk; clock; metrics }

let facade ?(nshards = 1) ?(flight_slots = 64) ?(window = 1_000_000_000) ?(max_batch = 3) env =
  Tinca.ok_exn
    (Tinca.format
       ~config:
         {
           Tinca.Config.default with
           Tinca.Config.nvm_bytes = Pmem.size env.pmem;
           ring_slots = 128;
           nshards;
           flight_slots;
           group_window_ns = window;
           group_max_batch = max_batch;
         }
       ~pmem:env.pmem ~disk:env.disk ~clock:env.clock ~metrics:env.metrics)

let commit_async_blocks tc blocks fill =
  let txn = Tinca.init_txn tc in
  List.iter (fun b -> Tinca.ok_exn (Tinca.write txn b (Bytes.make 4096 fill))) blocks;
  Tinca.ok_exn (Tinca.commit_async txn)

(* --- replay determinism --------------------------------------------------- *)

(* Recovering the same crashed medium twice must produce the same
   logical cache state and the same dossier.  (Raw media legitimately
   differ: recovery's own flight records carry the live clock's
   timestamp, which advances between the two recoveries.) *)
let test_replay_deterministic () =
  let env = mk_env () in
  let tc = facade env in
  ignore (commit_async_blocks tc [ 0; 1 ] 'a');
  ignore (commit_async_blocks tc [ 2 ] 'b');
  ignore (commit_async_blocks tc [ 3; 4 ] 'c');
  (* max_batch=3 drained the first three; crash mid-second-batch. *)
  Pmem.set_crash_countdown env.pmem (Some 40);
  (match commit_async_blocks tc [ 5; 1 ] 'd' with
  | _ -> ()
  | exception Pmem.Crash_point -> ());
  Pmem.set_crash_countdown env.pmem None;
  Pmem.crash ~seed:7 env.pmem;
  let snap = Pmem.snapshot env.pmem in
  let recover_once () =
    match Tinca.recover ~pmem:env.pmem ~disk:env.disk ~clock:env.clock ~metrics:env.metrics with
    | Error e -> Alcotest.fail (Tinca.error_message e)
    | Ok t2 ->
        let dossier = Tinca.last_crash_report t2 in
        let records =
          match dossier with
          | None -> []
          | Some d -> List.map (fun (s, seq, e) -> (s, seq, Flight.kind_name e.Flight.kind)) d.Forensics.records
        in
        let buf = Buffer.create (8 * 4096) in
        for blk = 0 to 7 do
          Buffer.add_bytes buf (Tinca.ok_exn (Tinca.read t2 blk))
        done;
        (Digest.string (Buffer.contents buf), records)
  in
  let d1, r1 = recover_once () in
  Pmem.restore env.pmem snap;
  let d2, r2 = recover_once () in
  Alcotest.(check bool) "recovered logical state identical" true (d1 = d2);
  Alcotest.(check bool) "dossier records identical" true (r1 = r2);
  Alcotest.(check bool) "dossier non-empty" true (r1 <> [])

(* --- fence budget with the recorder ON ------------------------------------ *)

(* test_budget's pin re-run with flight_slots > 0: the recorder folds
   its record lines into existing fences, so the sfence count of every
   commit is IDENTICAL to the recorder-off pipeline. *)
let test_fence_budget_recorder_on () =
  let commit_fences ~flight_slots n =
    let env = mk_env ~pmem_bytes:(1024 * 1024) ~nblocks:256 () in
    let cache =
      Cache.format
        ~config:{ Cache.default_config with ring_slots = 128; flight_slots }
        ~pmem:env.pmem ~disk:env.disk ~clock:env.clock ~metrics:env.metrics
    in
    let commit () =
      let h = Cache.Txn.init cache in
      for b = 0 to n - 1 do
        Cache.Txn.add h b (Bytes.make 4096 'w')
      done;
      Cache.Txn.commit h
    in
    let fences f =
      let before = Metrics.get env.metrics "pmem.sfence" in
      f ();
      Metrics.get env.metrics "pmem.sfence" - before
    in
    let miss = fences commit in
    let hit = fences commit in
    Cache.check_invariants cache;
    (miss, hit)
  in
  List.iter
    (fun n ->
      let m_off, h_off = commit_fences ~flight_slots:0 n in
      let m_on, h_on = commit_fences ~flight_slots:256 n in
      Alcotest.(check int)
        (Printf.sprintf "%d-block miss commit: same fences with recorder on" n)
        m_off m_on;
      Alcotest.(check int)
        (Printf.sprintf "%d-block hit commit: same fences with recorder on" n)
        h_off h_on;
      Alcotest.(check bool)
        (Printf.sprintf "%d-block commit within 6-sfence budget with recorder on" n)
        true (m_on <= 6 && h_on <= 6))
    [ 1; 8; 64 ]

(* --- crash sweeps (recorder on) ------------------------------------------- *)

let sweep_cfg nshards stride = { FCheck.default_config with Check.nshards; stride }

let run_sweep name cfg =
  let driver, _ = FCheck.driver cfg in
  let r = Check.explore ~driver cfg in
  Alcotest.(check bool)
    (Printf.sprintf "%s: states were explored" name)
    true (r.Check.states_checked > 0);
  Alcotest.(check (list string)) (Printf.sprintf "%s: no violations" name) []
    (List.map (Format.asprintf "%a" Check.pp_violation) r.Check.violations)

let test_crash_sweep_n1 () = run_sweep "N=1" (sweep_cfg 1 23)
let test_crash_sweep_n4 () = run_sweep "N=4" (sweep_cfg 4 41)

(* --- the planted fault, convicted by the dossier alone -------------------- *)

let test_drop_notify_convicted () =
  List.iter
    (fun nshards ->
      match FCheck.drop_notify_scenario { FCheck.default_config with Check.nshards } with
      | Ok dossier -> (
          match Forensics.verdict dossier with
          | `Dead_acked dead ->
              Alcotest.(check bool)
                (Printf.sprintf "N=%d: dead tickets named" nshards)
                true (dead <> []);
              (* The render names the verdict for the operator. *)
              let text = Forensics.render dossier in
              Alcotest.(check bool)
                (Printf.sprintf "N=%d: dossier text reports dead-acked" nshards)
                true
                (String.length text > 0)
          | `Clean -> Alcotest.fail "scenario returned Ok but verdict is Clean")
      | Error msg -> Alcotest.fail (Printf.sprintf "N=%d: %s" nshards msg))
    [ 1; 4 ]

(* --- region wear and group runtime stats (satellites 2 and 3) ------------- *)

let test_region_wear () =
  let env = mk_env () in
  let tc = facade env in
  for i = 0 to 5 do
    ignore (commit_async_blocks tc [ i ] 'w')
  done;
  Tinca.group_flush tc;
  let wear = Tinca.region_wear tc in
  let find name =
    match List.find_opt (fun (n, _, _) -> n = name) wear with
    | Some (_, total, peak) -> (total, peak)
    | None -> Alcotest.fail (Printf.sprintf "region %s missing from wear table" name)
  in
  List.iter
    (fun name ->
      let total, peak = find name in
      Alcotest.(check bool) (name ^ " wear sane") true (total >= peak && peak >= 0))
    [ "super"; "head"; "tail"; "ring"; "flight"; "entries"; "data" ];
  let data_total, _ = find "data" in
  let flight_total, _ = find "flight" in
  Alcotest.(check bool) "data region wears under commits" true (data_total > 0);
  Alcotest.(check bool) "flight region wears when recorder on" true (flight_total > 0);
  (* Recorder off: the flight region reports zero wear. *)
  let env0 = mk_env () in
  let tc0 = facade ~flight_slots:0 env0 in
  ignore (commit_async_blocks tc0 [ 0 ] 'x');
  Tinca.group_flush tc0;
  (match List.find_opt (fun (n, _, _) -> n = "flight") (Tinca.region_wear tc0) with
  | Some (_, total, _) -> Alcotest.(check int) "flight wear zero when disabled" 0 total
  | None -> Alcotest.fail "flight region row missing when disabled");
  (* Sharded wear is per shard plus the header row. *)
  let env2 = mk_env ~pmem_bytes:(1024 * 1024) () in
  let tc2 = facade ~nshards:2 env2 in
  ignore (commit_async_blocks tc2 [ 0; 1 ] 'y');
  Tinca.group_flush tc2;
  let wear2 = Tinca.region_wear tc2 in
  Alcotest.(check bool) "sharded wear has header row" true
    (List.exists (fun (n, _, _) -> n = "header") wear2);
  Alcotest.(check bool) "sharded wear has per-shard rows" true
    (List.exists (fun (n, _, _) -> n = "s0.ring") wear2
    && List.exists (fun (n, _, _) -> n = "s1.ring") wear2)

(* A sealed transaction's surviving Txn_seal record names its first
   block and carries that block's payload CRC; with no flight ring the
   seal writes no record (and computes no CRC). *)
let test_seal_crc () =
  let env = mk_env () in
  let tc = facade env in
  ignore (commit_async_blocks tc [ 3; 7 ] 'q');
  Tinca.group_flush tc;
  Pmem.crash ~seed:1 env.pmem;
  let seals =
    match Tinca.recover ~pmem:env.pmem ~disk:env.disk ~clock:env.clock ~metrics:env.metrics with
    | Error e -> Alcotest.fail (Tinca.error_message e)
    | Ok t2 -> (
        match Tinca.last_crash_report t2 with
        | None -> Alcotest.fail "no dossier with the recorder on"
        | Some d ->
            List.filter_map
              (fun (_, _, e) ->
                if e.Flight.kind = Flight.Txn_seal then Some (e.Flight.c, e.Flight.d) else None)
              d.Forensics.records)
  in
  let data = Bytes.make 4096 'q' in
  let crc = Int32.to_int (Tinca_util.Codec.crc32 data ~pos:0 ~len:4096) land 0xFFFF_FFFF in
  Alcotest.(check (list (pair int int))) "seal record: first block and its CRC" [ (3, crc) ] seals;
  let env0 = mk_env () in
  let tc0 = facade ~flight_slots:0 env0 in
  ignore (commit_async_blocks tc0 [ 3; 7 ] 'q');
  Tinca.group_flush tc0;
  Alcotest.(check bool) "no flight records counted with the ring off" false
    (List.mem_assoc "tinca.flight.records" (Metrics.to_list env0.metrics))

let test_group_stats () =
  let env = mk_env () in
  let tc = facade ~max_batch:2 env in
  ignore (commit_async_blocks tc [ 0 ] 'a');
  ignore (commit_async_blocks tc [ 1 ] 'b');
  (* max_batch=2: the second seal drained the batch. *)
  ignore (commit_async_blocks tc [ 2 ] 'c');
  let tk = commit_async_blocks tc [ 2; 3 ] 'd' in
  (* same-block conflict on 2 forced a drain before the second seal *)
  Tinca.ok_exn (Tinca.await tk);
  Alcotest.(check bool) "batches counted" true (Tinca.group_batches tc >= 2);
  let drains = Tinca.group_drains_by_cause tc in
  let count cause = match List.assoc_opt cause drains with Some n -> n | None -> 0 in
  Alcotest.(check bool) "max_batch drain counted" true (count "max_batch" >= 1);
  Alcotest.(check bool) "conflict drain counted" true (count "conflict" >= 1);
  Alcotest.(check int) "drain causes sum to batches" (Tinca.group_batches tc)
    (List.fold_left (fun a (_, n) -> a + n) 0 drains);
  Alcotest.(check bool) "pending high-water tracked" true
    (Tinca.group_pending_high_water tc >= 2);
  let kv = Tinca.stats_kv tc in
  List.iter
    (fun key ->
      Alcotest.(check bool) (key ^ " in stats_kv") true (List.mem_assoc key kv))
    [ "group_batches"; "group_pending_high_water"; "group_drains_max_batch" ]

let suite =
  [
    ( "flight",
      [
        Alcotest.test_case "torn record detected by CRC" `Quick test_torn_record_detected;
        Alcotest.test_case "scan drops only the torn tail" `Quick test_scan_drops_only_torn_tail;
        Alcotest.test_case "flight replay is deterministic" `Quick test_replay_deterministic;
        Alcotest.test_case "fence budget unchanged with recorder on" `Quick
          test_fence_budget_recorder_on;
        Alcotest.test_case "crash sweep clean at N=1 (recorder on)" `Slow test_crash_sweep_n1;
        Alcotest.test_case "crash sweep clean at N=4 (recorder on)" `Slow test_crash_sweep_n4;
        Alcotest.test_case "Drop_durable_notify convicted by dossier" `Quick
          test_drop_notify_convicted;
        Alcotest.test_case "region-attributed wear" `Quick test_region_wear;
        Alcotest.test_case "group-committer runtime stats" `Quick test_group_stats;
        Alcotest.test_case "seal record CRC only with a ring" `Quick test_seal_crc;
      ] );
  ]
