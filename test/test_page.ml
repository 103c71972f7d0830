(* Commit-scheme ablation: the facade's two commit engines, the
   logging ring and the COW paging engine.

   - each scheme through the facade is media- and cost-identical to
     driving the shard layer directly (digest, fence count and simulated
     time pinned at every tested transaction size, both logging
     pipelines and paging, N=1 and N=4);
   - paging round-trips and survives recovery, with the scheme sniffed
     from the media magic;
   - scheme-aware stats: logging-only rows are absent (not zero) under
     paging and vice versa;
   - config: scheme spellings parse, validate rejects paging + group
     window and paging + write-through, of_args funnels CLI arguments;
   - paging's fence budget: 2 sfences per single-shard commit of any
     size, 4 per multi-shard commit;
   - lockstep refinement of the paging engine at N=1 and N=4; a
     budgeted crash-space sweep at both; a planted torn table-entry
     swing is detected by the sweep, not trusted;
   - the cross-shard seal rolls a half-bumped multi-shard paging commit
     forward, and every crash point is all-or-nothing;
   - psan (with the paging region classes) is clean over a paging
     workload including recovery;
   - the flight recorder records under paging. *)

module Pmem = Tinca_pmem.Pmem
module Disk = Tinca_blockdev.Disk
module Shard = Tinca_core.Shard
module Paging = Tinca_core.Paging
module Psan = Tinca_checker.Psan
module Check = Tinca_checker.Crash_check
module Lockstep = Tinca_checker.Lockstep
open Tinca_sim

type env = { pmem : Pmem.t; disk : Disk.t; clock : Clock.t; metrics : Metrics.t }

let mk_env ?(pmem_bytes = 512 * 1024) ?(nblocks = 64) () =
  let clock = Clock.create () in
  let metrics = Metrics.create () in
  let pmem = Pmem.create ~clock ~metrics ~tech:Latency.Pcm ~size:pmem_bytes () in
  let disk = Disk.create ~clock ~metrics ~kind:Latency.Ssd ~nblocks ~block_size:4096 in
  { pmem; disk; clock; metrics }

let payload v = Bytes.make 4096 v

let facade ?(nshards = 1) ?(scheme = Tinca.Config.Paging Tinca.Config.default_page_cfg)
    ?(flight_slots = 0) ?(pmem_bytes = 512 * 1024) env =
  Tinca.ok_exn
    (Tinca.format
       ~config:
         {
           Tinca.Config.default with
           Tinca.Config.nvm_bytes = pmem_bytes;
           ring_slots = 128;
           nshards;
           commit_scheme = scheme;
           flight_slots;
         }
       ~pmem:env.pmem ~disk:env.disk ~clock:env.clock ~metrics:env.metrics)

let commit_blocks tc blocks v =
  let h = Tinca.init_txn tc in
  List.iter (fun b -> Tinca.ok_exn (Tinca.write h b (payload v))) blocks;
  Tinca.ok_exn (Tinca.commit h)

(* --- the facade costs nothing over either engine ------------------------ *)

(* The same mixed-size commit stream (Exp_commit.measured_size, the
   stream every figure uses) through the shard layer directly and
   through the facade: media digest, sfence count and simulated end time
   must all agree — the facade costs nothing, at every transaction
   size, on both logging pipelines and on paging, sharded and not. *)
let test_media_cost_identity () =
  let universe = 48 in
  (* [begin_txn ()] opens a transaction and returns its add and commit. *)
  let run_stream env ~n begin_txn =
    let next = ref 0 in
    for c = 0 to 11 do
      let add, commit = begin_txn () in
      for _ = 1 to Tinca_harness.Exp_commit.measured_size ~n c do
        add (!next mod universe) (payload (Char.chr (0x20 + (c land 0x5f))));
        incr next
      done;
      commit ()
    done;
    (Pmem.media_digest env.pmem, Metrics.get env.metrics "pmem.sfence", Clock.now_ns env.clock)
  in
  let run_direct ~scheme ~nshards ~n =
    let env = mk_env () in
    let fc =
      match
        Tinca.Config.validate
          {
            Tinca.Config.default with
            Tinca.Config.nvm_bytes = 512 * 1024;
            ring_slots = 128;
            nshards;
            commit_scheme = scheme;
          }
      with
      | Ok c -> c
      | Error m -> Alcotest.fail m
    in
    let config =
      match scheme with
      | Tinca.Config.Logging pipeline -> Shard.Logging (Tinca.Config.to_cache_config fc pipeline)
      | Tinca.Config.Paging pcfg -> Shard.Paging (Tinca.Config.to_page_config fc pcfg)
    in
    let s =
      Shard.format ~nshards ~config ~pmem:env.pmem ~disk:env.disk ~clock:env.clock
        ~metrics:env.metrics
    in
    run_stream env ~n (fun () ->
        let h = Shard.Txn.init s in
        (Shard.Txn.add h, fun () -> Shard.Txn.commit h))
  in
  let run_facade ~scheme ~nshards ~n =
    let env = mk_env () in
    let tc = facade ~nshards ~scheme env in
    run_stream env ~n (fun () ->
        let h = Tinca.init_txn tc in
        ((fun b d -> Tinca.ok_exn (Tinca.write h b d)), fun () -> Tinca.ok_exn (Tinca.commit h)))
  in
  List.iter
    (fun (name, scheme) ->
      List.iter
        (fun nshards ->
          List.iter
            (fun n ->
              let label = Printf.sprintf "%s N=%d n=%d" name nshards n in
              let d1, sf1, ns1 = run_direct ~scheme ~nshards ~n in
              let d2, sf2, ns2 = run_facade ~scheme ~nshards ~n in
              Alcotest.(check bool) (label ^ ": identical media") true (Digest.equal d1 d2);
              Alcotest.(check int) (label ^ ": identical sfences") sf1 sf2;
              Alcotest.(check (float 0.0)) (label ^ ": identical sim time") ns1 ns2)
            [ 1; 2; 8 ])
        [ 1; 4 ])
    [
      ("per-block", Tinca.Config.Logging Tinca.Per_block);
      ("batched", Tinca.Config.Logging Tinca.Batched);
      ("paging", Tinca.Config.Paging Tinca.Config.default_page_cfg);
    ]

(* --- paging round-trip, recovery, scheme sniffing ------------------------ *)

let test_paging_roundtrip () =
  let env = mk_env () in
  let tc = facade env in
  Alcotest.(check string) "scheme name" "paging" (Tinca.scheme_name tc);
  commit_blocks tc [ 0; 1; 2 ] 'a';
  commit_blocks tc [ 1; 3 ] 'b';
  let expect blk v =
    Alcotest.(check char)
      (Printf.sprintf "block %d" blk)
      v
      (Bytes.get (Tinca.ok_exn (Tinca.read tc blk)) 0)
  in
  expect 0 'a';
  expect 1 'b';
  expect 2 'a';
  expect 3 'b';
  (* An aborted transaction leaves no trace. *)
  let h = Tinca.init_txn tc in
  Tinca.ok_exn (Tinca.write h 0 (payload 'z'));
  Tinca.ok_exn (Tinca.abort h);
  expect 0 'a';
  (* Recovery sniffs the scheme from the media magic and rebuilds the
     same logical state. *)
  let recovered =
    Tinca.ok_exn
      (Tinca.recover ~pmem:env.pmem ~disk:env.disk ~clock:env.clock ~metrics:env.metrics)
  in
  Alcotest.(check string) "recovered scheme" "paging" (Tinca.scheme_name recovered);
  Tinca.check_invariants recovered;
  List.iter
    (fun (blk, v) ->
      match Tinca.peek recovered blk with
      | Some data -> Alcotest.(check char) (Printf.sprintf "recovered block %d" blk) v (Bytes.get data 0)
      | None -> Alcotest.failf "block %d not cached after recovery" blk)
    [ (0, 'a'); (1, 'b'); (2, 'a'); (3, 'b') ]

(* --- scheme-aware stats: absence, not zero ------------------------------- *)

let test_stats_rows () =
  let env_l = mk_env () in
  let tc_l = facade ~scheme:(Tinca.Config.Logging Tinca.Batched) env_l in
  commit_blocks tc_l [ 0; 1 ] 'l';
  let kv_l = Tinca.stats_kv tc_l in
  List.iter
    (fun key -> Alcotest.(check bool) ("logging has " ^ key) true (List.mem_assoc key kv_l))
    [ "ring_high_water_max"; "group_batches" ];
  List.iter
    (fun key -> Alcotest.(check bool) ("logging lacks " ^ key) false (List.mem_assoc key kv_l))
    [ "table_swings"; "pool_frames"; "pool_occupancy_pct" ];
  let env_p = mk_env () in
  let tc_p = facade env_p in
  commit_blocks tc_p [ 0; 1 ] 'p';
  let kv_p = Tinca.stats_kv tc_p in
  List.iter
    (fun key -> Alcotest.(check bool) ("paging has " ^ key) true (List.mem_assoc key kv_p))
    [ "table_swings"; "pool_frames"; "pool_occupancy_pct"; "epoch_swings" ];
  List.iter
    (fun key -> Alcotest.(check bool) ("paging lacks " ^ key) false (List.mem_assoc key kv_p))
    [ "ring_high_water_max"; "role_switches"; "group_batches"; "group_pending" ];
  Alcotest.(check string) "paging scheme row" "paging" (List.assoc "scheme" kv_p);
  Alcotest.(check bool) "paging counted swings" true
    (int_of_string (List.assoc "table_swings" kv_p) >= 2);
  (* The logging-only escape hatches refuse on paging media, and the
     paging surface refuses on logging media — usage errors, not zeros. *)
  let raises f = match f () with exception Invalid_argument _ -> true | _ -> false in
  Alcotest.(check bool) "stats raises under paging" true (raises (fun () -> Tinca.stats tc_p));
  Alcotest.(check bool) "layouts raises under paging" true (raises (fun () -> Tinca.layouts tc_p));
  Alcotest.(check bool) "peak_cow raises under paging" true
    (raises (fun () -> Tinca.peak_cow_blocks tc_p));
  Alcotest.(check bool) "page_layouts raises under logging" true
    (raises (fun () -> Tinca.page_layouts tc_l));
  (* Scheme-independent surfaces work on both. *)
  ignore (Tinca.write_hit_rate tc_p);
  ignore (Tinca.region_wear tc_p);
  Alcotest.(check bool) "page_layouts nonempty" true (Tinca.page_layouts tc_p <> [])

(* --- config: spellings and rejections ------------------------------------ *)

let test_config_validation () =
  (match Tinca.Config.scheme_of_string "paging" with
  | Ok (Tinca.Config.Paging _) -> ()
  | _ -> Alcotest.fail "\"paging\" did not parse");
  (match Tinca.Config.scheme_of_string "per-block" with
  | Ok (Tinca.Config.Logging Tinca.Per_block) -> ()
  | _ -> Alcotest.fail "\"per-block\" did not parse");
  (match Tinca.Config.scheme_of_string "logging" with
  | Ok (Tinca.Config.Logging Tinca.Batched) -> ()
  | _ -> Alcotest.fail "\"logging\" did not parse");
  (match Tinca.Config.scheme_of_string "quantum" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "bogus scheme accepted");
  let paging = Tinca.Config.Paging Tinca.Config.default_page_cfg in
  (* Paging has no group committer and is write-back only. *)
  (match
     Tinca.Config.validate
       { Tinca.Config.default with Tinca.Config.commit_scheme = paging; group_window_ns = 1000 }
   with
  | Error m ->
      let mentions needle hay =
        let nl = String.length needle and hl = String.length hay in
        let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
        go 0
      in
      Alcotest.(check bool) "group rejection names the window" true (mentions "group_window_ns" m)
  | Ok _ -> Alcotest.fail "paging + group window validated");
  (match
     Tinca.Config.validate
       {
         Tinca.Config.default with
         Tinca.Config.commit_scheme = paging;
         write_policy = Tinca.Write_through;
       }
   with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "paging + write-through validated");
  (* The CLI funnel: parses, validates, rejects the same combinations. *)
  (match Tinca.Config.of_args ~scheme:"paging" ~shards:2 () with
  | Ok c -> (
      match c.Tinca.Config.commit_scheme with
      | Tinca.Config.Paging _ -> Alcotest.(check int) "of_args shards" 2 c.Tinca.Config.nshards
      | _ -> Alcotest.fail "of_args scheme lost")
  | Error m -> Alcotest.fail m);
  (match Tinca.Config.of_args ~scheme:"paging" ~group_window:1000 () with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "of_args accepted paging + group window");
  match Tinca.Config.of_args ~scheme:"quantum" () with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "of_args accepted a bogus scheme"

(* --- the paging fence budget --------------------------------------------- *)

(* 2 sfences per single-shard commit of ANY size (stage fence + epoch
   swing), against the logging pipeline's 5; 4 for a multi-shard commit
   (stage, seal, epoch bumps, seal clear).  Measured in steady state so
   overwrites (entry re-swings) are on the path. *)
let test_paging_fence_budget () =
  let env = mk_env () in
  let tc = facade env in
  let blocks n = List.init n (fun i -> i) in
  commit_blocks tc (blocks 24) 'w';
  List.iter
    (fun n ->
      let sf0 = Metrics.get env.metrics "pmem.sfence" in
      commit_blocks tc (blocks n) 'x';
      Alcotest.(check int)
        (Printf.sprintf "%d-block single-shard commit" n)
        2
        (Metrics.get env.metrics "pmem.sfence" - sf0))
    [ 1; 4; 16 ];
  (* N=2: one block per shard. *)
  let env2 = mk_env () in
  let tc2 = facade ~nshards:2 env2 in
  let a = 0 in
  let b =
    match List.find_opt (fun b -> Shard.stripe ~nshards:2 b <> Shard.stripe ~nshards:2 a) (blocks 32) with
    | Some b -> b
    | None -> Alcotest.fail "no second-shard block found"
  in
  commit_blocks tc2 [ a; b ] 'w';
  let sf0 = Metrics.get env2.metrics "pmem.sfence" in
  commit_blocks tc2 [ a; b ] 'y';
  Alcotest.(check int) "multi-shard commit" 4 (Metrics.get env2.metrics "pmem.sfence" - sf0)

(* --- lockstep refinement and the crash-space sweep ----------------------- *)

let paging_geom nshards =
  {
    Lockstep.default_geometry with
    Lockstep.nshards;
    scheme = Tinca.Config.Paging Tinca.Config.default_page_cfg;
  }

let test_lockstep_equiv_paging () =
  List.iter
    (fun nshards ->
      let g = paging_geom nshards in
      List.iter
        (fun seed ->
          let cmds = Lockstep.gen ~seed ~len:48 ~universe:g.Lockstep.universe in
          match Lockstep.run g cmds with
          | Ok _ -> ()
          | Error d ->
              Alcotest.failf "paging N=%d seed %d diverged: %s" nshards seed
                (Format.asprintf "%a" Lockstep.pp_divergence d))
        [ 3; 11 ])
    [ 1; 4 ]

let crash_sweep nshards stride =
  let report =
    Check.explore
      {
        Check.default_config with
        Check.nshards;
        scheme = Tinca.Config.Paging Tinca.Config.default_page_cfg;
        pmem_bytes = 512 * 1024;
        ncommits = 3;
        masks = Check.Capped 16;
        stride;
      }
  in
  (match report.Check.violations with
  | [] -> ()
  | v :: _ ->
      Alcotest.failf "paging crash sweep N=%d: %s" nshards
        (Format.asprintf "%a" Check.pp_violation v));
  Alcotest.(check bool) "sweep explored states" true (report.Check.states_checked > 0)

let test_paging_crash_sweep_n1 () = crash_sweep 1 4
let test_paging_crash_sweep_n4 () = crash_sweep 4 6

(* A torn 16 B indirection-table swing (first half durable alone) must
   be detected by the crash sweep: some crash-recovered state diverges
   from the spec when the fault is planted — recovery is not allowed to
   trust a half-swung entry. *)
let test_torn_swing_detected () =
  let g = paging_geom 1 in
  let caught =
    List.exists
      (fun seed ->
        let cmds = Lockstep.gen ~seed ~len:12 ~universe:g.Lockstep.universe in
        let r = Lockstep.crash_refine ~mutate:Lockstep.Torn_swing ~cap:16 ~stride:1 g cmds in
        r.Check.violations <> [])
      (List.init 20 (fun i -> i + 1))
  in
  Alcotest.(check bool) "planted Torn_swing caught by the sweep" true caught

(* --- cross-shard seal: roll-forward and all-or-nothing ------------------- *)

(* Crash a 2-shard paging commit at every pmem event with every line
   surviving: wherever the crash lands (between the epoch bumps, either
   side of the seal), recovery must leave BOTH blocks old or BOTH new —
   and at least one crash point must exercise the seal roll-forward. *)
let test_multi_shard_roll_forward () =
  let a = 0 in
  let b =
    match
      List.find_opt
        (fun b -> Shard.stripe ~nshards:2 b <> Shard.stripe ~nshards:2 a)
        (List.init 32 (fun i -> i + 1))
    with
    | Some b -> b
    | None -> Alcotest.fail "no second-shard block found"
  in
  let rolled = ref 0 in
  let k = ref 1 in
  let continue = ref true in
  while !continue do
    let env = mk_env ~pmem_bytes:(256 * 1024) () in
    let tc = facade ~nshards:2 ~pmem_bytes:(256 * 1024) env in
    commit_blocks tc [ a; b ] 'o';
    Pmem.set_crash_countdown env.pmem (Some !k);
    (match commit_blocks tc [ a; b ] 'n' with
    | () ->
        (* The commit completed before event k: the sweep is done. *)
        Pmem.set_crash_countdown env.pmem None;
        continue := false
    | exception Pmem.Crash_point ->
        Pmem.set_crash_countdown env.pmem None;
        Pmem.crash ~seed:1 ~survival:1.0 env.pmem;
        let recovered =
          Tinca.ok_exn
            (Tinca.recover ~pmem:env.pmem ~disk:env.disk ~clock:env.clock ~metrics:env.metrics)
        in
        Tinca.check_invariants recovered;
        let va = Bytes.get (Tinca.ok_exn (Tinca.read recovered a)) 0 in
        let vb = Bytes.get (Tinca.ok_exn (Tinca.read recovered b)) 0 in
        if va <> vb then
          Alcotest.failf "crash@%d: torn multi-shard commit (block %d = %c, block %d = %c)" !k a
            va b vb;
        if not (va = 'o' || va = 'n') then
          Alcotest.failf "crash@%d: blocks carry neither old nor new value (%c)" !k va;
        (match List.assoc_opt "seal_roll_forwards" (Tinca.stats_kv recovered) with
        | Some n -> rolled := !rolled + int_of_string n
        | None -> Alcotest.fail "seal_roll_forwards row missing under paging");
        incr k);
    if !k > 500 then Alcotest.fail "commit never completed under the countdown sweep"
  done;
  Alcotest.(check bool) "some crash point rolled the sealed commit forward" true (!rolled > 0)

(* --- psan over a paging workload ----------------------------------------- *)

let test_psan_paging_clean () =
  let env = mk_env ~pmem_bytes:(1024 * 1024) () in
  let tc = facade ~nshards:2 ~pmem_bytes:(1024 * 1024) env in
  let san = Psan.attach ~page_layouts:(Tinca.page_layouts tc) env.pmem in
  for c = 0 to 23 do
    Psan.txn_begin san;
    commit_blocks tc [ c mod 48; (c + 17) mod 48; (c + 34) mod 48 ] (Char.chr (0x30 + (c land 15)));
    Psan.txn_end san
  done;
  let recovered =
    Tinca.ok_exn
      (Tinca.recover ~pmem:env.pmem ~disk:env.disk ~clock:env.clock ~metrics:env.metrics)
  in
  Tinca.check_invariants recovered;
  Psan.detach san;
  (match Psan.violations san with
  | [] -> ()
  | v :: _ -> Alcotest.failf "psan: %s" (Format.asprintf "%a" Psan.pp_violation v));
  Alcotest.(check int) "no psan violations" 0 (Psan.violation_count san)

(* --- the flight recorder rides along ------------------------------------- *)

let test_flight_under_paging () =
  let env = mk_env () in
  let tc = facade ~flight_slots:64 env in
  commit_blocks tc [ 0; 1; 2 ] 'f';
  commit_blocks tc [ 1; 3 ] 'g';
  (match List.find_opt (fun (n, _, _) -> n = "flight") (Tinca.region_wear tc) with
  | Some (_, total, _) ->
      Alcotest.(check bool) "flight region written under paging" true (total > 0)
  | None -> Alcotest.fail "flight region row missing");
  (* The ring survives recovery and feeds the forensic scan. *)
  let recovered =
    Tinca.ok_exn
      (Tinca.recover ~pmem:env.pmem ~disk:env.disk ~clock:env.clock ~metrics:env.metrics)
  in
  Tinca.check_invariants recovered;
  match Tinca.last_crash_report recovered with
  | Some _ -> ()
  | None -> Alcotest.fail "no dossier despite surviving flight records"

let suite =
  [
    ( "page",
      [
        Alcotest.test_case "logging+paging media+cost identical to their engines" `Quick
          test_media_cost_identity;
        Alcotest.test_case "paging round-trip + recovery" `Quick test_paging_roundtrip;
        Alcotest.test_case "scheme-aware stats rows" `Quick test_stats_rows;
        Alcotest.test_case "config spellings, rejections" `Quick test_config_validation;
        Alcotest.test_case "paging fence budget (2 single-shard, 4 multi)" `Quick
          test_paging_fence_budget;
        Alcotest.test_case "lockstep refinement paging N=1/4" `Quick test_lockstep_equiv_paging;
        Alcotest.test_case "paging crash sweep clean at N=1" `Slow test_paging_crash_sweep_n1;
        Alcotest.test_case "paging crash sweep clean at N=4" `Slow test_paging_crash_sweep_n4;
        Alcotest.test_case "planted torn table swing detected" `Slow test_torn_swing_detected;
        Alcotest.test_case "cross-shard seal roll-forward, all-or-nothing" `Slow
          test_multi_shard_roll_forward;
        Alcotest.test_case "psan clean over paging workload" `Quick test_psan_paging_clean;
        Alcotest.test_case "flight recorder under paging" `Quick test_flight_under_paging;
      ] );
  ]
