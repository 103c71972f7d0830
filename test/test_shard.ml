(* Sharded Tinca (ISSUE 5): the striping function's contract (stable,
   total, balanced under Zipf-drawn keys), N=1 byte-equivalence with the
   plain unsharded cache, multi-shard commit round-trips, and the
   cross-shard all-or-nothing guarantee under a systematic crash sweep
   of a two-shard commit — including crashes between the per-shard Head
   advances and on either side of the seal — and one fixed script whose
   media digest, fence count and simulated time are pinned for both
   engines at N = 1, 2 and 4. *)

open Tinca_core
open Tinca_sim
module Pmem = Tinca_pmem.Pmem
module Disk = Tinca_blockdev.Disk

let pmem_bytes = 256 * 1024
let universe = 32

type env = { pmem : Pmem.t; disk : Disk.t; clock : Clock.t; metrics : Metrics.t }

let mk_env () =
  let clock = Clock.create () in
  let metrics = Metrics.create () in
  let pmem = Pmem.create ~clock ~metrics ~tech:Latency.Pcm ~size:pmem_bytes () in
  let disk = Disk.create ~clock ~metrics ~kind:Latency.Ssd ~nblocks:universe ~block_size:4096 in
  { pmem; disk; clock; metrics }

let config = { Cache.default_config with ring_slots = 64 }

let mk_shard ~nshards env =
  Shard.format ~nshards ~config:(Shard.Logging config) ~pmem:env.pmem ~disk:env.disk ~clock:env.clock
    ~metrics:env.metrics

let payload v = Bytes.make 4096 v

(* --- striping: stable, total, balanced ----------------------------------- *)

let test_striping_properties () =
  (* Total (every block maps into [0, nshards)) and stable (pure
     function of the block number). *)
  List.iter
    (fun nshards ->
      for blk = 0 to 4095 do
        let s = Shard.stripe ~nshards blk in
        if s < 0 || s >= nshards then
          Alcotest.failf "stripe ~nshards:%d %d = %d out of range" nshards blk s;
        if s <> Shard.stripe ~nshards blk then
          Alcotest.failf "stripe ~nshards:%d %d unstable" nshards blk
      done)
    [ 1; 2; 3; 4; 8; 16 ];
  (* Degenerate case: one shard takes everything. *)
  for blk = 0 to 255 do
    Alcotest.(check int) "N=1 identity" 0 (Shard.stripe ~nshards:1 blk)
  done;
  (* Balanced: over the distinct keys of a Zipf-skewed draw (the hot-key
     shape a skewed workload actually produces), every shard holds
     within 10% of its fair share. *)
  let rng = Tinca_util.Rng.create 42 in
  let z = Tinca_util.Zipf.create ~n:100_000 ~theta:0.99 in
  let keys = Hashtbl.create 4096 in
  for _ = 1 to 50_000 do
    Hashtbl.replace keys (Tinca_util.Zipf.sample z rng) ()
  done;
  List.iter
    (fun nshards ->
      let counts = Array.make nshards 0 in
      Hashtbl.iter (fun k () -> counts.(Shard.stripe ~nshards k) <- counts.(Shard.stripe ~nshards k) + 1) keys;
      let fair = float_of_int (Hashtbl.length keys) /. float_of_int nshards in
      Array.iteri
        (fun i c ->
          if Float.abs (float_of_int c -. fair) > 0.10 *. fair then
            Alcotest.failf "N=%d shard %d holds %d of %d distinct keys (fair %.0f +-10%%)"
              nshards i c (Hashtbl.length keys) fair)
        counts)
    [ 2; 4; 8 ]

(* --- N=1: byte-identical media and cost to the unsharded cache ---------- *)

let txns =
  [
    [ (0, 'a'); (5, 'b') ];
    [ (1, 'c') ];
    [ (2, 'd'); (9, 'e'); (17, 'f') ];
    [ (0, 'g'); (31, 'h'); (12, 'i'); (3, 'j') ];
  ]

let test_n1_equivalence () =
  let run_plain () =
    let env = mk_env () in
    let cache =
      Cache.format ~config ~pmem:env.pmem ~disk:env.disk ~clock:env.clock ~metrics:env.metrics
    in
    List.iter
      (fun txn ->
        let h = Cache.Txn.init cache in
        List.iter (fun (b, v) -> Cache.Txn.add h b (payload v)) txn;
        Cache.Txn.commit h)
      txns;
    ignore (Cache.read cache 5);
    env
  in
  let run_sharded () =
    let env = mk_env () in
    let s = mk_shard ~nshards:1 env in
    List.iter
      (fun txn ->
        let h = Shard.Txn.init s in
        List.iter (fun (b, v) -> Shard.Txn.add h b (payload v)) txn;
        Shard.Txn.commit h)
      txns;
    ignore (Shard.read s 5);
    env
  in
  let a = run_plain () and b = run_sharded () in
  Alcotest.(check bool) "identical media" true (Pmem.media_digest a.pmem = Pmem.media_digest b.pmem);
  Alcotest.(check int) "identical sfences" (Metrics.get a.metrics "pmem.sfence")
    (Metrics.get b.metrics "pmem.sfence");
  Alcotest.(check (float 0.0)) "identical simulated time" (Clock.now_ns a.clock)
    (Clock.now_ns b.clock)

(* --- multi-shard commits ------------------------------------------------- *)

let test_multi_shard_commit () =
  let env = mk_env () in
  let s = mk_shard ~nshards:4 env in
  let h = Shard.Txn.init s in
  let shards_touched = Hashtbl.create 4 in
  for b = 0 to 15 do
    Shard.Txn.add h b (payload (Char.chr (Char.code 'A' + b)));
    Hashtbl.replace shards_touched (Shard.stripe ~nshards:4 b) ()
  done;
  Alcotest.(check bool) "blocks 0..15 stripe to several shards" true
    (Hashtbl.length shards_touched > 1);
  Shard.Txn.commit h;
  Shard.check_invariants s;
  for b = 0 to 15 do
    Alcotest.(check char) (Printf.sprintf "block %d" b)
      (Char.chr (Char.code 'A' + b))
      (Bytes.get (Shard.read s b) 0)
  done;
  let st = Shard.stats s in
  Alcotest.(check int) "one multi-shard commit" 1 st.Shard.multi_commits;
  Alcotest.(check int) "one seal issued" 1 st.Shard.seals;
  Alcotest.(check int) "nshards" 4 st.Shard.nshards;
  (* The seal retired, so a clean re-attach finds the same state. *)
  let s2 =
    Shard.recover ~pmem:env.pmem ~disk:env.disk ~clock:env.clock ~metrics:env.metrics ()
  in
  Shard.check_invariants s2;
  Alcotest.(check int) "recovered shard count" 4 (Shard.nshards s2);
  for b = 0 to 15 do
    Alcotest.(check char) (Printf.sprintf "recovered block %d" b)
      (Char.chr (Char.code 'A' + b))
      (Bytes.get (Shard.read s2 b) 0)
  done

(* --- crash sweep of one two-shard commit --------------------------------- *)

(* Two blocks that stripe to different shards at N=2. *)
let xshard_pair () =
  let a = 0 in
  let sa = Shard.stripe ~nshards:2 a in
  let b = ref 1 in
  while Shard.stripe ~nshards:2 !b = sa do incr b done;
  (a, !b)

(* Baseline: both blocks committed as '1'.  Then a second transaction
   rewrites both as '2' with a crash countdown armed; every pmem event
   of that commit is a crash point, so the sweep necessarily covers the
   window between the two per-shard Head advances and both sides of the
   seal write.  After recovery the two blocks must agree — '1'/'1'
   (rolled back, no seal) or '2'/'2' (rolled forward from the seal) —
   and the seal must have retired (check_invariants). *)
let xtorture ~crash_at ~survival =
  let env = mk_env () in
  let s = mk_shard ~nshards:2 env in
  let a, b = xshard_pair () in
  let h = Shard.Txn.init s in
  Shard.Txn.add h a (payload '1');
  Shard.Txn.add h b (payload '1');
  Shard.Txn.commit h;
  Pmem.set_crash_countdown env.pmem (Some crash_at);
  let h = Shard.Txn.init s in
  match
    Shard.Txn.add h a (payload '2');
    Shard.Txn.add h b (payload '2');
    Shard.Txn.commit h
  with
  | () ->
      Pmem.set_crash_countdown env.pmem None;
      `Completed
  | exception Pmem.Crash_point ->
      Pmem.crash ~seed:((crash_at * 31) + int_of_float (survival *. 4.0)) ~survival env.pmem;
      let s2 =
        Shard.recover ~pmem:env.pmem ~disk:env.disk ~clock:env.clock ~metrics:env.metrics ()
      in
      Shard.check_invariants s2;
      let va = Bytes.get (Shard.read s2 a) 0 and vb = Bytes.get (Shard.read s2 b) 0 in
      if va <> vb then
        Alcotest.failf
          "crash at event %d (survival %.2f): partially committed multi-shard transaction \
           (block %d = %c, block %d = %c)"
          crash_at survival a va b vb;
      if va <> '1' && va <> '2' then
        Alcotest.failf "crash at event %d: recovered garbage %c" crash_at va;
      `Crashed (va = '2')

let xshard_span () =
  let env = mk_env () in
  let s = mk_shard ~nshards:2 env in
  let a, b = xshard_pair () in
  let h = Shard.Txn.init s in
  Shard.Txn.add h a (payload '1');
  Shard.Txn.add h b (payload '1');
  Shard.Txn.commit h;
  let before = Pmem.event_count env.pmem in
  let h = Shard.Txn.init s in
  Shard.Txn.add h a (payload '2');
  Shard.Txn.add h b (payload '2');
  Shard.Txn.commit h;
  Pmem.event_count env.pmem - before

let test_xshard_crash_sweep () =
  let span = xshard_span () in
  let rolled_forward = ref 0 and rolled_back = ref 0 in
  List.iter
    (fun survival ->
      for crash_at = 1 to span do
        match xtorture ~crash_at ~survival with
        | `Completed ->
            Alcotest.failf "countdown %d did not fire within span %d" crash_at span
        | `Crashed true -> incr rolled_forward
        | `Crashed false -> incr rolled_back
      done)
    [ 0.0; 0.5; 1.0 ];
  (* Both recovery directions must actually occur in the sweep: rollback
     (crash before the seal, incl. between the two Head advances) and
     roll-forward (seal durable, finalize unfinished). *)
  Alcotest.(check bool) "some crashes rolled back" true (!rolled_back > 0);
  Alcotest.(check bool) "some crashes rolled forward" true (!rolled_forward > 0)

(* --- pinned media, fences and time for both engines ----------------------- *)

(* One fixed script through the facade: single-block commits, two
   multi-block commits that stripe across shards, an eviction-driving
   pass (96 distinct one-block commits and a read sweep over a 256 KB
   device), then a crash inside a final multi-block commit, recovery, a
   read-back and one more commit.  At N >= 2 the crash lands on the first
   event after the cross-shard seal's fence, so recovery must roll the
   sealed commit forward; at N = 1 (no seal) it lands after the commit's
   first fence and rolls back. *)
let pin_nblocks = 128
let pin_final = [ 0; 1; 2; 3; 5; 8; 13; 21 ]

let pin_script ~scheme ~nshards ~crash_at =
  let clock = Clock.create () in
  let metrics = Metrics.create () in
  let pmem = Pmem.create ~clock ~metrics ~tech:Latency.Pcm ~size:pmem_bytes () in
  let disk =
    Disk.create ~clock ~metrics ~kind:Latency.Ssd ~nblocks:pin_nblocks ~block_size:4096
  in
  let config =
    {
      Tinca.Config.default with
      Tinca.Config.nvm_bytes = pmem_bytes;
      ring_slots = 64;
      nshards;
      commit_scheme = scheme;
    }
  in
  let tc = Tinca.ok_exn (Tinca.format ~config ~pmem ~disk ~clock ~metrics) in
  let commit tc blocks v =
    let h = Tinca.init_txn tc in
    List.iter (fun b -> Tinca.ok_exn (Tinca.write h b (payload v))) blocks;
    Tinca.ok_exn (Tinca.commit h)
  in
  for b = 0 to 5 do
    commit tc [ b ] 's'
  done;
  commit tc [ 0; 1; 2; 3; 4; 5; 6; 7 ] 'm';
  commit tc [ 3; 9; 14; 20 ] 'n';
  for b = 32 to 127 do
    commit tc [ b ] 'e'
  done;
  for k = 0 to 42 do
    ignore (Tinca.ok_exn (Tinca.read tc (k * 3)))
  done;
  if Metrics.get metrics "tinca.evictions" = 0 then Alcotest.failf "N=%d: nothing evicted" nshards;
  (* The final commit: located (observer) or crashed (countdown). *)
  let start = Pmem.event_count pmem in
  let sealed = ref false and fences = ref 0 and found = ref None in
  (match crash_at with
  | Some k -> Pmem.set_crash_countdown pmem (Some k)
  | None ->
      Pmem.set_observer pmem
        (Some
           (function
           | Pmem.Atomic_write { off = 64; _ } when nshards > 1 -> sealed := true
           | Pmem.Sfence ->
               incr fences;
               if !found = None && (!sealed || (nshards = 1 && !fences = 1)) then
                 found := Some (Pmem.event_count pmem - start + 1)
           | _ -> ())));
  match commit tc pin_final 'f' with
  | () ->
      Pmem.set_observer pmem None;
      Pmem.set_crash_countdown pmem None;
      `Located !found
  | exception Pmem.Crash_point ->
      Pmem.set_crash_countdown pmem None;
      Pmem.crash ~seed:7 ~survival:0.5 pmem;
      let tc = Tinca.ok_exn (Tinca.recover ~pmem ~disk ~clock ~metrics) in
      Tinca.check_invariants tc;
      let before b =
        if List.mem b [ 3; 9; 14; 20 ] then 'n' else if b <= 7 then 'm' else '\000'
      in
      let got = List.map (fun b -> Bytes.get (Tinca.ok_exn (Tinca.read tc b)) 0) pin_final in
      let forward = List.for_all (( = ) 'f') got in
      if not (forward || got = List.map before pin_final) then
        Alcotest.failf "N=%d: the final commit recovered partially" nshards;
      if nshards > 1 && not forward then
        Alcotest.failf "N=%d: the sealed commit was not rolled forward" nshards;
      commit tc [ 4; 30 ] 'p';
      `Crashed
        ( Digest.to_hex (Pmem.media_digest pmem),
          Metrics.get metrics "pmem.sfence",
          Clock.now_ns clock )

(* Recorded before the shard layer took over both engines, less the
   110 ns line recovery stopped reading twice (the media magic); the
   N=2 and N=4 rows re-recorded when the pressure pass began deferring
   a batch while the last one is queued instead of waiting for it.
   Every refactor of the shard layer must leave them untouched. *)
let pins =
  [
    ("logging", 1, "3dc0032eea6d44526fefc17a6fdd065e", 614, 0x1.409f6p+22);
    ("logging", 2, "e4a553b61bdf7f87ef01fab659d09dc6", 638, 0x1.3adcbp+22);
    ("logging", 4, "57444ffb6affad4c54e62dd2920a1c4c", 691, 0x1.a71bb4p+22);
    ("paging", 1, "52987cb06d58ba84cd5c0d5feba97e63", 220, 0x1.2bd4ccp+22);
    ("paging", 2, "572cf9313972c41abc5793b1c7a99038", 235, 0x1.2fd478p+22);
    ("paging", 4, "025e547cdf1f2e2b79fb22f34cd1d63e", 258, 0x1.8a173p+22);
  ]

let test_pinned_script () =
  let results =
    List.map
      (fun (name, nshards, _, _, _) ->
      let scheme =
        match Tinca.Config.scheme_of_string name with Ok s -> s | Error m -> Alcotest.fail m
      in
      let crash_at =
        match pin_script ~scheme ~nshards ~crash_at:None with
        | `Located (Some k) -> k
        | `Located None -> Alcotest.failf "%s N=%d: no crash point found" name nshards
        | `Crashed _ -> assert false
      in
      match pin_script ~scheme ~nshards ~crash_at:(Some crash_at) with
      | `Located _ -> Alcotest.failf "%s N=%d: the countdown did not fire" name nshards
      | `Crashed r -> r)
      pins
  in
  (* A mismatch prints the whole table as measured, in source form. *)
  if List.exists2 (fun (_, _, d, sf, t) r -> (d, sf, t) <> r) pins results then
    List.iter2
      (fun (name, nshards, _, _, _) (d, sf, t) ->
        Printf.printf "    (%S, %d, %S, %d, %h);\n" name nshards d sf t)
      pins results;
  List.iter2
    (fun (name, nshards, digest, sfences, ns) (d, sf, t) ->
      let label = Printf.sprintf "%s N=%d" name nshards in
      Alcotest.(check string) (label ^ ": media digest") digest d;
      Alcotest.(check int) (label ^ ": sfences") sfences sf;
      Alcotest.(check (float 0.0)) (label ^ ": simulated ns") ns t)
    pins results

let suite =
  [
    ( "shard",
      [
        Alcotest.test_case "striping: stable, total, balanced" `Quick test_striping_properties;
        Alcotest.test_case "N=1 media and cost equal the plain cache" `Quick test_n1_equivalence;
        Alcotest.test_case "multi-shard commit round-trip" `Quick test_multi_shard_commit;
        Alcotest.test_case "cross-shard all-or-nothing crash sweep" `Slow test_xshard_crash_sweep;
        Alcotest.test_case "both engines pinned at N=1, 2 and 4" `Quick test_pinned_script;
      ] );
  ]
