(* The Tinca facade (ISSUE 5 API redesign): every [Tinca.error]
   constructor is reachable through the public result-returning API and
   maps 1:1 to the retained Cache-level exceptions via [Tinca.to_exn];
   [Tinca.Config.validate] rejects each malformed field; and the basic
   init_txn/write/commit/read round-trip survives recovery. *)

open Tinca_sim
module Pmem = Tinca_pmem.Pmem
module Disk = Tinca_blockdev.Disk
module Cache = Tinca_core.Cache

type env = { pmem : Pmem.t; disk : Disk.t; clock : Clock.t; metrics : Metrics.t }

let nvm_bytes = 256 * 1024

let mk_env () =
  let clock = Clock.create () in
  let metrics = Metrics.create () in
  let pmem = Pmem.create ~clock ~metrics ~tech:Latency.Pcm ~size:nvm_bytes () in
  let disk = Disk.create ~clock ~metrics ~kind:Latency.Ssd ~nblocks:64 ~block_size:4096 in
  { pmem; disk; clock; metrics }

let config ?(ring_slots = 64) ?(nshards = 1) () =
  { Tinca.Config.default with Tinca.Config.nvm_bytes; ring_slots; nshards }

let mk_tinca ?ring_slots ?nshards env =
  Tinca.ok_exn
    (Tinca.format ~config:(config ?ring_slots ?nshards ()) ~pmem:env.pmem ~disk:env.disk
       ~clock:env.clock ~metrics:env.metrics)

let payload v = Bytes.make 4096 v

let check_err name expected = function
  | Error e when e = expected -> ()
  | Error e -> Alcotest.failf "%s: wrong error %s" name (Tinca.error_message e)
  | Ok _ -> Alcotest.failf "%s: unexpectedly succeeded" name

(* --- every error constructor, through the public API -------------------- *)

let test_errors_reachable () =
  let env = mk_env () in
  let tc = mk_tinca env in
  (* Wrong_block_size *)
  let txn = Tinca.init_txn tc in
  check_err "write short block"
    (Tinca.Wrong_block_size { expected = 4096; got = 100 })
    (Tinca.write txn 0 (Bytes.make 100 'x'));
  (* Block_out_of_range: the disk has 64 blocks *)
  check_err "write past device" (Tinca.Block_out_of_range 64) (Tinca.write txn 64 (payload 'x'));
  check_err "read negative block" (Tinca.Block_out_of_range (-1)) (Tinca.read tc (-1));
  check_err "write_direct past device" (Tinca.Block_out_of_range 99)
    (Tinca.write_direct tc 99 (payload 'x'));
  (* Txn_not_running: every post-finish operation *)
  (match Tinca.write txn 0 (payload 'a') with Ok () -> () | Error _ -> Alcotest.fail "write");
  (match Tinca.commit txn with Ok () -> () | Error _ -> Alcotest.fail "commit");
  check_err "commit twice" Tinca.Txn_not_running (Tinca.commit txn);
  check_err "write after commit" Tinca.Txn_not_running (Tinca.write txn 1 (payload 'b'));
  check_err "abort after commit" Tinca.Txn_not_running (Tinca.abort txn);
  (* Transaction_too_large: a 40-block transaction into an 8-slot ring *)
  let env2 = mk_env () in
  let small = mk_tinca ~ring_slots:8 env2 in
  let big = Tinca.init_txn small in
  for b = 0 to 39 do
    match Tinca.write big b (payload 'z') with
    | Ok () -> ()
    | Error e -> Alcotest.failf "staging block %d: %s" b (Tinca.error_message e)
  done;
  check_err "oversized commit" Tinca.Transaction_too_large (Tinca.commit big);
  (* Unformatted: recovery on virgin media *)
  let env3 = mk_env () in
  (match
     Tinca.recover ~pmem:env3.pmem ~disk:env3.disk ~clock:env3.clock ~metrics:env3.metrics
   with
  | Error (Tinca.Unformatted _) -> ()
  | Error e -> Alcotest.failf "recover: wrong error %s" (Tinca.error_message e)
  | Ok _ -> Alcotest.fail "recover on virgin media succeeded");
  (* Invalid_config: rejected geometry surfaces through format *)
  match
    Tinca.format
      ~config:{ (config ()) with Tinca.Config.block_size = 100 }
      ~pmem:env3.pmem ~disk:env3.disk ~clock:env3.clock ~metrics:env3.metrics
  with
  | Error (Tinca.Invalid_config _) -> ()
  | Error e -> Alcotest.failf "format: wrong error %s" (Tinca.error_message e)
  | Ok _ -> Alcotest.fail "format accepted block_size 100"

(* --- the 1:1 error -> exception bridge ----------------------------------- *)

let test_to_exn_mapping () =
  (match Tinca.to_exn Tinca.Transaction_too_large with
  | Cache.Transaction_too_large -> ()
  | e -> Alcotest.failf "Transaction_too_large -> %s" (Printexc.to_string e));
  (match Tinca.to_exn (Tinca.Unformatted "no media") with
  | Tinca.Io_error (Tinca.Unformatted m) when m = "no media" -> ()
  | e -> Alcotest.failf "Unformatted -> %s" (Printexc.to_string e));
  List.iter
    (fun (name, err) ->
      match Tinca.to_exn err with
      | Invalid_argument _ -> ()
      | e -> Alcotest.failf "%s -> %s (wanted Invalid_argument)" name (Printexc.to_string e))
    [
      ("Txn_not_running", Tinca.Txn_not_running);
      ("Wrong_block_size", Tinca.Wrong_block_size { expected = 4096; got = 64 });
      ("Block_out_of_range", Tinca.Block_out_of_range 7);
      ("Invalid_config", Tinca.Invalid_config "bad");
    ];
  (* ok_exn is the same bridge, applied to results. *)
  Alcotest.(check int) "ok_exn Ok" 3 (Tinca.ok_exn (Ok 3));
  match Tinca.ok_exn (Error Tinca.Transaction_too_large) with
  | exception Cache.Transaction_too_large -> ()
  | _ -> Alcotest.fail "ok_exn Error did not raise"

let test_of_exn_round_trip () =
  (* The I/O-shaped errors survive a round trip through the bridge with
     their payloads intact — they no longer flatten into Failure. *)
  let io_shaped =
    [ Tinca.Transaction_too_large; Tinca.Unformatted "superblock magic 0xdead" ]
  in
  List.iter
    (fun e ->
      match Tinca.of_exn (Tinca.to_exn e) with
      | Some e' when e = e' -> ()
      | Some e' ->
          Alcotest.failf "round trip changed %s into %s" (Tinca.error_message e)
            (Tinca.error_message e')
      | None -> Alcotest.failf "round trip lost %s" (Tinca.error_message e))
    io_shaped;
  (* The raw allocator signal maps home to the same geometry class. *)
  (match Tinca.of_exn Cache.Cache_exhausted with
  | Some Tinca.Transaction_too_large -> ()
  | _ -> Alcotest.fail "Cache_exhausted did not map to Transaction_too_large");
  (* Foreign exceptions are not claimed. *)
  (match Tinca.of_exn Not_found with
  | None -> ()
  | Some e -> Alcotest.failf "of_exn claimed Not_found as %s" (Tinca.error_message e));
  (* The registered printer keeps the payload readable in logs. *)
  let s = Printexc.to_string (Tinca.to_exn (Tinca.Unformatted "bad magic")) in
  Alcotest.(check bool)
    (Printf.sprintf "printer shows payload (%s)" s)
    true
    (String.length s >= 9 && String.sub s 0 5 = "Tinca")

(* --- Config.validate rejection table ------------------------------------- *)

let test_config_validate () =
  let base = config () in
  let rejects =
    [
      ("block_size 0", { base with Tinca.Config.block_size = 0 });
      ("block_size not a multiple of 64", { base with Tinca.Config.block_size = 100 });
      ("negative block_size", { base with Tinca.Config.block_size = -4096 });
      ("ring_slots 0", { base with Tinca.Config.ring_slots = 0 });
      ("nshards 0", { base with Tinca.Config.nshards = 0 });
      ( "nshards above max",
        { base with Tinca.Config.nshards = Tinca_core.Shard.max_shards + 1 } );
      ("nvm_bytes 0", { base with Tinca.Config.nvm_bytes = 0 });
      ("nvm_bytes below one layout", { base with Tinca.Config.nvm_bytes = 4096 });
      ( "span cannot host the ring",
        { base with Tinca.Config.nvm_bytes = 64 * 1024; ring_slots = 131072; nshards = 8 } );
    ]
  in
  List.iter
    (fun (what, c) ->
      match Tinca.Config.validate c with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "validate accepted %s" what)
    rejects;
  List.iter
    (fun (what, c) ->
      match Tinca.Config.validate c with
      | Ok c' -> Alcotest.(check bool) (what ^ " unchanged") true (c' = c)
      | Error m -> Alcotest.failf "validate rejected %s: %s" what m)
    [
      ("defaults", Tinca.Config.default);
      ("small sharded geometry", config ~nshards:8 ());
      ("write-through variant", { base with Tinca.Config.write_policy = Tinca.Write_through });
    ]

(* --- round-trip and recovery through the facade -------------------------- *)

let test_round_trip () =
  let env = mk_env () in
  let tc = mk_tinca env in
  Alcotest.(check int) "nshards" 1 (Tinca.nshards tc);
  Alcotest.(check int) "block_size" 4096 (Tinca.block_size tc);
  let txn = Tinca.init_txn tc in
  for b = 0 to 3 do
    Tinca.ok_exn (Tinca.write txn b (payload (Char.chr (Char.code 'a' + b))))
  done;
  Tinca.ok_exn (Tinca.commit txn);
  (* An aborted transaction leaves no trace. *)
  let dropped = Tinca.init_txn tc in
  Tinca.ok_exn (Tinca.write dropped 0 (payload '!'));
  Tinca.ok_exn (Tinca.abort dropped);
  Tinca.ok_exn (Tinca.write_direct tc 9 (payload 'd'));
  let expect b v = Alcotest.(check char) (Printf.sprintf "block %d" b) v
      (Bytes.get (Tinca.ok_exn (Tinca.read tc b)) 0)
  in
  expect 0 'a'; expect 1 'b'; expect 2 'c'; expect 3 'd'; expect 9 'd';
  Tinca.check_invariants tc;
  (* Commits are already durable: re-attach and read the same state. *)
  let tc2 =
    Tinca.ok_exn
      (Tinca.recover ~pmem:env.pmem ~disk:env.disk ~clock:env.clock ~metrics:env.metrics)
  in
  let expect2 b v = Alcotest.(check char) (Printf.sprintf "recovered block %d" b) v
      (Bytes.get (Tinca.ok_exn (Tinca.read tc2 b)) 0)
  in
  expect2 0 'a'; expect2 3 'd'; expect2 9 'd';
  Tinca.check_invariants tc2

(* --- a read miss with every cached block pinned ----------------------------- *)

(* 160 KiB of NVM caches 39 blocks under either engine.  Fill the cache
   with committed blocks (a read fill holds no entry, so a write over it
   is a miss that reuses its frame and pins nothing more), then
   one-block write hits over the cached blocks until
   the engine refuses one.  Under logging the accepted ones stay sealed
   in a pending group batch, so every cached block is pinned and a read
   miss finds no victim: it must be served from disk, uncached, and
   leave the batch intact.  Paging has no group committer (validate
   rejects a window), so no pin outlives a commit and the same miss
   evicts an unpinned victim. *)
let test_pinned_read_miss scheme () =
  let env = mk_env () in
  let on_disk = payload 'D' in
  Disk.write_block env.disk 49 on_disk;
  let logging = match scheme with Tinca.Config.Logging _ -> true | Paging _ -> false in
  let config =
    {
      Tinca.Config.default with
      Tinca.Config.nvm_bytes = 160 * 1024;
      ring_slots = 64;
      commit_scheme = scheme;
      group_window_ns = (if logging then 1_000_000_000 else 0);
      group_max_batch = 1000;
    }
  in
  let tc =
    Tinca.ok_exn
      (Tinca.format ~config ~pmem:env.pmem ~disk:env.disk ~clock:env.clock ~metrics:env.metrics)
  in
  for b = 0 to 38 do
    let txn = Tinca.init_txn tc in
    Tinca.ok_exn (Tinca.write txn b (payload 'c'));
    Tinca.ok_exn (Tinca.commit txn)
  done;
  let rec seal b acc =
    if b > 38 then List.rev acc
    else begin
      let txn = Tinca.init_txn tc in
      Tinca.ok_exn (Tinca.write txn b (payload 'w'));
      match Tinca.commit_async txn with
      | Ok tk -> seal (b + 1) (tk :: acc)
      | Error Tinca.Transaction_too_large -> List.rev acc
      | Error e -> Alcotest.failf "commit_async %d: %s" b (Tinca.error_message e)
    end
  in
  let tickets = seal 0 [] in
  let sealed = List.length tickets in
  Alcotest.(check int) "write hits accepted" (if logging then 38 else 39) sealed;
  (match Tinca.read tc 49 with
  | Ok data -> Alcotest.(check bool) "read returns the disk bytes" true (Bytes.equal data on_disk)
  | Error e -> Alcotest.failf "read 49: %s" (Tinca.error_message e));
  Alcotest.(check bool) "block cached only if a victim existed" (not logging) (Tinca.contains tc 49);
  Tinca.check_invariants tc;
  Alcotest.(check int) "batch still pending" (if logging then sealed else 0) (Tinca.group_pending tc);
  Tinca.group_flush tc;
  List.iter (fun tk -> Alcotest.(check bool) "ticket durable" true (Tinca.ticket_durable tk)) tickets;
  for b = 0 to sealed - 1 do
    Alcotest.(check char) (Printf.sprintf "block %d committed" b) 'w'
      (Bytes.get (Tinca.ok_exn (Tinca.read tc b)) 0)
  done;
  Tinca.check_invariants tc

(* Allocation is deterministic, so it pins what a commit copies.  After
   warm-up, a 32-block commit allocates in the major heap each block's
   4 KB caller buffer and staged copy (513 words each) and little else:
   no pre-image chunk of Pmem's line layer (9 216 words each), which an
   epoch of more than 1 024 lines used to reallocate. *)
let test_commit_major_words () =
  let blocks = 32 in
  let r = Tinca_harness.Host_meter.commit_words ~blocks in
  let bound = (2 * blocks * ((4096 / 8) + 1)) + 1024 in
  if r.Tinca_harness.Host_meter.major_words > float_of_int bound then
    Alcotest.failf "%.0f major words per %d-block commit, bound %d" r.major_words blocks bound

let suite =
  [
    ( "facade",
      [
        Alcotest.test_case "every error constructor reachable" `Quick test_errors_reachable;
        Alcotest.test_case "to_exn maps 1:1 to the old exceptions" `Quick test_to_exn_mapping;
        Alcotest.test_case "of_exn round-trips I/O-shaped errors" `Quick test_of_exn_round_trip;
        Alcotest.test_case "Config.validate rejection table" `Quick test_config_validate;
        Alcotest.test_case "round-trip incl. recovery" `Quick test_round_trip;
        Alcotest.test_case "pinned read miss served uncached (logging)" `Quick
          (test_pinned_read_miss (Tinca.Config.Logging Tinca.Batched));
        Alcotest.test_case "read miss under write pressure (paging)" `Quick
          (test_pinned_read_miss (Tinca.Config.Paging Tinca.Config.default_page_cfg));
        Alcotest.test_case "32-block commits allocate no pre-image chunk" `Quick
          test_commit_major_words;
      ] );
  ]
