(* Tests for the Flashcache-style baseline cache: mapping, write-back,
   synchronous block-format metadata, recovery and the ablation knobs. *)
open Tinca_sim
module Fc = Tinca_flashcache.Flashcache
module Pmem = Tinca_pmem.Pmem
module Disk = Tinca_blockdev.Disk

type env = { fc : Fc.t; pmem : Pmem.t; disk : Disk.t; clock : Clock.t; metrics : Metrics.t }

let mk ?(cfg = { Fc.default_config with associativity = 8 }) ?(pmem_bytes = 256 * 1024)
    ?(disk_blocks = 1024) () =
  let clock = Clock.create () in
  let metrics = Metrics.create () in
  let pmem = Pmem.create ~clock ~metrics ~tech:Latency.Pcm ~size:pmem_bytes () in
  let disk = Disk.create ~clock ~metrics ~kind:Latency.Ssd ~nblocks:disk_blocks ~block_size:4096 in
  let fc = Fc.create ~config:cfg ~pmem ~disk ~clock ~metrics in
  { fc; pmem; disk; clock; metrics }

let block c = Bytes.make 4096 c

let test_write_read () =
  let e = mk () in
  Fc.write e.fc 10 (block 'a');
  Alcotest.(check char) "hit" 'a' (Bytes.get (Fc.read e.fc 10) 0);
  Alcotest.(check int) "no disk io yet" 0 (Disk.writes e.disk)

let test_read_miss_fill () =
  let e = mk () in
  Disk.write_block e.disk 5 (block 'd');
  Alcotest.(check char) "filled" 'd' (Bytes.get (Fc.read e.fc 5) 0);
  Alcotest.(check bool) "cached" true (Fc.contains e.fc 5);
  ignore (Fc.read e.fc 5);
  Alcotest.(check int) "second read hits" 1 (Metrics.get e.metrics "flashcache.read_hits")

let test_metadata_write_amplification () =
  (* The motivation: every cached write costs a data block write (64
     flushes) PLUS a metadata block write (64 flushes). *)
  let e = mk () in
  let snap = Metrics.snapshot e.metrics in
  Fc.write e.fc 1 (block 'x');
  Alcotest.(check int) "128 flushes per cached write" 128
    (Metrics.since e.metrics snap "pmem.clflush");
  Alcotest.(check int) "md write counted" 1 (Metrics.since e.metrics snap "flashcache.md_writes")

let test_metadata_sync_off () =
  let cfg = { Fc.default_config with associativity = 8; metadata_sync = false } in
  let e = mk ~cfg () in
  let snap = Metrics.snapshot e.metrics in
  Fc.write e.fc 1 (block 'x');
  Alcotest.(check int) "only data flushes" 64 (Metrics.since e.metrics snap "pmem.clflush");
  Alcotest.(check int) "no md writes" 0 (Metrics.since e.metrics snap "flashcache.md_writes")

let test_flush_writes_off () =
  let cfg = { Fc.default_config with associativity = 8; flush_writes = false } in
  let e = mk ~cfg () in
  let snap = Metrics.snapshot e.metrics in
  Fc.write e.fc 1 (block 'x');
  Alcotest.(check int) "no flushes at all" 0 (Metrics.since e.metrics snap "pmem.clflush")

let test_eviction_and_writeback () =
  let e = mk () in
  let n = Fc.nslots e.fc in
  for i = 0 to (2 * n) - 1 do
    Fc.write e.fc i (block (Char.chr (Char.code 'A' + (i mod 26))))
  done;
  Alcotest.(check bool) "evictions" true (Metrics.get e.metrics "flashcache.evictions" > 0);
  Alcotest.(check bool) "writebacks" true (Metrics.get e.metrics "flashcache.writebacks" > 0);
  (* All data must be readable with correct content afterwards. *)
  for i = 0 to (2 * n) - 1 do
    let expect = Char.chr (Char.code 'A' + (i mod 26)) in
    Alcotest.(check char) (Printf.sprintf "block %d" i) expect (Bytes.get (Fc.read e.fc i) 0)
  done

let test_flush_all () =
  let e = mk () in
  Fc.write e.fc 3 (block 'p');
  Fc.flush_all e.fc;
  Alcotest.(check char) "on disk" 'p' (Bytes.get (Disk.read_block e.disk 3) 0);
  let w = Disk.writes e.disk in
  Fc.flush_all e.fc;
  Alcotest.(check int) "idempotent" w (Disk.writes e.disk)

let test_recovery_preserves_dirty () =
  let e = mk () in
  Fc.write e.fc 9 (block 'r');
  Pmem.crash ~seed:4 ~survival:0.0 e.pmem;
  let fc2 =
    Fc.recover
      ~config:{ Fc.default_config with associativity = 8 }
      ~pmem:e.pmem ~disk:e.disk ~clock:e.clock ~metrics:e.metrics
  in
  Alcotest.(check bool) "still cached" true (Fc.contains fc2 9);
  Alcotest.(check char) "content" 'r' (Bytes.get (Fc.read fc2 9) 0);
  Fc.flush_all fc2;
  Alcotest.(check char) "dirty bit survived" 'r' (Bytes.get (Disk.read_block e.disk 9) 0)

let test_hit_rate () =
  let e = mk () in
  Fc.write e.fc 1 (block 'a');
  Fc.write e.fc 1 (block 'b');
  Fc.write e.fc 2 (block 'c');
  Alcotest.(check (float 1e-9)) "write hit rate" (1.0 /. 3.0) (Fc.write_hit_rate e.fc)

let prop_last_write_wins =
  QCheck.Test.make ~name:"flashcache: last write wins through evictions" ~count:30
    QCheck.(list_of_size Gen.(int_range 1 100) (pair (int_bound 200) (int_bound 255)))
    (fun writes ->
      let e = mk () in
      List.iter (fun (blk, v) -> Fc.write e.fc blk (block (Char.chr v))) writes;
      let expect = Hashtbl.create 16 in
      List.iter (fun (blk, v) -> Hashtbl.replace expect blk v) writes;
      Hashtbl.fold
        (fun blk v acc -> acc && Bytes.get (Fc.read e.fc blk) 0 = Char.chr v)
        expect true)

let suite =
  let q = QCheck_alcotest.to_alcotest in
  [
    ( "flashcache",
      [
        Alcotest.test_case "write then read" `Quick test_write_read;
        Alcotest.test_case "read miss fill" `Quick test_read_miss_fill;
        Alcotest.test_case "metadata write amplification" `Quick test_metadata_write_amplification;
        Alcotest.test_case "metadata_sync off" `Quick test_metadata_sync_off;
        Alcotest.test_case "flush_writes off" `Quick test_flush_writes_off;
        Alcotest.test_case "eviction + writeback" `Quick test_eviction_and_writeback;
        Alcotest.test_case "flush_all" `Quick test_flush_all;
        Alcotest.test_case "recovery preserves dirty" `Quick test_recovery_preserves_dirty;
        Alcotest.test_case "hit rate" `Quick test_hit_rate;
        q prop_last_write_wins;
      ] );
  ]

(* --- dirty-threshold cleaner --- *)

let test_cleaner_fires_at_threshold () =
  let cfg = { Fc.default_config with associativity = 8; dirty_threshold = 0.25 } in
  let e = mk ~cfg () in
  (* Dirty far more blocks than 25 % of any set can hold. *)
  for i = 0 to 63 do
    Fc.write e.fc i (block 'd')
  done;
  Alcotest.(check bool) "cleaned" true (Metrics.get e.metrics "flashcache.cleaned" > 0);
  (* Cleaned blocks stay cached with correct content. *)
  for i = 0 to 63 do
    Alcotest.(check char) (Printf.sprintf "blk %d" i) 'd' (Bytes.get (Fc.read e.fc i) 0)
  done

let test_cleaner_disabled_at_one () =
  let cfg = { Fc.default_config with associativity = 8; dirty_threshold = 1.0 } in
  let e = mk ~cfg () in
  for i = 0 to 63 do
    Fc.write e.fc i (block 'd')
  done;
  Alcotest.(check int) "no cleaning" 0 (Metrics.get e.metrics "flashcache.cleaned")

(* A round never makes the writer wait for the disk.  While the last
   round's writes are still queued the set's round defers
   (cache.bg_deferred), and a later write to it after the device drains
   takes the round.  So the backlog a background write leaves never
   exceeds one round (at most a set, [associativity] blocks), although
   the writer dirties blocks faster than the SSD writes them back.  And
   a write that made no foreground disk access took only its NVM work's
   time: no longer, by as much as the cheapest device access (a
   sequential block transfer), than the fastest write that cleaned as
   many blocks and persisted as many metadata blocks. *)
let test_cleaner_rounds_never_stall () =
  let cfg = { Fc.default_config with associativity = 8; dirty_threshold = 0.25 } in
  let e = mk ~cfg () in
  let lat = Latency.disk_of_kind Latency.Ssd in
  let later_rounds = ref 0 and took_by_work = Hashtbl.create 16 in
  for i = 0 to 399 do
    let snap = Metrics.snapshot e.metrics and t0 = Clock.now_ns e.clock in
    let deferred_before = Metrics.get e.metrics "cache.bg_deferred" > 0 in
    Fc.write e.fc (i * 37 mod 1024) (block 'd');
    let since = Metrics.since e.metrics snap in
    let background = since "disk.bg_writes" in
    if since "disk.reads" + since "disk.writes" = background then begin
      let work = (background, since "flashcache.md_writes") in
      let took = Clock.now_ns e.clock -. t0 in
      Hashtbl.replace took_by_work work
        (match Hashtbl.find_opt took_by_work work with
        | Some (lo, hi) -> (Float.min lo took, Float.max hi took)
        | None -> (took, took))
    end;
    if deferred_before && background > 0 then incr later_rounds
  done;
  Hashtbl.iter
    (fun (background, md) (lo, hi) ->
      if hi -. lo >= lat.Latency.seq_block_ns then
        Alcotest.failf "writes cleaning %d blocks (%d metadata blocks) took %.0f to %.0f ns"
          background md lo hi)
    took_by_work;
  Alcotest.(check bool) "a round deferred" true (Metrics.get e.metrics "cache.bg_deferred" > 0);
  Alcotest.(check bool) "rounds ran after a deferral" true (!later_rounds > 0);
  let round_ns = 8.0 *. lat.Latency.write_block_ns in
  match Metrics.hist e.metrics "disk.bg_backlog_ns" with
  | None -> Alcotest.fail "no background writes"
  | Some h ->
      if Hist.max_value h > round_ns then
        Alcotest.failf "backlog %.0f ns exceeds one round (%.0f ns)" (Hist.max_value h) round_ns

let cleaner_suite =
  [
    ( "flashcache.cleaner",
      [
        Alcotest.test_case "fires at threshold" `Quick test_cleaner_fires_at_threshold;
        Alcotest.test_case "disabled at 1.0" `Quick test_cleaner_disabled_at_one;
        Alcotest.test_case "cleaning rounds never stall the writer" `Quick test_cleaner_rounds_never_stall;
      ] );
  ]
