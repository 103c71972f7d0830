(* Tests for the SSD/HDD disk models and the NVM block device. *)
open Tinca_sim
module Disk = Tinca_blockdev.Disk
module Nvm_bdev = Tinca_blockdev.Nvm_bdev
module Pmem = Tinca_pmem.Pmem

let mk_disk ?(kind = Latency.Ssd) ?(nblocks = 1024) () =
  let clock = Clock.create () in
  let metrics = Metrics.create () in
  (Disk.create ~clock ~metrics ~kind ~nblocks ~block_size:4096, clock, metrics)

let block c = Bytes.make 4096 c

let test_disk_roundtrip () =
  let d, _, _ = mk_disk () in
  Disk.write_block d 7 (block 'x');
  Alcotest.(check char) "read back" 'x' (Bytes.get (Disk.read_block d 7) 0)

let test_disk_unwritten_zero () =
  let d, _, _ = mk_disk () in
  Alcotest.(check char) "zeros" '\000' (Bytes.get (Disk.read_block d 3) 0)

let test_disk_counts () =
  let d, _, m = mk_disk () in
  Disk.write_block d 0 (block 'a');
  Disk.write_block d 1 (block 'b');
  ignore (Disk.read_block d 0);
  Alcotest.(check int) "writes" 2 (Disk.writes d);
  Alcotest.(check int) "reads" 1 (Disk.reads d);
  Alcotest.(check int) "metric writes" 2 (Metrics.get m "disk.writes");
  Alcotest.(check int) "sparse footprint" 2 (Disk.written_blocks d)

let test_disk_bounds () =
  let d, _, _ = mk_disk ~nblocks:8 () in
  Alcotest.(check bool) "oob write" true
    (try
       Disk.write_block d 8 (block 'x');
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "wrong size" true
    (try
       Disk.write_block d 0 (Bytes.make 100 'x');
       false
     with Invalid_argument _ -> true)

let test_hdd_random_slower_than_seq () =
  let seq_time =
    let d, clock, _ = mk_disk ~kind:Latency.Hdd () in
    for i = 0 to 63 do
      Disk.write_block d i (block 'x')
    done;
    Clock.now_ns clock
  in
  let rand_time =
    let d, clock, _ = mk_disk ~kind:Latency.Hdd () in
    let r = Tinca_util.Rng.create 5 in
    for _ = 0 to 63 do
      Disk.write_block d (Tinca_util.Rng.int r 1024) (block 'x')
    done;
    Clock.now_ns clock
  in
  Alcotest.(check bool) "random >> sequential on HDD" true (rand_time > 10.0 *. seq_time)

let test_hdd_slower_than_ssd_random () =
  let run kind =
    let d, clock, _ = mk_disk ~kind () in
    let r = Tinca_util.Rng.create 5 in
    for _ = 0 to 63 do
      Disk.write_block d (Tinca_util.Rng.int r 1024) (block 'x')
    done;
    Clock.now_ns clock
  in
  Alcotest.(check bool) "hdd slower" true (run Latency.Hdd > run Latency.Ssd)

let mk_nvm_bdev () =
  let clock = Clock.create () in
  let metrics = Metrics.create () in
  let pmem = Pmem.create ~clock ~metrics ~tech:Latency.Pcm ~size:(64 * 4096) () in
  (Nvm_bdev.create ~pmem ~metrics ~base:4096 ~nblocks:32 ~block_size:4096, pmem, metrics)

let test_nvm_bdev_roundtrip () =
  let b, _, _ = mk_nvm_bdev () in
  Nvm_bdev.write_block b 3 (block 'z');
  Alcotest.(check char) "read back" 'z' (Bytes.get (Nvm_bdev.read_block b 3) 0)

let test_nvm_bdev_writes_are_durable () =
  let b, pmem, _ = mk_nvm_bdev () in
  Nvm_bdev.write_block b 0 (block 'q');
  Pmem.crash ~seed:3 ~survival:0.0 pmem;
  Alcotest.(check char) "block write persisted" 'q' (Bytes.get (Nvm_bdev.read_block b 0) 0)

let test_nvm_bdev_flush_cost () =
  (* A 4 KB block write must flush 64 cache lines — this is the Classic
     stack's fundamental cost unit. *)
  let b, _, m = mk_nvm_bdev () in
  Nvm_bdev.write_block b 1 (block 'w');
  Alcotest.(check int) "64 clflush per block" 64 (Metrics.get m "pmem.clflush");
  Alcotest.(check int) "one sfence" 1 (Metrics.get m "pmem.sfence")

let test_nvm_bdev_bounds () =
  let b, _, _ = mk_nvm_bdev () in
  Alcotest.(check bool) "oob" true
    (try
       ignore (Nvm_bdev.read_block b 32);
       false
     with Invalid_argument _ -> true)

let prop_disk_last_write_wins =
  QCheck.Test.make ~name:"disk: last write wins" ~count:100
    QCheck.(list (pair (int_bound 31) (int_bound 255)))
    (fun writes ->
      let d, _, _ = mk_disk ~nblocks:32 () in
      List.iter (fun (blk, v) -> Disk.write_block d blk (block (Char.chr v))) writes;
      let expect = Hashtbl.create 16 in
      List.iter (fun (blk, v) -> Hashtbl.replace expect blk v) writes;
      Hashtbl.fold
        (fun blk v acc -> acc && Bytes.get (Disk.read_block d blk) 0 = Char.chr v)
        expect true)

let suite =
  let q = QCheck_alcotest.to_alcotest in
  [
    ( "blockdev.disk",
      [
        Alcotest.test_case "roundtrip" `Quick test_disk_roundtrip;
        Alcotest.test_case "unwritten reads zero" `Quick test_disk_unwritten_zero;
        Alcotest.test_case "counters" `Quick test_disk_counts;
        Alcotest.test_case "bounds + size checks" `Quick test_disk_bounds;
        Alcotest.test_case "hdd random vs sequential" `Quick test_hdd_random_slower_than_seq;
        Alcotest.test_case "hdd slower than ssd" `Quick test_hdd_slower_than_ssd_random;
        q prop_disk_last_write_wins;
      ] );
    ( "blockdev.nvm_bdev",
      [
        Alcotest.test_case "roundtrip" `Quick test_nvm_bdev_roundtrip;
        Alcotest.test_case "durable writes" `Quick test_nvm_bdev_writes_are_durable;
        Alcotest.test_case "flush cost model" `Quick test_nvm_bdev_flush_cost;
        Alcotest.test_case "bounds" `Quick test_nvm_bdev_bounds;
      ] );
  ]

(* --- device queue model (background cleaner writes) --- *)

let test_background_write_does_not_block () =
  let d, clock, _ = mk_disk () in
  let t0 = Clock.now_ns clock in
  Disk.write_block ~background:true d 100 (block 'q');
  Alcotest.(check (float 1e-9)) "caller clock unchanged" t0 (Clock.now_ns clock);
  Alcotest.(check int) "write counted" 1 (Disk.writes d);
  Alcotest.(check char) "data stored" 'q' (Bytes.get (Disk.read_block d 100) 0)

(* [n] background writes queued at time 0, scattered over the disk. *)
let burst d n =
  for i = 0 to n - 1 do
    Disk.write_block ~background:true d ((i * 37) mod 1024) (block 'b')
  done

(* The device time a burst issued at time 0 leaves queued: the backlog
   its last write recorded. *)
let peak_backlog m =
  match Metrics.hist m "disk.bg_backlog_ns" with
  | Some h -> Hist.max_value h
  | None -> Alcotest.fail "no backlog samples"

(* When a read of block 512 finishes on an idle [kind] disk, and when a
   burst of 32 background writes drains with nothing else issued. *)
let alone kind =
  let read =
    let d, clock, _ = mk_disk ~kind () in
    ignore (Disk.read_block d 512);
    Clock.now_ns clock
  in
  let drain =
    let d, _, m = mk_disk ~kind () in
    burst d 32;
    peak_backlog m
  in
  (read, drain)

(* Queued work is pending up to [t_end] and drained from then on; the
   clock is advanced to [t_end]. *)
let check_drains_at d clock what t_end =
  Clock.advance_to clock (t_end -. 1.0);
  Alcotest.(check bool) (what ^ ": pending just before its end") true
    (Disk.background_pending d);
  Clock.advance_to clock t_end;
  Alcotest.(check bool) (what ^ ": drained at its end") false (Disk.background_pending d)

(* An SSD suspends queued background writes for a foreground read
   (NAND program suspend): the read finishes exactly as on an idle
   device, and the burst finishes later by exactly the read's service
   time. *)
let test_ssd_read_suspends_background () =
  let read_alone, drain_alone = alone Latency.Ssd in
  let d, clock, _ = mk_disk () in
  burst d 32;
  ignore (Disk.read_block d 512);
  Alcotest.(check (float 1e-9)) "read as on an idle device" read_alone (Clock.now_ns clock);
  check_drains_at d clock "burst slides by the read" (drain_alone +. read_alone)

(* An HDD cannot suspend a seek: a foreground read issued behind a burst
   of background writes waits for the whole queue (FIFO). *)
let test_hdd_background_write_occupies_device () =
  let read_alone, drain_alone = alone Latency.Hdd in
  let d, clock, _ = mk_disk ~kind:Latency.Hdd () in
  burst d 32;
  ignore (Disk.read_block d 512);
  let t = Clock.now_ns clock in
  Alcotest.(check bool) "queued behind the burst" true (t > drain_alone);
  Alcotest.(check bool) "far slower than alone" true (t > 10.0 *. read_alone);
  Alcotest.(check bool) "nothing left queued" false (Disk.background_pending d)

(* [background_pending] is false on an idle device, true while a burst
   is queued and false once the clock passes the burst's end, also when
   an SSD read suspended the burst and so moved that end.  It is a
   query: the clock never moves for it. *)
let test_background_pending () =
  let d, clock, m = mk_disk () in
  Alcotest.(check bool) "idle" false (Disk.background_pending d);
  let _, drain_alone = alone Latency.Ssd in
  burst d 32;
  Alcotest.(check bool) "burst queued" true (Disk.background_pending d);
  Clock.advance clock 1000.0;
  Alcotest.(check bool) "still queued" true (Disk.background_pending d);
  Alcotest.(check (float 1e-9)) "the query waits for nothing" 1000.0 (Clock.now_ns clock);
  (* Each background write recorded the backlog it left. *)
  (match Metrics.hist m "disk.bg_backlog_ns" with
  | None -> Alcotest.fail "no backlog samples"
  | Some h ->
      Alcotest.(check int) "one sample per write" 32 (Hist.count h);
      Alcotest.(check (float 1e-9)) "peak is the whole burst" drain_alone (Hist.max_value h));
  check_drains_at d clock "alone" drain_alone;
  (* The same burst, suspended by a foreground read. *)
  let d, clock, _ = mk_disk () in
  burst d 32;
  ignore (Disk.read_block d 512);
  Alcotest.(check bool) "queued after the read" true (Disk.background_pending d);
  check_drains_at d clock "after a read" (drain_alone +. Clock.now_ns clock)

(* --- idle-time write-back --- *)

let ssd_write_ns = (Latency.disk_of_kind Latency.Ssd).Latency.write_block_ns

(* Idle for [idle_ns] after one foreground read at block 900, then the
   clock reads [t_idle]. *)
let idle_disk idle_ns =
  let d, clock, _ = mk_disk () in
  ignore (Disk.read_block d 900);
  let t_idle = Clock.now_ns clock in
  Clock.advance clock idle_ns;
  (d, clock, t_idle)

(* A foreground read after an idle write finishes exactly when it does
   without one: the write used time that had already passed. *)
let test_idle_write_delays_nothing () =
  let finish ~idle_write =
    let d, clock, _ = idle_disk (3.0 *. ssd_write_ns) in
    if idle_write then begin
      let t0 = Clock.now_ns clock in
      Alcotest.(check bool) "written" true
        (Disk.write_idle d ~not_before:0.0 100 (fun () -> block 'i'));
      Alcotest.(check (float 1e-9)) "clock unchanged" t0 (Clock.now_ns clock)
    end;
    ignore (Disk.read_block d 500);
    Clock.now_ns clock
  in
  Alcotest.(check (float 1e-9)) "same finish" (finish ~idle_write:false) (finish ~idle_write:true);
  let d, _, _ = idle_disk (3.0 *. ssd_write_ns) in
  ignore (Disk.write_idle d ~not_before:0.0 100 (fun () -> block 'i'));
  Alcotest.(check char) "data stored" 'i' (Bytes.get (Disk.read_block d 100) 0);
  Alcotest.(check int) "write counted" 1 (Disk.writes d)

let test_idle_write_refuses_short_gap () =
  let d, _, _ = idle_disk (ssd_write_ns -. 1.0) in
  Alcotest.(check bool) "no gap for a write" false (Disk.idle_fits d);
  let asked = ref false in
  Alcotest.(check bool) "refused" false
    (Disk.write_idle d ~not_before:0.0 100 (fun () ->
         asked := true;
         block 'x'));
  Alcotest.(check bool) "data never read" false !asked;
  Alcotest.(check int) "nothing written" 0 (Disk.writes d);
  (* Two writes' worth of idle time holds two writes, not three. *)
  let d, _, _ = idle_disk ((2.0 *. ssd_write_ns) +. 1.0) in
  Alcotest.(check bool) "gap fits" true (Disk.idle_fits d);
  let write blk = Disk.write_idle d ~not_before:0.0 blk (fun () -> block 'y') in
  Alcotest.(check bool) "first" true (write 100);
  Alcotest.(check bool) "second" true (write 300);
  Alcotest.(check bool) "gap used up" false (Disk.idle_fits d);
  Alcotest.(check bool) "third refused" false (write 500)

(* Data that became durable after the gap began waits for the next gap. *)
let test_idle_write_honours_not_before () =
  let d, clock, t_idle = idle_disk (2.0 *. ssd_write_ns) in
  let write ~not_before = Disk.write_idle d ~not_before 100 (fun () -> block 'n') in
  Alcotest.(check bool) "durable after the gap began" false (write ~not_before:(t_idle +. 1.0));
  Alcotest.(check int) "nothing written" 0 (Disk.writes d);
  Alcotest.(check bool) "durable when the gap began" true (write ~not_before:t_idle);
  (* The next gap begins where that write ended. *)
  let t_next = t_idle +. ssd_write_ns in
  Alcotest.(check bool) "durable during the first write" true
    (Disk.write_idle d ~not_before:t_next 300 (fun () -> block 'm'));
  Alcotest.(check (float 1e-9)) "clock unchanged" (t_idle +. (2.0 *. ssd_write_ns))
    (Clock.now_ns clock)

(* An HDD cannot suspend a seek for a foreground access, so however
   long it idles it takes no idle writes. *)
let test_idle_write_ssd_only () =
  let d, clock, _ = mk_disk ~kind:Latency.Hdd () in
  ignore (Disk.read_block d 900);
  Clock.advance clock 1e9;
  Alcotest.(check bool) "no idle gap on an HDD" false (Disk.idle_fits d);
  Alcotest.(check bool) "refused" false
    (Disk.write_idle d ~not_before:0.0 100 (fun () -> block 'h'));
  Alcotest.(check int) "nothing written" 0 (Disk.writes d)

(* Idle writes move the head like any write.  A gap of one random and
   one sequential write holds writes to [b] and [b + 1] only if the
   second is charged the sequential rate, and a foreground read of
   [b + 2] after them is sequential too.  Counted as the idle pass's. *)
let test_idle_writes_move_the_head () =
  let lat = Latency.disk_of_kind Latency.Ssd in
  let d, clock, m = mk_disk () in
  ignore (Disk.read_block d 900);
  Clock.advance clock (ssd_write_ns +. lat.Latency.seq_block_ns);
  let write blk = Disk.write_idle d ~not_before:0.0 blk (fun () -> block 's') in
  Alcotest.(check bool) "b (random)" true (write 200);
  Alcotest.(check bool) "b + 1 (sequential) fits the rest" true (write 201);
  Alcotest.(check int) "idle writes" 2 (Metrics.get m "disk.idle_writes");
  Alcotest.(check int) "sequential idle writes" 1 (Metrics.get m "disk.idle_seq_writes");
  let t0 = Clock.now_ns clock in
  ignore (Disk.read_block d 202);
  Alcotest.(check (float 1e-9)) "b + 2 read at the sequential rate" (t0 +. lat.Latency.seq_block_ns)
    (Clock.now_ns clock)

(* On an HDD an idle write is refused even when it would be sequential,
   and the head stays where the last foreground access left it. *)
let test_hdd_idle_write_keeps_the_head () =
  let lat = Latency.disk_of_kind Latency.Hdd in
  let d, clock, m = mk_disk ~kind:Latency.Hdd () in
  ignore (Disk.read_block d 900);
  Clock.advance clock 1e9;
  Alcotest.(check bool) "refused" false (Disk.write_idle d ~not_before:0.0 950 (fun () -> block 'h'));
  Alcotest.(check bool) "sequential one refused" false
    (Disk.write_idle d ~not_before:0.0 901 (fun () -> block 'h'));
  Alcotest.(check int) "nothing written" 0 (Disk.writes d);
  Alcotest.(check int) "no idle write counted" 0 (Metrics.get m "disk.idle_writes");
  let t0 = Clock.now_ns clock in
  ignore (Disk.read_block d 901);
  Alcotest.(check (float 1e-9)) "head still at 900" (t0 +. lat.Latency.seq_block_ns)
    (Clock.now_ns clock)

let queue_suite =
  [
    ( "blockdev.queue",
      [
        Alcotest.test_case "background write non-blocking" `Quick test_background_write_does_not_block;
        Alcotest.test_case "background write occupies an HDD (FIFO)" `Quick
          test_hdd_background_write_occupies_device;
        Alcotest.test_case "SSD read suspends background writes" `Quick
          test_ssd_read_suspends_background;
        Alcotest.test_case "background_pending: idle, queued, drained" `Quick test_background_pending;
        Alcotest.test_case "idle write delays no later read" `Quick test_idle_write_delays_nothing;
        Alcotest.test_case "idle write refuses a short gap" `Quick test_idle_write_refuses_short_gap;
        Alcotest.test_case "idle write honours not_before" `Quick
          test_idle_write_honours_not_before;
        Alcotest.test_case "idle write is SSD only" `Quick test_idle_write_ssd_only;
        Alcotest.test_case "idle writes move the head" `Quick test_idle_writes_move_the_head;
        Alcotest.test_case "HDD idle write keeps the head" `Quick test_hdd_idle_write_keeps_the_head;
      ] );
  ]
