(* Unit tests for the Tinca core: entry codec, layout, ring buffer, and
   cache behaviour (reads, commits, COW, replacement, pinning). *)
open Tinca_core
open Tinca_sim
module Pmem = Tinca_pmem.Pmem
module Disk = Tinca_blockdev.Disk

(* --- entry codec --- *)

let entry_eq = Alcotest.testable Entry.pp Entry.equal

let test_entry_roundtrip () =
  let e =
    { Entry.valid = true; role = Entry.Log; modified = true; disk_blkno = 123456789;
      prev = Some 77; cur = 99 }
  in
  Alcotest.check entry_eq "roundtrip" e (Entry.decode (Entry.encode e))

let test_entry_fresh () =
  let e =
    { Entry.valid = true; role = Entry.Buffer; modified = false; disk_blkno = 5;
      prev = None; cur = 1 }
  in
  let b = Entry.encode e in
  Alcotest.(check int) "FRESH on media" Entry.fresh (Tinca_util.Codec.get_u32 b 8);
  Alcotest.check entry_eq "roundtrip with FRESH" e (Entry.decode b)

let test_entry_invalid_slot () =
  let e = Entry.decode (Entry.invalid_bytes ()) in
  Alcotest.(check bool) "zeroed slot is invalid" false e.Entry.valid

let test_entry_size () =
  let e =
    { Entry.valid = true; role = Entry.Log; modified = false; disk_blkno = 1; prev = None; cur = 0 }
  in
  Alcotest.(check int) "16 bytes" 16 (Bytes.length (Entry.encode e))

let prop_entry_roundtrip =
  QCheck.Test.make ~name:"entry roundtrip" ~count:500
    QCheck.(
      quad bool (pair bool bool)
        (int_bound ((1 lsl 56) - 1))
        (pair (option (int_bound 0xFFFFFFFE)) (int_bound 0xFFFFFFFF)))
    (fun (valid, (log, modified), disk_blkno, (prev, cur)) ->
      let e =
        { Entry.valid; role = (if log then Entry.Log else Entry.Buffer); modified; disk_blkno;
          prev; cur }
      in
      Entry.equal e (Entry.decode (Entry.encode e)))

(* --- layout --- *)

let test_layout_geometry () =
  let l = Layout.compute ~pmem_bytes:(1 lsl 20) ~block_size:4096 ~ring_slots:128 in
  Alcotest.(check bool) "fits" true (l.Layout.total_bytes <= 1 lsl 20);
  Alcotest.(check bool) "nonempty" true (l.Layout.nblocks > 0);
  Alcotest.(check int) "data aligned" 0 (l.Layout.data_off mod 4096);
  Alcotest.(check int) "entries aligned" 0 (l.Layout.entries_off mod 64);
  Alcotest.(check bool) "regions ordered" true
    (l.Layout.ring_off < l.Layout.entries_off && l.Layout.entries_off < l.Layout.data_off)

let test_layout_too_small () =
  Alcotest.(check bool) "rejects tiny pmem" true
    (try
       ignore (Layout.compute ~pmem_bytes:1024 ~block_size:4096 ~ring_slots:128);
       false
     with Invalid_argument _ -> true)

let test_layout_index_bounds () =
  (* Out-of-range indices must fail loudly even under -noassert, so the
     checks are invalid_arg, not assert. *)
  let l = Layout.compute ~pmem_bytes:(1 lsl 20) ~block_size:4096 ~ring_slots:128 in
  let rejects f = try ignore (f ()); false with Invalid_argument _ -> true in
  Alcotest.(check bool) "entry_off -1" true (rejects (fun () -> Layout.entry_off l (-1)));
  Alcotest.(check bool) "entry_off nblocks" true
    (rejects (fun () -> Layout.entry_off l l.Layout.nblocks));
  Alcotest.(check bool) "data_block_off -1" true
    (rejects (fun () -> Layout.data_block_off l (-1)));
  Alcotest.(check bool) "data_block_off nblocks" true
    (rejects (fun () -> Layout.data_block_off l l.Layout.nblocks))

let test_layout_metadata_fraction () =
  (* With a 1 MB ring on a large cache, metadata should be a small
     fraction (paper: ~0.4 % for entries alone on 8 GB). *)
  let l = Layout.compute ~pmem_bytes:(256 * 1024 * 1024) ~block_size:4096 ~ring_slots:131072 in
  Alcotest.(check bool) "metadata under 2 %" true (Layout.metadata_fraction l < 0.02)

let prop_layout_regions_disjoint =
  QCheck.Test.make ~name:"layout regions disjoint and in bounds" ~count:200
    QCheck.(pair (int_range 65536 (1 lsl 22)) (int_range 8 4096))
    (fun (pmem_bytes, ring_slots) ->
      match Layout.compute ~pmem_bytes ~block_size:4096 ~ring_slots with
      | exception Invalid_argument _ -> true
      | l ->
          let ring_end = l.Layout.ring_off + (ring_slots * 8) in
          let entries_end = l.Layout.entries_off + (l.Layout.nblocks * Entry.size) in
          ring_end <= l.Layout.entries_off
          && entries_end <= l.Layout.data_off
          && l.Layout.total_bytes <= pmem_bytes
          && l.Layout.data_off + (l.Layout.nblocks * 4096) = l.Layout.total_bytes)

(* --- ring --- *)

let mk_ring ?(slots = 8) () =
  let clock = Clock.create () in
  let metrics = Metrics.create () in
  let pmem = Pmem.create ~clock ~metrics ~tech:Latency.Nvdimm ~size:65536 () in
  let layout = Layout.compute ~pmem_bytes:65536 ~block_size:4096 ~ring_slots:slots in
  let ring = Ring.attach ~pmem ~layout in
  Ring.format ring;
  (ring, pmem, layout)

let test_ring_record_and_commit () =
  let ring, _, _ = mk_ring () in
  Ring.record ring 101;
  Ring.record ring 102;
  Alcotest.(check int) "in flight" 2 (Ring.in_flight ring);
  Alcotest.(check (list int)) "pending" [ 101; 102 ] (Ring.pending_blknos ring);
  Ring.commit_point ring;
  Alcotest.(check int) "quiescent" 0 (Ring.in_flight ring);
  Alcotest.(check (list int)) "no pending" [] (Ring.pending_blknos ring)

let test_ring_wraparound () =
  let ring, _, _ = mk_ring ~slots:8 () in
  (* Fill and drain the ring several times so the counters exceed the
     slot count and wrap. *)
  for round = 0 to 4 do
    for i = 0 to 5 do
      Ring.record ring ((round * 100) + i)
    done;
    Alcotest.(check (list int)) "pending in order"
      (List.init 6 (fun i -> (round * 100) + i))
      (Ring.pending_blknos ring);
    Ring.commit_point ring
  done;
  Alcotest.(check bool) "counters advanced past slots" true (Ring.head ring > 8)

let test_ring_full_rejected () =
  let ring, _, _ = mk_ring ~slots:4 () in
  for i = 0 to 3 do
    Ring.record ring i
  done;
  Alcotest.(check bool) "full" true
    (try
       Ring.record ring 99;
       false
     with Invalid_argument _ -> true)

let test_ring_rewind () =
  let ring, _, _ = mk_ring () in
  Ring.record ring 7;
  Ring.rewind_head ring;
  Alcotest.(check int) "rewound" 0 (Ring.in_flight ring)

let test_ring_pointers_durable () =
  let ring, pmem, layout = mk_ring () in
  Ring.record ring 55;
  Ring.commit_point ring;
  Pmem.crash ~seed:3 ~survival:0.0 pmem;
  let ring2 = Ring.attach ~pmem ~layout in
  Alcotest.(check int) "head durable" 1 (Ring.head ring2);
  Alcotest.(check int) "tail durable" 1 (Ring.tail ring2)

(* --- cache --- *)

type env = {
  cache : Cache.t;
  pmem : Pmem.t;
  disk : Disk.t;
  clock : Clock.t;
  metrics : Metrics.t;
}

let mk_env ?(pmem_bytes = 256 * 1024) ?(ring_slots = 64) ?(disk_blocks = 256)
    ?(mode = Cache.Write_back) () =
  let clock = Clock.create () in
  let metrics = Metrics.create () in
  let pmem = Pmem.create ~clock ~metrics ~tech:Latency.Pcm ~size:pmem_bytes () in
  let disk = Disk.create ~clock ~metrics ~kind:Latency.Ssd ~nblocks:disk_blocks ~block_size:4096 in
  let config = { Cache.default_config with ring_slots; mode } in
  let cache = Cache.format ~config ~pmem ~disk ~clock ~metrics in
  { cache; pmem; disk; clock; metrics }

let block c = Bytes.make 4096 c

let commit_one env blkno data =
  let h = Cache.Txn.init env.cache in
  Cache.Txn.add h blkno data;
  Cache.Txn.commit h

let test_commit_then_read () =
  let env = mk_env () in
  commit_one env 10 (block 'a');
  Alcotest.(check char) "read committed" 'a' (Bytes.get (Cache.read env.cache 10) 0);
  Cache.check_invariants env.cache

let test_read_miss_fills () =
  let env = mk_env () in
  Disk.write_block env.disk 5 (block 'd');
  Alcotest.(check char) "from disk" 'd' (Bytes.get (Cache.read env.cache 5) 0);
  Alcotest.(check bool) "now cached" true (Cache.contains env.cache 5);
  Alcotest.(check char) "hit second time" 'd' (Bytes.get (Cache.read env.cache 5) 0);
  Alcotest.(check int) "one hit one miss" 1 (Metrics.get env.metrics "tinca.read_hits");
  Cache.check_invariants env.cache

let test_multi_block_txn () =
  let env = mk_env () in
  let h = Cache.Txn.init env.cache in
  Cache.Txn.add h 1 (block 'x');
  Cache.Txn.add h 2 (block 'y');
  Cache.Txn.add h 3 (block 'z');
  Alcotest.(check int) "three staged" 3 (Cache.Txn.block_count h);
  Cache.Txn.commit h;
  Alcotest.(check char) "1" 'x' (Bytes.get (Cache.read env.cache 1) 0);
  Alcotest.(check char) "2" 'y' (Bytes.get (Cache.read env.cache 2) 0);
  Alcotest.(check char) "3" 'z' (Bytes.get (Cache.read env.cache 3) 0);
  Cache.check_invariants env.cache

let test_same_block_twice_last_wins () =
  let env = mk_env () in
  let h = Cache.Txn.init env.cache in
  Cache.Txn.add h 1 (block 'a');
  Cache.Txn.add h 1 (block 'b');
  Alcotest.(check int) "deduped" 1 (Cache.Txn.block_count h);
  Cache.Txn.commit h;
  Alcotest.(check char) "last wins" 'b' (Bytes.get (Cache.read env.cache 1) 0)

let test_cow_reclaims_prev () =
  let env = mk_env () in
  commit_one env 1 (block 'a');
  let free_after_first = Cache.free_blocks env.cache in
  commit_one env 1 (block 'b');
  (* COW allocates a new block but frees the previous at commit end. *)
  Alcotest.(check int) "net NVM usage unchanged" free_after_first (Cache.free_blocks env.cache);
  Alcotest.(check char) "updated" 'b' (Bytes.get (Cache.read env.cache 1) 0);
  Alcotest.(check int) "one write hit" 1 (Metrics.get env.metrics "tinca.write_hits");
  Cache.check_invariants env.cache

let test_abort_running_txn () =
  let env = mk_env () in
  commit_one env 1 (block 'a');
  let h = Cache.Txn.init env.cache in
  Cache.Txn.add h 1 (block 'b');
  Cache.Txn.abort h;
  Alcotest.(check char) "old value intact" 'a' (Bytes.get (Cache.read env.cache 1) 0);
  Cache.check_invariants env.cache

let test_empty_commit () =
  let env = mk_env () in
  let h = Cache.Txn.init env.cache in
  Cache.Txn.commit h;
  Alcotest.(check int) "counted" 1 (Metrics.get env.metrics "tinca.commits");
  Cache.check_invariants env.cache

let test_txn_reuse_rejected () =
  let env = mk_env () in
  let h = Cache.Txn.init env.cache in
  Cache.Txn.add h 1 (block 'a');
  Cache.Txn.commit h;
  Alcotest.(check bool) "commit twice rejected" true
    (try
       Cache.Txn.commit h;
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "add after commit rejected" true
    (try
       Cache.Txn.add h 2 (block 'b');
       false
     with Invalid_argument _ -> true)

let test_wrong_block_size_rejected () =
  let env = mk_env () in
  let h = Cache.Txn.init env.cache in
  Alcotest.(check bool) "size checked" true
    (try
       Cache.Txn.add h 1 (Bytes.make 100 'x');
       false
     with Invalid_argument _ -> true)

let test_eviction_writes_back () =
  let env = mk_env () in
  let n = Cache.free_blocks env.cache in
  (* Commit more distinct blocks than the cache holds: evictions must
     push LRU dirty data to disk. *)
  for i = 0 to n + 8 do
    commit_one env i (block (Char.chr (Char.code 'A' + (i mod 26))))
  done;
  Alcotest.(check bool) "evictions happened" true (Metrics.get env.metrics "tinca.evictions" > 0);
  Alcotest.(check bool) "writebacks happened" true (Metrics.get env.metrics "tinca.writebacks" > 0);
  (* Early blocks were evicted: their content must be on disk. *)
  Alcotest.(check char) "evicted content on disk" 'A' (Bytes.get (Disk.read_block env.disk 0) 0);
  Cache.check_invariants env.cache

let test_read_after_eviction () =
  let env = mk_env () in
  let n = Cache.free_blocks env.cache in
  for i = 0 to n + 8 do
    commit_one env i (block (Char.chr (Char.code 'A' + (i mod 26))))
  done;
  (* Block 0 was evicted; a read must restore it from disk faithfully. *)
  Alcotest.(check bool) "evicted" false (Cache.contains env.cache 0);
  Alcotest.(check char) "read back" 'A' (Bytes.get (Cache.read env.cache 0) 0)

let test_txn_too_large_ring () =
  let env = mk_env ~ring_slots:8 () in
  let h = Cache.Txn.init env.cache in
  for i = 0 to 8 do
    Cache.Txn.add h i (block 'x')
  done;
  Alcotest.check_raises "ring bound" Cache.Transaction_too_large (fun () -> Cache.Txn.commit h);
  (* Nothing must have been written. *)
  Alcotest.(check int) "no blocks cached" 0 (Cache.cached_blocks env.cache);
  Cache.check_invariants env.cache

let test_txn_too_large_capacity () =
  let env = mk_env ~pmem_bytes:(96 * 1024) ~ring_slots:512 () in
  let cap = Cache.free_blocks env.cache in
  let h = Cache.Txn.init env.cache in
  for i = 0 to cap + 4 do
    Cache.Txn.add h i (block 'x')
  done;
  Alcotest.check_raises "capacity bound" Cache.Transaction_too_large (fun () ->
      Cache.Txn.commit h);
  Cache.check_invariants env.cache

let test_write_through_mode () =
  let env = mk_env ~mode:Cache.Write_through () in
  commit_one env 3 (block 'w');
  Alcotest.(check char) "on disk immediately" 'w' (Bytes.get (Disk.read_block env.disk 3) 0);
  Cache.check_invariants env.cache

let test_flush_all () =
  let env = mk_env () in
  commit_one env 1 (block 'p');
  commit_one env 2 (block 'q');
  Alcotest.(check int) "dirty, not on disk yet" 0 (Disk.written_blocks env.disk);
  Cache.flush_all env.cache;
  Alcotest.(check char) "1 flushed" 'p' (Bytes.get (Disk.read_block env.disk 1) 0);
  Alcotest.(check char) "2 flushed" 'q' (Bytes.get (Disk.read_block env.disk 2) 0);
  (* Idempotent: a second flush writes nothing new. *)
  let w = Disk.writes env.disk in
  Cache.flush_all env.cache;
  Alcotest.(check int) "second flush is a no-op" w (Disk.writes env.disk);
  Cache.check_invariants env.cache

let test_hit_rates () =
  let env = mk_env () in
  commit_one env 1 (block 'a');
  commit_one env 1 (block 'b');
  commit_one env 2 (block 'c');
  (* 1 write hit (second commit of block 1), 2 write misses. *)
  Alcotest.(check (float 1e-9)) "write hit rate" (1.0 /. 3.0) (Cache.write_hit_rate env.cache)

(* Blocks per committed transaction are recorded once, by the facade. *)
let test_txn_histogram () =
  let env = mk_env () in
  let tc =
    Tinca.ok_exn
      (Tinca.format
         ~config:{ Tinca.Config.default with Tinca.Config.nvm_bytes = 256 * 1024; ring_slots = 64 }
         ~pmem:env.pmem ~disk:env.disk ~clock:env.clock ~metrics:env.metrics)
  in
  let commit writes =
    let txn = Tinca.init_txn tc in
    List.iter (fun (blkno, data) -> Tinca.ok_exn (Tinca.write txn blkno data)) writes;
    Tinca.ok_exn (Tinca.commit txn)
  in
  commit [ (1, block 'a'); (2, block 'b') ];
  commit [ (3, block 'c') ];
  let hist = Option.get (Metrics.hist env.metrics "tinca.txn_blocks") in
  Alcotest.(check int) "two commits sized" 2 (Hist.count hist);
  Alcotest.(check (float 1e-9)) "mean" 1.5 (Hist.mean hist)

let test_peak_cow () =
  let env = mk_env () in
  commit_one env 1 (block 'a');
  commit_one env 2 (block 'b');
  let h = Cache.Txn.init env.cache in
  Cache.Txn.add h 1 (block 'c');
  Cache.Txn.add h 2 (block 'd');
  Cache.Txn.commit h;
  (* Both blocks were write hits: two previous versions pinned at once. *)
  Alcotest.(check int) "peak COW" 2 (Cache.peak_cow_blocks env.cache)

let test_write_direct () =
  let env = mk_env () in
  Cache.write_direct env.cache 9 (block 'v');
  Alcotest.(check char) "visible" 'v' (Bytes.get (Cache.read env.cache 9) 0);
  Cache.check_invariants env.cache

let test_clflush_economy () =
  (* The headline mechanism: committing one 4 KB block must cost ~64 data
     line flushes plus a handful of metadata flushes — not another 64 for
     a journal copy (Classic) nor 64 for a metadata block (Flashcache). *)
  let env = mk_env () in
  let snap = Metrics.snapshot env.metrics in
  commit_one env 1 (block 'e');
  let flushes = Metrics.since env.metrics snap "pmem.clflush" in
  Alcotest.(check bool)
    (Printf.sprintf "64 data + <16 metadata flushes (got %d)" flushes)
    true
    (flushes >= 64 && flushes < 80)

let prop_committed_data_readable =
  QCheck.Test.make ~name:"cache: committed data always readable" ~count:50
    QCheck.(list_of_size Gen.(int_range 1 30) (pair (int_bound 40) (int_bound 255)))
    (fun writes ->
      let env = mk_env () in
      List.iter (fun (blk, v) -> commit_one env blk (block (Char.chr v))) writes;
      let expect = Hashtbl.create 16 in
      List.iter (fun (blk, v) -> Hashtbl.replace expect blk v) writes;
      Cache.check_invariants env.cache;
      Hashtbl.fold
        (fun blk v acc -> acc && Bytes.get (Cache.read env.cache blk) 0 = Char.chr v)
        expect true)

let suite =
  let q = QCheck_alcotest.to_alcotest in
  [
    ( "core.entry",
      [
        Alcotest.test_case "roundtrip" `Quick test_entry_roundtrip;
        Alcotest.test_case "FRESH encoding" `Quick test_entry_fresh;
        Alcotest.test_case "invalid slot" `Quick test_entry_invalid_slot;
        Alcotest.test_case "size is 16" `Quick test_entry_size;
        q prop_entry_roundtrip;
      ] );
    ( "core.layout",
      [
        Alcotest.test_case "geometry" `Quick test_layout_geometry;
        Alcotest.test_case "too small rejected" `Quick test_layout_too_small;
        Alcotest.test_case "index bounds rejected" `Quick test_layout_index_bounds;
        Alcotest.test_case "metadata fraction" `Quick test_layout_metadata_fraction;
        q prop_layout_regions_disjoint;
      ] );
    ( "core.ring",
      [
        Alcotest.test_case "record and commit" `Quick test_ring_record_and_commit;
        Alcotest.test_case "wraparound" `Quick test_ring_wraparound;
        Alcotest.test_case "full rejected" `Quick test_ring_full_rejected;
        Alcotest.test_case "rewind" `Quick test_ring_rewind;
        Alcotest.test_case "pointers durable" `Quick test_ring_pointers_durable;
      ] );
    ( "core.cache",
      [
        Alcotest.test_case "commit then read" `Quick test_commit_then_read;
        Alcotest.test_case "read miss fills" `Quick test_read_miss_fills;
        Alcotest.test_case "multi-block txn" `Quick test_multi_block_txn;
        Alcotest.test_case "dedupe in txn" `Quick test_same_block_twice_last_wins;
        Alcotest.test_case "COW reclaims prev" `Quick test_cow_reclaims_prev;
        Alcotest.test_case "abort running" `Quick test_abort_running_txn;
        Alcotest.test_case "empty commit" `Quick test_empty_commit;
        Alcotest.test_case "txn reuse rejected" `Quick test_txn_reuse_rejected;
        Alcotest.test_case "block size checked" `Quick test_wrong_block_size_rejected;
        Alcotest.test_case "eviction writes back" `Quick test_eviction_writes_back;
        Alcotest.test_case "read after eviction" `Quick test_read_after_eviction;
        Alcotest.test_case "txn too large (ring)" `Quick test_txn_too_large_ring;
        Alcotest.test_case "txn too large (capacity)" `Quick test_txn_too_large_capacity;
        Alcotest.test_case "write-through mode" `Quick test_write_through_mode;
        Alcotest.test_case "flush_all" `Quick test_flush_all;
        Alcotest.test_case "hit rates" `Quick test_hit_rates;
        Alcotest.test_case "txn histogram" `Quick test_txn_histogram;
        Alcotest.test_case "peak COW" `Quick test_peak_cow;
        Alcotest.test_case "write_direct" `Quick test_write_direct;
        Alcotest.test_case "clflush economy" `Quick test_clflush_economy;
        q prop_committed_data_readable;
      ] );
  ]

(* --- the idle-time cleaner (Frame_cache.clean), both engines --- *)

let schemes =
  [
    ("logging", Tinca.Config.Logging Tinca.Batched);
    ("paging", Tinca.Config.Paging Tinca.Config.default_page_cfg);
  ]

(* A facade over [nvm_kb] of PCM (256 KB holds fewer free frames than
   the cleaner's frontier) and a 256-block SSD. *)
let cleaner_env ?(nvm_kb = 256) ?(kind = Latency.Ssd) scheme =
  let clock = Clock.create () in
  let metrics = Metrics.create () in
  let pmem = Pmem.create ~clock ~metrics ~tech:Latency.Pcm ~size:(nvm_kb * 1024) () in
  let disk = Disk.create ~clock ~metrics ~kind ~nblocks:256 ~block_size:4096 in
  let config =
    { Tinca.Config.default with Tinca.Config.nvm_bytes = nvm_kb * 1024; ring_slots = 64;
      commit_scheme = scheme }
  in
  let tc = Tinca.ok_exn (Tinca.format ~config ~pmem ~disk ~clock ~metrics) in
  (tc, pmem, disk, clock, metrics)

let fill i = Char.chr (33 + (i mod 90))

(* [n] single-block commits, each followed by a read miss (a disk
   access after the commit point) and [think_ns] of client think time, so
   the disk goes idle after every committed version is durable. *)
let commit_with_think tc clock ~n ~think_ns =
  for i = 0 to n - 1 do
    Tinca.ok_exn (Tinca.write_direct tc i (block (fill i)));
    ignore (Tinca.ok_exn (Tinca.read tc (200 + i)));
    Clock.advance clock think_ns
  done

let dirty_count tc =
  let kv = Tinca.stats_kv tc in
  int_of_string
    (match List.assoc_opt "dirty_blocks" kv with Some v -> v | None -> List.assoc "dirty_pages" kv)

let check_fills name tc n =
  for i = 0 to n - 1 do
    Alcotest.(check char) (Printf.sprintf "%s blk %d" name i) (fill i)
      (Bytes.get (Tinca.ok_exn (Tinca.read tc i)) 0)
  done

let test_flusher_fires_and_preserves_data () =
  List.iter
    (fun (name, scheme) ->
      let tc, _, disk, clock, metrics = cleaner_env scheme in
      commit_with_think tc clock ~n:40 ~think_ns:100_000.0;
      let cleaned = Metrics.get metrics "tinca.cleaned" in
      Alcotest.(check bool) (name ^ ": cleaned some") true (cleaned > 0);
      Alcotest.(check bool) (name ^ ": cleaned blocks are write-backs") true
        (Metrics.get metrics "tinca.writebacks" >= cleaned);
      Alcotest.(check bool) (name ^ ": evictions counted") true
        (Metrics.get metrics "tinca.evictions" > 0);
      Tinca.check_invariants tc;
      check_fills name tc 40;
      (* A cleaned block's disk copy is its committed version. *)
      Alcotest.(check char) (name ^ ": disk holds block 0") (fill 0)
        (Bytes.get (Disk.read_block disk 0) 0))
    schemes

(* Without frame pressure the cleaner never walks, however idle the
   disk: a cache with more free frames than the frontier keeps every
   committed block dirty. *)
let test_flusher_quiet_without_pressure () =
  List.iter
    (fun (name, scheme) ->
      let tc, _, _, clock, metrics = cleaner_env ~nvm_kb:1024 scheme in
      commit_with_think tc clock ~n:40 ~think_ns:200_000.0;
      Alcotest.(check int) (name ^ ": nothing cleaned") 0 (Metrics.get metrics "tinca.cleaned");
      Alcotest.(check int) (name ^ ": every block dirty") 40 (dirty_count tc))
    schemes

(* Cleaned blocks come back clean after a crash: the dirty count
   survives recovery exactly, and every block reads back. *)
let test_flusher_marks_clean_persistently () =
  List.iter
    (fun (name, scheme) ->
      let tc, pmem, disk, clock, metrics = cleaner_env scheme in
      commit_with_think tc clock ~n:40 ~think_ns:100_000.0;
      Alcotest.(check bool) (name ^ ": cleaned") true (Metrics.get metrics "tinca.cleaned" > 0);
      let dirty = dirty_count tc in
      Pmem.crash ~seed:5 ~survival:0.0 pmem;
      let recovered = Tinca.ok_exn (Tinca.recover ~pmem ~disk ~clock ~metrics) in
      Tinca.check_invariants recovered;
      Alcotest.(check int) (name ^ ": dirty count survives") dirty (dirty_count recovered);
      check_fills name recovered 40)
    schemes

(* A streaming writer leaves the disk no idle gap after any commit
   point, so the pressure pass alone holds the dirty share at 70 % of
   the frames after every commit. *)
let test_flusher_pressure_bounds_dirty () =
  List.iter
    (fun (name, scheme) ->
      let tc, _, _, _, metrics = cleaner_env scheme in
      let frames =
        let kv = Tinca.stats_kv tc in
        int_of_string
          (match List.assoc_opt "capacity_blocks" kv with
          | Some v -> v
          | None -> List.assoc "pool_frames" kv)
      in
      let high = int_of_float (Tinca_cachelib.Frame_cache.pressure_dirty *. float_of_int frames) in
      for i = 0 to 99 do
        Tinca.ok_exn (Tinca.write_direct tc i (block (fill i)));
        if dirty_count tc > high then
          Alcotest.failf "%s: %d dirty of %d frames after commit %d" name (dirty_count tc) frames i
      done;
      Alcotest.(check bool) (name ^ ": cleaned some") true (Metrics.get metrics "tinca.cleaned" > 0);
      Tinca.check_invariants tc;
      check_fills name tc 100)
    schemes

(* The pressure pass never makes a commit wait for the disk.  While its
   last batch is still queued it defers (cache.bg_deferred), and the
   first commit after the device drains takes the next batch.  So no
   background write's backlog exceeds the device time of the batch it
   belongs to, although a streaming writer of scattered blocks dirties
   blocks faster than the disk drains them, and a commit that made no
   foreground disk access advances the clock by less than one random
   SSD write (its NVM work takes about a third of that; waiting for a
   queued batch would take up to several).  A commit runs at most one
   batch, so the background writes one commit issues are one batch, and
   its device time follows from how many of them were sequential. *)
let test_flusher_pressure_never_stalls () =
  let lat = Latency.disk_of_kind Latency.Ssd in
  List.iter
    (fun (name, scheme) ->
      let tc, _, _, clock, metrics = cleaner_env scheme in
      let batches = ref 0 and later_batches = ref 0 in
      for i = 0 to 199 do
        let snap = Metrics.snapshot metrics and t0 = Clock.now_ns clock in
        let deferred_before = Metrics.get metrics "cache.bg_deferred" > 0 in
        Tinca.ok_exn (Tinca.write_direct tc (i * 37 mod 250) (block (fill i)));
        let since = Metrics.since metrics snap in
        let writes = since "disk.bg_writes" and seq = since "disk.bg_seq_writes" in
        let foreground =
          since "disk.reads" + since "disk.writes" - writes - since "disk.idle_writes"
        in
        let took = Clock.now_ns clock -. t0 in
        if foreground = 0 && took >= lat.Latency.write_block_ns then
          Alcotest.failf "%s: commit %d took %.0f ns with no foreground disk access" name i took;
        match Metrics.hist metrics "disk.bg_backlog_ns" with
        | Some h when writes > 0 ->
            incr batches;
            if deferred_before then incr later_batches;
            let batch_ns =
              (float_of_int (writes - seq) *. lat.Latency.write_block_ns)
              +. (float_of_int seq *. lat.Latency.seq_block_ns)
            in
            if Hist.max_value h > batch_ns +. 1.0 then
              Alcotest.failf "%s: commit %d: backlog %.0f ns exceeds its batch of %d (%.0f ns)" name
                i (Hist.max_value h) writes batch_ns;
            Hist.reset h
        | _ -> ()
      done;
      Alcotest.(check bool) (name ^ ": several batches") true (!batches > 1);
      Alcotest.(check bool) (name ^ ": a pass deferred") true
        (Metrics.get metrics "cache.bg_deferred" > 0);
      Alcotest.(check bool) (name ^ ": batches ran after a deferral") true (!later_batches > 0))
    schemes

(* On an HDD a pressure batch of scattered blocks keeps the device
   busy for hundreds of milliseconds, so a streaming writer defers the
   next batch for hundreds of commits and replacement has to write
   dirty victims back itself.  No commit may fail for want of room,
   every foreground write-back is counted (the disk's writes are the
   cleaners' plus cache.fg_writebacks, none lost), and every block reads
   back its last version. *)
let test_flusher_hdd_deferral () =
  List.iter
    (fun (name, scheme) ->
      let tc, _, _, _, metrics = cleaner_env ~kind:Latency.Hdd scheme in
      let last = Array.make 250 None in
      for i = 0 to 599 do
        let blk = i * 37 mod 250 in
        (match Tinca.write_direct tc blk (block (fill i)) with
        | Ok () -> ()
        | Error e -> Alcotest.failf "%s: commit %d: %a" name i Tinca.pp_error e);
        last.(blk) <- Some (fill i)
      done;
      let get = Metrics.get metrics in
      Alcotest.(check bool) (name ^ ": passes deferred") true (get "cache.bg_deferred" > 0);
      Alcotest.(check bool) (name ^ ": foreground write-backs") true
        (get "cache.fg_writebacks" > 0);
      Alcotest.(check int) (name ^ ": every disk write counted")
        (get "disk.writes")
        (get "disk.bg_writes" + get "disk.idle_writes" + get "cache.fg_writebacks");
      Tinca.check_invariants tc;
      let wrong = ref [] in
      Array.iteri
        (fun blk v ->
          Option.iter
            (fun c -> if Bytes.get (Tinca.ok_exn (Tinca.read tc blk)) 0 <> c then wrong := blk :: !wrong)
            v)
        last;
      Alcotest.(check (list int)) (name ^ ": blocks reading back a stale version") [] !wrong)
    schemes

(* The cleaner runs at a read while a sealed transaction stands in the
   group window; the sealed blocks stay dirty and the batch still
   drains and reads back. *)
let test_flusher_inside_group_window () =
  let clock = Clock.create () in
  let metrics = Metrics.create () in
  let pmem = Pmem.create ~clock ~metrics ~tech:Latency.Pcm ~size:(256 * 1024) () in
  let disk = Disk.create ~clock ~metrics ~kind:Latency.Ssd ~nblocks:256 ~block_size:4096 in
  let config =
    { Tinca.Config.default with Tinca.Config.nvm_bytes = 256 * 1024; ring_slots = 64;
      group_window_ns = 1_000_000_000 }
  in
  let tc = Tinca.ok_exn (Tinca.format ~config ~pmem ~disk ~clock ~metrics) in
  commit_with_think tc clock ~n:4 ~think_ns:100_000.0;
  let h = Tinca.init_txn tc in
  Tinca.ok_exn (Tinca.write h 50 (block (fill 50)));
  let tk = Tinca.ok_exn (Tinca.commit_async h) in
  Clock.advance clock 100_000.0;
  let before = Metrics.get metrics "tinca.cleaned" in
  ignore (Tinca.ok_exn (Tinca.read tc 210));
  Alcotest.(check int) "batch still standing" 1 (Tinca.group_pending tc);
  Alcotest.(check bool) "cleaned inside the window" true
    (Metrics.get metrics "tinca.cleaned" > before);
  Tinca.ok_exn (Tinca.await tk);
  Tinca.check_invariants tc;
  check_fills "group" tc 4;
  Alcotest.(check char) "sealed block" (fill 50) (Bytes.get (Tinca.ok_exn (Tinca.read tc 50)) 0)

let flusher_suite =
  [
    ( "core.flusher",
      [
        Alcotest.test_case "fires and preserves data" `Quick test_flusher_fires_and_preserves_data;
        Alcotest.test_case "quiet without frame pressure" `Quick
          test_flusher_quiet_without_pressure;
        Alcotest.test_case "clean bit persisted" `Quick test_flusher_marks_clean_persistently;
        Alcotest.test_case "pressure bounds the dirty share" `Quick
          test_flusher_pressure_bounds_dirty;
        Alcotest.test_case "pressure batches never stall the committer" `Quick
          test_flusher_pressure_never_stalls;
        Alcotest.test_case "HDD: deferred batches lose no write-back" `Quick test_flusher_hdd_deferral;
        Alcotest.test_case "runs inside a group window" `Quick test_flusher_inside_group_window;
      ] );
  ]
