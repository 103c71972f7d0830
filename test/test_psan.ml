(* Tests of the persistence sanitizer (lib/check/psan.ml):

   - clean runs: the Tinca commit workload (including crash + recovery),
     the Classic (JBD2 + Flashcache) stack and raw Flashcache produce
     zero violations through [Stacks.instrument];
   - deliberate mutations: a test-only replay of the commit protocol
     with one step dropped (a flush, a fence, the atomicity of an entry
     write) makes each rule fire — proving the rules actually detect
     what they claim to. *)

open Tinca_sim
module Pmem = Tinca_pmem.Pmem
module Layout = Tinca_core.Layout
module Cache = Tinca_core.Cache
module Psan = Tinca_checker.Psan
module Stacks = Tinca_stacks.Stacks
module Backend = Tinca_fs.Backend
module Rng = Tinca_util.Rng

(* --- clean runs through the real stacks --------------------------------- *)

let commit_mix ?(commits = 40) ?(universe = 96) ~seed (stack : Stacks.t) =
  let rng = Rng.create seed in
  for _ = 1 to commits do
    let n = 1 + Rng.int rng 4 in
    let blocks =
      List.init n (fun _ ->
          (Rng.int rng universe, Bytes.make 4096 (Char.chr (Rng.int rng 256))))
    in
    stack.Stacks.backend.Backend.commit_blocks blocks;
    if Rng.chance rng 0.3 then
      ignore (stack.Stacks.backend.Backend.read_block (Rng.int rng universe))
  done

let test_tinca_clean () =
  (* Small NVM (~56 data blocks) against a 96-block universe: the mix
     exercises COW write hits, evictions and the background cleaner. *)
  let env = Stacks.make_env ~nvm_bytes:(256 * 1024) ~disk_blocks:96 () in
  let config = { Tinca.Config.default with Tinca.Config.ring_slots = 64 } in
  let stack, psan = Stacks.instrument (Stacks.tinca ~config env) in
  commit_mix ~seed:7 stack;
  Alcotest.(check int) "no violations" 0 (Psan.violation_count psan);
  let r = Psan.report psan in
  Alcotest.(check bool) "fences observed" true (r.Psan.fences > 0);
  (* The hot path is flush-optimal: every issued line flush starts a
     write-back (the batched role-switch/bg-clean change; psan's
     redundant-flush diagnostic guards the property). *)
  Alcotest.(check int) "no redundant flushes on the commit path" 0 r.Psan.redundant_flushes

let test_tinca_clean_across_recovery () =
  let env = Stacks.make_env ~nvm_bytes:(256 * 1024) ~disk_blocks:96 () in
  let config = { Tinca.Config.default with Tinca.Config.ring_slots = 64 } in
  let stack, psan = Stacks.instrument (Stacks.tinca ~config env) in
  commit_mix ~commits:20 ~seed:11 stack;
  (* Crash mid-life: the sanitizer's shadow resets on the Crash event and
     then audits recovery's revocation writes and the post-recovery
     workload under the same rules. *)
  Pmem.crash ~seed:5 env.Stacks.pmem;
  let recovered = Stacks.tinca_recover env in
  let wrapped =
    let commit_blocks blocks =
      Psan.txn_begin psan;
      match recovered.Stacks.backend.Backend.commit_blocks blocks with
      | () -> Psan.txn_end psan
      | exception e ->
          Psan.txn_abort psan;
          raise e
    in
    { recovered with
      Stacks.backend = { recovered.Stacks.backend with Backend.commit_blocks } }
  in
  commit_mix ~commits:20 ~seed:13 wrapped;
  Alcotest.(check int) "no violations across crash + recovery" 0 (Psan.violation_count psan);
  Alcotest.(check bool) "crash observed" true ((Psan.report psan).Psan.crashes > 0)

let test_classic_clean () =
  let env = Stacks.make_env ~nvm_bytes:(256 * 1024) ~disk_blocks:160 () in
  let stack, psan = Stacks.instrument (Stacks.classic ~journal_len:64 env) in
  commit_mix ~seed:17 stack;
  stack.Stacks.backend.Backend.sync ();
  Alcotest.(check int) "no violations" 0 (Psan.violation_count psan)

let test_flashcache_clean () =
  let env = Stacks.make_env ~nvm_bytes:(256 * 1024) ~disk_blocks:96 () in
  let stack, psan = Stacks.instrument (Stacks.nojournal env) in
  commit_mix ~seed:19 stack;
  stack.Stacks.backend.Backend.sync ();
  Alcotest.(check int) "no violations" 0 (Psan.violation_count psan)

(* --- deliberate mutations (test-only protocol replay) -------------------- *)

(* A bare pmem + Tinca layout: the mutation harness replays the commit
   protocol's pmem operations by hand so single steps can be dropped. *)
let mk_harness ?strict () =
  let clock = Clock.create () in
  let metrics = Metrics.create () in
  let pmem = Pmem.create ~clock ~metrics ~tech:Latency.Pcm ~size:(256 * 1024) () in
  let layout = Layout.compute ~pmem_bytes:(256 * 1024) ~block_size:4096 ~ring_slots:64 in
  let psan = Psan.attach ?strict ~layout pmem in
  (pmem, layout, psan)

let rules psan = List.map (fun v -> v.Psan.rule) (Psan.violations psan)

(* One committed block, protocol steps written out: data COW write +
   persist; entry 16 B atomic + persist; ring slot + persist; Head +
   persist; Tail + persist (the commit point).  [skip_data_flush]
   drops the data persistence step. *)
let replay_commit ?(skip_data_flush = false) pmem (l : Layout.t) =
  let data_off = Layout.data_block_off l 0 in
  Pmem.write pmem ~off:data_off (Bytes.make l.Layout.block_size 'x');
  if not skip_data_flush then Pmem.persist pmem ~off:data_off ~len:l.Layout.block_size;
  let entry_off = Layout.entry_off l 0 in
  Pmem.atomic_write16 pmem ~off:entry_off (Bytes.make 16 '\001');
  Pmem.persist pmem ~off:entry_off ~len:16;
  let slot_off = Layout.ring_slot_off l 0 in
  Pmem.atomic_write8_int pmem ~off:slot_off 42;
  Pmem.persist pmem ~off:slot_off ~len:8;
  Pmem.atomic_write8_int pmem ~off:l.Layout.head_off 1;
  Pmem.persist pmem ~off:l.Layout.head_off ~len:8;
  Pmem.atomic_write8_int pmem ~off:l.Layout.tail_off 1;
  Pmem.persist pmem ~off:l.Layout.tail_off ~len:8

let test_replay_clean () =
  let pmem, layout, psan = mk_harness () in
  replay_commit pmem layout;
  Alcotest.(check int) "faithful replay is clean" 0 (Psan.violation_count psan)

let test_missing_flush_dropped_data_flush () =
  let pmem, layout, psan = mk_harness () in
  replay_commit ~skip_data_flush:true pmem layout;
  let rs = rules psan in
  Alcotest.(check bool) "missing-flush fired" true (List.mem Psan.Missing_flush rs);
  (* the 64 lines of the never-flushed data block, caught at the Tail fence *)
  Alcotest.(check int) "one violation per volatile data line" 64 (List.length rs)

let test_missing_flush_unflushed_entry () =
  let pmem, layout, psan = mk_harness () in
  let entry_off = Layout.entry_off layout 0 in
  Pmem.atomic_write16 pmem ~off:entry_off (Bytes.make 16 '\001');
  (* no clflush, no sfence: the entry never becomes durable *)
  Pmem.atomic_write8_int pmem ~off:layout.Layout.tail_off 1;
  Pmem.persist pmem ~off:layout.Layout.tail_off ~len:8;
  (match Psan.violations psan with
  | [ v ] ->
      Alcotest.(check string) "rule" "missing-flush" (Psan.rule_name v.Psan.rule);
      Alcotest.(check string) "region" "entries" (Psan.region_name v.Psan.region)
  | vs -> Alcotest.failf "expected exactly one violation, got %d" (List.length vs))

(* A read fill's lines are the one unflushed data a commit point and an
   acknowledgement may leave behind; once any other site stores over
   them they are dirty data again and the Tail fence flags them. *)
let test_fill_exempt_until_overwritten () =
  let pmem, layout, psan = mk_harness () in
  let fill_off = Layout.data_block_off layout 1 in
  Psan.txn_begin psan;
  Pmem.set_site pmem "cache.read_fill";
  Pmem.write pmem ~off:fill_off (Bytes.make layout.Layout.block_size 'f');
  Psan.txn_end psan;
  replay_commit pmem layout;
  Alcotest.(check int) "unflushed fill exempt at txn_end and the Tail fence" 0
    (Psan.violation_count psan);
  Pmem.set_site pmem "commit.data";
  Pmem.write pmem ~off:fill_off (Bytes.make 64 'd');
  replay_commit pmem layout;
  match Psan.violations psan with
  | [ v ] ->
      Alcotest.(check string) "rule" "missing-flush" (Psan.rule_name v.Psan.rule);
      Alcotest.(check int) "the overwritten line" (fill_off / Pmem.line_size) v.Psan.line
  | vs -> Alcotest.failf "expected exactly one violation, got %d" (List.length vs)

let test_unfenced_ack () =
  let pmem, layout, psan = mk_harness () in
  Psan.txn_begin psan;
  (* one line of a data block written, never flushed, then acknowledged *)
  Pmem.write pmem ~off:(Layout.data_block_off layout 0) (Bytes.make 64 'y');
  Psan.txn_end psan;
  (match Psan.violations psan with
  | [ v ] -> Alcotest.(check string) "rule" "unfenced-ack" (Psan.rule_name v.Psan.rule)
  | vs -> Alcotest.failf "expected exactly one violation, got %d" (List.length vs));
  (* txn_abort acknowledges nothing: same store pattern, no violation *)
  let pmem2, layout2, psan2 = mk_harness () in
  Psan.txn_begin psan2;
  Pmem.write pmem2 ~off:(Layout.data_block_off layout2 0) (Bytes.make 64 'y');
  Psan.txn_abort psan2;
  Alcotest.(check int) "abort checks nothing" 0 (Psan.violation_count psan2)

let test_torn_metadata () =
  let pmem, layout, psan = mk_harness () in
  (* non-atomic 16 B store where the protocol requires atomic_write16 *)
  Pmem.write pmem ~off:(Layout.entry_off layout 0) (Bytes.make 16 '\001');
  (match Psan.violations psan with
  | [ v ] ->
      Alcotest.(check string) "rule" "torn-metadata" (Psan.rule_name v.Psan.rule);
      Alcotest.(check string) "region" "entries" (Psan.region_name v.Psan.region)
  | vs -> Alcotest.failf "expected exactly one violation, got %d" (List.length vs));
  (* data blocks are COW-protected: a non-atomic store there is fine *)
  let pmem2, layout2, psan2 = mk_harness () in
  Pmem.write pmem2 ~off:(Layout.data_block_off layout2 0) (Bytes.make 4096 'z');
  Alcotest.(check int) "data store allowed" 0 (Psan.violation_count psan2)

let test_persist_race () =
  let pmem, layout, psan = mk_harness () in
  Pmem.atomic_write8_int pmem ~off:layout.Layout.head_off 1;
  Pmem.clflush pmem ~off:layout.Layout.head_off ~len:8;
  (* store into the flush-pending Head line before the fence *)
  Pmem.atomic_write8_int pmem ~off:layout.Layout.head_off 2;
  (match Psan.violations psan with
  | [ v ] ->
      Alcotest.(check string) "rule" "persist-race" (Psan.rule_name v.Psan.rule);
      Alcotest.(check string) "region" "head" (Psan.region_name v.Psan.region)
  | vs -> Alcotest.failf "expected exactly one violation, got %d" (List.length vs))

let test_redundant_flush_counted () =
  let pmem, layout, psan = mk_harness () in
  Pmem.set_site pmem "mut.redundant";
  (* flush of a clean line: issued, but starts no write-back *)
  Pmem.clflush pmem ~off:(Layout.data_block_off layout 1) ~len:64;
  (* flush of an already-pending line: same *)
  Pmem.write pmem ~off:(Layout.data_block_off layout 2) (Bytes.make 64 'w');
  Pmem.clflush pmem ~off:(Layout.data_block_off layout 2) ~len:64;
  Pmem.clflush pmem ~off:(Layout.data_block_off layout 2) ~len:64;
  let r = Psan.report psan in
  Alcotest.(check int) "redundant flushes counted" 2 r.Psan.redundant_flushes;
  Alcotest.(check (list (pair string int)))
    "attributed to the call site"
    [ ("mut.redundant", 2) ]
    r.Psan.redundant_by_site;
  Alcotest.(check int) "diagnostic, not a violation" 0 (Psan.violation_count psan)

let test_strict_raises () =
  let pmem, layout, psan = mk_harness ~strict:true () in
  ignore psan;
  Alcotest.(check bool) "strict mode raises on first violation" true
    (try
       Pmem.write pmem ~off:(Layout.entry_off layout 0) (Bytes.make 16 '\001');
       false
     with Psan.Violation v -> v.Psan.rule = Psan.Torn_metadata)

let test_detach_stops_observing () =
  let pmem, layout, psan = mk_harness () in
  Psan.detach psan;
  Pmem.write pmem ~off:(Layout.entry_off layout 0) (Bytes.make 16 '\001');
  Alcotest.(check int) "no events after detach" 0 (Psan.report psan).Psan.events

let suite =
  [
    ( "psan.clean",
      [
        Alcotest.test_case "tinca commit workload" `Quick test_tinca_clean;
        Alcotest.test_case "tinca across crash+recovery" `Quick test_tinca_clean_across_recovery;
        Alcotest.test_case "classic (jbd2+flashcache)" `Quick test_classic_clean;
        Alcotest.test_case "flashcache (no journal)" `Quick test_flashcache_clean;
        Alcotest.test_case "faithful protocol replay" `Quick test_replay_clean;
      ] );
    ( "psan.mutations",
      [
        Alcotest.test_case "missing-flush: dropped data flush" `Quick
          test_missing_flush_dropped_data_flush;
        Alcotest.test_case "missing-flush: unflushed entry" `Quick
          test_missing_flush_unflushed_entry;
        Alcotest.test_case "missing-flush: fill exempt until overwritten" `Quick
          test_fill_exempt_until_overwritten;
        Alcotest.test_case "unfenced-ack: commit without persist" `Quick test_unfenced_ack;
        Alcotest.test_case "torn-metadata: non-atomic entry write" `Quick test_torn_metadata;
        Alcotest.test_case "persist-race: store into pending head" `Quick test_persist_race;
        Alcotest.test_case "redundant-flush: counted per site" `Quick
          test_redundant_flush_counted;
        Alcotest.test_case "strict mode raises" `Quick test_strict_raises;
        Alcotest.test_case "detach stops observing" `Quick test_detach_stops_observing;
      ] );
  ]
