(* Tests of the persistent-memory simulator: store/flush/fence semantics,
   crash resolution, atomicity, counters, wear. *)
open Tinca_sim
module Pmem = Tinca_pmem.Pmem

let mk ?(tech = Latency.Pcm) ?(size = 8192) ?(seed = 1) () =
  let clock = Clock.create () in
  let metrics = Metrics.create () in
  let p = Pmem.create ~seed ~clock ~metrics ~tech ~size () in
  (p, clock, metrics)

let bytes_of s = Bytes.of_string s

let test_read_back () =
  let p, _, _ = mk () in
  Pmem.write p ~off:100 (bytes_of "hello");
  Alcotest.(check string) "newest visible" "hello" (Bytes.to_string (Pmem.read p ~off:100 ~len:5))

let test_persist_survives_crash () =
  let p, _, _ = mk () in
  Pmem.write p ~off:0 (bytes_of "durable!");
  Pmem.persist p ~off:0 ~len:8;
  (* Crash with survival = 0: every non-durable line is lost. *)
  Pmem.crash ~seed:9 ~survival:0.0 p;
  Alcotest.(check string) "persisted data survives" "durable!"
    (Bytes.to_string (Pmem.read p ~off:0 ~len:8))

let test_unflushed_lost_when_survival_zero () =
  let p, _, _ = mk () in
  Pmem.write p ~off:0 (bytes_of "volatile");
  Pmem.crash ~seed:9 ~survival:0.0 p;
  Alcotest.(check string) "unflushed store lost" (String.make 8 '\000')
    (Bytes.to_string (Pmem.read p ~off:0 ~len:8))

let test_unflushed_survives_when_survival_one () =
  let p, _, _ = mk () in
  Pmem.write p ~off:0 (bytes_of "volatile");
  Pmem.crash ~seed:9 ~survival:1.0 p;
  Alcotest.(check string) "line evicted before crash" "volatile"
    (Bytes.to_string (Pmem.read p ~off:0 ~len:8))

let test_clflush_without_fence_not_durable () =
  let p, _, _ = mk () in
  Pmem.write p ~off:0 (bytes_of "pending!");
  Pmem.clflush p ~off:0 ~len:8;
  (* Still flush-pending: a crash with survival 0 loses it. *)
  Pmem.crash ~seed:9 ~survival:0.0 p;
  Alcotest.(check string) "clflush alone is not durability" (String.make 8 '\000')
    (Bytes.to_string (Pmem.read p ~off:0 ~len:8))

let test_fence_makes_pending_durable () =
  let p, _, _ = mk () in
  Pmem.write p ~off:0 (bytes_of "pending!");
  Pmem.clflush p ~off:0 ~len:8;
  Pmem.sfence p;
  Alcotest.(check int) "no dirty lines" 0 (Pmem.dirty_line_count p);
  Pmem.crash ~seed:9 ~survival:0.0 p;
  Alcotest.(check string) "fenced line durable" "pending!"
    (Bytes.to_string (Pmem.read p ~off:0 ~len:8))

let test_crash_reverts_to_last_persisted () =
  let p, _, _ = mk () in
  Pmem.write p ~off:0 (bytes_of "version1");
  Pmem.persist p ~off:0 ~len:8;
  Pmem.write p ~off:0 (bytes_of "version2");
  Pmem.crash ~seed:9 ~survival:0.0 p;
  Alcotest.(check string) "reverted to last persisted" "version1"
    (Bytes.to_string (Pmem.read p ~off:0 ~len:8))

let test_crash_subset_is_per_line () =
  (* Two distinct lines dirty; with 50 % survival and many seeds we should
     observe all four outcomes, demonstrating per-line independence. *)
  let outcomes = Hashtbl.create 4 in
  for seed = 0 to 63 do
    let p, _, _ = mk () in
    Pmem.write p ~off:0 (bytes_of "AAAAAAAA");
    Pmem.write p ~off:64 (bytes_of "BBBBBBBB");
    Pmem.crash ~seed ~survival:0.5 p;
    let a = Bytes.get (Pmem.read p ~off:0 ~len:1) 0 = 'A' in
    let b = Bytes.get (Pmem.read p ~off:64 ~len:1) 0 = 'B' in
    Hashtbl.replace outcomes (a, b) ()
  done;
  Alcotest.(check int) "all four survival combinations seen" 4 (Hashtbl.length outcomes)

let test_atomic8_alignment_enforced () =
  let p, _, _ = mk () in
  Alcotest.check_raises "misaligned" (Invalid_argument "Pmem.atomic_write8: misaligned")
    (fun () -> Pmem.atomic_write8 p ~off:4 1L)

let test_atomic16_alignment_enforced () =
  let p, _, _ = mk () in
  Alcotest.check_raises "misaligned" (Invalid_argument "Pmem.atomic_write16: misaligned")
    (fun () -> Pmem.atomic_write16 p ~off:8 (Bytes.make 16 'x'))

let test_atomic8_roundtrip () =
  let p, _, _ = mk () in
  Pmem.atomic_write8 p ~off:16 0x1122334455667788L;
  Alcotest.(check int64) "roundtrip" 0x1122334455667788L (Pmem.read_u64 p ~off:16)

let test_atomic8_never_tears () =
  (* An 8 B atomic store within one line either fully survives a crash or
     fully reverts — never a byte mixture. *)
  for seed = 0 to 31 do
    let p, _, _ = mk () in
    Pmem.atomic_write8 p ~off:0 0x5555555555555555L;
    Pmem.persist p ~off:0 ~len:8;
    Pmem.atomic_write8 p ~off:0 0xAAAAAAAAAAAAAAAAL;
    Pmem.crash ~seed ~survival:0.5 p;
    let v = Pmem.read_u64 p ~off:0 in
    Alcotest.(check bool)
      (Printf.sprintf "seed %d: no torn value" seed)
      true
      (Int64.equal v 0x5555555555555555L || Int64.equal v 0xAAAAAAAAAAAAAAAAL)
  done

let test_out_of_bounds_rejected () =
  let p, _, _ = mk ~size:128 () in
  Alcotest.(check bool) "raises" true
    (try
       Pmem.write p ~off:120 (bytes_of "too-long!");
       false
     with Invalid_argument _ -> true);
  (* A line's 32-bit word must hold its slot index; the size is checked
     before anything is allocated. *)
  Alcotest.(check bool) "more than 2^29 lines rejected" true
    (try
       ignore (mk ~size:(((1 lsl 29) + 1) * 64) ());
       false
     with Invalid_argument _ -> true)

let test_counters () =
  let p, _, m = mk () in
  Pmem.write p ~off:0 (Bytes.make 256 'x');
  (* 256 B = 4 lines *)
  Alcotest.(check int) "store lines" 4 (Metrics.get m "pmem.store_lines");
  Pmem.clflush p ~off:0 ~len:256;
  Alcotest.(check int) "clflush count" 4 (Metrics.get m "pmem.clflush");
  Pmem.sfence p;
  Alcotest.(check int) "sfence count" 1 (Metrics.get m "pmem.sfence");
  Alcotest.(check int) "lines persisted" 4 (Metrics.get m "pmem.lines_persisted")

(* A line entering dirty owes the medium one write: once every store is
   flushed and fenced, the entries equal the write-backs; a store nobody
   flushes owes its lines and has started none. *)
let test_lines_dirtied () =
  let p, _, m = mk () in
  let check_equal what =
    Alcotest.(check int) what
      (Metrics.get m "pmem.clflush_writebacks")
      (Metrics.get m "pmem.lines_dirtied")
  in
  Pmem.write p ~off:0 (Bytes.make 256 'x');
  Pmem.clflush p ~off:0 ~len:256;
  (* Re-dirties a flush-pending line: one more write owed. *)
  Pmem.write p ~off:64 (Bytes.make 8 'y');
  Pmem.atomic_write8 p ~off:512 7L;
  (* A store into a line that is already dirty owes nothing new. *)
  Pmem.atomic_write8 p ~off:520 8L;
  Pmem.flush_ranges p [ (0, 256); (512, 16) ];
  Pmem.sfence p;
  Alcotest.(check int) "lines dirtied" 6 (Metrics.get m "pmem.lines_dirtied");
  check_equal "flushed sequence: dirtied = write-backs";
  Pmem.persist p ~off:0 ~len:1024;
  check_equal "clean lines flushed again owe nothing";
  let p, _, m = mk () in
  Pmem.write p ~off:0 (Bytes.make 4096 'z');
  Alcotest.(check int) "4 KiB unflushed store: dirtied" 64 (Metrics.get m "pmem.lines_dirtied");
  Alcotest.(check int) "4 KiB unflushed store: write-backs" 0
    (Metrics.get m "pmem.clflush_writebacks")

let test_clock_charges () =
  let p, clock, _ = mk ~tech:Latency.Pcm () in
  let t0 = Clock.now_ns clock in
  Pmem.write p ~off:0 (Bytes.make 64 'x');
  Pmem.persist p ~off:0 ~len:64;
  let dt = Clock.now_ns clock -. t0 in
  (* One line: store 10 + clflush 100 + write 195 + sfence 20 = 325 ns. *)
  Alcotest.(check (float 1.0)) "pcm line persist cost" 325.0 dt

let test_tech_affects_cost () =
  let cost tech =
    let p, clock, _ = mk ~tech () in
    Pmem.write p ~off:0 (Bytes.make 4096 'x');
    Pmem.persist p ~off:0 ~len:4096;
    Clock.now_ns clock
  in
  Alcotest.(check bool) "PCM slower than NVDIMM" true (cost Latency.Pcm > cost Latency.Nvdimm);
  Alcotest.(check bool) "STT-RAM between" true
    (cost Latency.Stt_ram > cost Latency.Nvdimm && cost Latency.Stt_ram < cost Latency.Pcm)

let test_crash_countdown () =
  let p, _, _ = mk () in
  Pmem.set_crash_countdown p (Some 3);
  Pmem.write p ~off:0 (bytes_of "a");
  (* event 1 *)
  Pmem.clflush p ~off:0 ~len:1;
  (* event 2 *)
  Alcotest.check_raises "third event crashes" Pmem.Crash_point (fun () -> Pmem.sfence p);
  (* After the raise the hook stays armed until crash is called. *)
  Pmem.crash ~seed:1 ~survival:0.0 p;
  (* Disabled after crash: no raise. *)
  Pmem.write p ~off:0 (bytes_of "b")

(* A zero-length store or flush stores nothing: it is no event, so it
   neither spends an armed countdown nor counts in [event_count]. *)
let test_zero_length_ops_are_no_events () =
  let p, _, m = mk () in
  Pmem.write p ~off:0 (bytes_of "x");
  let n0 = Pmem.event_count p in
  Pmem.set_crash_countdown p (Some 1);
  Pmem.write p ~off:64 Bytes.empty;
  Pmem.write_sub p ~off:64 (bytes_of "abc") ~pos:1 ~len:0;
  Pmem.fill p ~off:64 ~len:0 'f';
  Pmem.clflush p ~off:0 ~len:0;
  Alcotest.(check int) "event_count unchanged" n0 (Pmem.event_count p);
  Alcotest.(check int) "no store counted" 1 (Metrics.get m "pmem.stores");
  Alcotest.(check int) "no flush counted" 0 (Metrics.get m "pmem.clflush");
  Alcotest.check_raises "the next real op is the armed event" Pmem.Crash_point (fun () ->
      Pmem.sfence p)

let test_wear_accounting () =
  let p, _, _ = mk () in
  for _ = 1 to 10 do
    Pmem.write p ~off:0 (Bytes.make 64 'x');
    Pmem.persist p ~off:0 ~len:64
  done;
  Alcotest.(check int) "total wear" 10 (Pmem.wear_total p);
  Alcotest.(check int) "max wear" 10 (Pmem.wear_max p)

let test_dirty_tracking () =
  let p, _, _ = mk () in
  Alcotest.(check bool) "clean initially" false (Pmem.is_dirty p ~off:0);
  Pmem.write p ~off:0 (bytes_of "x");
  Alcotest.(check bool) "dirty after store" true (Pmem.is_dirty p ~off:0);
  Pmem.persist p ~off:0 ~len:1;
  Alcotest.(check bool) "clean after persist" false (Pmem.is_dirty p ~off:0)

(* --- crash-space exploration hooks (lib/check's model checker) ----------- *)

let test_unfenced_lines_ordering () =
  let p, _, _ = mk ~size:4096 () in
  Alcotest.(check (list int)) "clean device" [] (Pmem.unfenced_lines p);
  (* Dirty lines 5, 1 and 3 in that order: the listing is ascending. *)
  Pmem.write p ~off:(5 * 64) (bytes_of "e");
  Pmem.write p ~off:(1 * 64) (bytes_of "a");
  Pmem.write p ~off:(3 * 64) (bytes_of "c");
  Alcotest.(check (list int)) "ascending" [ 1; 3; 5 ] (Pmem.unfenced_lines p);
  (* A flush-pending line is still unfenced. *)
  Pmem.clflush p ~off:(3 * 64) ~len:64;
  Alcotest.(check (list int)) "pending still listed" [ 1; 3; 5 ] (Pmem.unfenced_lines p);
  Pmem.sfence p;
  (* The fence persisted line 3 only; 1 and 5 were never flushed. *)
  Alcotest.(check (list int)) "fence clears pending only" [ 1; 5 ] (Pmem.unfenced_lines p)

let test_torn_lines () =
  let p, _, _ = mk ~size:4096 () in
  Pmem.write p ~off:0 (bytes_of "version1");
  Pmem.persist p ~off:0 ~len:8;
  (* Rewriting the identical bytes dirties the line without changing it:
     losing vs. keeping it is indistinguishable, so it is not torn. *)
  Pmem.write p ~off:0 (bytes_of "version1");
  Alcotest.(check (list int)) "line is unfenced" [ 0 ] (Pmem.unfenced_lines p);
  Alcotest.(check (list int)) "identical rewrite is not torn" [] (Pmem.torn_lines p);
  (* A genuine change is torn. *)
  Pmem.write p ~off:0 (bytes_of "version2");
  Alcotest.(check (list int)) "changed line is torn" [ 0 ] (Pmem.torn_lines p);
  (* Listed ascending, whatever the store order; a line whose pre-image
     was logged twice (fenced in between) is judged by its newest one. *)
  Pmem.write p ~off:(5 * 64) (bytes_of "e");
  Pmem.write p ~off:(3 * 64) (bytes_of "\000");
  Pmem.write p ~off:(2 * 64) (bytes_of "c");
  Pmem.persist p ~off:(2 * 64) ~len:1;
  Pmem.write p ~off:(2 * 64) (bytes_of "c");
  Alcotest.(check (list int)) "unfenced" [ 0; 2; 3; 5 ] (Pmem.unfenced_lines p);
  Alcotest.(check (list int)) "torn, ascending" [ 0; 5 ] (Pmem.torn_lines p)

let test_crash_select_verdicts () =
  let p, _, _ = mk ~size:4096 () in
  Pmem.write p ~off:0 (bytes_of "AAAAAAAA");
  Pmem.write p ~off:64 (bytes_of "BBBBBBBB");
  (* Line 0 survives, line 1 is lost — deterministically. *)
  Pmem.crash_select p ~survive:(fun idx -> idx = 0);
  Alcotest.(check string) "survivor kept" "AAAAAAAA" (Bytes.to_string (Pmem.read p ~off:0 ~len:8));
  Alcotest.(check string) "loser reverted" (String.make 8 '\000')
    (Bytes.to_string (Pmem.read p ~off:64 ~len:8));
  Alcotest.(check int) "volatile layer emptied" 0 (Pmem.dirty_line_count p)

let test_snapshot_restore_roundtrip () =
  let p, _, _ = mk ~size:4096 () in
  (* Build mixed state: a persisted line (wear), a flush-pending line and
     a dirty line. *)
  Pmem.write p ~off:0 (bytes_of "durable!");
  Pmem.persist p ~off:0 ~len:8;
  Pmem.write p ~off:64 (bytes_of "pending!");
  Pmem.clflush p ~off:64 ~len:8;
  Pmem.write p ~off:128 (bytes_of "volatile");
  let snap = Pmem.snapshot p in
  let digest0 = Pmem.media_digest p in
  let dirty0 = Pmem.dirty_line_count p in
  let unfenced0 = Pmem.unfenced_lines p in
  let wear0 = Pmem.wear_total p in
  (* Diverge: lose everything volatile, then overwrite the durable line. *)
  Pmem.crash ~seed:3 ~survival:0.0 p;
  Pmem.write p ~off:0 (bytes_of "other!!!");
  Pmem.persist p ~off:0 ~len:8;
  Alcotest.(check bool) "diverged" false (Digest.equal digest0 (Pmem.media_digest p));
  (* Restore: medium, volatile layer and wear all return. *)
  Pmem.restore p snap;
  Alcotest.(check bool) "media digest restored" true (Digest.equal digest0 (Pmem.media_digest p));
  Alcotest.(check int) "dirty lines restored" dirty0 (Pmem.dirty_line_count p);
  Alcotest.(check (list int)) "unfenced set restored" unfenced0 (Pmem.unfenced_lines p);
  Alcotest.(check int) "wear restored" wear0 (Pmem.wear_total p);
  Alcotest.(check string) "newest store visible again" "volatile"
    (Bytes.to_string (Pmem.read p ~off:128 ~len:8));
  (* The pending flag survived the round-trip: a fence persists line 1,
     after which survival-0 crash keeps it but loses line 2. *)
  Pmem.sfence p;
  Pmem.crash ~seed:4 ~survival:0.0 p;
  Alcotest.(check string) "restored pending line fenced durable" "pending!"
    (Bytes.to_string (Pmem.read p ~off:64 ~len:8));
  Alcotest.(check string) "restored dirty line lost" (String.make 8 '\000')
    (Bytes.to_string (Pmem.read p ~off:128 ~len:8))

let test_wear_max_in_ranges () =
  let p, _, _ = mk ~size:4096 () in
  (* Line 0: 5 write-backs; line 2: 2 write-backs. *)
  for _ = 1 to 5 do
    Pmem.write p ~off:0 (Bytes.make 64 'x');
    Pmem.persist p ~off:0 ~len:64
  done;
  for _ = 1 to 2 do
    Pmem.write p ~off:128 (Bytes.make 64 'y');
    Pmem.persist p ~off:128 ~len:64
  done;
  Alcotest.(check int) "whole device" 5 (Pmem.wear_max_in p ~off:0 ~len:4096);
  Alcotest.(check int) "hot line only" 5 (Pmem.wear_max_in p ~off:0 ~len:64);
  Alcotest.(check int) "excluding the hot line" 2 (Pmem.wear_max_in p ~off:64 ~len:(4096 - 64));
  Alcotest.(check int) "untouched range" 0 (Pmem.wear_max_in p ~off:1024 ~len:1024);
  Alcotest.(check bool) "out of range rejected" true
    (try
       ignore (Pmem.wear_max_in p ~off:4032 ~len:128);
       false
     with Invalid_argument _ -> true)

(* --- event observation (lib/check's persistence sanitizer) --------------- *)

let test_observer_event_sequence () =
  let p, _, _ = mk ~size:4096 () in
  let seen = ref [] in
  Pmem.set_observer p (Some (fun ev -> seen := ev :: !seen));
  Pmem.write p ~off:0 (bytes_of "hello");
  Pmem.persist p ~off:0 ~len:5;
  Pmem.atomic_write8 p ~off:64 1L;
  Pmem.write p ~off:0 Bytes.empty;
  (* zero-length: no event *)
  Pmem.set_observer p None;
  Pmem.write p ~off:0 (bytes_of "unobserved");
  Alcotest.(check bool) "exactly one event per op, none after detach" true
    (List.rev !seen
    = [
        Pmem.Store { off = 0; len = 5 };
        Pmem.Clflush { off = 0; len = 5 };
        Pmem.Sfence;
        Pmem.Atomic_write { off = 64; len = 8 };
      ])

let test_atomic8_int_rejects_negative () =
  let p, _, _ = mk () in
  Alcotest.check_raises "negative"
    (Invalid_argument "Pmem.atomic_write8_int: negative value") (fun () ->
      Pmem.atomic_write8_int p ~off:0 (-1))

(* Property: any prefix of (write; persist) operations followed by a crash
   preserves every persisted write. *)
let prop_persisted_prefix_survives =
  QCheck.Test.make ~name:"persisted writes survive any crash" ~count:100
    QCheck.(pair small_nat (list_of_size Gen.(int_range 1 20) (pair (int_bound 63) (int_bound 255))))
    (fun (seed, writes) ->
      let p, _, _ = mk ~size:4096 () in
      List.iter
        (fun (line, v) ->
          let b = Bytes.make 64 (Char.chr v) in
          Pmem.write p ~off:(line * 64) b;
          Pmem.persist p ~off:(line * 64) ~len:64)
        writes;
      Pmem.crash ~seed ~survival:0.0 p;
      (* The LAST persisted value for each line must be present. *)
      let expect = Hashtbl.create 16 in
      List.iter (fun (line, v) -> Hashtbl.replace expect line v) writes;
      Hashtbl.fold
        (fun line v acc ->
          acc && Bytes.get (Pmem.read p ~off:(line * 64) ~len:1) 0 = Char.chr v)
        expect true)

(* Property: a crash never invents data — every line is either its newest
   store or its last persisted content. *)
let prop_crash_no_invention =
  QCheck.Test.make ~name:"crash yields old or new content per line" ~count:100
    QCheck.(triple small_nat (int_bound 63) (pair (int_bound 255) (int_bound 255)))
    (fun (seed, line, (v1, v2)) ->
      let p, _, _ = mk ~size:4096 () in
      Pmem.write p ~off:(line * 64) (Bytes.make 64 (Char.chr v1));
      Pmem.persist p ~off:(line * 64) ~len:64;
      Pmem.write p ~off:(line * 64) (Bytes.make 64 (Char.chr v2));
      Pmem.crash ~seed ~survival:0.5 p;
      let c = Bytes.get (Pmem.read p ~off:(line * 64) ~len:1) 0 in
      c = Char.chr v1 || c = Char.chr v2)

(* --- the volatile line layer against a two-set model -------------------- *)

(* T = lines stored since they were last persisted, P ⊆ T = the
   flush-pending ones.  A store adds its lines to T and removes them from
   P; a flush moves T-lines into P; a fence retires exactly P — one wear
   tick and one [pmem.lines_persisted] per P-line, nothing elsewhere. *)
module IS = Set.Make (Int)

type op =
  | Write of int * int (* off, len *)
  | Fill of int * int
  | Atomic8 of int (* 8 B slot *)
  | Atomic16 of int (* 16 B slot *)
  | Clflush of int * int
  | Flush_ranges of (int * int) list (* off, len *)
  | Sfence
  | Persist of int * int
  | Persist_all (* one [flush_ranges] over the device, then a fence *)
  | Snap_restore (* snapshot, diverge (crash + store), restore *)
  | Crash_select of int (* lines with [idx mod 3 = k] survive *)

let model_lines = 16
let model_size = model_lines * 64

let show_lines l = "[" ^ String.concat ";" (List.map string_of_int l) ^ "]"

let show_op = function
  | Write (o, l) -> Printf.sprintf "Write(%d,%d)" o l
  | Fill (o, l) -> Printf.sprintf "Fill(%d,%d)" o l
  | Atomic8 s -> Printf.sprintf "Atomic8 %d" s
  | Atomic16 s -> Printf.sprintf "Atomic16 %d" s
  | Clflush (o, l) -> Printf.sprintf "Clflush(%d,%d)" o l
  | Flush_ranges r ->
      "Flush_ranges[" ^ String.concat ";" (List.map (fun (o, l) -> Printf.sprintf "(%d,%d)" o l) r) ^ "]"
  | Sfence -> "Sfence"
  | Persist (o, l) -> Printf.sprintf "Persist(%d,%d)" o l
  | Persist_all -> "Persist_all"
  | Snap_restore -> "Snap_restore"
  | Crash_select k -> Printf.sprintf "Crash_select %d" k

(* Ranges of up to 16 lines, and [Persist_all] to empty the layer, so
   stores take runs of fresh slots as well as given-back ones. *)
let gen_op =
  let open QCheck.Gen in
  let range =
    map2
      (fun off len -> (off, min len (model_size - off)))
      (int_bound (model_size - 1)) (int_range 1 (16 * 64))
  in
  frequency
    [
      (4, map (fun (o, l) -> Write (o, l)) range);
      (1, map (fun (o, l) -> Fill (o, l)) range);
      (1, map (fun s -> Atomic8 s) (int_bound ((model_size / 8) - 1)));
      (1, map (fun s -> Atomic16 s) (int_bound ((model_size / 16) - 1)));
      (3, map (fun (o, l) -> Clflush (o, l)) range);
      (4, map (fun r -> Flush_ranges r) (list_size (int_range 0 4) range));
      (2, return Sfence);
      (1, map (fun (o, l) -> Persist (o, l)) range);
      (1, return Persist_all);
      (1, return Snap_restore);
      (1, map (fun k -> Crash_select k) (int_bound 2));
    ]

let range_lines off len =
  let first = off / 64 and last = (off + len - 1) / 64 in
  IS.of_list (List.init (last - first + 1) (fun i -> first + i))

let expect what show exp got =
  if exp <> got then failwith (Printf.sprintf "%s: expected %s, got %s" what (show exp) (show got))

(* Step [step] of a sequence, on the device alone. *)
let apply p step = function
  | Write (off, len) -> Pmem.write p ~off (Bytes.make len 'w')
  | Fill (off, len) -> Pmem.fill p ~off ~len 'f'
  | Atomic8 s -> Pmem.atomic_write8 p ~off:(s * 8) (Int64.of_int step)
  | Atomic16 s -> Pmem.atomic_write16 p ~off:(s * 16) (Bytes.make 16 'a')
  | Clflush (off, len) -> Pmem.clflush p ~off ~len
  | Flush_ranges r -> Pmem.flush_ranges p r
  | Sfence -> Pmem.sfence p
  | Persist (off, len) -> Pmem.persist p ~off ~len
  | Persist_all ->
      Pmem.flush_ranges p [ (0, model_size) ];
      Pmem.sfence p
  | Snap_restore ->
      let snap = Pmem.snapshot p in
      Pmem.crash_select p ~survive:(fun _ -> false);
      Pmem.write p ~off:0 (Bytes.make 64 'z');
      Pmem.restore p snap
  | Crash_select k -> Pmem.crash_select p ~survive:(fun idx -> idx mod 3 = k)

(* Runs [ops] on a fresh device and the model side by side, failing at
   the first step where they disagree. *)
let run_against_model ops =
  let p, _, m = mk ~size:model_size () in
  let t = ref IS.empty and pend = ref IS.empty in
  let store lines =
    t := IS.union !t lines;
    pend := IS.diff !pend lines
  in
  let flush lines = pend := IS.union !pend (IS.inter lines !t) in
  let wear () = Array.init model_lines (fun i -> Pmem.wear_sum_in p ~off:(i * 64) ~len:64) in
  (* [fence] is an operation ending in one sfence, after any flushes the
     model has already applied. *)
  let fenced what fence =
    let w0 = wear () and n0 = Metrics.get m "pmem.lines_persisted" in
    fence ();
    let w1 = wear () in
    for i = 0 to model_lines - 1 do
      expect
        (Printf.sprintf "%s: wear of line %d" what i)
        string_of_int
        (w0.(i) + if IS.mem i !pend then 1 else 0)
        w1.(i)
    done;
    expect (what ^ ": lines_persisted delta") string_of_int (IS.cardinal !pend)
      (Metrics.get m "pmem.lines_persisted" - n0);
    t := IS.diff !t !pend;
    pend := IS.empty
  in
  List.iteri
    (fun step op ->
      let what = Printf.sprintf "step %d %s" step (show_op op) in
      let device () = apply p step op in
      (match op with
      | Write (off, len) | Fill (off, len) ->
          device ();
          store (range_lines off len)
      | Atomic8 s ->
          device ();
          store (range_lines (s * 8) 8)
      | Atomic16 s ->
          device ();
          store (range_lines (s * 16) 16)
      | Clflush (off, len) ->
          device ();
          flush (range_lines off len)
      | Flush_ranges r ->
          device ();
          List.iter (fun (off, len) -> flush (range_lines off len)) r
      | Sfence -> fenced what device
      | Persist (off, len) ->
          flush (range_lines off len);
          fenced what device
      | Persist_all ->
          flush (range_lines 0 model_size);
          fenced what device
      | Snap_restore -> device ()
      | Crash_select _ ->
          device ();
          t := IS.empty;
          pend := IS.empty);
      expect (what ^ ": unfenced_lines") show_lines (IS.elements !t) (Pmem.unfenced_lines p);
      expect (what ^ ": dirty_line_count") string_of_int (IS.cardinal !t) (Pmem.dirty_line_count p);
      for i = 0 to model_lines - 1 do
        expect
          (Printf.sprintf "%s: is_dirty line %d" what i)
          string_of_bool (IS.mem i !t)
          (Pmem.is_dirty p ~off:(i * 64))
      done)
    ops

(* The two sequences the fence's pending list must get right: a store
   into a flush-pending line that is then flushed again (the line is
   listed twice but retired once), a store into a pending line that is
   NOT flushed again (listed but no longer pending: not retired), and a
   restore of a snapshot taken with pending lines, followed by a fence. *)
let test_model_edge_cases () =
  run_against_model
    [
      Write (0, 256);
      Clflush (0, 128);
      Write (64, 8);
      Flush_ranges [ (128, 64); (64, 64) ];
      Write (128, 8);
      Sfence;
      Write (640, 100);
      Clflush (640, 100);
      Write (800, 8);
      Snap_restore;
      Sfence;
      Persist (800, 8);
    ]

(* Run-level stores against the model: a store over clean and pending
   lines after the layer was emptied, and one that takes given-back
   slots before fresh ones. *)
let test_model_runs () =
  run_against_model
    [
      Write (0, 1024);
      Persist_all;
      Write (0, 256);
      Clflush (128, 64);
      Write (64, 512);
      Persist (0, 64);
      Write (0, 1024);
      Crash_select 1;
      Write (320, 320);
      Persist_all;
    ]

let prop_model =
  QCheck.Test.make ~name:"line layer agrees with the two-set model" ~count:300
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map show_op ops))
       QCheck.Gen.(list_size (int_range 1 60) gen_op))
    (fun ops ->
      run_against_model ops;
      true)

(* --- per-line events against counted events ------------------------------ *)

(* [flush_ranges] builds one event per line only for an armed crash
   countdown or an attached observer; otherwise it counts the burst's
   events at once.  A no-op observer must change nothing else: the same
   events counted, counters, line layer and post-crash medium. *)
let run_counted_and_per_line ops =
  let counted, _, mc = mk ~size:model_size () in
  let per_line, _, mp = mk ~size:model_size () in
  Pmem.set_observer per_line (Some ignore);
  let same what show f = expect what show (f per_line) (f counted) in
  let show_counters l = String.concat ";" (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) l) in
  List.iteri
    (fun step op ->
      apply counted step op;
      apply per_line step op;
      same (Printf.sprintf "step %d %s: event_count" step (show_op op)) string_of_int
        Pmem.event_count)
    ops;
  expect "counters" show_counters (Metrics.to_list mp) (Metrics.to_list mc);
  same "dirty_line_count" string_of_int Pmem.dirty_line_count;
  same "unfenced_lines" show_lines Pmem.unfenced_lines;
  same "torn_lines" show_lines Pmem.torn_lines;
  Pmem.crash ~seed:7 counted;
  Pmem.crash ~seed:7 per_line;
  same "post-crash media" Digest.to_hex Pmem.media_digest

let prop_counted_events =
  QCheck.Test.make ~name:"counted flush events match per-line events" ~count:300
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map show_op ops))
       QCheck.Gen.(list_size (int_range 1 60) gen_op))
    (fun ops ->
      run_counted_and_per_line ops;
      true)

(* A countdown armed inside a multi-line burst lands on the same line
   with or without an observer, and as it would across one [clflush]
   per line: the fifth line's event fires, four lines were flushed. *)
let test_countdown_inside_flush_ranges () =
  let run what flush ~observer =
    let p, _, m = mk ~size:model_size () in
    if observer then Pmem.set_observer p (Some ignore);
    Pmem.write p ~off:0 (Bytes.make 512 'x');
    let e0 = Pmem.event_count p in
    Pmem.set_crash_countdown p (Some 5);
    Alcotest.check_raises (what ^ ": crash inside the burst") Pmem.Crash_point (fun () -> flush p);
    let fired = Pmem.event_count p - e0 in
    Pmem.set_crash_countdown p None;
    Pmem.sfence p;
    Alcotest.(check (triple int int int))
      (what ^ ": event fired, lines retired, lines left")
      (5, 4, 4)
      (fired, Metrics.get m "pmem.lines_persisted", Pmem.dirty_line_count p)
  in
  let burst p = Pmem.flush_ranges p [ (256, 256); (0, 256) ] in
  let per_call p =
    for i = 0 to 7 do
      Pmem.clflush p ~off:(i * 64) ~len:64
    done
  in
  run "flush_ranges" burst ~observer:false;
  run "flush_ranges, observed" burst ~observer:true;
  run "clflush per line" per_call ~observer:false

(* A burst counted at once and one built per line give a span the same
   counters. *)
let test_traced_burst_counters () =
  let module Trace = Tinca_obs.Trace in
  let span ~observer =
    let p, clock, metrics = mk ~size:model_size () in
    Trace.attach ~clock metrics;
    if observer then Pmem.set_observer p (Some ignore);
    Trace.reset ();
    Trace.begin_span ~clock "test.burst";
    Pmem.write p ~off:0 (Bytes.make 640 'x');
    Pmem.flush_ranges p [ (512, 64); (0, 100); (64, 300) ];
    Pmem.flush_ranges p [ (0, 64) ];
    Pmem.sfence p;
    Trace.end_span "test.burst";
    match Trace.find_spans "test.burst" with
    | [ s ] -> s.Trace.counters
    | l -> Alcotest.failf "expected one span, got %d" (List.length l)
  in
  Fun.protect ~finally:Trace.disable (fun () ->
      Trace.enable ();
      let counted = span ~observer:false in
      Alcotest.(check (list (pair string int))) "same span counters" (span ~observer:true) counted;
      Alcotest.(check int) "issued flushes" 8 (List.assoc "pmem.clflush" counted))

(* --- crash draw order against a stdlib hash table ----------------------- *)

(* The line layer as it was when a [(int, Bytes.t) Hashtbl.create 4096]
   held every non-clean line's backup: one [add] when a line leaves
   clean, one [remove] when a fence retires it, [reset] when the layer
   is emptied.  [crash_select] asks in the reverse of that table's fold
   order and [restore] re-adds in the snapshot's order; [Pmem] must give
   the same order from its stamped pre-image slots. *)
module Ref = struct
  type t = {
    media : Bytes.t;
    state : Bytes.t; (* 'c'lean, 'd'irty, 'p'ending *)
    backups : (int, Bytes.t) Hashtbl.t;
    mutable flushed : int list;
    rng : Tinca_util.Rng.t;
  }

  let create ~seed ~size =
    {
      media = Bytes.make size '\000';
      state = Bytes.make (size / 64) 'c';
      backups = Hashtbl.create 4096;
      flushed = [];
      rng = Tinca_util.Rng.create seed;
    }

  let store t off len =
    for idx = off / 64 to (off + len - 1) / 64 do
      match Bytes.get t.state idx with
      | 'c' ->
          Hashtbl.add t.backups idx (Bytes.sub t.media (idx * 64) 64);
          Bytes.set t.state idx 'd'
      | 'p' ->
          if Tinca_util.Rng.bool t.rng then
            Bytes.blit t.media (idx * 64) (Hashtbl.find t.backups idx) 0 64;
          Bytes.set t.state idx 'd'
      | _ -> ()
    done

  let flush t off len =
    for idx = off / 64 to (off + len - 1) / 64 do
      if Bytes.get t.state idx = 'd' then begin
        Bytes.set t.state idx 'p';
        t.flushed <- idx :: t.flushed
      end
    done

  let sfence t =
    List.iter
      (fun idx ->
        if Bytes.get t.state idx = 'p' then begin
          Bytes.set t.state idx 'c';
          Hashtbl.remove t.backups idx
        end)
      t.flushed;
    t.flushed <- []

  let clear t =
    Hashtbl.iter (fun idx _ -> Bytes.set t.state idx 'c') t.backups;
    Hashtbl.reset t.backups;
    t.flushed <- []

  let crash_select t ~survive =
    List.iter
      (fun (idx, backup) -> if not (survive idx) then Bytes.blit backup 0 t.media (idx * 64) 64)
      (Hashtbl.fold (fun idx backup acc -> (idx, backup) :: acc) t.backups []);
    clear t

  let snapshot t =
    ( Bytes.copy t.media,
      Hashtbl.fold
        (fun idx backup acc -> (idx, Bytes.copy backup, Bytes.get t.state idx = 'p') :: acc)
        t.backups [] )

  let restore t (media, lines) =
    Bytes.blit media 0 t.media 0 (Bytes.length media);
    clear t;
    List.iter
      (fun (idx, backup, pending) ->
        Hashtbl.add t.backups idx (Bytes.copy backup);
        Bytes.set t.state idx (if pending then 'p' else 'd'))
      lines;
    t.flushed <- List.filter_map (fun (idx, _, p) -> if p then Some idx else None) lines
end

type order_op =
  | O_write of int * int (* off, len *)
  | O_fill of int * int
  | O_burst of int (* fill lines [0, n) *)
  | O_atomic8 of int (* 8 B slot *)
  | O_atomic16 of int (* 16 B slot *)
  | O_flush_ranges of (int * int) list
  | O_sfence
  | O_snap_restore (* snapshot, diverge (crash + store), restore *)
  | O_crash of int (* verdicts drawn from this seed *)

let show_order_op = function
  | O_write (o, l) -> Printf.sprintf "Write(%d,%d)" o l
  | O_fill (o, l) -> Printf.sprintf "Fill(%d,%d)" o l
  | O_burst n -> Printf.sprintf "Burst %d" n
  | O_atomic8 s -> Printf.sprintf "Atomic8 %d" s
  | O_atomic16 s -> Printf.sprintf "Atomic16 %d" s
  | O_flush_ranges r ->
      "Flush_ranges ["
      ^ String.concat ";" (List.map (fun (o, l) -> Printf.sprintf "(%d,%d)" o l) r)
      ^ "]"
  | O_sfence -> "Sfence"
  | O_snap_restore -> "Snap_restore"
  | O_crash k -> Printf.sprintf "Crash %d" k

(* Big enough for more than 8 192 live lines, the second bucket-count
   doubling of a 4 096-bucket table. *)
let order_lines = 20_000
let order_size = order_lines * 64

(* Runs [ops] on a fresh device and on [Ref], failing at the first crash
   whose verdicts are asked in a different order or which leaves a
   different medium.  Every store writes a value unique to its step, so
   each verdict shows in the medium.  A final crash resolves what is
   left. *)
let run_against_order ops =
  let p, _, _ = mk ~size:order_size ~seed:3 () in
  let r = Ref.create ~seed:3 ~size:order_size in
  let crash what k =
    let asked rng order idx =
      order := idx :: !order;
      Tinca_util.Rng.bool rng
    in
    let got = ref [] and want = ref [] in
    Pmem.crash_select p ~survive:(asked (Tinca_util.Rng.create k) got);
    Ref.crash_select r ~survive:(asked (Tinca_util.Rng.create k) want);
    if !got <> !want then
      failwith
        (Printf.sprintf "%s: survive asked in a different order (%d vs %d lines)" what
           (List.length !got) (List.length !want));
    if not (Bytes.equal (Pmem.read p ~off:0 ~len:order_size) r.Ref.media) then
      failwith (what ^ ": media differ after the crash")
  in
  (* [pmem_store] stores [len] bytes [v] at [off] on the device. *)
  let store off len v pmem_store =
    pmem_store ();
    Ref.store r off len;
    Bytes.fill r.Ref.media off len v
  in
  let flush ranges =
    Pmem.flush_ranges p ranges;
    List.iter (fun (off, len) -> if len > 0 then Ref.flush r off len) ranges
  in
  List.iteri
    (fun step op ->
      let what = Printf.sprintf "step %d %s" step (show_order_op op) in
      let v = Char.chr (1 + (step mod 255)) in
      (match op with
      | O_write (off, len) -> store off len v (fun () -> Pmem.write p ~off (Bytes.make len v))
      | O_fill (off, len) -> store off len v (fun () -> Pmem.fill p ~off ~len v)
      | O_burst n -> store 0 (n * 64) v (fun () -> Pmem.fill p ~off:0 ~len:(n * 64) v)
      | O_atomic8 s ->
          let word = Int64.mul 0x0101010101010101L (Int64.of_int (Char.code v)) in
          store (s * 8) 8 v (fun () -> Pmem.atomic_write8 p ~off:(s * 8) word)
      | O_atomic16 s ->
          store (s * 16) 16 v (fun () -> Pmem.atomic_write16 p ~off:(s * 16) (Bytes.make 16 v))
      | O_flush_ranges ranges -> flush ranges
      | O_sfence ->
          Pmem.sfence p;
          Ref.sfence r
      | O_snap_restore ->
          let snap = Pmem.snapshot p and rsnap = Ref.snapshot r in
          Pmem.crash_select p ~survive:(fun _ -> false);
          Pmem.write p ~off:0 (Bytes.make 64 'z');
          Pmem.restore p snap;
          Ref.restore r rsnap
      | O_crash k -> crash what k);
      if Pmem.dirty_line_count p <> Hashtbl.length r.Ref.backups then
        failwith (what ^ ": different number of unfenced lines"))
    ops;
  crash "final crash" 0

let gen_order_op =
  let open QCheck.Gen in
  let off = int_bound (order_size - 1) in
  let range max_len = map2 (fun o l -> (o, min l (order_size - o))) off (int_range 1 max_len) in
  frequency
    [
      (4, map (fun (o, l) -> O_write (o, l)) (range 200));
      (1, map (fun (o, l) -> O_fill (o, l)) (range (order_size / 2)));
      (1, map (fun n -> O_burst n) (oneofl [ 4096; 4097; 8192; 8193; 16_384; order_lines ]));
      (1, map (fun s -> O_atomic8 s) (int_bound ((order_size / 8) - 1)));
      (1, map (fun s -> O_atomic16 s) (int_bound ((order_size / 16) - 1)));
      (3, map (fun r -> O_flush_ranges r) (list_size (int_range 1 4) (range (order_size / 4))));
      (2, return O_sfence);
      (1, return O_snap_restore);
      (1, map (fun k -> O_crash k) small_nat);
    ]

(* The resize boundaries exactly: a table that has grown past 4 096 or
   8 192 buckets folds in a different order than a fresh one, and an
   emptied one is back to 4 096.  Each [O_burst] after a crash leaves
   exactly that many live lines. *)
let test_order_boundaries () =
  List.iter
    (fun n ->
      run_against_order
        [ O_burst n; O_crash 1; O_write (64, 8); O_burst 100; O_crash 2; O_burst n; O_snap_restore ])
    [ 8192; 8193; 16_384; 16_385 ];
  (* Pending stores, a fence that empties the layer, and partial fences
     that give slots back. *)
  run_against_order
    [
      O_burst 3000;
      O_flush_ranges [ (0, 3000 * 64) ];
      O_write (128, 100);
      O_sfence;
      O_burst 3000;
      O_flush_ranges [ (0, 2000 * 64) ];
      O_sfence;
      O_burst 2500;
      O_snap_restore;
      O_flush_ranges [ (0, 3000 * 64) ];
      O_sfence;
      O_write (0, 64);
    ]

(* Slot reuse.  A partial fence frees slots in the middle of the stamp
   order and later stores take them back; stores hit flush-pending lines
   while thousands of lines stay dirty and unflushed; snapshots are taken
   and restored after reuse. *)
let test_order_slot_reuse () =
  let line n = n * 64 in
  run_against_order
    [
      O_burst 3000;
      O_flush_ranges [ (line 1000, line 500) ];
      O_sfence;
      O_write (line 10_000, line 200);
      O_write (line 1200, 64);
      O_crash 3;
    ];
  run_against_order
    [
      O_burst 6000;
      O_flush_ranges [ (line 2000, line 100); (line 4000, 64) ];
      (* Re-dirties 2050-2099; 2100-2149 were dirty already. *)
      O_write (line 2050, line 100);
      O_fill (line 4000, 8);
      O_sfence;
      O_write (line 12_000, line 300);
      O_flush_ranges [ (line 2040, line 20) ];
      O_sfence;
      O_snap_restore;
      O_write (line 12_100, 64);
      O_flush_ranges [ (0, line 6000) ];
      O_write (line 5, 8);
      O_snap_restore;
      O_sfence;
      O_burst 100;
    ]

(* A run of fresh slots across the first chunk boundary (slot 1 024),
   before and after a fence that empties the layer keeps the chunks. *)
let test_order_run_across_chunks () =
  let line n = n * 64 in
  run_against_order
    [
      O_write (line 5000, line 1000);
      O_write (line 100, line 100);
      O_crash 1;
      O_write (line 0, line 1500);
      O_flush_ranges [ (0, line 1500) ];
      O_sfence;
      O_write (line 3000, line 1100);
      O_write (line 2990, line 20);
      O_snap_restore;
      O_crash 2;
    ]

(* A store over clean lines while the free stack holds fewer slots than
   the run: the first lines take the given-back slots, newest first, the
   rest one run of fresh slots, and a pending line in the middle draws. *)
let test_order_run_after_free_stack () =
  let line n = n * 64 in
  run_against_order
    [
      O_write (line 0, line 100);
      O_flush_ranges [ (line 10, line 10); (line 50, line 3) ];
      O_sfence;
      O_flush_ranges [ (line 90, line 2) ];
      O_write (line 85, line 20);
      O_write (line 200, line 40);
      O_crash 5;
    ]

(* A run's stamps continue the sequence: the take after a run is
   stamped after the run's last line.  Were the two stamps equal, the
   crash order would fall back to slot order, and a given-back slot
   below the run's would put its line first.  That shows only when the
   two lines share a bucket of the 4 096-bucket table, so the second
   line is picked to. *)
let test_order_stamp_after_run () =
  let line n = n * 64 in
  let bucket idx = Hashtbl.hash idx land 4095 in
  let rec same_bucket x = if bucket x = bucket 103 then x else same_bucket (x + 1) in
  run_against_order
    [
      O_write (line 0, line 10);
      O_flush_ranges [ (line 0, line 5) ];
      O_sfence;
      (* Lines 20-24 take the five given-back slots. *)
      O_write (line 20, line 5);
      O_write (line 100, line 4);
      O_flush_ranges [ (line 20, line 1) ];
      O_sfence;
      O_write (line (same_bucket 200), 8);
      O_crash 1;
    ]

(* A fence that empties the layer keeps the pre-image chunks an epoch in
   its trim window used, and every 64th such fence drops the rest.  A
   chunk is 1 024 int cells and 64 KB of pre-images (9 218 words), made
   in the major heap, so major words tell whether a large epoch found
   its chunks kept. *)
let test_chunk_retention () =
  let p, _, _ = mk ~size:(4096 * 64) () in
  let big = Bytes.make (2048 * 64) 'b' and small = Bytes.make 64 's' in
  let epoch data =
    Pmem.write p ~off:0 data;
    Pmem.persist p ~off:0 ~len:(Bytes.length data)
  in
  let smalls n =
    for _ = 1 to n do
      epoch small
    done
  in
  (* A minor collection brings the major-word count up to date. *)
  let major_words f =
    Gc.minor ();
    let w0 = (Gc.quick_stat ()).Gc.major_words in
    f ();
    Gc.minor ();
    (Gc.quick_stat ()).Gc.major_words -. w0
  in
  (* The first window holds one 2 048-line epoch: its trim keeps both chunks. *)
  epoch big;
  smalls 63;
  let kept = major_words (fun () -> epoch big) in
  if kept > 4096. then Alcotest.failf "a kept chunk was made again (%.0f major words)" kept;
  (* A window of small epochs only trims back to one chunk. *)
  smalls (63 + 64);
  let regrown = major_words (fun () -> epoch big) in
  if regrown < 9218. then Alcotest.failf "the second chunk was kept (%.0f major words)" regrown

let prop_crash_order =
  QCheck.Test.make ~name:"crash draw order matches a stdlib hash table" ~count:100
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map show_order_op ops))
       QCheck.Gen.(list_size (int_range 1 30) gen_order_op))
    (fun ops ->
      run_against_order ops;
      true)

(* Pins [crash]'s per-line draw order, which is the backup table's
   iteration order after every earlier fence's removals: with thousands
   of unfenced lines left, any change to that order (or to which lines a
   fence retired) changes the post-crash medium. *)
let test_crash_digest_pinned () =
  let size = 1 lsl 20 in
  let p, _, m = mk ~size ~seed:5 () in
  let nlines = size / 64 in
  for i = 0 to 5999 do
    let line = i * 7919 mod nlines in
    Pmem.write p ~off:(line * 64) (Bytes.make 64 (Char.chr (i land 255)));
    if i mod 3 = 0 then Pmem.clflush p ~off:(line * 64) ~len:64;
    if i mod 5 = 0 then Pmem.write p ~off:((line * 64) + 8) (Bytes.make 8 'x');
    if i mod 7 = 0 then Pmem.flush_ranges p [ (line * 64, 64); ((line + 1) mod nlines * 64, 64) ];
    if i mod 97 = 0 then Pmem.sfence p
  done;
  Alcotest.(check int) "unfenced lines" 3801 (List.length (Pmem.unfenced_lines p));
  Alcotest.(check int) "lines persisted" 2199 (Metrics.get m "pmem.lines_persisted");
  Pmem.crash ~seed:7 p;
  Alcotest.(check string) "post-crash media digest" "1790df5c2b39b0d62df54686fe1652c1"
    (Digest.to_hex (Pmem.media_digest p));
  Alcotest.(check int) "wear after crash" 4057 (Pmem.wear_total p)

let suite =
  let q = QCheck_alcotest.to_alcotest in
  [
    ( "pmem.semantics",
      [
        Alcotest.test_case "read back newest" `Quick test_read_back;
        Alcotest.test_case "persist survives crash" `Quick test_persist_survives_crash;
        Alcotest.test_case "unflushed lost (survival 0)" `Quick test_unflushed_lost_when_survival_zero;
        Alcotest.test_case "unflushed kept (survival 1)" `Quick test_unflushed_survives_when_survival_one;
        Alcotest.test_case "clflush alone not durable" `Quick test_clflush_without_fence_not_durable;
        Alcotest.test_case "fence completes flush" `Quick test_fence_makes_pending_durable;
        Alcotest.test_case "crash reverts to persisted" `Quick test_crash_reverts_to_last_persisted;
        Alcotest.test_case "per-line independence" `Quick test_crash_subset_is_per_line;
        q prop_persisted_prefix_survives;
        q prop_crash_no_invention;
      ] );
    ( "pmem.atomics",
      [
        Alcotest.test_case "atomic8 alignment" `Quick test_atomic8_alignment_enforced;
        Alcotest.test_case "atomic16 alignment" `Quick test_atomic16_alignment_enforced;
        Alcotest.test_case "atomic8 roundtrip" `Quick test_atomic8_roundtrip;
        Alcotest.test_case "atomic8 never tears" `Quick test_atomic8_never_tears;
        Alcotest.test_case "bounds checked" `Quick test_out_of_bounds_rejected;
      ] );
    ( "pmem.accounting",
      [
        Alcotest.test_case "counters" `Quick test_counters;
        Alcotest.test_case "lines dirtied" `Quick test_lines_dirtied;
        Alcotest.test_case "clock charges" `Quick test_clock_charges;
        Alcotest.test_case "technology cost ordering" `Quick test_tech_affects_cost;
        Alcotest.test_case "crash countdown hook" `Quick test_crash_countdown;
        Alcotest.test_case "zero-length ops no events" `Quick test_zero_length_ops_are_no_events;
        Alcotest.test_case "wear accounting" `Quick test_wear_accounting;
        Alcotest.test_case "dirty tracking" `Quick test_dirty_tracking;
      ] );
    ( "pmem.exploration",
      [
        Alcotest.test_case "unfenced_lines ascending" `Quick test_unfenced_lines_ordering;
        Alcotest.test_case "torn_lines clean vs torn" `Quick test_torn_lines;
        Alcotest.test_case "crash_select verdicts" `Quick test_crash_select_verdicts;
        Alcotest.test_case "snapshot/restore roundtrip" `Quick test_snapshot_restore_roundtrip;
        Alcotest.test_case "wear_max_in ranges" `Quick test_wear_max_in_ranges;
      ] );
    ( "pmem.model",
      [
        Alcotest.test_case "pending-list edge cases" `Quick test_model_edge_cases;
        Alcotest.test_case "run-level stores" `Quick test_model_runs;
        q prop_model;
        q prop_counted_events;
        Alcotest.test_case "countdown inside a flush burst" `Quick
          test_countdown_inside_flush_ranges;
        Alcotest.test_case "traced burst counters" `Quick test_traced_burst_counters;
        Alcotest.test_case "seeded crash digest pinned" `Quick test_crash_digest_pinned;
        Alcotest.test_case "crash order at resize boundaries" `Quick test_order_boundaries;
        Alcotest.test_case "crash order under slot reuse" `Quick test_order_slot_reuse;
        Alcotest.test_case "crash order, run across a chunk" `Quick test_order_run_across_chunks;
        Alcotest.test_case "crash order, run after given-back slots" `Quick
          test_order_run_after_free_stack;
        Alcotest.test_case "crash order, stamp after a run" `Quick test_order_stamp_after_run;
        Alcotest.test_case "emptying fences trim chunks in windows" `Quick test_chunk_retention;
        q prop_crash_order;
      ] );
    ( "pmem.observer",
      [
        Alcotest.test_case "event per operation" `Quick test_observer_event_sequence;
        Alcotest.test_case "atomic8_int rejects negative" `Quick test_atomic8_int_rejects_negative;
      ] );
  ]
