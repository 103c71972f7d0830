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

let test_line_torn () =
  let p, _, _ = mk ~size:4096 () in
  Pmem.write p ~off:0 (bytes_of "version1");
  Pmem.persist p ~off:0 ~len:8;
  (* Rewriting the identical bytes dirties the line without changing it:
     losing vs. keeping it is indistinguishable, so it is not torn. *)
  Pmem.write p ~off:0 (bytes_of "version1");
  Alcotest.(check (list int)) "line is unfenced" [ 0 ] (Pmem.unfenced_lines p);
  Alcotest.(check bool) "identical rewrite is not torn" false (Pmem.line_torn p 0);
  (* A genuine change is torn. *)
  Pmem.write p ~off:0 (bytes_of "version2");
  Alcotest.(check bool) "changed line is torn" true (Pmem.line_torn p 0)

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
  | Flush_lines of int list
  | Sfence
  | Persist of int * int
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
  | Flush_lines l -> "Flush_lines" ^ show_lines l
  | Sfence -> "Sfence"
  | Persist (o, l) -> Printf.sprintf "Persist(%d,%d)" o l
  | Snap_restore -> "Snap_restore"
  | Crash_select k -> Printf.sprintf "Crash_select %d" k

let gen_op =
  let open QCheck.Gen in
  let range =
    map2
      (fun off len -> (off, min len (model_size - off)))
      (int_bound (model_size - 1)) (int_range 1 160)
  in
  frequency
    [
      (4, map (fun (o, l) -> Write (o, l)) range);
      (1, map (fun (o, l) -> Fill (o, l)) range);
      (1, map (fun s -> Atomic8 s) (int_bound ((model_size / 8) - 1)));
      (1, map (fun s -> Atomic16 s) (int_bound ((model_size / 16) - 1)));
      (3, map (fun (o, l) -> Clflush (o, l)) range);
      (2, map (fun l -> Flush_lines l) (list_size (int_range 0 5) (int_bound (model_lines - 1))));
      (2, return Sfence);
      (1, map (fun (o, l) -> Persist (o, l)) range);
      (1, return Snap_restore);
      (1, map (fun k -> Crash_select k) (int_bound 2));
    ]

let range_lines off len =
  let first = off / 64 and last = (off + len - 1) / 64 in
  IS.of_list (List.init (last - first + 1) (fun i -> first + i))

let expect what show exp got =
  if exp <> got then failwith (Printf.sprintf "%s: expected %s, got %s" what (show exp) (show got))

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
      (match op with
      | Write (off, len) ->
          Pmem.write p ~off (Bytes.make len 'w');
          store (range_lines off len)
      | Fill (off, len) ->
          Pmem.fill p ~off ~len 'f';
          store (range_lines off len)
      | Atomic8 s ->
          Pmem.atomic_write8 p ~off:(s * 8) (Int64.of_int step);
          store (range_lines (s * 8) 8)
      | Atomic16 s ->
          Pmem.atomic_write16 p ~off:(s * 16) (Bytes.make 16 'a');
          store (range_lines (s * 16) 16)
      | Clflush (off, len) ->
          Pmem.clflush p ~off ~len;
          flush (range_lines off len)
      | Flush_lines l ->
          Pmem.flush_lines p l;
          flush (IS.of_list l)
      | Sfence -> fenced what (fun () -> Pmem.sfence p)
      | Persist (off, len) ->
          flush (range_lines off len);
          fenced what (fun () -> Pmem.persist p ~off ~len)
      | Snap_restore ->
          let snap = Pmem.snapshot p in
          Pmem.crash_select p ~survive:(fun _ -> false);
          Pmem.write p ~off:0 (Bytes.make 64 'z');
          Pmem.restore p snap
      | Crash_select k ->
          Pmem.crash_select p ~survive:(fun idx -> idx mod 3 = k);
          t := IS.empty;
          pend := IS.empty);
      expect (what ^ ": unfenced_lines") show_lines (IS.elements !t) (Pmem.unfenced_lines p);
      expect (what ^ ": dirty_line_count") string_of_int (IS.cardinal !t) (Pmem.dirty_line_count p))
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
      Flush_lines [ 1; 2 ];
      Write (128, 8);
      Sfence;
      Write (640, 100);
      Clflush (640, 100);
      Write (800, 8);
      Snap_restore;
      Sfence;
      Persist (800, 8);
    ]

let prop_model =
  QCheck.Test.make ~name:"line layer agrees with the two-set model" ~count:300
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map show_op ops))
       QCheck.Gen.(list_size (int_range 1 60) gen_op))
    (fun ops ->
      run_against_model ops;
      true)

(* Pins [crash]'s per-line draw order, which is the line table's
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
    if i mod 7 = 0 then Pmem.flush_lines p [ line; (line + 1) mod nlines ];
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
        Alcotest.test_case "clock charges" `Quick test_clock_charges;
        Alcotest.test_case "technology cost ordering" `Quick test_tech_affects_cost;
        Alcotest.test_case "crash countdown hook" `Quick test_crash_countdown;
        Alcotest.test_case "wear accounting" `Quick test_wear_accounting;
        Alcotest.test_case "dirty tracking" `Quick test_dirty_tracking;
      ] );
    ( "pmem.exploration",
      [
        Alcotest.test_case "unfenced_lines ascending" `Quick test_unfenced_lines_ordering;
        Alcotest.test_case "line_torn clean vs torn" `Quick test_line_torn;
        Alcotest.test_case "crash_select verdicts" `Quick test_crash_select_verdicts;
        Alcotest.test_case "snapshot/restore roundtrip" `Quick test_snapshot_restore_roundtrip;
        Alcotest.test_case "wear_max_in ranges" `Quick test_wear_max_in_ranges;
      ] );
    ( "pmem.model",
      [
        Alcotest.test_case "pending-list edge cases" `Quick test_model_edge_cases;
        q prop_model;
        Alcotest.test_case "seeded crash digest pinned" `Quick test_crash_digest_pinned;
      ] );
    ( "pmem.observer",
      [
        Alcotest.test_case "event per operation" `Quick test_observer_event_sequence;
        Alcotest.test_case "atomic8_int rejects negative" `Quick test_atomic8_int_rejects_negative;
      ] );
  ]
