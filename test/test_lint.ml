(* The linter's own gate: planted-violation fixtures (one per rule, each
   must be caught at the right file:line — the lint is mutation-tested,
   not trusted), the baseline round-trip, the justification-required
   check, and regression tests for the R4 burn-down conversions
   (Cache.Corrupt, Jsonv's specific-exception match). *)

open Tinca_lint

let find_all rule findings = List.filter (fun (f : Rules.finding) -> f.rule = rule) findings

let check_ok ~file src =
  match Lint.check_string ~file src with
  | Ok r -> r
  | Error msg -> Alcotest.failf "fixture %s did not parse: %s" file msg

let has ~rule ~line ~token findings =
  List.exists
    (fun (f : Rules.finding) -> f.rule = rule && f.line = line && f.token = token)
    findings

let check_caught name ~rule ~line ~token findings =
  Alcotest.(check bool)
    (Printf.sprintf "%s caught at line %d (token %s)" name line token)
    true
    (has ~rule ~line ~token findings)

(* --- R1: toplevel mutable state ----------------------------------------- *)

let r1_fixture =
  {|
let table = Hashtbl.create 16
let counter = ref 0
let weights = [| 1; 2; 3 |]
type cursor = { mutable pos : int; src : string }
let origin = { pos = 0; src = "" }
let per_call x = ref x
module Nested = struct
  let inner = Buffer.create 64
end
|}

let test_r1_fixture () =
  let findings, _ = check_ok ~file:"lib/util/fixture_r1.ml" r1_fixture in
  let r1 = find_all Rules.R1 findings in
  check_caught "toplevel Hashtbl" ~rule:Rules.R1 ~line:2 ~token:"table" r1;
  check_caught "toplevel ref" ~rule:Rules.R1 ~line:3 ~token:"counter" r1;
  check_caught "array literal" ~rule:Rules.R1 ~line:4 ~token:"weights" r1;
  check_caught "mutable-record literal" ~rule:Rules.R1 ~line:6 ~token:"origin" r1;
  check_caught "nested module toplevel" ~rule:Rules.R1 ~line:9 ~token:"inner" r1;
  Alcotest.(check bool) "ref inside a function is per-call, not flagged" false
    (List.exists (fun (f : Rules.finding) -> f.token = "per_call") r1);
  Alcotest.(check int) "exactly the planted R1 sites" 5 (List.length r1)

(* --- R2: pmem encapsulation --------------------------------------------- *)

let r2_fixture =
  {|
let seal pm =
  Pmem.atomic_write8 pm ~off:0 1L;
  Pmem.sfence pm
|}

let test_r2_fixture () =
  let findings, _ = check_ok ~file:"lib/workloads/fixture_r2.ml" r2_fixture in
  let r2 = find_all Rules.R2 findings in
  check_caught "atomic_write8 outside the allowlist" ~rule:Rules.R2 ~line:3 ~token:"atomic_write8"
    r2;
  check_caught "sfence outside the allowlist" ~rule:Rules.R2 ~line:4 ~token:"sfence" r2;
  (* The same source under an allowlisted module is clean. *)
  let findings, _ = check_ok ~file:"lib/core/fixture_r2.ml" r2_fixture in
  Alcotest.(check int) "allowlisted module may touch Pmem" 0
    (List.length (find_all Rules.R2 findings))

(* --- R3: fence discipline ----------------------------------------------- *)

let r3_fixture =
  {|
let bad pm b = Pmem.write pm ~off:0 b

let flels pm b =
  Pmem.write pm ~off:0 b;
  Pmem.clflush pm ~off:0 ~len:64

let branchy pm b cond =
  Pmem.write pm ~off:0 b;
  if cond then Pmem.persist pm ~off:0 ~len:64

let good pm b =
  Pmem.write pm ~off:0 b;
  Pmem.persist pm ~off:0 ~len:64

let good_fence pm b =
  Pmem.write pm ~off:0 b;
  Pmem.clflush pm ~off:0 ~len:64;
  Pmem.sfence pm

let good_iter pm bs =
  List.iter (fun b -> Pmem.write pm ~off:0 b) bs;
  Pmem.clflush pm ~off:0 ~len:64;
  Pmem.sfence pm

let error_path pm b =
  if Bytes.length b <> 64 then invalid_arg "size";
  Pmem.write pm ~off:0 b;
  Pmem.persist pm ~off:0 ~len:64

let staged pm b = Pmem.write pm ~off:0 b [@@pmem.defer "caller fences at commit"]

let nojust pm b = Pmem.write pm ~off:0 b [@@pmem.defer]
|}

let test_r3_fixture () =
  let findings, deferred = check_ok ~file:"lib/core/fixture_r3.ml" r3_fixture in
  let r3 = find_all Rules.R3 findings in
  check_caught "unflushed exit" ~rule:Rules.R3 ~line:2 ~token:"bad" r3;
  check_caught "flushed but unfenced exit" ~rule:Rules.R3 ~line:4 ~token:"flels" r3;
  check_caught "one branch persists, the other leaks" ~rule:Rules.R3 ~line:8 ~token:"branchy" r3;
  check_caught "defer without justification" ~rule:Rules.R3 ~line:33 ~token:"nojust" r3;
  Alcotest.(check int) "exactly the planted R3 sites" 4 (List.length r3);
  Alcotest.(check int) "one deferred obligation reported" 1 (List.length deferred);
  let d = List.hd deferred in
  Alcotest.(check string) "deferred function" "staged" d.Rules.d_fn;
  Alcotest.(check string) "deferred reason" "caller fences at commit" d.Rules.d_reason

let test_r3_scope () =
  (* The device model itself and the checkers are out of R3 scope. *)
  let findings, _ = check_ok ~file:"lib/pmem/fixture_r3.ml" r3_fixture in
  Alcotest.(check int) "lib/pmem exempt from R3" 0 (List.length (find_all Rules.R3 findings));
  let findings, _ = check_ok ~file:"lib/check/fixture_r3.ml" r3_fixture in
  Alcotest.(check int) "lib/check exempt from R3" 0 (List.length (find_all Rules.R3 findings))

(* --- R4: error discipline ----------------------------------------------- *)

let r4_fixture =
  {|
let f () = failwith "boom"
let g () = assert false
let h x = Obj.magic x
let k job = try job () with _ -> 0
|}

let test_r4_fixture () =
  let findings, _ = check_ok ~file:"lib/core/fixture_r4.ml" r4_fixture in
  let r4 = find_all Rules.R4 findings in
  check_caught "failwith in core" ~rule:Rules.R4 ~line:2 ~token:"failwith" r4;
  check_caught "assert false in core" ~rule:Rules.R4 ~line:3 ~token:"assert_false" r4;
  check_caught "Obj.magic" ~rule:Rules.R4 ~line:4 ~token:"obj_magic" r4;
  check_caught "catch-all try" ~rule:Rules.R4 ~line:5 ~token:"catch_all" r4;
  (* Outside the result-disciplined core only Obj.magic and the
     catch-all remain banned. *)
  let findings, _ = check_ok ~file:"lib/workloads/fixture_r4.ml" r4_fixture in
  let r4 = find_all Rules.R4 findings in
  Alcotest.(check bool) "failwith tolerated outside the core" false
    (List.exists (fun (f : Rules.finding) -> f.token = "failwith") r4);
  check_caught "Obj.magic banned everywhere" ~rule:Rules.R4 ~line:4 ~token:"obj_magic" r4;
  check_caught "catch-all banned everywhere" ~rule:Rules.R4 ~line:5 ~token:"catch_all" r4

(* --- R5: interface coverage --------------------------------------------- *)

let test_r5_fixture () =
  let findings =
    Rules.r5
      ~ml_files:[ "lib/foo/covered.ml"; "lib/foo/naked.ml" ]
      ~mli_files:[ "lib/foo/covered.mli" ]
  in
  Alcotest.(check int) "one uncovered module" 1 (List.length findings);
  let f = List.hd findings in
  Alcotest.(check string) "names the module" "naked" f.Rules.token;
  Alcotest.(check string) "names the file" "lib/foo/naked.ml" f.Rules.file

(* --- baseline ------------------------------------------------------------ *)

let entries =
  [
    { Baseline.rule = Rules.R2; file = "lib/ubj/ubj.ml"; token = "write"; justification = "own stack" };
    { Baseline.rule = Rules.R1; file = "lib/obs/trace.ml"; token = "st"; justification = "tracer global" };
    { Baseline.rule = Rules.R1; file = "lib/obs/trace.ml"; token = "st"; justification = "tracer global" };
  ]

let test_baseline_roundtrip () =
  match Baseline.parse (Baseline.emit entries) with
  | Ok parsed ->
      Alcotest.(check int) "dup collapsed" 2 (List.length parsed);
      List.iter
        (fun e ->
          Alcotest.(check bool)
            (Printf.sprintf "entry %s/%s survives the round-trip" e.Baseline.file e.Baseline.token)
            true (List.mem e parsed))
        entries;
      (* emit∘parse is a fixpoint: a second trip is byte-identical. *)
      Alcotest.(check string) "emit is canonical" (Baseline.emit entries) (Baseline.emit parsed)
  | Error msg -> Alcotest.failf "round-trip parse failed: %s" msg

let test_baseline_requires_justification () =
  (match Baseline.parse "R1 lib/x.ml token \"\"\n" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "empty justification accepted");
  (match Baseline.parse "R1 lib/x.ml token \"   \"\n" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "blank justification accepted");
  (match Baseline.parse "R1 lib/x.ml token\n" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "missing justification accepted");
  match Baseline.parse "R9 lib/x.ml token \"why\"\n" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown rule accepted"

let test_baseline_reconcile () =
  let finding rule file token =
    { Rules.rule; file; line = 7; token; message = "m" }
  in
  let covered = finding Rules.R2 "lib/ubj/ubj.ml" "write" in
  let uncovered = finding Rules.R2 "lib/ubj/ubj.ml" "sfence" in
  let fresh, stale = Baseline.reconcile entries [ covered; uncovered ] in
  Alcotest.(check int) "only the uncovered finding is fresh" 1 (List.length fresh);
  Alcotest.(check string) "the fresh one" "sfence" (List.hd fresh).Rules.token;
  Alcotest.(check bool) "unmatched entries are stale" true
    (List.exists (fun e -> e.Baseline.token = "st") stale);
  let fresh, stale =
    Baseline.reconcile entries [ covered; finding Rules.R1 "lib/obs/trace.ml" "st" ]
  in
  Alcotest.(check int) "fully covered run has no fresh findings" 0 (List.length fresh);
  Alcotest.(check int) "no stale entries when every entry matches" 0 (List.length stale)

(* R3 follows calls one level deep: the commit driver's union fences are
   calls to a fence helper, and the region steps before them call
   functions that defer their fence.  On a scratch copy of lib/core,
   dropping the driver's commit-point union fence must be flagged. *)
let test_r3_driver_union_fence () =
  (* From the test's build directory under [dune runtest], or the root. *)
  let core = if Sys.file_exists "../lib/core/shard.ml" then "../lib/core" else "lib/core" in
  let sources =
    List.filter_map
      (fun f ->
        if Filename.check_suffix f ".ml" then
          Some (f, In_channel.with_open_bin (Filename.concat core f) In_channel.input_all)
        else None)
      (Array.to_list (Sys.readdir core))
  in
  let fence = "      fence_union s ~multi (List.map fst unfenced);\n" in
  let drop src =
    let n = String.length fence in
    let rec at i = if String.sub src i n = fence then i else at (i + 1) in
    let i = at 0 in
    String.sub src 0 i ^ String.sub src (i + n) (String.length src - i - n)
  in
  let flagged ~mutate =
    let root = Filename.temp_dir "tinca_lint" "" in
    let dir = Filename.concat (Filename.concat root "lib") "core" in
    Sys.mkdir (Filename.concat root "lib") 0o755;
    Sys.mkdir dir 0o755;
    let paths =
      List.map
        (fun (f, src) ->
          let path = Filename.concat dir f in
          Out_channel.with_open_bin path (fun oc ->
              Out_channel.output_string oc (if mutate && f = "shard.ml" then drop src else src));
          path)
        sources
    in
    let report =
      Fun.protect
        ~finally:(fun () ->
          List.iter Sys.remove paths;
          Sys.rmdir dir;
          Sys.rmdir (Filename.concat root "lib");
          Sys.rmdir root)
        (fun () -> Lint.run ~root)
    in
    List.exists
      (fun (f : Rules.finding) -> f.rule = Rules.R3 && f.file = "lib/core/shard.ml" && f.token = "drive")
      report.Lint.findings
  in
  Alcotest.(check bool) "the driver as written is clean" false (flagged ~mutate:false);
  Alcotest.(check bool) "dropping its union fence is flagged" true (flagged ~mutate:true)

(* --- R4 burn-down regressions ------------------------------------------- *)

open Tinca_core
open Tinca_sim
module Pmem = Tinca_pmem.Pmem
module Disk = Tinca_blockdev.Disk

let mk_env () =
  let clock = Clock.create () in
  let metrics = Metrics.create () in
  let pmem = Pmem.create ~clock ~metrics ~tech:Latency.Pcm ~size:(256 * 1024) () in
  let disk = Disk.create ~clock ~metrics ~kind:Latency.Ssd ~nblocks:32 ~block_size:4096 in
  (pmem, disk, clock, metrics)

let contains msg fragment =
  let n = String.length msg and m = String.length fragment in
  let rec at i = i + m <= n && (String.sub msg i m = fragment || at (i + 1)) in
  at 0

(* Unformatted media now raises the typed Cache.Corrupt, not a bare
   Failure — callers can tell bad media from arbitrary internal errors. *)
let test_corrupt_is_typed () =
  let pmem, disk, clock, metrics = mk_env () in
  match Cache.recover ~pmem ~disk ~clock ~metrics () with
  | exception Cache.Corrupt msg ->
      Alcotest.(check bool) "diagnostic names the cache" true (contains msg "Tinca")
  | exception e -> Alcotest.failf "expected Cache.Corrupt, got %s" (Printexc.to_string e)
  | _ -> Alcotest.fail "recovery accepted unformatted media"

(* The facade still maps corrupt media to Error (Unformatted _). *)
let test_facade_unformatted () =
  let pmem, disk, clock, metrics = mk_env () in
  match Tinca.recover ~pmem ~disk ~clock ~metrics with
  | Error (Tinca.Unformatted _) -> ()
  | Error e -> Alcotest.failf "expected Unformatted, got %s" (Tinca.error_message e)
  | Ok _ -> Alcotest.fail "facade accepted unformatted media"

(* Second tranche (ISSUE 8): the invariant audits now raise the typed
   Cache.Invariant_violation, never a bare Failure — the lockstep sweep
   and the crash checker key on the exception constructor instead of
   pattern-matching Failure payloads.  (The third conversion of the
   tranche, the commit-path `assert false` on a missing entry slot, was
   removed structurally: the slot now travels inside the allocation's
   [Miss] constructor, so the impossible state is unrepresentable and
   has no runtime path left to test.) *)
let test_invariant_violation_is_typed () =
  let clock = Clock.create () in
  let metrics = Metrics.create () in
  let pmem = Pmem.create ~clock ~metrics ~tech:Latency.Pcm ~size:(512 * 1024) () in
  let disk = Disk.create ~clock ~metrics ~kind:Latency.Ssd ~nblocks:64 ~block_size:4096 in
  let shard =
    Shard.format ~nshards:2
      ~config:(Shard.Logging { Cache.default_config with Cache.ring_slots = 16 })
      ~pmem ~disk ~clock ~metrics
  in
  Shard.check_invariants shard;
  (* Plant a stuck cross-shard seal (offset 64 in the shard directory
     line): the audit must refuse it with the typed exception. *)
  Pmem.atomic_write8_int pmem ~off:64 0xBEEF;
  (match Shard.check_invariants shard with
  | exception Cache.Invariant_violation msg ->
      Alcotest.(check bool) "diagnostic names the seal" true (contains msg "seal")
  | exception e ->
      Alcotest.failf "expected Cache.Invariant_violation, got %s" (Printexc.to_string e)
  | () -> Alcotest.fail "stuck seal passed the audit");
  Pmem.atomic_write8_int pmem ~off:64 0;
  Shard.check_invariants shard

(* The typed exception registers a printer, so a violation escaping to
   the top level still prints its diagnostic. *)
let test_invariant_violation_printer () =
  Alcotest.(check bool) "printer renders the payload" true
    (contains
       (Printexc.to_string (Cache.Invariant_violation "LRU length 3 <> index size 4"))
       "LRU length 3 <> index size 4")

(* Jsonv's \u escape handler now matches only int_of_string's Failure;
   a bad escape is still a clean parse error, not a crash. *)
let test_jsonv_bad_escape () =
  match Tinca_obs.Jsonv.parse {|"\uZZZZ"|} with
  | Error msg ->
      Alcotest.(check bool) "parse failed with a diagnostic" true (String.length msg > 0)
  | Ok _ -> Alcotest.fail "bad \\u escape accepted"

let suite =
  [
    ( "lint.fixtures",
      [
        Alcotest.test_case "R1 planted violations caught" `Quick test_r1_fixture;
        Alcotest.test_case "R2 planted violations caught" `Quick test_r2_fixture;
        Alcotest.test_case "R3 planted violations caught" `Quick test_r3_fixture;
        Alcotest.test_case "R3 scope exemptions" `Quick test_r3_scope;
        Alcotest.test_case "R3 sees the driver's union fence" `Quick test_r3_driver_union_fence;
        Alcotest.test_case "R4 planted violations caught" `Quick test_r4_fixture;
        Alcotest.test_case "R5 uncovered module caught" `Quick test_r5_fixture;
      ] );
    ( "lint.baseline",
      [
        Alcotest.test_case "round-trip is identity" `Quick test_baseline_roundtrip;
        Alcotest.test_case "justification required" `Quick test_baseline_requires_justification;
        Alcotest.test_case "reconcile fresh/stale" `Quick test_baseline_reconcile;
      ] );
    ( "lint.r4_burndown",
      [
        Alcotest.test_case "corrupt media raises typed Corrupt" `Quick test_corrupt_is_typed;
        Alcotest.test_case "facade maps Corrupt to Unformatted" `Quick test_facade_unformatted;
        Alcotest.test_case "jsonv bad escape is a parse error" `Quick test_jsonv_bad_escape;
        Alcotest.test_case "invariant audits raise typed exception" `Quick
          test_invariant_violation_is_typed;
        Alcotest.test_case "Invariant_violation printer registered" `Quick
          test_invariant_violation_printer;
      ] );
  ]
