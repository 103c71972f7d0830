(* The executable journal spec (lib/check/spec.ml) and the lockstep
   refinement harness around it: spec unit laws (commit/abort algebra,
   read-your-writes), generator determinism under a fixed seed, and
   shrinker minimality on a planted divergence. *)

module Spec = Tinca_checker.Spec
module L = Tinca_checker.Lockstep

let blk v = Bytes.make 4096 (Char.chr v)
let ok = function Ok v -> v | Error e -> Alcotest.failf "spec: %s" (Tinca.error_message e)

let mk () = Spec.create ~nblocks:8 ~block_size:4096

(* --- spec unit laws ------------------------------------------------------ *)

let test_spec_initial_zeros () =
  let s = mk () in
  for b = 0 to 7 do
    Alcotest.(check bytes) "all-zeros initial state" (Bytes.make 4096 '\000') (ok (Spec.read s b))
  done;
  (match Spec.read s 8 with
  | Error (Tinca.Block_out_of_range 8) -> ()
  | _ -> Alcotest.fail "read past the universe accepted")

let test_spec_commit_applies_all () =
  let s = mk () in
  let t = Spec.init_txn s in
  let t = ok (Spec.write s t 1 (blk 10)) in
  let t = ok (Spec.write s t 3 (blk 30)) in
  (* Staged writes are invisible outside the transaction... *)
  Alcotest.(check bytes) "write buffered, not applied" (blk 0) (ok (Spec.read s 1));
  (* ...but read-your-writes inside it. *)
  Alcotest.(check bytes) "read-your-writes" (blk 10) (ok (Spec.read_in s t 1));
  Alcotest.(check bytes) "read-through for unstaged" (blk 0) (ok (Spec.read_in s t 2));
  let s', t = Spec.commit s t |> ok in
  Alcotest.(check bool) "handle finished" false (Spec.live t);
  Alcotest.(check bytes) "block 1 committed" (blk 10) (ok (Spec.read s' 1));
  Alcotest.(check bytes) "block 3 committed" (blk 30) (ok (Spec.read s' 3));
  Alcotest.(check bytes) "block 2 untouched" (blk 0) (ok (Spec.read s' 2))

let test_spec_abort_identity () =
  (* abort after any writes = identity on the committed map. *)
  let s = mk () in
  let t = Spec.init_txn s in
  let t = ok (Spec.write s t 1 (blk 99)) in
  let s', t = Spec.abort s t |> ok in
  Alcotest.(check bool) "spec state unchanged by abort" true (Spec.equal s s');
  Alcotest.(check bool) "handle finished" false (Spec.live t);
  (* Commit of the finished handle is a Txn_not_running probe... *)
  (match Spec.commit s' t with
  | Error Tinca.Txn_not_running -> ()
  | _ -> Alcotest.fail "commit after abort accepted");
  (* ...and so is a write. *)
  match Spec.write s' t 1 (blk 1) with
  | Error Tinca.Txn_not_running -> ()
  | _ -> Alcotest.fail "write after abort accepted"

let test_spec_empty_commit_identity () =
  let s = mk () in
  let t = Spec.init_txn s in
  let s', _ = Spec.commit s t |> ok in
  Alcotest.(check bool) "empty commit = identity" true (Spec.equal s s')

let test_spec_reject_is_abort () =
  (* The Transaction_too_large transition: map untouched, handle dead. *)
  let s = mk () in
  let t = Spec.init_txn s in
  let t = ok (Spec.write s t 0 (blk 5)) in
  let t = Spec.reject t in
  Alcotest.(check bool) "rejected handle finished" false (Spec.live t);
  Alcotest.(check int) "no writes pending" 0 (List.length (Spec.pending t));
  Alcotest.(check bytes) "map untouched" (blk 0) (ok (Spec.read s 0))

let test_spec_last_write_wins () =
  let s = mk () in
  let t = Spec.init_txn s in
  let t = ok (Spec.write s t 2 (blk 1)) in
  let t = ok (Spec.write s t 2 (blk 2)) in
  let s', _ = Spec.commit s t |> ok in
  Alcotest.(check bytes) "second write wins" (blk 2) (ok (Spec.read s' 2));
  Alcotest.(check int) "one pending entry per block" 1
    (List.length (Spec.pending (ok (Spec.write s (Spec.init_txn s) 2 (blk 1)))))

let test_spec_validation () =
  let s = mk () in
  let t = Spec.init_txn s in
  (match Spec.write s t 0 (Bytes.make 100 'x') with
  | Error (Tinca.Wrong_block_size { expected = 4096; got = 100 }) -> ()
  | _ -> Alcotest.fail "wrong block size accepted");
  (match Spec.write s t 9 (blk 1) with
  | Error (Tinca.Block_out_of_range 9) -> ()
  | _ -> Alcotest.fail "out-of-range write accepted");
  (* write_direct is a one-block committed write. *)
  let s' = Spec.write_direct s 4 (blk 7) |> ok in
  Alcotest.(check bytes) "write_direct applied" (blk 7) (ok (Spec.read s' 4))

(* --- generator determinism ----------------------------------------------- *)

let test_gen_deterministic () =
  let a = L.gen ~seed:7 ~len:200 ~universe:48 in
  let b = L.gen ~seed:7 ~len:200 ~universe:48 in
  Alcotest.(check int) "fixed length" 200 (Array.length a);
  Alcotest.(check bool) "same seed, same sequence" true (a = b);
  let c = L.gen ~seed:8 ~len:200 ~universe:48 in
  Alcotest.(check bool) "different seed, different sequence" false (a = c);
  (* The sequence must carry real traffic, not dissolve into no-ops. *)
  let count p = Array.fold_left (fun k x -> if p x then k + 1 else k) 0 a in
  Alcotest.(check bool) "has begins" true (count (function L.Begin -> true | _ -> false) > 0);
  Alcotest.(check bool) "has commits" true (count (function L.Commit -> true | _ -> false) > 0);
  Alcotest.(check bool) "has writes" true (count (function L.Write _ -> true | _ -> false) > 0)

(* --- shrinker ------------------------------------------------------------ *)

let test_shrink_minimality () =
  (* Plant a divergence (Lose_writes) and shrink the generated sequence:
     the result must still fail, and be 1-minimal — removing any single
     command makes it pass. *)
  let g = L.default_geometry in
  let fails c = Result.is_error (L.run ~mutate:L.Lose_writes g c) in
  let cmds = L.gen ~seed:3 ~len:60 ~universe:g.L.universe in
  Alcotest.(check bool) "planted mutation diverges" true (fails cmds);
  let small = L.shrink ~fails cmds in
  Alcotest.(check bool) "shrunk sequence still fails" true (fails small);
  Alcotest.(check bool)
    (Printf.sprintf "reproducer has %d commands (<= 6)" (Array.length small))
    true
    (Array.length small <= 6);
  let without i =
    Array.append (Array.sub small 0 i) (Array.sub small (i + 1) (Array.length small - i - 1))
  in
  for i = 0 to Array.length small - 1 do
    Alcotest.(check bool)
      (Printf.sprintf "dropping command %d makes it pass" i)
      false
      (fails (without i))
  done

let test_shrink_pure_predicate () =
  (* On a synthetic predicate the shrinker must find the exact core. *)
  let fails c =
    Array.exists (function L.Read 1 -> true | _ -> false) c
    && Array.exists (function L.Read 2 -> true | _ -> false) c
  in
  let noise = Array.init 40 (fun i -> L.Read (10 + (i mod 5))) in
  let cmds = Array.concat [ noise; [| L.Read 1 |]; noise; [| L.Read 2 |]; noise ] in
  let small = L.shrink ~fails cmds in
  Alcotest.(check bool) "exact 2-command core" true (small = [| L.Read 1; L.Read 2 |])

(* --- the crash judge -------------------------------------------------- *)

module Check = Tinca_checker.Crash_check

(* Block 1 committed, block 2 sealed in a standing batch, and a call
   running that would apply blocks 3 and 5: the durable, drained and
   in-flight candidates all differ. *)
let judge_model () =
  let s = ok (Spec.write_direct (mk ()) 1 (blk 10)) in
  let s, _ = ok (Spec.seal s (ok (Spec.write s (Spec.init_txn s) 2 (blk 20)))) in
  let t = ok (Spec.write s (Spec.init_txn s) 3 (blk 30)) in
  let post, _ = ok (Spec.commit s (ok (Spec.write s t 5 (blk 50)))) in
  ({ Check.spec = s; in_flight = Some post }, post)

let image_of s edits b =
  let d = Spec.block s b in
  List.iter (fun (b', off, c) -> if b = b' then Bytes.set d off c) edits;
  d

let rejected what m image ~names =
  match Check.judge m image with
  | Ok () -> Alcotest.failf "%s accepted" what
  | Error e ->
      Alcotest.(check bool)
        (Printf.sprintf "%s: %S names %S" what e names)
        true
        (let n = String.length names in
         let rec at i = i + n <= String.length e && (String.sub e i n = names || at (i + 1)) in
         at 0)

let test_judge_candidates () =
  let m, post = judge_model () in
  List.iter
    (fun (what, s) ->
      match Check.judge m (Spec.block s) with
      | Ok () -> ()
      | Error e -> Alcotest.failf "%s image rejected: %s" what e)
    [ ("durable", Spec.drop_sealed m.Check.spec); ("drained", Spec.flush_sealed m.Check.spec);
      ("in-flight", post) ];
  rejected "in-flight image once the call returned" { m with Check.in_flight = None }
    (Spec.block post) ~names:"block 3 line 0"

let test_judge_rejects_mixes () =
  let m, post = judge_model () in
  (* Block 3 new, block 5 old. *)
  rejected "a mix of in-flight and drained" m
    (fun b -> if b = 5 then blk 0 else Spec.block post b)
    ~names:"block 5 line 0 is '\\000' (durable '\\000', drained '\\000', in-flight '2')";
  rejected "one line of block 5 old" m
    (image_of post (List.init 64 (fun i -> (5, (7 * 64) + i, '\000'))))
    ~names:"block 5 line 7";
  rejected "the last byte of block 5 changed" m (image_of post [ (5, 4095, 'x') ])
    ~names:"block 5 line 63 is 'x'"

(* --- lockstep equivalence (quick pin; make check-spec is the full gate) --- *)

let test_lockstep_clean () =
  let g = L.default_geometry in
  match L.run g (L.gen ~seed:11 ~len:60 ~universe:g.L.universe) with
  | Ok s -> Alcotest.(check bool) "sweeps ran" true (s.L.sweeps > 0)
  | Error d -> Alcotest.failf "unexpected divergence: %s" (Format.asprintf "%a" L.pp_divergence d)

let suite =
  [
    ( "check.spec",
      [
        Alcotest.test_case "initial state all zeros" `Quick test_spec_initial_zeros;
        Alcotest.test_case "commit applies exactly the staged writes" `Quick
          test_spec_commit_applies_all;
        Alcotest.test_case "abort is identity" `Quick test_spec_abort_identity;
        Alcotest.test_case "empty commit is identity" `Quick test_spec_empty_commit_identity;
        Alcotest.test_case "reject = abort semantics" `Quick test_spec_reject_is_abort;
        Alcotest.test_case "last write wins inside a txn" `Quick test_spec_last_write_wins;
        Alcotest.test_case "validation mirrors the facade" `Quick test_spec_validation;
      ] );
    ( "check.judge",
      [
        Alcotest.test_case "accepts exactly the three candidates" `Quick test_judge_candidates;
        Alcotest.test_case "rejects mixes and names the line" `Quick test_judge_rejects_mixes;
      ] );
    ( "check.lockstep",
      [
        Alcotest.test_case "generator deterministic under a fixed seed" `Quick
          test_gen_deterministic;
        Alcotest.test_case "shrinker 1-minimal on planted divergence" `Quick
          test_shrink_minimality;
        Alcotest.test_case "shrinker finds the exact core" `Quick test_shrink_pure_predicate;
        Alcotest.test_case "lockstep run clean on default geometry" `Quick test_lockstep_clean;
      ] );
  ]
