(* Tests for the observability layer: span tracer semantics (nesting,
   counter deltas, unbalanced handling, disabled-mode zero allocation),
   the registry pairing and pmem -> span attribution, the Chrome trace_event JSON
   export + validator, the /proc-style renderer, the dotted metric
   naming convention over real workload runs, and the ISSUE acceptance
   pin: a traced 8-block Tinca commit whose stage-B span carries exactly
   one sfence and whose whole-commit span stays within the 6-fence
   budget — with the sanitizer attached and silent. *)

module Trace = Tinca_obs.Trace
module Jsonv = Tinca_obs.Jsonv
module Procfs = Tinca_obs.Procfs
module Cache = Tinca_core.Cache
module Pmem = Tinca_pmem.Pmem
module Disk = Tinca_blockdev.Disk
module Psan = Tinca_checker.Psan
module Stacks = Tinca_stacks.Stacks
open Tinca_sim

(* Every test that enables tracing must disable it on ANY exit: the
   tracer is global state and a leak would slow the whole suite. *)
let traced f () = Fun.protect ~finally:Trace.disable f

(* --- Trace semantics ----------------------------------------------------- *)

let test_nesting_and_folding =
  traced (fun () ->
      Trace.enable ();
      let clock = Clock.create () in
      let metrics = Metrics.create () in
      Trace.name_track clock "t0";
      Trace.attach ~clock metrics;
      let n = Metrics.counter metrics "pmem.sfence" in
      Trace.begin_span ~clock "outer";
      Trace.attr "k" "v";
      Clock.advance clock 100.0;
      Trace.begin_span ~clock "inner";
      Metrics.add n 2;
      Clock.advance clock 50.0;
      Trace.end_span "inner";
      Clock.advance clock 25.0;
      Metrics.add n 1;
      Trace.end_span "outer";
      match Trace.completed () with
      | [ inner; outer ] ->
          Alcotest.(check string) "inner closes first" "inner" inner.Trace.name;
          Alcotest.(check string) "outer name" "outer" outer.Trace.name;
          Alcotest.(check string) "track name" "t0" outer.Trace.track;
          Alcotest.(check (float 1e-9)) "inner duration" 50.0 inner.Trace.dur_ns;
          Alcotest.(check (float 1e-9)) "outer duration" 175.0 outer.Trace.dur_ns;
          Alcotest.(check (float 1e-9)) "outer self time excludes inner" 125.0
            outer.Trace.self_ns;
          Alcotest.(check int) "inner depth" 1 inner.Trace.depth;
          Alcotest.(check int) "outer depth" 0 outer.Trace.depth;
          Alcotest.(check int) "inner counter" 2 (Trace.counter inner "pmem.sfence");
          Alcotest.(check int) "the parent's delta covers its child" 3
            (Trace.counter outer "pmem.sfence");
          Alcotest.(check (list (pair string string))) "attrs" [ ("k", "v") ] outer.Trace.attrs
      | spans -> Alcotest.failf "expected 2 spans, got %d" (List.length spans))

let test_unbalanced =
  traced (fun () ->
      Trace.enable ();
      let clock = Clock.create () in
      (* End with nothing open: counted, ignored. *)
      Trace.end_span "phantom";
      Alcotest.(check int) "phantom end counted" 1 (Trace.unbalanced ());
      (* End naming a span deeper in the stack force-closes intervening
         spans. *)
      Trace.begin_span ~clock "a";
      Trace.begin_span ~clock "b";
      Trace.end_span "a";
      Alcotest.(check int) "force-close counted" 2 (Trace.unbalanced ());
      Alcotest.(check int) "nothing left open" 0 (Trace.open_spans ());
      Alcotest.(check int) "both spans completed" 2 (List.length (Trace.completed ()));
      (* End naming no open span leaves the stack alone. *)
      Trace.begin_span ~clock "c";
      Trace.end_span "zz";
      Alcotest.(check int) "absent name counted" 3 (Trace.unbalanced ());
      Alcotest.(check int) "c still open" 1 (Trace.open_spans ());
      Trace.end_span "c")

let test_reset_keeps_tracks =
  traced (fun () ->
      let clock = Clock.create () in
      Trace.name_track clock "named-before-enable";
      Trace.enable ();
      Trace.begin_span ~clock "s";
      Trace.end_span "s";
      Trace.reset ();
      Alcotest.(check int) "reset drops spans" 0 (List.length (Trace.completed ()));
      Trace.begin_span ~clock "s2";
      Trace.end_span "s2";
      match Trace.completed () with
      | [ s ] ->
          Alcotest.(check string) "track registration survives enable + reset"
            "named-before-enable" s.Trace.track
      | _ -> Alcotest.fail "expected one span")

(* Disabled tracing must be free: no allocation at all across
   begin/attr_int/instant/end, so it can stay compiled into every hot
   path.  The budget of 8 words absorbs the boxed float returned by
   [Gc.minor_words] itself. *)
let test_disabled_zero_alloc () =
  Trace.disable ();
  let clock = Clock.create () in
  Trace.begin_span ~clock "z";
  Trace.attr_int "c" 1;
  Trace.end_span "z";
  let before = Gc.minor_words () in
  for i = 1 to 10_000 do
    Trace.begin_span ~clock "z";
    Trace.attr_int "c" i;
    Trace.instant ~clock "i";
    Trace.end_span "z"
  done;
  let allocated = Gc.minor_words () -. before in
  Alcotest.(check bool)
    (Printf.sprintf "10k disabled begin/attr_int/instant/end allocate %.0f words" allocated)
    true (allocated <= 8.0)

let test_disabled_noops () =
  Trace.disable ();
  let clock = Clock.create () in
  Trace.begin_span ~clock "x";
  Trace.end_span "x";
  Alcotest.(check bool) "not enabled" false (Trace.enabled ());
  Alcotest.(check int) "nothing recorded" 0 (List.length (Trace.completed ()));
  Alcotest.(check int) "nothing unbalanced" 0 (Trace.unbalanced ())

(* --- pmem event attribution ---------------------------------------------- *)

let test_pmem_attribution =
  traced (fun () ->
      Trace.enable ();
      let clock = Clock.create () in
      let metrics = Metrics.create () in
      let pmem = Pmem.create ~clock ~metrics ~tech:Latency.Pcm ~size:4096 () in
      Trace.attach ~clock metrics;
      Trace.begin_span ~clock "persist";
      Pmem.write pmem ~off:0 (Bytes.make 128 'x');
      Pmem.clflush pmem ~off:0 ~len:128;
      Pmem.sfence pmem;
      Trace.end_span "persist";
      (* Outside any span the events must be dropped, not crash. *)
      Pmem.write pmem ~off:0 (Bytes.make 64 'y');
      Pmem.sfence pmem;
      match Trace.find_spans "persist" with
      | [ s ] ->
          Alcotest.(check int) "store lines attributed" 2 (Trace.counter s "pmem.store_lines");
          Alcotest.(check int) "clflush attributed" 2 (Trace.counter s "pmem.clflush");
          Alcotest.(check int) "write-backs attributed" 2
            (Trace.counter s "pmem.clflush_writebacks");
          Alcotest.(check int) "sfence attributed" 1 (Trace.counter s "pmem.sfence")
      | l -> Alcotest.failf "expected one persist span, got %d" (List.length l))

(* The pairing contract: a span on a clock never paired with a registry
   carries no counters; naming a paired track keeps its pairing. *)
let test_pairing_contract =
  traced (fun () ->
      Trace.enable ();
      let persisted_span clock metrics name =
        let pmem = Pmem.create ~clock ~metrics ~tech:Latency.Pcm ~size:4096 () in
        Trace.begin_span ~clock name;
        Pmem.write pmem ~off:0 (Bytes.make 64 'x');
        Pmem.persist pmem ~off:0 ~len:64;
        Trace.end_span name;
        match Trace.find_spans name with
        | [ s ] -> s
        | l -> Alcotest.failf "expected one %s span, got %d" name (List.length l)
      in
      let unpaired = persisted_span (Clock.create ()) (Metrics.create ()) "unpaired" in
      Alcotest.(check (list (pair string int))) "unpaired clock: no counters" []
        unpaired.Trace.counters;
      let clock = Clock.create () and metrics = Metrics.create () in
      Trace.attach ~clock metrics;
      Trace.name_track clock "renamed";
      let paired = persisted_span clock metrics "paired" in
      Alcotest.(check string) "the later name shows" "renamed" paired.Trace.track;
      Alcotest.(check int) "the pairing survives name_track" 1
        (Trace.counter paired "pmem.sfence"))

(* Random stores, flushes, flush_ranges bursts, fences and reads inside
   randomly nested spans: every closed span's counters are exactly the
   registry's change over it, restricted to the watched names, whether
   an observer makes [Pmem] build per-line events or not. *)
type span_op =
  | Store of int * int
  | Atomic of int
  | Flush of int * int
  | Ranges of (int * int) list
  | Fence
  | Read of int * int
  | Open
  | Close

let gen_span_op =
  let open QCheck.Gen in
  let range = pair (int_bound 4000) (int_range 1 300) in
  frequency
    [
      (4, map (fun (o, l) -> Store (o, l)) range);
      (1, map (fun o -> Atomic (o * 8)) (int_bound 500));
      (2, map (fun (o, l) -> Flush (o, l)) range);
      (2, map (fun rs -> Ranges rs) (list_size (int_range 1 4) range));
      (2, return Fence);
      (1, map (fun (o, l) -> Read (o, l)) range);
      (2, return Open);
      (2, return Close);
    ]

let show_span_op = function
  | Store (o, l) -> Printf.sprintf "store %d+%d" o l
  | Atomic o -> Printf.sprintf "atomic8 %d" o
  | Flush (o, l) -> Printf.sprintf "clflush %d+%d" o l
  | Ranges rs ->
      "flush_ranges " ^ String.concat "," (List.map (fun (o, l) -> Printf.sprintf "%d+%d" o l) rs)
  | Fence -> "sfence"
  | Read (o, l) -> Printf.sprintf "read %d+%d" o l
  | Open -> "open"
  | Close -> "close"

let prop_span_counters_are_registry_deltas =
  QCheck.Test.make ~name:"span counters equal registry deltas" ~count:200
    (QCheck.make
       ~print:(fun (obs, ops) ->
         Printf.sprintf "observer=%b [%s]" obs (String.concat "; " (List.map show_span_op ops)))
       QCheck.Gen.(pair bool (list_size (int_range 1 60) gen_span_op)))
    (fun (observer, ops) ->
      Fun.protect ~finally:Trace.disable (fun () ->
          Trace.enable ();
          let clock = Clock.create () and metrics = Metrics.create () in
          Trace.attach ~clock metrics;
          let pmem = Pmem.create ~clock ~metrics ~tech:Latency.Pcm ~size:4096 () in
          if observer then Pmem.set_observer pmem (Some ignore);
          let clip (o, l) = (o mod 4096, min l (4096 - (o mod 4096))) in
          let opened = ref [] and next = ref 0 and ok = ref true in
          let close () =
            match !opened with
            | [] -> ()
            | (name, snap) :: rest ->
                opened := rest;
                Trace.end_span name;
                let expected =
                  List.filter (fun (k, _) -> List.mem k Trace.watched) (Metrics.diff metrics snap)
                in
                (match Trace.find_spans name with
                | [ s ] -> if s.Trace.counters <> expected then ok := false
                | _ -> ok := false)
          in
          List.iter
            (function
              | Store (o, l) ->
                  let o, l = clip (o, l) in
                  Pmem.write pmem ~off:o (Bytes.make l 's')
              | Atomic o -> Pmem.atomic_write8 pmem ~off:o 7L
              | Flush (o, l) ->
                  let o, l = clip (o, l) in
                  Pmem.clflush pmem ~off:o ~len:l
              | Ranges rs -> Pmem.flush_ranges pmem (List.map clip rs)
              | Fence -> Pmem.sfence pmem
              | Read (o, l) ->
                  let o, l = clip (o, l) in
                  ignore (Pmem.read pmem ~off:o ~len:l)
              | Open ->
                  let name = Printf.sprintf "s%d" !next in
                  incr next;
                  opened := (name, Metrics.snapshot metrics) :: !opened;
                  Trace.begin_span ~clock name
              | Close -> close ())
            ops;
          while !opened <> [] do
            close ()
          done;
          !ok))

(* --- acceptance pin: traced 8-block commit ------------------------------- *)

let mk_cache_env () =
  let clock = Clock.create () in
  let metrics = Metrics.create () in
  let pmem = Pmem.create ~clock ~metrics ~tech:Latency.Pcm ~size:(1024 * 1024) () in
  let disk = Disk.create ~clock ~metrics ~kind:Latency.Ssd ~nblocks:256 ~block_size:4096 in
  (clock, metrics, pmem, disk)

let commit_8 cache ~base =
  let h = Cache.Txn.init cache in
  for b = 0 to 7 do
    Cache.Txn.add h (base + b) (Bytes.make 4096 'w')
  done;
  Cache.Txn.commit h

let test_traced_commit_budget =
  traced (fun () ->
      let clock, metrics, pmem, disk = mk_cache_env () in
      Trace.enable ();
      Trace.name_track clock "tinca";
      Trace.attach ~clock metrics;
      let cache =
        Cache.format ~config:{ Cache.default_config with ring_slots = 128 } ~pmem ~disk ~clock
          ~metrics
      in
      let psan = Psan.attach ~layout:(Cache.layout cache) pmem in
      for c = 0 to 3 do
        commit_8 cache ~base:(c * 8)
      done;
      (* Stage B (ring slot batch) pays exactly one sfence per commit;
         the whole write-back commit five, within the <= 6 pin. *)
      let stage_b = Trace.find_spans "tinca.commit.stage_b" in
      Alcotest.(check int) "one stage-B span per commit" 4 (List.length stage_b);
      List.iter
        (fun s -> Alcotest.(check int) "stage B = 1 sfence" 1 (Trace.counter s "pmem.sfence"))
        stage_b;
      let commits = Trace.find_spans "tinca.commit" in
      Alcotest.(check int) "one commit span per commit" 4 (List.length commits);
      List.iter
        (fun s ->
          Alcotest.(check bool)
            (Printf.sprintf "commit <= 6 sfences (got %d)" (Trace.counter s "pmem.sfence"))
            true
            (Trace.counter s "pmem.sfence" <= 6);
          Alcotest.(check int) "blocks attr" 0
            (compare (List.assoc_opt "blocks" s.Trace.attrs) (Some "8")))
        commits;
      Alcotest.(check int) "balanced" 0 (Trace.unbalanced ());
      Alcotest.(check int) "no open spans" 0 (Trace.open_spans ());
      (* Tracing must not upset the sanitizer. *)
      Alcotest.(check int) "psan silent under tracing" 0 (Psan.violation_count psan);
      Psan.detach psan;
      (* The export is schema-valid Chrome JSON. *)
      match Jsonv.validate_trace (Result.get_ok (Jsonv.parse (Trace.export_json ()))) with
      | Ok st ->
          Alcotest.(check int) "one track" 1 st.Jsonv.tracks;
          Alcotest.(check bool) "events recorded" true (st.Jsonv.events > 0)
      | Error errs -> Alcotest.failf "invalid trace: %s" (String.concat "; " errs))

(* Tracing is an observer: the simulated clock must read identically
   with and without it. *)
let test_tracing_preserves_sim_time =
  traced (fun () ->
      let run ~traced =
        let clock, metrics, pmem, disk = mk_cache_env () in
        if traced then Trace.enable ();
        let cache =
          Cache.format ~config:{ Cache.default_config with ring_slots = 128 } ~pmem ~disk ~clock
            ~metrics
        in
        for c = 0 to 3 do
          commit_8 cache ~base:(c * 8)
        done;
        let ns = Clock.now_ns clock in
        if traced then Trace.disable ();
        ns
      in
      let off = run ~traced:false in
      let on = run ~traced:true in
      Alcotest.(check (float 0.0)) "identical simulated time" off on)

(* --- JSON parser + validator --------------------------------------------- *)

let test_jsonv_parse () =
  (match Jsonv.parse {| {"a": [1, 2.5, -3e2], "s": "q\"\nA", "t": true, "n": null} |} with
  | Error e -> Alcotest.failf "parse failed: %s" e
  | Ok doc -> (
      (match Jsonv.member "a" doc with
      | Some (Jsonv.Arr [ Jsonv.Num a; Jsonv.Num b; Jsonv.Num c ]) ->
          Alcotest.(check (float 1e-9)) "int" 1.0 a;
          Alcotest.(check (float 1e-9)) "float" 2.5 b;
          Alcotest.(check (float 1e-9)) "exponent" (-300.0) c
      | _ -> Alcotest.fail "array member");
      match Jsonv.member "s" doc with
      | Some (Jsonv.Str s) -> Alcotest.(check string) "escapes" "q\"\nA" s
      | _ -> Alcotest.fail "string member"));
  List.iter
    (fun bad ->
      match Jsonv.parse bad with
      | Ok _ -> Alcotest.failf "accepted malformed %S" bad
      | Error _ -> ())
    [ "{"; "[1,]"; "{\"a\" 1}"; "\"unterminated"; "tru"; "1 2"; "" ]

let test_jsonv_validator_rejects () =
  let bad ~name doc expect_sub =
    match Jsonv.validate_trace (Result.get_ok (Jsonv.parse doc)) with
    | Ok _ -> Alcotest.failf "%s: validated" name
    | Error errs ->
        Alcotest.(check bool)
          (Printf.sprintf "%s: mentions %S in %s" name expect_sub (String.concat "; " errs))
          true
          (List.exists
             (fun e ->
               let n = String.length e and m = String.length expect_sub in
               let rec go i = i + m <= n && (String.sub e i m = expect_sub || go (i + 1)) in
               go 0)
             errs)
  in
  bad ~name:"not an object" {| [] |} "traceEvents";
  bad ~name:"unbalanced"
    {| {"traceEvents": [{"ph":"B","name":"x","pid":1,"tid":1,"ts":1}]} |}
    "unclosed";
  bad ~name:"non-monotonic"
    {| {"traceEvents": [
         {"ph":"B","name":"x","pid":1,"tid":1,"ts":5},
         {"ph":"E","name":"x","pid":1,"tid":1,"ts":3}]} |}
    "previous";
  bad ~name:"missing field" {| {"traceEvents": [{"ph":"B","pid":1,"tid":1,"ts":1}]} |} "name"

(* --- /proc renderer ------------------------------------------------------ *)

let test_procfs_render () =
  let s =
    Procfs.render
      [
        Procfs.section "cache" [ ("dirty_ratio", "0.5"); ("x", "1") ];
        Procfs.section "psan" [ ("violations", "0") ];
      ]
  in
  let contains sub =
    let n = String.length s and m = String.length sub in
    let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "section headers" true (contains "[cache]" && contains "[psan]");
  Alcotest.(check bool) "key : value lines" true (contains "dirty_ratio : 0.5");
  Alcotest.(check bool) "keys aligned across sections" true (contains "violations  : 0")

(* --- naming convention over real workloads ------------------------------- *)

let test_naming_convention () =
  let module Workload = Tinca_workloads.Trace in
  let module Runner = Tinca_harness.Runner in
  let trace =
    Workload.synthesize ~seed:3 ~nblocks:512 ~ops:400 ~read_pct:0.5 ~zipf_theta:0.9 ~fsync_every:8
  in
  let check_stack ?(journaled = true) spec =
    let m =
      Runner.run_local ~spec ~journaled
        ~prealloc:(fun ops -> Workload.prealloc ~block_size:4096 trace ops)
        ~work:(fun ops -> Workload.run ~block_size:4096 trace ops)
        ()
    in
    let metrics = m.Runner.stack.Stacks.env.Stacks.metrics in
    List.iter
      (fun (name, _) ->
        Alcotest.(check bool)
          (Printf.sprintf "%s counter %S follows the dotted convention" m.Runner.label name)
          true (Metrics.valid_name name))
      (Metrics.to_list metrics);
    List.iter
      (fun (name, _) ->
        Alcotest.(check bool)
          (Printf.sprintf "%s histogram %S follows the dotted convention" m.Runner.label name)
          true (Metrics.valid_name name))
      (Metrics.hists metrics)
  in
  check_stack (fun env -> Stacks.tinca env);
  check_stack (fun env -> Stacks.classic ~journal_len:4096 env);
  Alcotest.(check bool) "rejects undotted" false (Metrics.valid_name "clflush");
  Alcotest.(check bool) "rejects uppercase" false (Metrics.valid_name "Pmem.clflush");
  Alcotest.(check bool) "rejects empty segment" false (Metrics.valid_name "pmem.");
  Alcotest.(check bool) "accepts multi-segment" true (Metrics.valid_name "tinca.commit.blocks")

let suite =
  [
    ( "obs.trace",
      [
        Alcotest.test_case "nesting, durations, counter folding" `Quick test_nesting_and_folding;
        Alcotest.test_case "unbalanced begin/end handling" `Quick test_unbalanced;
        Alcotest.test_case "reset keeps track names" `Quick test_reset_keeps_tracks;
        Alcotest.test_case "disabled mode allocates nothing" `Quick test_disabled_zero_alloc;
        Alcotest.test_case "disabled mode records nothing" `Quick test_disabled_noops;
        Alcotest.test_case "pmem events land in spans" `Quick test_pmem_attribution;
        Alcotest.test_case "unpaired clocks count nothing, names keep pairings" `Quick
          test_pairing_contract;
        QCheck_alcotest.to_alcotest prop_span_counters_are_registry_deltas;
      ] );
    ( "obs.acceptance",
      [
        Alcotest.test_case "traced 8-block commit meets fence budget" `Quick
          test_traced_commit_budget;
        Alcotest.test_case "tracing preserves simulated time" `Quick
          test_tracing_preserves_sim_time;
      ] );
    ( "obs.jsonv",
      [
        Alcotest.test_case "parser round-trips values, rejects garbage" `Quick test_jsonv_parse;
        Alcotest.test_case "trace validator rejects bad traces" `Quick
          test_jsonv_validator_rejects;
      ] );
    ( "obs.surface",
      [
        Alcotest.test_case "/proc renderer" `Quick test_procfs_render;
        Alcotest.test_case "metric names follow the dotted convention" `Quick
          test_naming_convention;
      ] );
  ]
