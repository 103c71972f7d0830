(* Smoke tests for the experiment harness: the runner's measurement
   plumbing, registry integrity, and a miniature end-to-end experiment
   asserting the paper's headline inequality (Tinca beats Classic). *)
module Runner = Tinca_harness.Runner
module Registry = Tinca_harness.Registry
module Stacks = Tinca_stacks.Stacks
module Fio = Tinca_workloads.Fio
module Ops = Tinca_workloads.Ops

let mini_cfg = { Fio.default with file_size = 2 * 1024 * 1024; ops = 800; read_pct = 0.3 }

let run_mini spec =
  Runner.run_local ~nvm_bytes:(2 * 1024 * 1024) ~disk_blocks:16384 ~spec
    ~prealloc:(fun ops -> Fio.prealloc mini_cfg ops)
    ~work:(fun ops -> Fio.run mini_cfg ops)
    ()

let test_runner_measures () =
  let m = run_mini (fun env -> Stacks.tinca env) in
  Alcotest.(check int) "ops counted" 800 m.Runner.ops;
  Alcotest.(check bool) "time advanced" true (m.Runner.sim_seconds > 0.0);
  Alcotest.(check bool) "throughput positive" true (m.Runner.throughput > 0.0);
  Alcotest.(check bool) "clflush counted" true (m.Runner.clflush > 0);
  Alcotest.(check bool) "stores counted" true (m.Runner.nvm_bytes_stored > 0)

let test_headline_inequality () =
  (* The reproduction's reason to exist: Tinca outperforms Classic with
     fewer flushes on the same workload. *)
  let tinca = run_mini (fun env -> Stacks.tinca env) in
  let classic = run_mini (fun env -> Stacks.classic ~journal_len:4096 env) in
  Alcotest.(check bool) "tinca faster" true (tinca.Runner.throughput > classic.Runner.throughput);
  Alcotest.(check bool) "tinca flushes less" true (tinca.Runner.clflush < classic.Runner.clflush)

let test_runner_deterministic () =
  let a = run_mini (fun env -> Stacks.tinca env) in
  let b = run_mini (fun env -> Stacks.tinca env) in
  Alcotest.(check (float 0.0)) "same simulated time" a.Runner.sim_seconds b.Runner.sim_seconds;
  Alcotest.(check int) "same clflush" a.Runner.clflush b.Runner.clflush

let test_registry_complete () =
  (* Every table and figure of the paper must be present. *)
  let required =
    [ "table1"; "table2"; "fig3a"; "fig3b"; "fig4"; "fig7"; "fig8"; "fig10"; "fig11";
      "fig12a"; "fig12b"; "fig12c"; "fig13"; "recoverability" ]
  in
  List.iter
    (fun id ->
      Alcotest.(check bool) (id ^ " registered") true (Registry.find id <> None))
    required;
  (* ids are unique *)
  let ids = List.map (fun e -> e.Registry.id) Registry.all in
  Alcotest.(check int) "unique ids" (List.length ids) (List.length (List.sort_uniq compare ids))

let test_static_tables_render () =
  let out = Registry.run_experiment (Option.get (Registry.find "table1")) in
  Alcotest.(check bool) "table1 output" true (String.length out > 100);
  let out2 = Registry.run_experiment (Option.get (Registry.find "table2")) in
  Alcotest.(check bool) "table2 output" true (String.length out2 > 100)

let test_ops_compute_charges_clock () =
  let env = Stacks.make_env ~nvm_bytes:(2 * 1024 * 1024) ~disk_blocks:1024 () in
  let stack = Stacks.tinca env in
  let fs =
    Tinca_fs.Fs.format
      ~config:{ Tinca_fs.Fs.default_config with ninodes = 64; journal_len = 64 }
      stack.Stacks.backend
  in
  let ops = Ops.of_fs ~compute:(Tinca_sim.Clock.advance env.Stacks.clock) fs in
  let t0 = Tinca_sim.Clock.now_ns env.Stacks.clock in
  ops.Ops.compute 12345.0;
  Alcotest.(check (float 1e-9)) "charged" 12345.0 (Tinca_sim.Clock.now_ns env.Stacks.clock -. t0)

let test_filebench_commit_cadence () =
  (* With commit_every_ops the fileserver's transactions scale with its
     write intensity rather than the FS size threshold. *)
  let module Filebench = Tinca_workloads.Filebench in
  let env = Stacks.make_env ~nvm_bytes:(8 * 1024 * 1024) ~disk_blocks:65536 () in
  let stack = Stacks.tinca env in
  let fs =
    Tinca_fs.Fs.format
      ~config:{ Tinca_fs.Fs.default_config with ninodes = 1024; max_dirty_blocks = 100_000 }
      stack.Stacks.backend
  in
  let ops = Ops.of_fs fs in
  let cfg =
    { (Filebench.default Filebench.Fileserver) with nfiles = 60; mean_file_kb = 16; ops = 400;
      commit_every_ops = 20 }
  in
  let t = Filebench.prealloc cfg ops in
  ignore (Filebench.run t ops);
  let metrics = stack.Stacks.env.Stacks.metrics in
  let hist = Option.get (Tinca_sim.Metrics.hist metrics "tinca.txn_blocks") in
  Alcotest.(check bool) "about ops/cadence commits" true (Tinca_sim.Hist.count hist >= 400 / 20)

let contains s sub =
  let n = String.length sub in
  let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
  go 0

(* The gate runner: a raising property and a false one are both FAIL
   rows (the raise naming its exception), the properties after them
   still run, and the gate fails. *)
let test_gate_runner_isolates_failures () =
  let module Gate = Tinca_harness.Gate in
  let ran_after = ref false in
  let g =
    {
      Gate.name = "fake";
      doc = "";
      properties =
        [
          Gate.property "passes" (fun () -> ("fine", true));
          Gate.property "raises" (fun () -> failwith "boom");
          Gate.property "returns false" (fun () -> ("nope", false));
          Gate.property "after" (fun () ->
              ran_after := true;
              ("ran", true));
        ];
    }
  in
  let r = Gate.run g in
  Alcotest.(check (list bool)) "row verdicts" [ true; false; false; true ]
    (List.map (fun row -> row.Gate.ok) r.Gate.rows);
  Alcotest.(check bool) "raise names its exception" true
    (let d = (List.nth r.Gate.rows 1).Gate.detail in
     contains d "raised" && contains d "Failure");
  Alcotest.(check bool) "later properties still run" true !ran_after;
  Alcotest.(check bool) "gate fails" false r.Gate.passed;
  let fail_rows =
    List.filter
      (fun line -> contains line "FAIL" && not (contains line "gate fake"))
      (String.split_on_char '\n' (Gate.render r))
  in
  Alcotest.(check int) "both failing rows render as FAIL" 2 (List.length fail_rows)

let suite =
  [
    ( "harness",
      [
        Alcotest.test_case "runner measures" `Quick test_runner_measures;
        Alcotest.test_case "headline: tinca beats classic" `Quick test_headline_inequality;
        Alcotest.test_case "runner deterministic" `Quick test_runner_deterministic;
        Alcotest.test_case "registry complete" `Quick test_registry_complete;
        Alcotest.test_case "static tables render" `Quick test_static_tables_render;
        Alcotest.test_case "ops.compute charges clock" `Quick test_ops_compute_charges_clock;
        Alcotest.test_case "filebench commit cadence" `Quick test_filebench_commit_cadence;
        Alcotest.test_case "gate runner isolates failures" `Quick
          test_gate_runner_isolates_failures;
      ] );
  ]
