(* CLI driver for the reproduction experiments.

   tinca_bench list           - show every experiment id
   tinca_bench run <id> ...   - run one or more experiments
   tinca_bench run all        - run everything *)

open Cmdliner
module Registry = Tinca_harness.Registry

let list_cmd =
  let doc = "List all experiments (paper tables and figures)." in
  let run () =
    List.iter
      (fun e ->
        Printf.printf "%-20s %-50s [%s]\n" e.Registry.id e.Registry.title e.Registry.paper_ref)
      Registry.all
  in
  Cmd.v (Cmd.info "list" ~doc) Term.(const run $ const ())

let run_ids csv_dir ids =
  let targets =
    if List.mem "all" ids then Registry.all
    else
      List.map
        (fun id ->
          match Registry.find id with
          | Some e -> e
          | None ->
              Printf.eprintf "unknown experiment %S; try `tinca_bench list`\n" id;
              exit 1)
        ids
  in
  (match csv_dir with
  | Some dir when not (Sys.file_exists dir) -> Unix.mkdir dir 0o755
  | _ -> ());
  List.iter
    (fun e ->
      let t0 = Unix.gettimeofday () in
      (match csv_dir with
      | None -> print_string (Registry.run_experiment e)
      | Some dir ->
          Printf.printf "=== %s: %s ===\n" e.Registry.id e.Registry.title;
          List.iteri
            (fun i table ->
              let path = Filename.concat dir (Printf.sprintf "%s_%d.csv" e.Registry.id i) in
              let oc = open_out path in
              output_string oc (Tinca_harness.Registry.csv_of table);
              close_out oc;
              Printf.printf "  wrote %s\n" path)
            (e.Registry.run ()));
      Printf.printf "(wall time %.1fs)\n\n%!" (Unix.gettimeofday () -. t0))
    targets

let run_cmd =
  let doc = "Run experiments by id (or `all`)." in
  let ids = Arg.(non_empty & pos_all string [] & info [] ~docv:"ID") in
  let csv =
    Arg.(value & opt (some string) None & info [ "csv" ] ~docv:"DIR"
           ~doc:"Write each table as a CSV file into $(docv) instead of printing it.")
  in
  Cmd.v (Cmd.info "run" ~doc) Term.(const run_ids $ csv $ ids)

(* Shared --shards/--scheme plumbing: only the tinca stack is sharded or
   scheme-selectable; asking for either on any other stack is a usage
   error, not something to ignore.  The tinca config is built through
   the one Config.of_args funnel (ISSUE 10 satellite), so every
   subcommand accepts and validates the same flags the same way. *)
let stack_with_shards ?(flight_slots = 0) ?(scheme = "logging") ~stack_name ~shards env =
  let module Stacks = Tinca_stacks.Stacks in
  if shards < 1 then begin
    Printf.eprintf "--shards must be >= 1\n";
    exit 1
  end;
  if shards > 1 && stack_name <> "tinca" then begin
    Printf.eprintf "--shards %d: only the tinca stack is sharded\n" shards;
    exit 1
  end;
  if flight_slots > 0 && stack_name <> "tinca" then begin
    Printf.eprintf "--flight-slots %d: only the tinca stack has a flight recorder\n" flight_slots;
    exit 1
  end;
  if scheme <> "logging" && stack_name <> "tinca" then begin
    Printf.eprintf "--scheme %s: only the tinca stack has selectable commit schemes\n" scheme;
    exit 1
  end;
  match stack_name with
  | "tinca" -> (
      match Tinca.Config.of_args ~scheme ~shards ~flight_slots () with
      | Ok config -> Stacks.tinca ~config env
      | Error m ->
          Printf.eprintf "tinca_bench: %s\n" m;
          exit 1)
  | "classic" -> Stacks.classic ~journal_len:4096 env
  | "ubj" -> Stacks.ubj env
  | "nojournal" -> Stacks.nojournal env
  | other ->
      Printf.eprintf "unknown stack %S (tinca|classic|ubj|nojournal)\n" other;
      exit 1

let shards_arg =
  Arg.(value & opt int 1 & info [ "shards" ] ~docv:"N"
         ~doc:"Shard count for the tinca stack (per-shard rings + striped commit scheduler).")

let scheme_arg =
  Arg.(value & opt string "logging"
       & info [ "scheme" ] ~docv:"SCHEME"
           ~doc:
             "Commit scheme for the tinca stack (ISSUE 10): $(b,logging) (ring pipeline), \
              $(b,per-block) (logging with per-block fences) or $(b,paging) (COW page remapping \
              through a persistent indirection table).")

(* `trace` subcommand: replay a block trace (from a file, or synthesized)
   over a chosen stack and report the evaluation metrics. *)
let run_trace stack_name shards scheme trace_file synth_ops read_pct tech flush_instr trace_out
    verbose =
  if verbose then begin
    Logs.set_reporter (Logs.format_reporter ());
    Logs.set_level (Some Logs.Info)
  end;
  let module Stacks = Tinca_stacks.Stacks in
  let module Fs = Tinca_fs.Fs in
  let module Trace = Tinca_workloads.Trace in
  let module Ops = Tinca_workloads.Ops in
  let open Tinca_sim in
  if trace_out <> None then Tinca_obs.Trace.enable ();
  let trace =
    match trace_file with
    | Some path ->
        let ic = open_in path in
        let n = in_channel_length ic in
        let text = really_input_string ic n in
        close_in ic;
        Trace.parse text
    | None ->
        Trace.synthesize ~seed:7 ~nblocks:4096 ~ops:synth_ops ~read_pct ~zipf_theta:0.9
          ~fsync_every:8
  in
  let env = Stacks.make_env ~tech ~flush_instr ~nvm_bytes:(8 * 1024 * 1024) ~disk_blocks:65536 () in
  let stack = stack_with_shards ~scheme ~stack_name ~shards env in
  let fs =
    Fs.format
      ~config:{ Fs.default_config with journaled = stack_name <> "nojournal" }
      stack.Stacks.backend
  in
  let ops = Ops.of_fs ~compute:(Clock.advance env.Stacks.clock) fs in
  Trace.prealloc ~block_size:4096 trace ops;
  Fs.fsync fs;
  let t0 = Clock.now_ns env.Stacks.clock in
  let snap = Metrics.snapshot env.Stacks.metrics in
  let stats = Trace.run ~block_size:4096 trace ops in
  let seconds = (Clock.now_ns env.Stacks.clock -. t0) /. 1e9 in
  let per_op name =
    float_of_int (Metrics.since env.Stacks.metrics snap name) /. float_of_int stats.Ops.ops
  in
  Printf.printf "stack=%s ops=%d sim_seconds=%.4f\n" stack.Stacks.label stats.Ops.ops seconds;
  Printf.printf "throughput        %10.0f ops/s\n" (float_of_int stats.Ops.ops /. seconds);
  Printf.printf "clflush/op        %10.1f\n" (per_op "pmem.clflush");
  Printf.printf "disk writes/op    %10.2f\n" (per_op "disk.writes");
  Printf.printf "disk reads/op     %10.2f\n" (per_op "disk.reads");
  Printf.printf "cache write hit   %10.1f%%\n" (100.0 *. stack.Stacks.cache_write_hit_rate ());
  match trace_out with
  | None -> ()
  | Some path ->
      Tinca_obs.Trace.export_to_file path;
      Printf.printf "\n%s\n" (Tinca_obs.Trace.flame ());
      Printf.printf "wrote %s (open in chrome://tracing or ui.perfetto.dev)\n" path;
      Tinca_obs.Trace.disable ()

let trace_cmd =
  let doc = "Replay a block trace (R/W/F text format) over a stack." in
  let stack =
    Arg.(value & opt string "tinca" & info [ "stack" ] ~docv:"STACK"
           ~doc:"Stack to drive: tinca, classic, ubj or nojournal.")
  in
  let file =
    Arg.(value & opt (some file) None & info [ "file" ] ~docv:"TRACE"
           ~doc:"Trace file to replay (default: synthesize one).")
  in
  let ops =
    Arg.(value & opt int 20_000 & info [ "ops" ] ~docv:"N" ~doc:"Synthesized trace length.")
  in
  let read_pct =
    Arg.(value & opt float 0.5 & info [ "read-pct" ] ~docv:"P"
           ~doc:"Synthesized read fraction in [0,1].")
  in
  let tech =
    let module Latency = Tinca_sim.Latency in
    Arg.(value
         & opt
             (enum
                [ ("pcm", Latency.Pcm); ("nvdimm", Latency.Nvdimm); ("stt-ram", Latency.Stt_ram);
                  ("reram", Latency.Reram) ])
             Latency.Pcm
         & info [ "tech" ] ~docv:"TECH"
             ~doc:"NVM technology latency model: pcm, nvdimm, stt-ram or reram.")
  in
  let flush_instr =
    let module Latency = Tinca_sim.Latency in
    Arg.(value
         & opt
             (enum
                [ ("clflush", Latency.Clflush); ("clflushopt", Latency.Clflushopt);
                  ("clwb", Latency.Clwb) ])
             Latency.Clflush
         & info [ "flush-instr" ] ~docv:"INSTR"
             ~doc:"Cache-line flush instruction: clflush (serializing), clflushopt or clwb \
                   (pipelined write-back).")
  in
  let trace_out =
    Arg.(value & opt (some string) None & info [ "trace-out" ] ~docv:"FILE"
           ~doc:"Record a transaction-lifecycle span trace of the replay and write it as Chrome \
                 trace_event JSON to $(docv).")
  in
  let verbose = Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Log recovery/commit activity.") in
  Cmd.v (Cmd.info "trace" ~doc)
    Term.(
      const run_trace $ stack $ shards_arg $ scheme_arg $ file $ ops $ read_pct $ tech
      $ flush_instr $ trace_out $ verbose)

(* `bench-json` subcommand: emit the commit-protocol micro-benchmark and
   trace-replay throughput as a machine-readable artifact for CI. *)
let bench_json_cmd =
  let doc = "Write the commit-protocol benchmark results as JSON (CI artifact)." in
  let out =
    Arg.(value & opt string "BENCH_commit.json"
         & info [ "out" ] ~docv:"FILE" ~doc:"Output path for the JSON document.")
  in
  let run out =
    let t0 = Unix.gettimeofday () in
    let json =
      Tinca_harness.Exp_commit.bench_json
        ~group_block:Tinca_harness.Exp_group.json_block
        ~page_block:Tinca_harness.Exp_page.json_block ()
    in
    let oc = open_out out in
    output_string oc json;
    close_out oc;
    Printf.printf "wrote %s (wall time %.1fs)\n" out (Unix.gettimeofday () -. t0)
  in
  Cmd.v (Cmd.info "bench-json" ~doc) Term.(const run $ out)

(* `stats` subcommand: run a synthetic workload over a psan-instrumented
   stack and print the /proc/tinca-style health snapshot. *)
let run_stats stack_name shards scheme flight_slots synth_ops read_pct =
  let module Stacks = Tinca_stacks.Stacks in
  let module Fs = Tinca_fs.Fs in
  let module Workload = Tinca_workloads.Trace in
  let module Ops = Tinca_workloads.Ops in
  let module Psan = Tinca_checker.Psan in
  let module Procfs = Tinca_obs.Procfs in
  let open Tinca_sim in
  let env = Stacks.make_env ~nvm_bytes:(8 * 1024 * 1024) ~disk_blocks:65536 () in
  let stack, psan =
    Stacks.instrument (stack_with_shards ~flight_slots ~scheme ~stack_name ~shards env)
  in
  let fs =
    Fs.format
      ~config:{ Fs.default_config with journaled = stack_name <> "nojournal" }
      stack.Stacks.backend
  in
  let trace =
    Workload.synthesize ~seed:7 ~nblocks:4096 ~ops:synth_ops ~read_pct ~zipf_theta:0.9
      ~fsync_every:8
  in
  let ops =
    Tinca_harness.Runner.instrument_ops ~clock:env.Stacks.clock ~metrics:env.Stacks.metrics
      (Ops.of_fs ~compute:(Clock.advance env.Stacks.clock) fs)
  in
  Workload.prealloc ~block_size:4096 trace ops;
  Fs.fsync fs;
  ignore (Workload.run ~block_size:4096 trace ops);
  Fs.fsync fs;
  let r = Psan.report psan in
  let sections =
    [
      Procfs.section "cache" (stack.Stacks.proc_stats ());
      Procfs.section "psan"
        ([
           ("events", string_of_int r.Psan.events);
           ("stores", string_of_int r.Psan.stores);
           ("flush_calls", string_of_int r.Psan.flush_calls);
           ("line_flushes", string_of_int r.Psan.line_flushes);
           ("fences", string_of_int r.Psan.fences);
           ("violations", string_of_int (List.length r.Psan.violations));
           ("redundant_flushes", string_of_int r.Psan.redundant_flushes);
         ]
        @ List.map
            (fun (site, n) -> ("redundant." ^ site, string_of_int n))
            r.Psan.redundant_by_site);
      Procfs.section "latency"
        (List.map (fun (name, h) -> (name, Hist.to_string h)) (Metrics.hists env.Stacks.metrics));
      Procfs.section "counters"
        (List.map (fun (k, v) -> (k, string_of_int v)) (Metrics.to_list env.Stacks.metrics));
    ]
  in
  print_string (Procfs.render sections)

let stats_cmd =
  let doc = "Print a /proc/tinca-style stats snapshot after a synthetic workload." in
  let stack =
    Arg.(value & opt string "tinca" & info [ "stack" ] ~docv:"STACK"
           ~doc:"Stack to snapshot: tinca, classic, ubj or nojournal.")
  in
  let ops =
    Arg.(value & opt int 4_000 & info [ "ops" ] ~docv:"N" ~doc:"Synthesized trace length.")
  in
  let read_pct =
    Arg.(value & opt float 0.5 & info [ "read-pct" ] ~docv:"P"
           ~doc:"Synthesized read fraction in [0,1].")
  in
  let flight =
    Arg.(value & opt int 0 & info [ "flight-slots" ] ~docv:"N"
           ~doc:"Flight-recorder ring slots per shard for the tinca stack (0 = recorder off); \
                 the recorder's own media writes show up as the wear.*.flight rows.")
  in
  Cmd.v (Cmd.info "stats" ~doc)
    Term.(const run_stats $ stack $ shards_arg $ scheme_arg $ flight $ ops $ read_pct)

(* `fio` subcommand: the Fig 7 Fio micro-benchmark on one stack, with a
   configurable shard count for the tinca stack. *)
let run_fio stack_name shards scheme ops read_pct =
  let module Stacks = Tinca_stacks.Stacks in
  let module Fio = Tinca_workloads.Fio in
  let module Runner = Tinca_harness.Runner in
  let cfg =
    { Fio.default with Fio.file_size = 20 * 1024 * 1024; read_pct; ops; fsync_every = 32 }
  in
  let m =
    Runner.run_local
      ~nvm_bytes:(8 * 1024 * 1024)
      ~spec:(fun env -> stack_with_shards ~scheme ~stack_name ~shards env)
      ~prealloc:(Fio.prealloc cfg) ~work:(Fio.run cfg) ()
  in
  let cl, dw, iops = Runner.per_write m in
  Printf.printf "stack=%s shards=%d ops=%d read_pct=%.2f sim_seconds=%.4f\n" m.Runner.label shards
    m.Runner.ops read_pct m.Runner.sim_seconds;
  Printf.printf "write IOPS        %10.0f\n" iops;
  Printf.printf "clflush/write     %10.1f\n" cl;
  Printf.printf "disk writes/write %10.2f\n" dw;
  Printf.printf "cache write hit   %10.1f%%\n" (100.0 *. m.Runner.write_hit_rate);
  if stack_name = "tinca" && shards > 1 then
    List.iter
      (fun (k, v) ->
        if
          List.mem k [ "nshards"; "multi_shard_commits"; "cross_shard_seals"; "ring_high_water_max" ]
        then Printf.printf "%-17s %10s\n" k v)
      (m.Runner.stack.Stacks.proc_stats ())

let fio_cmd =
  let doc = "Run the Fio micro-benchmark (Fig 7's workload) on one stack." in
  let stack =
    Arg.(value & opt string "tinca" & info [ "stack" ] ~docv:"STACK"
           ~doc:"Stack to drive: tinca, classic, ubj or nojournal.")
  in
  let ops = Arg.(value & opt int 8_000 & info [ "ops" ] ~docv:"N" ~doc:"Fio operations to issue.") in
  let read_pct =
    Arg.(value & opt float 0.5 & info [ "read-pct" ] ~docv:"P" ~doc:"Read fraction in [0,1].")
  in
  Cmd.v (Cmd.info "fio" ~doc)
    Term.(const run_fio $ stack $ shards_arg $ scheme_arg $ ops $ read_pct)

(* `check-shard` subcommand: the sharding CI gate — the N=1 equivalence
   pin against BENCH_commit.json plus the scaling sanity check. *)
let run_check_shard json_path =
  let module Exp_shard = Tinca_harness.Exp_shard in
  let module Tabular = Tinca_util.Tabular in
  if not (Sys.file_exists json_path) then begin
    Printf.eprintf "check-shard: %s not found (run `tinca_bench bench-json` first)\n" json_path;
    exit 1
  end;
  let tables, pin_ok, scaling_ok = Exp_shard.check ~json_path in
  List.iter (fun t -> print_string (Tabular.render t); print_newline ()) tables;
  Printf.printf "%-50s %s\n" "N=1 equivalence pin vs single-ring artifact"
    (if pin_ok then "ok" else "FAIL");
  Printf.printf "%-50s %s\n" "scaling sanity (N=4 makespan < N=1)"
    (if scaling_ok then "ok" else "FAIL");
  if not (pin_ok && scaling_ok) then begin
    Printf.printf "check-shard: FAILED\n";
    exit 1
  end;
  Printf.printf "check-shard: all checks passed\n"

let check_shard_cmd =
  let doc = "Validate the sharding layer (N=1 equivalence pin + scaling sanity)." in
  let json =
    Arg.(value & opt string "BENCH_commit.json"
         & info [ "json" ] ~docv:"FILE" ~doc:"Single-ring commit-point artifact to pin against.")
  in
  Cmd.v (Cmd.info "check-shard" ~doc) Term.(const run_check_shard $ json)

(* `check-group` subcommand: the async group-commit CI gate (ISSUE 8) —
   window=0 media/cost equivalence with the synchronous pipeline,
   sfences/commit < 1 at >= 8 streams, p99 ack latency bounded by the
   window. *)
let run_check_group window streams =
  let module Exp_group = Tinca_harness.Exp_group in
  let module Tabular = Tinca_util.Tabular in
  if window <= 0 then begin
    Printf.eprintf "check-group: --group-window must be > 0\n";
    exit 1
  end;
  (if streams > 0 then
     let s = Exp_group.run_point ~streams ~window in
     Printf.printf
       "streams=%d window=%d ns: %.2f sfences/commit, %d batches (%.1f txns/batch), ack \
        p50/p99 = %.0f/%.0f ns\n\n"
       s.Exp_group.streams s.Exp_group.window_ns s.Exp_group.sfences_per_commit
       s.Exp_group.batches s.Exp_group.txns_per_batch s.Exp_group.ack_p50_ns
       s.Exp_group.ack_p99_ns);
  let tables, ok = Exp_group.check ~window () in
  List.iter
    (fun t ->
      print_string (Tabular.render t);
      print_newline ())
    tables;
  if not ok then begin
    Printf.printf "check-group: FAILED\n";
    exit 1
  end;
  Printf.printf "check-group: all checks passed\n"

let check_group_cmd =
  let doc =
    "Validate the async group-commit path (window=0 equivalence pin, amortized fences, ack \
     latency bound)."
  in
  let window =
    Arg.(value & opt int Tinca_harness.Exp_group.default_window_ns
         & info [ "group-window" ] ~docv:"NS"
             ~doc:"Group-commit window in simulated nanoseconds for the sweep and the gate.")
  in
  let streams =
    Arg.(value & opt int 0
         & info [ "streams" ] ~docv:"K"
             ~doc:
               "Additionally run and print one (K streams, window) point before the gate \
                (0 = sweep only).")
  in
  Cmd.v (Cmd.info "check-group" ~doc) Term.(const run_check_group $ window $ streams)

(* `check-page` subcommand: the commit-scheme ablation CI gate —
   paging's fence budget flat in transaction size, a budgeted paging
   crash-space sweep and lockstep refinement at N=1/4, psan-clean
   paging workload. *)
let run_check_page () =
  let module Exp_page = Tinca_harness.Exp_page in
  let module Tabular = Tinca_util.Tabular in
  let tables, ok = Exp_page.check () in
  List.iter
    (fun t ->
      print_string (Tabular.render t);
      print_newline ())
    tables;
  if not ok then begin
    Printf.printf "check-page: FAILED\n";
    exit 1
  end;
  Printf.printf "check-page: all checks passed\n"

let check_page_cmd =
  let doc =
    "Validate the commit-scheme ablation (paging fence budget, budgeted paging crash sweep + \
     lockstep refinement, psan)."
  in
  Cmd.v (Cmd.info "check-page" ~doc) Term.(const run_check_page $ const ())

(* `check-obs` subcommand: CI gate for the observability layer.  Runs a
   traced 8-block-commit workload, validates the exported Chrome JSON
   against the trace_event schema, pins the per-span fence attribution
   to the persistence budget (stage B = 1 sfence, whole commit <= 6),
   checks that tracing does not perturb the simulation (identical
   simulated end time), and bounds the disabled-mode overhead at 2% of
   commit wall time. *)
let run_check_obs out =
  let module Cache = Tinca_core.Cache in
  let module Pmem = Tinca_pmem.Pmem in
  let module Disk = Tinca_blockdev.Disk in
  let module Trace = Tinca_obs.Trace in
  let module Jsonv = Tinca_obs.Jsonv in
  let open Tinca_sim in
  let failures = ref [] in
  let check name ok detail =
    if ok then Printf.printf "ok    %-42s %s\n" name detail
    else begin
      Printf.printf "FAIL  %-42s %s\n" name detail;
      failures := name :: !failures
    end
  in
  let commits = 16 and blocks = 8 in
  (* The test_budget environment: 1 MB device keeps 16 x 8-block commits
     free of evictions, so the budget is the pipeline's own fences. *)
  let run_commits ~traced =
    let clock = Clock.create () in
    let metrics = Metrics.create () in
    let pmem = Pmem.create ~clock ~metrics ~tech:Latency.Pcm ~size:(1024 * 1024) () in
    let disk = Disk.create ~clock ~metrics ~kind:Latency.Ssd ~nblocks:256 ~block_size:4096 in
    if traced then begin
      Trace.enable ();
      Trace.name_track clock "tinca"
    end;
    let cache =
      Cache.format
        ~config:{ Cache.default_config with ring_slots = 128 }
        ~pmem ~disk ~clock ~metrics
    in
    let payload = Bytes.make 4096 'o' in
    for c = 0 to commits - 1 do
      let h = Cache.Txn.init cache in
      for b = 0 to blocks - 1 do
        Cache.Txn.add h ((c * blocks) + b) payload
      done;
      Cache.Txn.commit h
    done;
    (clock, Clock.now_ns clock)
  in
  (* 1. Simulated time must be identical with and without tracing. *)
  let _, ns_disabled = run_commits ~traced:false in
  let clock, ns_traced = run_commits ~traced:true in
  check "tracing preserves simulated time"
    (ns_traced = ns_disabled)
    (Printf.sprintf "%.0f ns vs %.0f ns" ns_traced ns_disabled);
  (* 2. Per-span fence attribution matches the persistence budget. *)
  let stage_b = Trace.find_spans "tinca.commit.stage_b" in
  check "stage-B spans recorded" (List.length stage_b = commits)
    (Printf.sprintf "%d spans" (List.length stage_b));
  check "stage B pays exactly 1 sfence"
    (stage_b <> [] && List.for_all (fun s -> Trace.counter s "pmem.sfence" = 1) stage_b)
    (String.concat " "
       (List.map (fun s -> string_of_int (Trace.counter s "pmem.sfence")) stage_b));
  let commits_spans = Trace.find_spans "tinca.commit" in
  check "whole commit within 6-sfence budget"
    (commits_spans <> []
    && List.for_all (fun s -> Trace.counter s "pmem.sfence" <= 6) commits_spans)
    (String.concat " "
       (List.map (fun s -> string_of_int (Trace.counter s "pmem.sfence")) commits_spans));
  check "all spans closed, none unbalanced"
    (Trace.open_spans () = 0 && Trace.unbalanced () = 0)
    (Printf.sprintf "open=%d unbalanced=%d" (Trace.open_spans ()) (Trace.unbalanced ()));
  let spans_per_commit =
    float_of_int (List.length (Trace.completed ())) /. float_of_int commits
  in
  (* 3. The export is well-formed Chrome trace JSON. *)
  Trace.export_to_file out;
  (match Jsonv.validate_trace_file out with
  | Ok st ->
      check "exported trace validates" true
        (Printf.sprintf "%s: %d events, %d track(s), depth %d" out st.Jsonv.events
           st.Jsonv.tracks st.Jsonv.max_depth)
  | Error errs ->
      check "exported trace validates" false
        (String.concat "; " (if List.length errs > 3 then [ List.nth errs 0; "..." ] else errs)));
  Trace.disable ();
  (* 4. Disabled-mode overhead gate.  Wall-clock benchmarks are flaky in
     CI, so the gate is derived: (measured cost of a disabled
     begin/end pair) x (pairs a commit executes) must be <= 2% of the
     measured wall time of one untraced commit.  Both sides are medians
     of repeated runs of tight loops, which is as deterministic as
     wall-clock gets. *)
  let median l = List.nth (List.sort compare l) (List.length l / 2) in
  let pair_cost_ns =
    let iters = 200_000 in
    median
      (List.init 5 (fun _ ->
           let t0 = Unix.gettimeofday () in
           for _ = 1 to iters do
             Trace.begin_span ~clock "x";
             Trace.end_span "x"
           done;
           (Unix.gettimeofday () -. t0) *. 1e9 /. float_of_int iters))
  in
  let commit_wall_ns =
    median
      (List.init 5 (fun _ ->
           let t0 = Unix.gettimeofday () in
           let _, _ = run_commits ~traced:false in
           (Unix.gettimeofday () -. t0) *. 1e9 /. float_of_int commits))
  in
  let overhead = pair_cost_ns *. spans_per_commit /. commit_wall_ns in
  check "disabled overhead <= 2% of commit cost"
    (overhead <= 0.02)
    (Printf.sprintf "pair %.1f ns x %.1f spans/commit / %.0f ns/commit = %.3f%%" pair_cost_ns
       spans_per_commit commit_wall_ns (100.0 *. overhead));
  if !failures <> [] then begin
    Printf.printf "check-obs: %d check(s) FAILED\n" (List.length !failures);
    exit 1
  end;
  Printf.printf "check-obs: all checks passed\n"

let check_obs_cmd =
  let doc = "Validate the observability layer (trace export, fence attribution, overhead)." in
  let out =
    Arg.(value & opt string "/tmp/tinca_check_obs.json"
         & info [ "out" ] ~docv:"FILE" ~doc:"Where to write the validated trace export.")
  in
  Cmd.v (Cmd.info "check-obs" ~doc) Term.(const run_check_obs $ out)

(* `forensics` subcommand: the flight recorder's quick-start story —
   run a group-commit workload with the recorder on, pull the plug
   mid-flight (random cache-line survival), recover, and print the
   post-crash dossier; optionally export its Chrome-trace timeline. *)
let run_forensics shards commits seed crash_frac timeline_out =
  let module Stacks = Tinca_stacks.Stacks in
  let module Pmem = Tinca_pmem.Pmem in
  let module Forensics = Tinca_obs.Forensics in
  let module Rng = Tinca_util.Rng in
  if crash_frac <= 0.0 || crash_frac >= 1.0 then begin
    Printf.eprintf "forensics: --crash-frac must be in (0, 1)\n";
    exit 1
  end;
  let universe = 64 in
  let mk () = Stacks.make_env ~seed ~nvm_bytes:(512 * 1024) ~disk_blocks:universe () in
  let fmt env =
    Tinca.ok_exn
      (Tinca.format
         ~config:
           {
             Tinca.Config.default with
             Tinca.Config.nvm_bytes = Pmem.size env.Stacks.pmem;
             ring_slots = 256;
             nshards = shards;
             flight_slots = 128;
             group_window_ns = 1_000_000_000;
             group_max_batch = 4;
           }
         ~pmem:env.Stacks.pmem ~disk:env.Stacks.disk ~clock:env.Stacks.clock
         ~metrics:env.Stacks.metrics)
  in
  let workload tc =
    let rng = Rng.create seed in
    for _ = 1 to commits do
      let txn = Tinca.init_txn tc in
      for _ = 1 to 1 + Rng.int rng 3 do
        Tinca.ok_exn
          (Tinca.write txn (Rng.int rng universe)
             (Bytes.make 4096 (Char.chr (1 + Rng.int rng 255))))
      done;
      ignore (Tinca.ok_exn (Tinca.commit_async txn))
    done;
    Tinca.group_flush tc
  in
  (* Crash-free span first, so --crash-frac lands proportionally. *)
  let env0 = mk () in
  let tc0 = fmt env0 in
  let before = Pmem.event_count env0.Stacks.pmem in
  workload tc0;
  let span = Pmem.event_count env0.Stacks.pmem - before in
  let crash_at = max 1 (int_of_float (crash_frac *. float_of_int span)) in
  let env = mk () in
  let tc = fmt env in
  Pmem.set_crash_countdown env.Stacks.pmem (Some crash_at);
  (try workload tc with Pmem.Crash_point -> ());
  Pmem.set_crash_countdown env.Stacks.pmem None;
  Pmem.crash ~seed:(seed + 1) env.Stacks.pmem;
  Printf.printf "crashed at pmem event %d of %d (%d commit_async txns issued)\n\n" crash_at span
    commits;
  match
    Tinca.recover ~pmem:env.Stacks.pmem ~disk:env.Stacks.disk ~clock:env.Stacks.clock
      ~metrics:env.Stacks.metrics
  with
  | Error e ->
      Printf.eprintf "forensics: recovery failed: %s\n" (Tinca.error_message e);
      exit 1
  | Ok t2 -> (
      match Tinca.last_crash_report t2 with
      | None -> Printf.printf "no dossier: no flight records survived the crash\n"
      | Some d -> (
          print_string (Forensics.render d);
          match timeline_out with
          | None -> ()
          | Some path ->
              let oc = open_out path in
              output_string oc d.Forensics.timeline_json;
              close_out oc;
              Printf.printf "\nwrote %s (open in chrome://tracing or ui.perfetto.dev)\n" path))

let forensics_cmd =
  let doc =
    "Crash a recorder-enabled workload mid-flight and print the post-crash forensic dossier \
     (batch ledger, acked-vs-survived verdict, torn records, recovery decisions)."
  in
  let commits =
    Arg.(value & opt int 12 & info [ "commits" ] ~docv:"N" ~doc:"Async transactions to issue.")
  in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"Workload RNG seed.") in
  let crash_frac =
    Arg.(value & opt float 0.6
         & info [ "crash-frac" ] ~docv:"F"
             ~doc:"Crash at this fraction of the workload's pmem events, in (0, 1).")
  in
  let timeline =
    Arg.(value & opt (some string) None
         & info [ "timeline" ] ~docv:"FILE"
             ~doc:"Also write the dossier's Chrome trace_event timeline JSON to $(docv).")
  in
  Cmd.v (Cmd.info "forensics" ~doc)
    Term.(const run_forensics $ shards_arg $ commits $ seed $ crash_frac $ timeline)

(* `check-flight` subcommand: the flight-recorder CI gate (ISSUE 9). *)
let run_check_flight () =
  let module Tabular = Tinca_util.Tabular in
  let t0 = Unix.gettimeofday () in
  let tables, errs, ok = Tinca_harness.Exp_flight.check () in
  List.iter
    (fun t ->
      print_string (Tabular.render t);
      print_newline ())
    tables;
  List.iter (fun e -> Printf.printf "  %s\n" e) errs;
  Printf.printf "(wall time %.1fs)\n" (Unix.gettimeofday () -. t0);
  if not ok then begin
    Printf.printf "check-flight: FAILED\n";
    exit 1
  end;
  Printf.printf "check-flight: all checks passed\n"

let check_flight_cmd =
  let doc =
    "Validate the flight recorder: zero added fences and <= 2% commit overhead \
     (fig_commit_batch's stream), recorder-on workload psan-clean, crash-sweep recovery pin \
     (replay on/off identical), dossier agrees with the oracle, and the planted \
     Drop_durable_notify is convicted by the dossier alone."
  in
  Cmd.v (Cmd.info "check-flight" ~doc) Term.(const run_check_flight $ const ())

let () =
  let doc = "Tinca (SC'17) reproduction: regenerate the paper's tables and figures." in
  let info = Cmd.info "tinca_bench" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [ list_cmd; run_cmd; trace_cmd; fio_cmd; bench_json_cmd; stats_cmd; check_obs_cmd;
            check_shard_cmd; check_group_cmd; check_page_cmd; check_flight_cmd; forensics_cmd ]))
