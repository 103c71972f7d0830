(* CLI driver for the reproduction experiments.

   tinca_bench list           - show every experiment id
   tinca_bench run <id> ...   - run one or more experiments
   tinca_bench run all        - run everything
   tinca_bench host           - host time and allocation of the commit path *)

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
let run_trace stack_name shards scheme trace_file synth_ops read_pct nblocks crash_at tech
    flush_instr trace_out verbose =
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
        Trace.synthesize ~seed:7 ~nblocks ~ops:synth_ops ~read_pct ~zipf_theta:0.9
          ~fsync_every:8
  in
  (match crash_at with
  | Some _ when stack_name <> "tinca" -> invalid_arg "trace: --crash-at needs the tinca stack"
  | _ -> ());
  let before_crash, after_crash =
    match crash_at with
    | None -> (trace, [])
    | Some n ->
        let rw = ref 0 in
        List.partition
          (fun op ->
            if op <> Trace.Fsync then incr rw;
            !rw <= n)
          trace
  in
  let env = Stacks.make_env ~tech ~flush_instr ~nvm_bytes:(8 * 1024 * 1024) ~disk_blocks:65536 () in
  let stack = stack_with_shards ~scheme ~stack_name ~shards env in
  let fs_config = { Fs.default_config with journaled = stack_name <> "nojournal" } in
  let fs = Fs.format ~config:fs_config stack.Stacks.backend in
  let ops = Ops.of_fs ~compute:(Clock.advance env.Stacks.clock) fs in
  Trace.prealloc ~block_size:4096 trace ops;
  Fs.fsync fs;
  let t0 = Clock.now_ns env.Stacks.clock in
  let snap = Metrics.snapshot env.Stacks.metrics in
  (* The backlog lines below describe the replay, not the prealloc. *)
  Option.iter Hist.reset (Metrics.hist env.Stacks.metrics "disk.bg_backlog_ns");
  let meta0 = Fs.meta_reads fs and data0 = Fs.data_reads fs in
  let commits () =
    Option.fold ~none:0 ~some:Hist.count (Metrics.hist env.Stacks.metrics "tinca.txn_blocks")
  in
  let commits0 = commits () in
  let stats = Trace.run ~block_size:4096 before_crash ops in
  let seconds = (Clock.now_ns env.Stacks.clock -. t0) /. 1e9 in
  let per_op name =
    float_of_int (Metrics.since env.Stacks.metrics snap name) /. float_of_int stats.Ops.ops
  in
  Printf.printf "stack=%s ops=%d sim_seconds=%.4f\n" stack.Stacks.label stats.Ops.ops seconds;
  Printf.printf "throughput        %10.0f ops/s\n" (float_of_int stats.Ops.ops /. seconds);
  Printf.printf "clflush/op        %10.1f\n" (per_op "pmem.clflush");
  (* Medium writes: the lines flushes wrote back, and the lines stores
     dirtied, each of which owes one write whether or not it is flushed. *)
  Printf.printf "lines flushed/op  %10.1f\n" (per_op "pmem.clflush_writebacks");
  Printf.printf "lines dirtied/op  %10.1f\n" (per_op "pmem.lines_dirtied");
  Printf.printf "disk writes/op    %10.2f\n" (per_op "disk.writes");
  (* Dirty blocks the cleaner wrote, the dirty victims replacement wrote
     back on the foreground path (both engines), the cleaner passes that
     deferred their batch because the last one was still queued, and
     the device time the cleaners' queued writes left behind them. *)
  Printf.printf "cleaned/op        %10.2f\n" (per_op "tinca.cleaned" +. per_op "flashcache.cleaned");
  let fsyncs = List.length (List.filter (fun op -> op = Trace.Fsync) before_crash) in
  Printf.printf "fg write-backs/fsync %7.2f\n"
    (float_of_int (Metrics.since env.Stacks.metrics snap "cache.fg_writebacks")
    /. float_of_int (max 1 fsyncs));
  Printf.printf "deferred passes   %10d\n" (Metrics.since env.Stacks.metrics snap "cache.bg_deferred");
  let backlog stat =
    match Metrics.hist env.Stacks.metrics "disk.bg_backlog_ns" with
    | Some h -> stat h /. 1e3
    | None -> 0.0
  in
  Printf.printf "peak bg backlog   %10.1f sim-us\n" (backlog Hist.max_value);
  Printf.printf "mean bg backlog   %10.1f sim-us\n" (backlog Hist.mean);
  Printf.printf "disk reads/op     %10.2f\n" (per_op "disk.reads");
  (* The file system's reads of the cache stack, metadata blocks (the
     DRAM table's misses) apart from file data. *)
  let fs_reads n0 n = float_of_int (n - n0) /. float_of_int stats.Ops.ops in
  Printf.printf "fs reads/op       %10.2f  metadata %.2f, data %.2f\n"
    (fs_reads (meta0 + data0) (Fs.meta_reads fs + Fs.data_reads fs))
    (fs_reads meta0 (Fs.meta_reads fs))
    (fs_reads data0 (Fs.data_reads fs));
  (* Each cleaner pass's disk writes and the share of them at the
     sequential rate. *)
  List.iter
    (fun (pass, writes, seq) ->
      let w = Metrics.since env.Stacks.metrics snap writes in
      Printf.printf "%-17s %10.2f writes/op, %5.1f%% sequential\n" pass (per_op writes)
        (100.0 *. float_of_int (Metrics.since env.Stacks.metrics snap seq) /. float_of_int (max 1 w)))
    [
      ("idle pass", "disk.idle_writes", "disk.idle_seq_writes");
      ("pressure pass", "disk.bg_writes", "disk.bg_seq_writes");
    ];
  Printf.printf "cache write hit   %10.1f%%\n" (100.0 *. stack.Stacks.cache_write_hit_rate ());
  (* Partial COW writes (Tinca): data lines stored per COW-written block,
     lines a write into a spare frame skipped per commit, and the frames
     held as spares when the replay ends. *)
  let since = Metrics.since env.Stacks.metrics snap in
  Printf.printf "lines/COW block   %10.1f\n"
    (float_of_int (since "cache.cow_lines") /. float_of_int (max 1 (since "cache.cow_blocks")));
  Printf.printf "lines skipped/commit %7.1f\n"
    (float_of_int (since "cache.cow_lines_skipped") /. float_of_int (max 1 (commits () - commits0)));
  Printf.printf "spares held       %10d\n" (Metrics.get env.Stacks.metrics "cache.spare_frames");
  (* Power fails after [crash_at] ops; the rest of the trace runs on the
     recovered stack, whose counters start from zero. *)
  if crash_at <> None then begin
    Tinca_pmem.Pmem.crash env.Stacks.pmem;
    (* Recovery's simulated time, split into its two parts, with the NVM
       lines and disk blocks each part read. *)
    let part name f =
      let snap = Metrics.snapshot env.Stacks.metrics in
      let t0 = Clock.now_ns env.Stacks.clock in
      let r = f () in
      Printf.printf "%-17s %10.1f sim-us  %6d NVM lines read  %6d disk blocks read\n" name
        ((Clock.now_ns env.Stacks.clock -. t0) /. 1e3)
        (Metrics.since env.Stacks.metrics snap "pmem.read_lines")
        (Metrics.since env.Stacks.metrics snap "disk.reads");
      r
    in
    let stack = part "cache recovery" (fun () -> Stacks.tinca_recover env) in
    let fs = part "fs mount" (fun () -> Fs.mount ~config:fs_config stack.Stacks.backend) in
    let stats = Trace.run ~block_size:4096 after_crash (Ops.of_fs ~compute:(Clock.advance env.Stacks.clock) fs) in
    let kv = stack.Stacks.proc_stats () in
    let count k = float_of_string (List.assoc k kv) in
    let hits = count "read_hits" and misses = count "read_misses" in
    Printf.printf "after recovery: ops=%d read hit ratio %.3f\n" stats.Ops.ops
      (hits /. Float.max 1.0 (hits +. misses))
  end;
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
  let nblocks =
    Arg.(value & opt int 4096 & info [ "blocks" ] ~docv:"N"
           ~doc:"File size of the synthesized trace, in 4 KiB blocks.")
  in
  let crash_at =
    Arg.(value & opt (some int) None & info [ "crash-at" ] ~docv:"N"
           ~doc:"Crash after the first $(docv) reads and writes, recover (reporting the \
                 simulated time, NVM lines and disk blocks of cache recovery and of the fs \
                 mount), replay the rest of the trace and report its read hit ratio (tinca \
                 stack only).")
  in
  let verbose = Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Log recovery/commit activity.") in
  Cmd.v (Cmd.info "trace" ~doc)
    Term.(
      const run_trace $ stack $ shards_arg $ scheme_arg $ file $ ops $ read_pct $ nblocks
      $ crash_at $ tech $ flush_instr $ trace_out $ verbose)

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
  let fs_config = { Fs.default_config with journaled = stack_name <> "nojournal" } in
  let fs = Fs.format ~config:fs_config stack.Stacks.backend in
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
      Procfs.section "histograms"
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

let host_cmd =
  let doc =
    "Host cost of the commit path: ns per 4 KB block of Pmem COW write + flush_ranges + sfence, \
     and host us and minor/major words per facade commit (best of 5)."
  in
  Cmd.v (Cmd.info "host" ~doc)
    Term.(const (fun () -> print_string (Tinca_harness.Host_meter.report ())) $ const ())

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

let () =
  let doc = "Tinca (SC'17) reproduction: regenerate the paper's tables and figures." in
  let info = Cmd.info "tinca_bench" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [ list_cmd; run_cmd; trace_cmd; fio_cmd; bench_json_cmd; stats_cmd; forensics_cmd; host_cmd ]))
