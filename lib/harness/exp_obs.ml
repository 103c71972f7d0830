(* fig_obs: the observability tentpole demonstrated end to end on one
   synthetic trace.

   Three tables come out of the same workload: (1) the /proc-style
   stats snapshot of a psan-instrumented Tinca stack (cache health +
   sanitizer redundant-flush attribution), (2) latency percentile
   ladders per stack and op type from the always-on histograms, and
   (3) a flame summary of a span-traced Tinca run showing where the
   commit protocol spends its simulated time and which stage pays
   which fences. *)

module Stacks = Tinca_stacks.Stacks
module Tabular = Tinca_util.Tabular
module Psan = Tinca_checker.Psan
module Trace = Tinca_obs.Trace
module Workload = Tinca_workloads.Trace
open Tinca_sim

let block_size = 4096

let workload () =
  Workload.synthesize ~seed:7 ~nblocks:4096 ~ops:4000 ~read_pct:0.5 ~zipf_theta:0.9 ~fsync_every:8

let run_stack ?(journaled = true) spec =
  let trace = workload () in
  Runner.run_local ~spec ~journaled
    ~prealloc:(fun ops -> Workload.prealloc ~block_size trace ops)
    ~work:(fun ops -> Workload.run ~block_size trace ops)
    ()

(* --- table 1: /proc-style snapshot ------------------------------------- *)

let proc_table () =
  let psan = ref None in
  let m =
    run_stack (fun env ->
        let stack, p = Stacks.instrument (Stacks.tinca env) in
        psan := Some p;
        stack)
  in
  let table =
    Tabular.create ~title:"/proc/tinca: stats snapshot after 4000-op synthetic trace"
      [ "key"; "value" ]
  in
  List.iter (fun (k, v) -> Tabular.add_row table [ k; v ]) (m.Runner.stack.Stacks.proc_stats ());
  (match !psan with
  | None -> ()
  | Some p ->
      let r = Psan.report p in
      Tabular.add_row table [ "psan.violations"; Tabular.cell_i (List.length r.Psan.violations) ];
      Tabular.add_row table [ "psan.redundant_flushes"; Tabular.cell_i r.Psan.redundant_flushes ];
      List.iter
        (fun (site, n) ->
          Tabular.add_row table [ "psan.redundant." ^ site; Tabular.cell_i n ])
        r.Psan.redundant_by_site);
  table

(* --- table 2: latency percentile ladders ------------------------------- *)

let lat_ops = [ "lat.pwrite"; "lat.fsync"; "lat.commit" ]

let lat_table () =
  let table =
    Tabular.create ~title:"Simulated latency percentiles per stack and op (us)"
      [ "stack"; "op"; "count"; "p50"; "p90"; "p99"; "p999"; "max" ]
  in
  let us ns = ns /. 1000.0 in
  let add m =
    List.iter
      (fun op ->
        match Runner.lat_summary m op with
        | None -> ()
        | Some s ->
            Tabular.add_row table
              [
                m.Runner.label; op; Tabular.cell_i s.Hist.count;
                Tabular.cell_f ~decimals:2 (us s.Hist.p50);
                Tabular.cell_f ~decimals:2 (us s.Hist.p90);
                Tabular.cell_f ~decimals:2 (us s.Hist.p99);
                Tabular.cell_f ~decimals:2 (us s.Hist.p999);
                Tabular.cell_f ~decimals:2 (us s.Hist.max);
              ])
      lat_ops
  in
  add (run_stack (fun env -> Stacks.tinca env));
  add (run_stack (fun env -> Stacks.classic ~journal_len:4096 env));
  add (run_stack (fun env -> Stacks.ubj env));
  add (run_stack ~journaled:false (fun env -> Stacks.nojournal env));
  table

(* --- table 3: flame summary of a traced run ---------------------------- *)

let flame_table () =
  Trace.enable ();
  Fun.protect ~finally:Trace.disable (fun () ->
      ignore (run_stack (fun env -> Stacks.tinca env));
      let table =
        Tabular.create
          ~title:"Span flame summary of the traced Tinca run (fence/write-back attribution)"
          [ "span"; "count"; "total us"; "self us"; "sfences"; "flush WBs" ]
      in
      List.iter
        (fun (name, count, total_ns, self_ns, sfences, writebacks) ->
          Tabular.add_row table
            [
              name; Tabular.cell_i count;
              Tabular.cell_f ~decimals:1 (total_ns /. 1000.0);
              Tabular.cell_f ~decimals:1 (self_ns /. 1000.0);
              Tabular.cell_i sfences; Tabular.cell_i writebacks;
            ])
        (Trace.flame_rows ());
      table)

let run () = [ proc_table (); lat_table (); flame_table () ]

(* --- the obs gate's properties ------------------------------------------- *)

(* A traced 8-block-commit workload: the exported Chrome JSON validates
   against the trace_event schema, the per-span fence attribution meets
   the persistence budget (stage B = 1 sfence, whole commit <= 6), a
   span's counters are the registry's change over it, tracing does not
   perturb the simulation (identical simulated end time), and the
   disabled-mode overhead stays under 2% of commit wall time. *)

let gate_commits = 16

(* The test_budget environment: 1 MB device keeps 16 x 8-block commits
   free of evictions, so the budget is the pipeline's own fences.
   Traced, each commit runs inside a [gate.commit] span whose counters
   are checked against the registry's change over it.  Returns the
   simulated end time and the commits whose span disagreed. *)
let run_commits ~traced =
  let module Cache = Tinca_core.Cache in
  let clock = Clock.create () in
  let metrics = Metrics.create () in
  let pmem = Tinca_pmem.Pmem.create ~clock ~metrics ~tech:Latency.Pcm ~size:(1024 * 1024) () in
  let disk = Tinca_blockdev.Disk.create ~clock ~metrics ~kind:Latency.Ssd ~nblocks:256 ~block_size:4096 in
  if traced then begin
    Trace.enable ();
    Trace.name_track clock "tinca";
    Trace.attach ~clock metrics
  end;
  let cache = Cache.format ~config:{ Cache.default_config with ring_slots = 128 } ~pmem ~disk ~clock ~metrics in
  let payload = Bytes.make 4096 'o' in
  let commit c =
    let h = Cache.Txn.init cache in
    for b = 0 to 7 do
      Cache.Txn.add h ((c * 8) + b) payload
    done;
    Cache.Txn.commit h
  in
  let mismatched = ref [] in
  for c = 0 to gate_commits - 1 do
    if not traced then commit c
    else begin
      let snap = Metrics.snapshot metrics in
      Trace.begin_span ~clock "gate.commit";
      commit c;
      Trace.end_span "gate.commit";
      let delta =
        List.filter (fun (k, _) -> List.mem k Trace.watched) (Metrics.diff metrics snap)
      in
      match List.rev (Trace.find_spans "gate.commit") with
      | s :: _ when s.Trace.counters = delta && delta <> [] -> ()
      | _ -> mismatched := c :: !mismatched
    end
  done;
  (Clock.now_ns clock, List.rev !mismatched)

type traced = {
  ns_untraced : float;
  ns_traced : float;
  stage_b : int list;  (** sfences per stage-B span *)
  commit : int list;  (** sfences per whole-commit span *)
  mismatched : int list;  (** commits whose span counters differ from the registry's delta *)
  open_spans : int;
  unbalanced : int;
  spans_per_commit : float;
  export : (Tinca_obs.Jsonv.trace_stats, string list) result;
}

(* One traced run, its spans read off and its export validated from a
   private temp file, with tracing disabled and the file removed
   afterwards whatever happens. *)
let traced_run () =
  let ns_untraced, _ = run_commits ~traced:false in
  let path = Filename.temp_file "tinca_gate_obs" ".json" in
  Fun.protect
    ~finally:(fun () ->
      Trace.disable ();
      Sys.remove path)
    (fun () ->
      let ns_traced, mismatched = run_commits ~traced:true in
      let sfences name = List.map (fun s -> Trace.counter s "pmem.sfence") (Trace.find_spans name) in
      let stage_b = sfences "tinca.commit.stage_b" and commit = sfences "tinca.commit" in
      let open_spans = Trace.open_spans () and unbalanced = Trace.unbalanced () in
      let spans_per_commit =
        let own = List.filter (fun s -> s.Trace.name <> "gate.commit") (Trace.completed ()) in
        float_of_int (List.length own) /. float_of_int gate_commits
      in
      Trace.export_to_file path;
      let export = Tinca_obs.Jsonv.validate_trace_file path in
      { ns_untraced; ns_traced; stage_b; commit; mismatched; open_spans; unbalanced;
        spans_per_commit; export })

(* Wall-clock benchmarks are flaky in CI, so the overhead gate is
   derived: (measured cost of a disabled begin/end pair) x (pairs a
   commit executes) must be <= 2% of the measured wall time of one
   untraced commit.  Both sides are medians of repeated runs of tight
   loops, which is as deterministic as wall-clock gets. *)
let disabled_overhead ~spans_per_commit =
  let median l = List.nth (List.sort compare l) (List.length l / 2) in
  let per n f =
    median
      (List.init 5 (fun _ ->
           let t0 = Unix.gettimeofday () in
           f ();
           (Unix.gettimeofday () -. t0) *. 1e9 /. float_of_int n))
  in
  let clock = Clock.create () in
  let iters = 200_000 in
  let pair_ns =
    per iters (fun () ->
        for _ = 1 to iters do
          Trace.begin_span ~clock "x";
          Trace.end_span "x"
        done)
  in
  let commit_ns = per gate_commits (fun () -> ignore (run_commits ~traced:false)) in
  let overhead = pair_ns *. spans_per_commit /. commit_ns in
  ( Printf.sprintf "pair %.1f ns x %.1f spans/commit / %.0f ns/commit = %.3f%%" pair_ns
      spans_per_commit commit_ns (100.0 *. overhead),
    overhead <= 0.02 )

let properties () =
  let t = lazy (traced_run ()) in
  let show l = String.concat " " (List.map string_of_int l) in
  [
    Gate.property "tracing preserves simulated time" (fun () ->
        let t = Lazy.force t in
        (Printf.sprintf "%.0f ns vs %.0f ns" t.ns_traced t.ns_untraced, t.ns_traced = t.ns_untraced));
    Gate.property "stage-B spans recorded" (fun () ->
        let n = List.length (Lazy.force t).stage_b in
        (Printf.sprintf "%d spans" n, n = gate_commits));
    Gate.property "stage B pays exactly 1 sfence" (fun () ->
        let l = (Lazy.force t).stage_b in
        (show l, l <> [] && List.for_all (( = ) 1) l));
    Gate.property "whole commit within 6-sfence budget" (fun () ->
        let l = (Lazy.force t).commit in
        (show l, l <> [] && List.for_all (fun n -> n <= 6) l));
    Gate.property "span counters equal registry deltas" (fun () ->
        let l = (Lazy.force t).mismatched in
        ( (if l = [] then Printf.sprintf "%d of %d commits" gate_commits gate_commits
           else "mismatched commits: " ^ show l),
          l = [] ));
    Gate.property "all spans closed, none unbalanced" (fun () ->
        let t = Lazy.force t in
        (Printf.sprintf "open=%d unbalanced=%d" t.open_spans t.unbalanced, t.open_spans = 0 && t.unbalanced = 0));
    Gate.property "exported trace validates" (fun () ->
        match (Lazy.force t).export with
        | Ok st ->
            ( Printf.sprintf "%d events, %d track(s), depth %d" st.Tinca_obs.Jsonv.events
                st.Tinca_obs.Jsonv.tracks st.Tinca_obs.Jsonv.max_depth,
              true )
        | Error errs ->
            (String.concat "; " (if List.length errs > 3 then [ List.hd errs; "..." ] else errs), false));
    Gate.property "disabled overhead <= 2% of commit cost" (fun () ->
        disabled_overhead ~spans_per_commit:(Lazy.force t).spans_per_commit);
  ]
