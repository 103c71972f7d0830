(* fig_group: async group commit quantified (ISSUE 8).

   The multi-queue driver runs K open-loop commit_async streams
   (pipeline depth 1 per stream) against one facade with a nonzero
   group window, so every round's ~K transactions drain under ONE
   stage-A flush+fence, one slot publish with a single Head advance,
   one batched role switch and one Tail persist — sfences-per-commit
   falls like ~6/K where the synchronous pipeline pays ~6 per commit.
   The price is the ack-to-durable window: a sealed transaction is
   visible at once but durable only at the batch drain, so the figure
   reports p50/p99 sealed-to-durable latency next to the fence counts
   (acceptance: p99 bounded by the configured window).

   The group gate ([properties]) checks three properties: the window=0
   async path is media- and cost-identical to the synchronous pipeline,
   sfences/commit < 1 at >= 8 streams, and p99 ack latency <= window. *)

module Pmem = Tinca_pmem.Pmem
module Disk = Tinca_blockdev.Disk
module Tabular = Tinca_util.Tabular
open Tinca_sim

let nvm_bytes = 8 * 1024 * 1024

type sample = {
  streams : int;
  window_ns : int;
  commits : int;
  sfences_per_commit : float;
  batches : int;
  txns_per_batch : float;
  head_advances : int;
  ns_per_commit : float;
  ack_p50_ns : float;
  ack_p99_ns : float;
  pending_high_water : int;
  drains : (string * int) list;
}

let stream_counts = [ 1; 2; 4; 8; 16; 32 ]

(* The window is the worst-case ack-to-durable bound, so it must
   dominate a full round of submissions PLUS the batch drain's own
   flush burst (~42 us per txn serial; 32 streams ~ 2.2 ms end to
   end).  In steady state the depth-1 awaiters drain every batch long
   before the deadline — the deadline path is exercised by the unit
   tests and the lockstep sweep — and the check gates p99 ack latency
   (queue wait + drain execution) against this bound. *)
let default_window_ns = 4_000_000

(* Mixed-size transactions (mean 2 blocks, Exp_commit.measured_size)
   over a 2048-block universe: the spread feeds the latency percentiles
   while same-block conflicts (which force an early batch drain) stay
   rare even at 32 streams, so the figure isolates the window/batch
   mechanics. *)
let mq_config ~streams ~async =
  {
    Mq_driver.default with
    Mq_driver.streams;
    txns_per_stream = 16;
    txn_blocks = 2;
    universe = 2048;
    async;
    mixed_sizes = true;
  }

(* A fresh facade per point: the ack-to-durable histogram and the fence
   counters then cover exactly this run (no warm-up phase — batching
   delay does not depend on cache warmth). *)
let run_point ~streams ~window =
  let clock = Clock.create () in
  let metrics = Metrics.create () in
  let pmem = Pmem.create ~clock ~metrics ~tech:Latency.Pcm ~size:nvm_bytes () in
  let disk = Disk.create ~clock ~metrics ~kind:Latency.Ssd ~nblocks:4096 ~block_size:4096 in
  let config =
    {
      Tinca.Config.default with
      Tinca.Config.nvm_bytes;
      ring_slots = 4096;
      group_window_ns = window;
      group_max_batch = 64;
    }
  in
  let tc = Tinca.ok_exn (Tinca.format ~config ~pmem ~disk ~clock ~metrics) in
  let cfg = mq_config ~streams ~async:(window > 0) in
  let t0 = Clock.now_ns clock in
  let r = Mq_driver.run ~clock ~metrics cfg tc in
  let ack = Metrics.histogram metrics "tinca.group.ack_to_durable_ns" in
  let pctl = Hist.percentile ack in
  {
    streams;
    window_ns = window;
    commits = r.Mq_driver.commits;
    sfences_per_commit = float_of_int r.Mq_driver.sfences /. float_of_int r.Mq_driver.commits;
    batches = r.Mq_driver.group_batches;
    txns_per_batch =
      (if r.Mq_driver.group_batches = 0 then 0.0
       else float_of_int r.Mq_driver.commits /. float_of_int r.Mq_driver.group_batches);
    head_advances = r.Mq_driver.head_advances;
    ns_per_commit = (Clock.now_ns clock -. t0) /. float_of_int r.Mq_driver.commits;
    ack_p50_ns = pctl 50.0;
    ack_p99_ns = pctl 99.0;
    pending_high_water = Tinca.group_pending_high_water tc;
    drains = Tinca.group_drains_by_cause tc;
  }

let sweep ?(window = default_window_ns) () =
  List.concat_map
    (fun streams -> [ run_point ~streams ~window:0; run_point ~streams ~window ])
    stream_counts

let table samples =
  let t =
    Tabular.create
      ~title:
        "fig_group: async group commit — fences amortized over the standing batch (ISSUE 8)"
      [
        "streams"; "window ns"; "commits"; "sfences/commit"; "batches"; "txns/batch";
        "head advances"; "ns/commit"; "ack p50 ns"; "ack p99 ns"; "peak pending"; "drain causes";
      ]
  in
  List.iter
    (fun s ->
      Tabular.add_row t
        [
          Tabular.cell_i s.streams;
          Tabular.cell_i s.window_ns;
          Tabular.cell_i s.commits;
          Tabular.cell_f ~decimals:2 s.sfences_per_commit;
          Tabular.cell_i s.batches;
          Tabular.cell_f ~decimals:1 s.txns_per_batch;
          Tabular.cell_i s.head_advances;
          Tabular.cell_f ~decimals:0 s.ns_per_commit;
          Tabular.cell_f ~decimals:0 s.ack_p50_ns;
          Tabular.cell_f ~decimals:0 s.ack_p99_ns;
          Tabular.cell_i s.pending_high_water;
          String.concat " "
            (List.map (fun (cause, n) -> Printf.sprintf "%s:%d" cause n) s.drains);
        ])
    samples;
  t

let fig_group () = [ table (sweep ()) ]

(* --- the window=0 equivalence pin and the CI gate ------------------------ *)

(* Run the same stream workload twice — synchronous commits vs
   commit_async/await with window 0 — and require identical media
   content, identical simulated cost and identical fence counts: the
   async plumbing must be byte-free on the classic path. *)
let window0_pin ~streams =
  let run ~async =
    let clock = Clock.create () in
    let metrics = Metrics.create () in
    let pmem = Pmem.create ~clock ~metrics ~tech:Latency.Pcm ~size:nvm_bytes () in
    let disk = Disk.create ~clock ~metrics ~kind:Latency.Ssd ~nblocks:4096 ~block_size:4096 in
    let config =
      { Tinca.Config.default with Tinca.Config.nvm_bytes; ring_slots = 4096 }
    in
    let tc = Tinca.ok_exn (Tinca.format ~config ~pmem ~disk ~clock ~metrics) in
    let r = Mq_driver.run ~clock ~metrics (mq_config ~streams ~async) tc in
    let ns = Clock.now_ns clock in
    let buf = Buffer.create (512 * 4096) in
    for blk = 0 to 511 do
      Buffer.add_bytes buf (Tinca.ok_exn (Tinca.read tc blk))
    done;
    (Digest.string (Buffer.contents buf), ns, r.Mq_driver.sfences)
  in
  let d_sync, ns_sync, sf_sync = run ~async:false in
  let d_async, ns_async, sf_async = run ~async:true in
  (d_sync = d_async && ns_sync = ns_async && sf_sync = sf_async, ns_sync, ns_async)

let properties () =
  let window = default_window_ns in
  let samples = lazy (sweep ~window ()) in
  let timed () = List.filter (fun s -> s.window_ns > 0) (Lazy.force samples) in
  let grouped () = List.filter (fun s -> s.streams >= 8) (timed ()) in
  [
    Gate.property "window=0 media + cost equivalence (8 streams)" (fun () ->
        let pin_ok, ns_sync, ns_async = window0_pin ~streams:8 in
        (Printf.sprintf "sync %.0f ns vs async %.0f ns" ns_sync ns_async, pin_ok));
    Gate.property "sfences/commit < 1 at >= 8 streams" (fun () ->
        let g = grouped () in
        ( String.concat ", "
            (List.map (fun s -> Printf.sprintf "K=%d: %.2f" s.streams s.sfences_per_commit) g),
          g <> [] && List.for_all (fun s -> s.sfences_per_commit < 1.0) g ));
    Gate.property "p99 ack latency <= window" (fun () ->
        ( String.concat ", "
            (List.map (fun s -> Printf.sprintf "K=%d: %.0f" s.streams s.ack_p99_ns) (timed ())),
          List.for_all (fun s -> s.ack_p99_ns <= float_of_int s.window_ns) (timed ()) ));
  ]

(* --- machine-readable dump (the fig_group block of BENCH_commit.json) ---- *)

let json_block () =
  let buf = Buffer.create 2048 in
  Buffer.add_string buf "  \"group\": [\n";
  List.iteri
    (fun i s ->
      if i > 0 then Buffer.add_string buf ",\n";
      Buffer.add_string buf
        (Printf.sprintf
           "    {\"streams\": %d, \"group_window_ns\": %d, \"commits\": %d, \
            \"sfences_per_commit\": %.3f, \"batches\": %d, \"txns_per_batch\": %.1f, \
            \"head_advances\": %d, \"sim_ns_per_commit\": %.1f, \"ack_p50_ns\": %.1f, \
            \"ack_p99_ns\": %.1f, \"pending_high_water\": %d, \"drains_by_cause\": {%s}}"
           s.streams s.window_ns s.commits s.sfences_per_commit s.batches s.txns_per_batch
           s.head_advances s.ns_per_commit s.ack_p50_ns s.ack_p99_ns s.pending_high_water
           (String.concat ", "
              (List.map (fun (cause, n) -> Printf.sprintf "\"%s\": %d" cause n) s.drains))))
    (sweep ());
  Buffer.add_string buf "\n  ]";
  Buffer.contents buf
