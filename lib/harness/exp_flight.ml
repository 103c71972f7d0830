(* fig_flight: the flight recorder's cost, quantified (ISSUE 9).

   The recorder's contract is "one extra line write per event, zero
   extra fences": every record is a volatile 64 B store whose flush is
   folded into a protocol fence the commit pipeline was paying anyway.
   This experiment prices that claim on the exact commit micro-benchmark
   behind fig_commit_batch — the same mixed-size stream, same universe,
   same device — once with the recorder off (flight_slots = 0, the
   historical media layout) and once on, reporting sfences/commit (must
   be bit-identical), flush write-backs/commit (the folded record
   lines) and simulated ns/commit (the gate: <= 2% aggregate overhead).

   The flight gate ([properties]) additionally runs the persistence
   sanitizer over a recorder-on group-commit workload (the recorder's
   own flush discipline must be psan-clean) and the Flight_check crash
   sweep at N=1 and N=4 (recovery-semantics pin + dossier-vs-judge
   agreement + the planted Drop_durable_notify conviction). *)

module Cache = Tinca_core.Cache
module Pmem = Tinca_pmem.Pmem
module Disk = Tinca_blockdev.Disk
module Tabular = Tinca_util.Tabular
module Psan = Tinca_checker.Psan
module FCheck = Tinca_checker.Flight_check
module Check = Tinca_checker.Crash_check
open Tinca_sim

let flight_slots = 256

type sample = {
  txn_blocks : int;
  sfences_off : float;
  sfences_on : float;  (** must equal [sfences_off] — the recorder adds no fences *)
  writebacks_off : float;
  writebacks_on : float;
  ns_off : float;
  ns_on : float;
  overhead_pct : float;
}

(* Exp_commit.micro's stream (same warm-up, same measured_size walk,
   same 256-block universe) with the recorder as the only variable. *)
let run_stream ~flight_slots ~n =
  let clock = Clock.create () in
  let metrics = Metrics.create () in
  let pmem = Pmem.create ~clock ~metrics ~tech:Latency.Pcm ~size:(8 * 1024 * 1024) () in
  let disk = Disk.create ~clock ~metrics ~kind:Latency.Ssd ~nblocks:4096 ~block_size:4096 in
  let cache =
    Cache.format
      ~config:{ Cache.default_config with ring_slots = 4096; flight_slots }
      ~pmem ~disk ~clock ~metrics
  in
  let universe = 256 in
  let payload = Bytes.make 4096 'f' in
  let next = ref 0 in
  let commit size =
    let h = Cache.Txn.init cache in
    for _ = 1 to size do
      Cache.Txn.add h (!next mod universe) payload;
      incr next
    done;
    Cache.Txn.commit h
  in
  let warmup = 4 and measured = 32 in
  for _ = 1 to warmup do
    commit n
  done;
  let t0 = Clock.now_ns clock in
  let sf0 = Metrics.get metrics "pmem.sfence" in
  let wb0 = Metrics.get metrics "pmem.clflush_writebacks" in
  for c = 0 to measured - 1 do
    commit (Exp_commit.measured_size ~n c)
  done;
  let per x = float_of_int x /. float_of_int measured in
  ( per (Metrics.get metrics "pmem.sfence" - sf0),
    per (Metrics.get metrics "pmem.clflush_writebacks" - wb0),
    (Clock.now_ns clock -. t0) /. float_of_int measured )

let overhead_point ~n =
  let sf_off, wb_off, ns_off = run_stream ~flight_slots:0 ~n in
  let sf_on, wb_on, ns_on = run_stream ~flight_slots ~n in
  {
    txn_blocks = n;
    sfences_off = sf_off;
    sfences_on = sf_on;
    writebacks_off = wb_off;
    writebacks_on = wb_on;
    ns_off;
    ns_on;
    overhead_pct = 100.0 *. ((ns_on /. ns_off) -. 1.0);
  }

let sweep () = List.map (fun n -> overhead_point ~n) [ 1; 8; 64 ]

let table samples =
  let t =
    Tabular.create
      ~title:
        "fig_flight: NVM flight recorder priced on the commit micro-benchmark (ISSUE 9)"
      [
        "txn blocks"; "sfences/commit off"; "sfences/commit on"; "flush WB/commit off";
        "flush WB/commit on"; "ns/commit off"; "ns/commit on"; "overhead %";
      ]
  in
  List.iter
    (fun s ->
      Tabular.add_row t
        [
          Tabular.cell_i s.txn_blocks;
          Tabular.cell_f ~decimals:2 s.sfences_off;
          Tabular.cell_f ~decimals:2 s.sfences_on;
          Tabular.cell_f ~decimals:1 s.writebacks_off;
          Tabular.cell_f ~decimals:1 s.writebacks_on;
          Tabular.cell_f ~decimals:0 s.ns_off;
          Tabular.cell_f ~decimals:0 s.ns_on;
          Tabular.cell_f ~decimals:2 s.overhead_pct;
        ])
    samples;
  t

let fig_flight () = [ table (sweep ()) ]

(* --- the flight gate's properties ------------------------------------------ *)

(* The recorder's flush discipline audited live: a recorder-on async
   group-commit workload under the persistence sanitizer (full region
   classification, Flight region rules included) must stay
   violation-free. *)
let psan_clean ~nshards =
  let module Stacks = Tinca_stacks.Stacks in
  let module Rng = Tinca_util.Rng in
  let env = Stacks.make_env ~seed:9 ~nvm_bytes:(512 * 1024) ~disk_blocks:96 () in
  let config =
    {
      Tinca.Config.default with
      Tinca.Config.nvm_bytes = Pmem.size env.Stacks.pmem;
      ring_slots = 256;
      nshards;
      flight_slots = 64;
      group_window_ns = 1_000_000;
      group_max_batch = 8;
    }
  in
  let tc =
    Tinca.ok_exn
      (Tinca.format ~config ~pmem:env.Stacks.pmem ~disk:env.Stacks.disk ~clock:env.Stacks.clock
         ~metrics:env.Stacks.metrics)
  in
  let psan = Psan.attach ~layouts:(Tinca.layouts tc) env.Stacks.pmem in
  let rng = Rng.create 11 in
  for _ = 1 to 24 do
    Psan.txn_begin psan;
    let tickets =
      List.init
        (1 + Rng.int rng 4)
        (fun _ ->
          let txn = Tinca.init_txn tc in
          for _ = 1 to 1 + Rng.int rng 3 do
            Tinca.ok_exn (Tinca.write txn (Rng.int rng 96) (Bytes.make 4096 'p'))
          done;
          Tinca.ok_exn (Tinca.commit_async txn))
    in
    List.iter (fun tk -> Tinca.ok_exn (Tinca.await tk)) tickets;
    Psan.txn_end psan
  done;
  Tinca.sync tc;
  Psan.detach psan;
  Psan.report psan

(* One flight-recorder sweep as a gate property: the exploration and
   dossier counts in the detail, ok when no state broke the pin or the
   dossier agreement. *)
let sweep_property name cfg =
  Gate.property name (fun () ->
      let driver, counts = FCheck.driver cfg in
      let r = Check.explore ~driver cfg in
      ( Printf.sprintf "%s; %d dossiers, %d records replayed" (Check.summary r)
          counts.FCheck.dossiers_built counts.FCheck.records_replayed,
        r.Check.violations = [] ))

let drop_notify_property name cfg =
  Gate.property name (fun () ->
      match FCheck.drop_notify_scenario cfg with
      | Ok _ -> ("dossier convicted every acked ticket of the dead batch", true)
      | Error e -> (e, false))

let properties () =
  let samples = lazy (sweep ()) in
  let cfg nshards stride = { FCheck.default_config with Check.nshards; stride; universe = 48 } in
  [
    Gate.property "recorder adds zero fences (sfences/commit identical)" (fun () ->
        let samples = Lazy.force samples in
        ( String.concat ", "
            (List.map
               (fun s -> Printf.sprintf "n=%d: %.2f vs %.2f" s.txn_blocks s.sfences_off s.sfences_on)
               samples),
          List.for_all (fun s -> s.sfences_on = s.sfences_off) samples ));
    Gate.property "aggregate ns overhead <= 2% on fig_commit_batch's stream" (fun () ->
        let samples = Lazy.force samples in
        let total f = List.fold_left (fun a s -> a +. f s) 0.0 samples in
        let overhead = (total (fun s -> s.ns_on) /. total (fun s -> s.ns_off)) -. 1.0 in
        (Printf.sprintf "%.2f%%" (100.0 *. overhead), overhead <= 0.02));
    Gate.property "recorder-on group workload psan-clean (N=1, N=4)" (fun () ->
        let r1 = psan_clean ~nshards:1 and r4 = psan_clean ~nshards:4 in
        (Printf.sprintf "N=1: %s; N=4: %s" (Psan.summary r1) (Psan.summary r4),
         r1.Psan.violations = [] && r4.Psan.violations = []));
    sweep_property "crash sweep N=1 (stride 17): replay on/off pin + dossier agrees" (cfg 1 17);
    sweep_property "crash sweep N=4 (stride 29): replay on/off pin + dossier agrees" (cfg 4 29);
    drop_notify_property "planted Drop_durable_notify convicted by dossier alone (N=1)" (cfg 1 1);
    drop_notify_property "planted Drop_durable_notify convicted by dossier alone (N=4)" (cfg 4 1);
  ]
