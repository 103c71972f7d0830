(** Fig 13 and §5.4.3: transaction footprint and COW spatial overhead.

    Fig 13: number of data blocks per committed transaction for
    Fileserver vs Webproxy (paper: Fileserver commits roughly 2x the
    blocks of Webproxy).  §5.4.3: worst-case COW overhead = peak number
    of simultaneously pinned previous versions x 4 KB, as a fraction of
    the NVM cache (paper: ~0.4 %). *)

module Stacks = Tinca_stacks.Stacks
module Filebench = Tinca_workloads.Filebench
module Tabular = Tinca_util.Tabular
module Hist = Tinca_sim.Hist
module Metrics = Tinca_sim.Metrics

let nvm_bytes = 8 * 1024 * 1024

let run personality =
  (* Commit on a per-op cadence (the 5 s JBD2 timer stand-in) with the
     size threshold effectively off, so the transaction footprint
     reflects each workload's write intensity — the quantity Fig 13
     reports. *)
  let cfg =
    { (Filebench.default personality) with nfiles = 300; mean_file_kb = 32; ops = 3_000;
      commit_every_ops = 40 }
  in
  let fs_config = { Runner.default_fs_config with Tinca_fs.Fs.max_dirty_blocks = 100_000 } in
  let st = ref None in
  Runner.run_local ~nvm_bytes ~fs_config
    ~spec:(fun env -> Stacks.tinca env)
    ~prealloc:(fun ops -> st := Some (Filebench.prealloc cfg ops))
    ~work:(fun ops -> Filebench.run (Option.get !st) ops)
    ()

let fig13 () =
  let table =
    Tabular.create ~title:"Fig 13: data blocks per committed transaction (Tinca)"
      [ "Workload"; "commits"; "mean blk/txn"; "p50"; "p95"; "max" ]
  in
  let cow =
    Tabular.create ~title:"5.4.3: COW spatial overhead (worst-case two versions per block)"
      [ "Workload"; "peak COW blocks"; "bytes"; "% of NVM cache" ]
  in
  let footprints =
    List.map
      (fun p ->
        let m = run p in
        let metrics = m.Runner.stack.Stacks.env.Stacks.metrics in
        let hist = Option.get (Metrics.hist metrics "tinca.txn_blocks") in
        Tabular.add_row table
          [
            Filebench.personality_name p;
            Tabular.cell_i (Hist.count hist);
            Tabular.cell_f (Hist.mean hist);
            Tabular.cell_f (Hist.percentile hist 50.0);
            Tabular.cell_f (Hist.percentile hist 95.0);
            Tabular.cell_f ~decimals:0 (Hist.max_value hist);
          ];
        (p, m, Hist.mean hist))
      [ Filebench.Fileserver; Filebench.Webproxy ]
  in
  (match footprints with
  | [ (_, _, fileserver_mean); (_, _, webproxy_mean) ] ->
      Tabular.add_row table
        [ "fileserver/webproxy"; "-"; Runner.ratio_str fileserver_mean webproxy_mean; "-"; "-"; "-" ]
  | _ -> ());
  List.iter
    (fun (p, m, _) ->
      let peak = m.Runner.stack.Stacks.peak_cow_blocks () in
      Tabular.add_row cow
        [
          Filebench.personality_name p;
          Tabular.cell_i peak;
          Tabular.cell_i (peak * 4096);
          Printf.sprintf "%.2f%%" (100.0 *. float_of_int (peak * 4096) /. float_of_int nvm_bytes);
        ])
    footprints;
  [ table; cow ]
