(* fig_shard: sharded Tinca scaling (ISSUE 5).

   Two tables:

   1. Commit-throughput and fence-count scaling at N = 1/2/4/8 shards,
      for both commit schemes, under the multi-queue driver (K
      concurrent streams round-robin).  Throughput is commits per
      second of *makespan* — the lane-model parallel wall-clock (max
      per-shard lane, cross-shard sync points equalized); the serial
      column is the same run on one thread.

   2. The N=1 equivalence pin: the exact single-ring commit
      micro-benchmark behind BENCH_commit.json (Exp_commit.micro's
      workload) replayed through the facade with one shard must
      reproduce the committed commit-point numbers — sfences, flush
      write-backs and simulated ns per commit — to the artifact's
      printed precision.  With one shard the scheduler degenerates to
      the plain Cache commit (no seal, no extra fences), so any drift
      here is a regression in the sharding layer's single-shard drain.

   `tinca_check gate shard` runs the pin (plus a scaling sanity check)
   after the sharded crash-space sweep and psan. *)

module Cache = Tinca_core.Cache
module Pmem = Tinca_pmem.Pmem
module Disk = Tinca_blockdev.Disk
module Tabular = Tinca_util.Tabular
open Tinca_sim

let nvm_bytes = 8 * 1024 * 1024

(* Exp_commit.micro's workload, verbatim, through the facade: same
   geometry, payload, warm-up and measurement windows. *)
let micro_facade ~nshards ~pipeline ~instr ~n =
  let clock = Clock.create () in
  let metrics = Metrics.create () in
  let pmem =
    Pmem.create ~flush_instr:instr ~clock ~metrics ~tech:Latency.Pcm ~size:nvm_bytes ()
  in
  let disk = Disk.create ~clock ~metrics ~kind:Latency.Ssd ~nblocks:4096 ~block_size:4096 in
  let config =
    {
      Tinca.Config.default with
      Tinca.Config.nvm_bytes;
      ring_slots = 4096;
      commit_scheme = Tinca.Config.Logging pipeline;
      flush_instr = instr;
      nshards;
    }
  in
  let tc = Tinca.ok_exn (Tinca.format ~config ~pmem ~disk ~clock ~metrics) in
  let universe = 256 in
  let payload = Bytes.make 4096 'c' in
  let next = ref 0 in
  let commit size =
    let txn = Tinca.init_txn tc in
    for _ = 1 to size do
      Tinca.ok_exn (Tinca.write txn (!next mod universe) payload);
      incr next
    done;
    Tinca.ok_exn (Tinca.commit txn)
  in
  let warmup = 4 and measured = 32 in
  for _ = 1 to warmup do
    commit n
  done;
  let t0 = Clock.now_ns clock in
  let sf0 = Metrics.get metrics "pmem.sfence" in
  let wb0 = Metrics.get metrics "pmem.clflush_writebacks" in
  let lat = Hist.create () in
  for c = 0 to measured - 1 do
    let c0 = Clock.now_ns clock in
    commit (Exp_commit.measured_size ~n c);
    Hist.add lat (Clock.now_ns clock -. c0)
  done;
  let per x = float_of_int x /. float_of_int measured in
  let s = Hist.summary lat in
  {
    Exp_commit.sfences_per_commit = per (Metrics.get metrics "pmem.sfence" - sf0);
    writebacks_per_commit = per (Metrics.get metrics "pmem.clflush_writebacks" - wb0);
    ns_per_commit = (Clock.now_ns clock -. t0) /. float_of_int measured;
    p50_ns = s.Hist.p50;
    p99_ns = s.Hist.p99;
    max_ns = s.Hist.max;
  }

(* --- the N=1 equivalence pin -------------------------------------------- *)

type pin_point = {
  pipeline : Cache.pipeline;
  instr : Latency.flush_instr;
  n : int;
  ns : float;
  sfences : float;
  writebacks : float;
}

(* BENCH_commit.json is generated by Exp_commit.bench_json: one commit
   point per line, flat {"key": value} pairs.  A full JSON parser is not
   needed to read our own artifact back. *)
let field line key =
  let pat = Printf.sprintf "\"%s\": " key in
  let plen = String.length pat in
  let rec find i =
    if i + plen > String.length line then None
    else if String.sub line i plen = pat then
      let stop = ref (i + plen) in
      while
        !stop < String.length line
        && (match line.[!stop] with '0' .. '9' | '.' | '-' | 'e' | '"' | '_' | 'a' .. 'z' -> true
           | _ -> false)
      do
        incr stop
      done;
      Some (String.sub line (i + plen) (!stop - (i + plen)))
    else find (i + 1)
  in
  find 0

let unquote s =
  let s = String.trim s in
  if String.length s >= 2 && s.[0] = '"' then String.sub s 1 (String.length s - 2) else s

let parse_commit_points text =
  let points = ref [] in
  List.iter
    (fun line ->
      match (field line "pipeline", field line "txn_blocks") with
      | Some p, Some n ->
          let num key =
            match field line key with
            | Some v -> float_of_string (unquote v)
            | None -> failwith (Printf.sprintf "BENCH_commit.json: missing %s" key)
          in
          let pipeline =
            match unquote p with
            | "per_block" -> Cache.Per_block
            | "batched" -> Cache.Batched
            | other -> failwith ("BENCH_commit.json: unknown pipeline " ^ other)
          in
          let instr =
            match unquote (Option.get (field line "flush_instr")) with
            | "clflush" -> Latency.Clflush
            | "clflushopt" -> Latency.Clflushopt
            | "clwb" -> Latency.Clwb
            | other -> failwith ("BENCH_commit.json: unknown flush_instr " ^ other)
          in
          points :=
            {
              pipeline;
              instr;
              n = int_of_string (unquote n);
              ns = num "sim_ns_per_commit";
              sfences = num "sfences_per_commit";
              writebacks = num "flush_writebacks_per_commit";
            }
            :: !points
      | _ -> ())
    (String.split_on_char '\n' text);
  List.rev !points

let load_commit_points path =
  let ic = open_in path in
  let n = in_channel_length ic in
  let text = really_input_string ic n in
  close_in ic;
  parse_commit_points text

let pipeline_name = function Cache.Per_block -> "per_block" | Cache.Batched -> "batched"

(* The artifact prints ns with %.1f and the per-commit rates with %.2f;
   the pin compares to that precision. *)
let pin ~json_path =
  let expected = load_commit_points json_path in
  if expected = [] then failwith (json_path ^ ": no commit points found");
  let table =
    Tabular.create
      ~title:
        (Printf.sprintf "N=1 equivalence pin vs %s (facade, 1 shard, vs single-ring artifact)"
           json_path)
      [ "pipeline"; "flush instr"; "txn blocks"; "ns/commit"; "sfences"; "flush WB"; "match" ]
  in
  let bad = ref [] in
  List.iter
    (fun e ->
      let s = micro_facade ~nshards:1 ~pipeline:e.pipeline ~instr:e.instr ~n:e.n in
      let close tol a b = Float.abs (a -. b) <= tol in
      let here =
        close 0.05 s.Exp_commit.ns_per_commit e.ns
        && close 0.005 s.Exp_commit.sfences_per_commit e.sfences
        && close 0.005 s.Exp_commit.writebacks_per_commit e.writebacks
      in
      if not here then
        bad :=
          Printf.sprintf "%s/%s/%d" (pipeline_name e.pipeline) (Latency.flush_instr_name e.instr) e.n
          :: !bad;
      Tabular.add_row table
        [
          pipeline_name e.pipeline;
          Latency.flush_instr_name e.instr;
          Tabular.cell_i e.n;
          Printf.sprintf "%.1f vs %.1f" s.Exp_commit.ns_per_commit e.ns;
          Printf.sprintf "%.2f vs %.2f" s.Exp_commit.sfences_per_commit e.sfences;
          Printf.sprintf "%.2f vs %.2f" s.Exp_commit.writebacks_per_commit e.writebacks;
          (if here then "ok" else "MISMATCH");
        ])
    expected;
  (table, List.rev !bad)

(* --- throughput / fence-count scaling ----------------------------------- *)

let shard_counts = [ 1; 2; 4; 8 ]

let schemes = [ Tinca.Config.Logging Cache.Batched; Tinca.Config.Paging Tinca.Config.default_page_cfg ]

let run_scale ~scheme ~nshards =
  let clock = Clock.create () in
  let metrics = Metrics.create () in
  let pmem = Pmem.create ~clock ~metrics ~tech:Latency.Pcm ~size:nvm_bytes () in
  let disk = Disk.create ~clock ~metrics ~kind:Latency.Ssd ~nblocks:4096 ~block_size:4096 in
  let config =
    {
      Tinca.Config.default with
      Tinca.Config.nvm_bytes;
      ring_slots = 4096;
      nshards;
      commit_scheme = scheme;
    }
  in
  let tc = Tinca.ok_exn (Tinca.format ~config ~pmem ~disk ~clock ~metrics) in
  let cfg = Mq_driver.default in
  (* Warm the working set (COW write hits, LRU population) outside the
     measured window. *)
  ignore (Mq_driver.run ~clock ~metrics { cfg with txns_per_stream = 4; seed = cfg.seed + 1 } tc);
  Mq_driver.run ~clock ~metrics cfg tc

let scaling_table results =
  let table =
    Tabular.create
      ~title:
        (Printf.sprintf
           "fig_shard: commit scaling, %d streams x %d txns x %d blocks (lane-model makespan)"
           Mq_driver.default.Mq_driver.streams Mq_driver.default.Mq_driver.txns_per_stream
           Mq_driver.default.Mq_driver.txn_blocks)
      [
        "scheme"; "shards"; "commits"; "multi-shard"; "sfences/commit"; "serial ns/commit";
        "makespan ns/commit"; "commits/s"; "speedup";
      ]
  in
  List.iter
    (fun ((scheme, nshards), r) ->
      let base = List.assoc (scheme, 1) results in
      let per x = x /. float_of_int r.Mq_driver.commits in
      Tabular.add_row table
        [
          Tinca.Config.scheme_name scheme;
          Tabular.cell_i nshards;
          Tabular.cell_i r.Mq_driver.commits;
          Printf.sprintf "%d (%.0f%%)" r.Mq_driver.multi_shard_commits
            (100.0
            *. float_of_int r.Mq_driver.multi_shard_commits
            /. float_of_int r.Mq_driver.commits);
          Tabular.cell_f ~decimals:2 (per (float_of_int r.Mq_driver.sfences));
          Tabular.cell_f ~decimals:0 (per r.Mq_driver.serial_ns);
          Tabular.cell_f ~decimals:0 (per r.Mq_driver.makespan_ns);
          Tabular.cell_f ~decimals:0
            (float_of_int r.Mq_driver.commits /. (r.Mq_driver.makespan_ns /. 1e9));
          Printf.sprintf "%.2fx" (base.Mq_driver.makespan_ns /. r.Mq_driver.makespan_ns);
        ])
    results;
  table

let scale_all () =
  List.concat_map
    (fun scheme ->
      List.map (fun n -> ((scheme, n), run_scale ~scheme ~nshards:n)) shard_counts)
    schemes

let default_json_path = "BENCH_commit.json"

let fig_shard () =
  let tables = [ scaling_table (scale_all ()) ] in
  if Sys.file_exists default_json_path then
    let pin_table, _ok = pin ~json_path:default_json_path in
    tables @ [ pin_table ]
  else tables

(* The shard gate's artifact properties: the pin must hold exactly, and
   sharding must actually buy parallel wall-clock under both schemes
   (the makespan at N=4 strictly below N=1 — deterministic in the
   simulation). *)
let properties ~json_path =
  [
    Gate.property "N=1 equivalence pin vs single-ring artifact" (fun () ->
        match pin ~json_path with
        | _, [] -> (Printf.sprintf "every commit point of %s matches" json_path, true)
        | _, bad -> ("MISMATCH at " ^ String.concat ", " bad, false));
    Gate.property "scaling sanity (N=4 makespan < N=1)" (fun () ->
        let rows =
          List.map
            (fun scheme ->
              let mk n = (run_scale ~scheme ~nshards:n).Mq_driver.makespan_ns in
              (Tinca.Config.scheme_name scheme, mk 4, mk 1))
            schemes
        in
        ( String.concat ", "
            (List.map (fun (name, m4, m1) -> Printf.sprintf "%s %.0f ns vs %.0f ns" name m4 m1) rows),
          List.for_all (fun (_, m4, m1) -> m4 < m1) rows ));
  ]
