(* Per-layer metrics of a traced pass, each named after the module that
   does the work.  Times come from the benchmark's own timing of calls
   into [Tinca_fs.Fs] and the [Tinca] facade (Probe), and from the spans
   the logging engine already records ([Tinca_obs.Trace]); counts come
   from the counter registry and each engine's [stats_kv].  A layer the
   workload does not reach reports 0. *)

type row = string * int * float * float * int * int
(** [Trace.flame_rows]: name, count, total ns, self ns, sfences, write-backs *)

(* The facade's group-committer counters (zero where the benchmark
   does not hold the facade handle, i.e. under the fs-* stacks, which
   run no group window). *)
type group = { batches : int; drains : (string * int) list; high_water : int }

let no_group = { batches = 0; drains = []; high_water = 0 }

let group_of tc =
  {
    batches = Tinca.group_batches tc;
    drains = Tinca.group_drains_by_cause tc;
    high_water = Tinca.group_pending_high_water tc;
  }

(* The cache's state at one end of the measured phase. *)
type snapshot = {
  kv : (string * string) list;  (** the engine's [stats_kv] *)
  group : group;
  peak_cow : int;
  wear_max : int;
  wear_mean : float;
}

type input = {
  probe : Probe.t;
  ops : int;
  sim_ns : float;  (** measured phase *)
  counts : (string * int) list;  (** counter deltas over the measured phase *)
  before : snapshot;
  after : snapshot;
  kv_recovered : (string * string) list;
  rows : row list;  (** spans of the measured phase *)
  recover_rows : row list;  (** spans of the post-crash recovery *)
  recover_wall_ns : float list;  (** repeated crash -> recover cycles *)
  backend_blocks : int;  (** blocks the fs handed to the backend's commits *)
}

(* name, unit, which direction is better *)
let catalog =
  [
    ("bench.gen_wall_frac", "frac", "lower");
    ("bench.unattributed_sim_frac", "frac", "lower");
    ("bench.trace_overhead_wall_frac", "frac", "lower");
    ("fs.self_sim_us_per_op", "sim_us", "lower");
    ("fs.self_wall_us_per_op", "us", "lower");
    ("fs.backend_commits_per_fsync", "count", "lower");
    ("fs.blocks_per_backend_commit", "count", "lower");
    ("fs.backend_reads_per_op", "count", "lower");
    ("tinca.commit_sim_us", "sim_us", "lower");
    ("tinca.commit_wall_us", "us", "lower");
    ("tinca.read_sim_us", "sim_us", "lower");
    ("tinca.read_wall_us", "us", "lower");
    ("tinca.group.txns_per_batch", "count", "higher");
    ("tinca.group.batches", "count", "lower");
    ("tinca.group.drain_conflict_frac", "frac", "lower");
    ("tinca.group.drain_await_frac", "frac", "higher");
    ("tinca.group.pending_high_water", "count", "higher");
    ("tinca.recover_wall_ms", "ms", "lower");
    ("logging.alloc_self_sim_us", "sim_us", "lower");
    ("logging.stage_a_self_sim_us", "sim_us", "lower");
    ("logging.stage_b_self_sim_us", "sim_us", "lower");
    ("logging.head_self_sim_us", "sim_us", "lower");
    ("logging.role_switch_self_sim_us", "sim_us", "lower");
    ("logging.tail_self_sim_us", "sim_us", "lower");
    ("logging.writeback_self_sim_us", "sim_us", "lower");
    ("logging.seal_self_sim_us", "sim_us", "lower");
    ("logging.gcommit.flush_self_sim_us", "sim_us", "lower");
    ("logging.gcommit.seal_self_sim_us", "sim_us", "lower");
    ("logging.gcommit.finalize_self_sim_us", "sim_us", "lower");
    ("logging.gcommit.retire_self_sim_us", "sim_us", "lower");
    ("logging.xcommit_self_sim_us", "sim_us", "lower");
    ("logging.bg_clean_sim_us_per_op", "sim_us", "lower");
    ("logging.recover.entry_scan_sim_us", "sim_us", "lower");
    ("logging.recover.ring_scan_sim_us", "sim_us", "lower");
    ("logging.recover.revoke_sim_us", "sim_us", "lower");
    ("logging.head_advances_per_commit", "count", "lower");
    ("logging.ring_high_water", "count", "lower");
    ("logging.peak_cow_blocks", "count", "lower");
    ("paging.table_swings_per_commit", "count", "lower");
    ("paging.epoch_swings_per_commit", "count", "lower");
    ("paging.pool_occupancy_pct", "%", "higher");
    ("paging.seal_roll_forwards", "count", "lower");
    ("cache.read_hit_ratio", "frac", "higher");
    ("cache.write_hit_ratio", "frac", "higher");
    ("cache.evictions_per_op", "count", "lower");
    ("cache.cleaned_per_op", "count", "lower");
    ("cache.dirty_ratio_end", "frac", "lower");
    ("pmem.sfence_per_commit", "count", "lower");
    ("pmem.clflush_per_commit", "count", "lower");
    ("pmem.writebacks_per_commit", "count", "lower");
    ("pmem.store_lines_per_commit", "count", "lower");
    ("pmem.lines_persisted_per_commit", "count", "lower");
    ("pmem.atomic_writes_per_commit", "count", "lower");
    ("pmem.read_lines_per_op", "count", "lower");
    ("pmem.events_per_op", "count", "lower");
    ("pmem.wear_max", "count", "lower");
    ("pmem.wear_mean", "count", "lower");
    ("disk.reads_per_op", "count", "lower");
    ("disk.writes_per_op", "count", "lower");
    ("disk.seq_write_frac", "frac", "higher");
  ]

let ratio a b = if b = 0.0 then 0.0 else a /. b
let fi = float_of_int
let count counts name = match List.assoc_opt name counts with Some v -> fi v | None -> 0.0

let kv_num kv name =
  match List.assoc_opt name kv with
  | Some s -> Option.value ~default:0.0 (float_of_string_opt s)
  | None -> 0.0

let kv_delta i name = kv_num i.after.kv name -. kv_num i.before.kv name
let is_paging kv = List.assoc_opt "scheme" kv = Some "paging"

let calls i name =
  match Probe.find i.probe name with Some a -> fi a.Probe.calls | None -> 0.0

let sum i names f =
  List.fold_left
    (fun acc n -> match Probe.find i.probe n with Some a -> acc +. f a | None -> acc)
    0.0 names

let commit_calls =
  [ "tinca.api.commit"; "tinca.api.commit_async"; "tinca.api.await"; "tinca.backend.commit_blocks" ]

let read_calls = [ "tinca.api.read"; "tinca.backend.read_block" ]

let row_ns rows name ~self =
  List.fold_left
    (fun acc (n, _, total, s, _, _) -> if String.equal n name then acc +. if self then s else total else acc)
    0.0 rows

let compute i =
  let ops = fi i.ops in
  (* Transactions the facade committed in the measured phase. *)
  let commits =
    calls i "tinca.api.commit" +. calls i "tinca.api.commit_async"
    +. calls i "tinca.backend.commit_blocks"
  in
  let fs_accs =
    Hashtbl.fold
      (fun name a acc -> if String.starts_with ~prefix:"fs." name then a :: acc else acc)
      i.probe.Probe.accs []
  in
  let fs_self f = List.fold_left (fun acc a -> acc +. f a) 0.0 fs_accs in
  let per_commit name = ratio (count i.counts name) commits in
  let span_self name = ratio (row_ns i.rows name ~self:true) commits /. 1000.0 in
  let recover_span name = row_ns i.recover_rows name ~self:false /. 1000.0 in
  let paging = is_paging i.after.kv in
  let g0 = i.before.group and g1 = i.after.group in
  let batches = fi (g1.batches - g0.batches) in
  let drains cause =
    let n g = Option.value ~default:0 (List.assoc_opt cause g.drains) in
    fi (n g1 - n g0)
  in
  let hits kind = kv_delta i (kind ^ "_hits") and misses kind = kv_delta i (kind ^ "_misses") in
  let evictions = if paging then kv_delta i "evictions" else count i.counts "tinca.evictions" in
  let cleaned = if paging then kv_delta i "writebacks" else count i.counts "tinca.writebacks" in
  let dirty_ratio =
    if paging then ratio (kv_num i.after.kv "dirty_pages") (kv_num i.after.kv "pool_frames")
    else kv_num i.after.kv "dirty_ratio"
  in
  [
      ("bench.unattributed_sim_frac", ratio i.probe.Probe.gap_sim_ns i.sim_ns);
      ("fs.self_sim_us_per_op", ratio (fs_self (fun a -> a.Probe.self_sim_ns)) ops /. 1000.0);
      ("fs.self_wall_us_per_op", ratio (fs_self (fun a -> a.Probe.self_wall_ns)) ops /. 1000.0);
      ("fs.backend_commits_per_fsync", ratio (calls i "tinca.backend.commit_blocks") (calls i "fs.fsync"));
      ("fs.blocks_per_backend_commit", ratio (fi i.backend_blocks) (calls i "tinca.backend.commit_blocks"));
      ("fs.backend_reads_per_op", ratio (calls i "tinca.backend.read_block") ops);
      ("tinca.commit_sim_us", ratio (sum i commit_calls (fun a -> a.Probe.sim_ns)) commits /. 1000.0);
      ("tinca.commit_wall_us", ratio (sum i commit_calls (fun a -> a.Probe.wall_ns)) commits /. 1000.0);
      ("tinca.read_sim_us", ratio (sum i read_calls (fun a -> a.Probe.sim_ns)) (sum i read_calls (fun a -> fi a.Probe.calls)) /. 1000.0);
      ("tinca.read_wall_us", ratio (sum i read_calls (fun a -> a.Probe.wall_ns)) (sum i read_calls (fun a -> fi a.Probe.calls)) /. 1000.0);
      ("tinca.group.txns_per_batch", ratio commits batches);
      ("tinca.group.batches", batches);
      ("tinca.group.drain_conflict_frac", ratio (drains "conflict") batches);
      ("tinca.group.drain_await_frac", ratio (drains "await") batches);
      ("tinca.group.pending_high_water", fi g1.high_water);
      ("tinca.recover_wall_ms",
        (match i.recover_wall_ns with [] -> 0.0 | l -> Stats.median l /. 1e6));
      ("logging.alloc_self_sim_us", span_self "tinca.commit.alloc");
      ("logging.stage_a_self_sim_us", span_self "tinca.commit.stage_a");
      ("logging.stage_b_self_sim_us", span_self "tinca.commit.stage_b");
      ("logging.head_self_sim_us", span_self "tinca.commit.head");
      ("logging.role_switch_self_sim_us", span_self "tinca.commit.role_switch");
      ("logging.tail_self_sim_us", span_self "tinca.commit.tail");
      ("logging.writeback_self_sim_us", span_self "tinca.commit.writeback");
      ("logging.seal_self_sim_us", span_self "tinca.commit.seal");
      ("logging.gcommit.flush_self_sim_us", span_self "tinca.gcommit.flush");
      ("logging.gcommit.seal_self_sim_us", span_self "tinca.gcommit.seal");
      ("logging.gcommit.finalize_self_sim_us", span_self "tinca.gcommit.finalize");
      ("logging.gcommit.retire_self_sim_us", span_self "tinca.gcommit.retire");
      ("logging.xcommit_self_sim_us", span_self "tinca.xcommit");
      ("logging.bg_clean_sim_us_per_op", ratio (row_ns i.rows "tinca.bg_clean" ~self:false) ops /. 1000.0);
      ("logging.recover.entry_scan_sim_us", recover_span "tinca.recover.entry_scan");
      ("logging.recover.ring_scan_sim_us", recover_span "tinca.recover.ring_scan");
      ("logging.recover.revoke_sim_us", recover_span "tinca.recover.revoke");
      ("logging.head_advances_per_commit", per_commit "tinca.head_advance");
      ("logging.ring_high_water", if paging then 0.0 else kv_num i.after.kv "ring_high_water_max");
      ("logging.peak_cow_blocks", fi i.after.peak_cow);
      ("paging.table_swings_per_commit", if paging then ratio (kv_delta i "table_swings") commits else 0.0);
      ("paging.epoch_swings_per_commit", if paging then ratio (kv_delta i "epoch_swings") commits else 0.0);
      ("paging.pool_occupancy_pct", if paging then kv_num i.after.kv "pool_occupancy_pct" else 0.0);
      ("paging.seal_roll_forwards", if paging then kv_num i.kv_recovered "seal_roll_forwards" else 0.0);
      ("cache.read_hit_ratio", ratio (hits "read") (hits "read" +. misses "read"));
      ("cache.write_hit_ratio", ratio (hits "write") (hits "write" +. misses "write"));
      ("cache.evictions_per_op", ratio evictions ops);
      ("cache.cleaned_per_op", ratio cleaned ops);
      ("cache.dirty_ratio_end", dirty_ratio);
      ("pmem.sfence_per_commit", per_commit "pmem.sfence");
      ("pmem.clflush_per_commit", per_commit "pmem.clflush");
      ("pmem.writebacks_per_commit", per_commit "pmem.clflush_writebacks");
      ("pmem.store_lines_per_commit", per_commit "pmem.store_lines");
      ("pmem.lines_persisted_per_commit", per_commit "pmem.lines_persisted");
      ("pmem.atomic_writes_per_commit", per_commit "pmem.atomic_writes");
      ("pmem.read_lines_per_op", ratio (count i.counts "pmem.read_lines") ops);
      ("pmem.events_per_op", ratio (count i.counts "pmem.events") ops);
      ("pmem.wear_max", fi i.after.wear_max);
      ("pmem.wear_mean", i.after.wear_mean);
      ("disk.reads_per_op", ratio (count i.counts "disk.reads") ops);
      ("disk.writes_per_op", ratio (count i.counts "disk.writes") ops);
      ("disk.seq_write_frac", ratio (count i.counts "disk.seq_writes") (count i.counts "disk.writes"));
    ]
