(* Multi-queue workload driver (ISSUE 5): K concurrent transaction
   streams issued round-robin against one Tinca facade.

   The simulation is single-threaded, so "concurrent" means: the streams
   interleave their transactions round-robin on the shared simulated
   clock, and the parallelism a per-shard-threaded execution would buy
   is modelled by the shard layer's lane accounting (either commit
   scheme) — each region step's clock delta is attributed to its
   shard's lane, cross-shard sync points equalize lanes, and the
   makespan (max lane) is the parallel wall-clock.  [serial_ns] is the plain single-threaded clock
   time of the same run, so serial_ns / makespan_ns is the modelled
   speedup. *)

module Shard = Tinca_core.Shard
module Rng = Tinca_util.Rng
open Tinca_sim

type config = {
  streams : int;  (* K concurrent streams *)
  txns_per_stream : int;
  txn_blocks : int;  (* block writes per transaction *)
  universe : int;  (* disk blocks the streams draw from *)
  zipf_theta : float;  (* 0.0 = uniform *)
  seed : int;
  async : bool;  (* open-loop commit_async streams (ISSUE 8) *)
  mixed_sizes : bool;  (* per-txn size from Exp_commit.measured_size *)
}

let default =
  {
    streams = 8;
    txns_per_stream = 32;
    txn_blocks = 8;
    universe = 256;
    zipf_theta = 0.0;
    seed = 11;
    async = false;
    mixed_sizes = false;
  }

type result = {
  commits : int;
  block_writes : int;
  multi_shard_commits : int;
  sfences : int;
  head_advances : int;
  group_batches : int;
  serial_ns : float;
  makespan_ns : float;
}

(* Per-stream block choice: uniform, or Zipf-skewed with a per-stream
   permutation offset so hot keys differ between streams. *)
let block_picker cfg k rng =
  if cfg.zipf_theta <= 0.0 then fun () -> Rng.int rng cfg.universe
  else begin
    let z = Tinca_util.Zipf.create ~n:cfg.universe ~theta:cfg.zipf_theta in
    fun () -> (Tinca_util.Zipf.sample z rng + (k * 17)) mod cfg.universe
  end

let run ~clock ~metrics cfg tc =
  if cfg.streams < 1 then invalid_arg "Mq_driver.run: streams must be >= 1";
  let nshards = Tinca.nshards tc in
  let payload = Bytes.make (Tinca.block_size tc) 'm' in
  let pick =
    Array.init cfg.streams (fun k -> block_picker cfg k (Rng.create (cfg.seed + (31 * k))))
  in
  Tinca.reset_lanes tc;
  let sf0 = Metrics.get metrics "pmem.sfence" in
  let ha0 = Metrics.get metrics "tinca.head_advance" in
  let gb0 = Metrics.get metrics "tinca.shard.group_commits" in
  let t0 = Clock.now_ns clock in
  let commits = ref 0 and block_writes = ref 0 and multi = ref 0 in
  (* Open-loop async streams run at pipeline depth 1: a stream awaits
     its previous ticket before submitting the next transaction, so the
     oldest waiter of each round drains the whole standing batch (~K
     transactions) with one fence sequence — the JBD2 group-commit
     shape on the NVM side. *)
  let tickets = Array.make cfg.streams None in
  let issued = Array.make cfg.streams 0 in
  for _round = 1 to cfg.txns_per_stream do
    for k = 0 to cfg.streams - 1 do
      (match tickets.(k) with
      | Some tk ->
          Tinca.ok_exn (Tinca.await tk);
          tickets.(k) <- None
      | None -> ());
      let size =
        if cfg.mixed_sizes then Exp_commit.measured_size ~n:cfg.txn_blocks issued.(k)
        else cfg.txn_blocks
      in
      issued.(k) <- issued.(k) + 1;
      let txn = Tinca.init_txn tc in
      let touched = Hashtbl.create 8 in
      for _ = 1 to size do
        let blk = pick.(k) () in
        Tinca.ok_exn (Tinca.write txn blk payload);
        incr block_writes;
        Hashtbl.replace touched (Shard.stripe ~nshards blk) ()
      done;
      if cfg.async then tickets.(k) <- Some (Tinca.ok_exn (Tinca.commit_async txn))
      else Tinca.ok_exn (Tinca.commit txn);
      incr commits;
      if Hashtbl.length touched > 1 then incr multi
    done
  done;
  Array.iter (function Some tk -> Tinca.ok_exn (Tinca.await tk) | None -> ()) tickets;
  {
    commits = !commits;
    block_writes = !block_writes;
    multi_shard_commits = !multi;
    sfences = Metrics.get metrics "pmem.sfence" - sf0;
    head_advances = Metrics.get metrics "tinca.head_advance" - ha0;
    group_batches = Metrics.get metrics "tinca.shard.group_commits" - gb0;
    serial_ns = Clock.now_ns clock -. t0;
    makespan_ns = Tinca.makespan_ns tc;
  }
