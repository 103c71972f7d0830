(** fig_shard: sharded Tinca scaling (ISSUE 5) — commit-throughput and
    fence-count scaling at N = 1/2/4/8 shards under the multi-queue
    driver, plus the N=1 equivalence pin against the single-ring
    [BENCH_commit.json] commit-point numbers. *)

(** Exp_commit.micro's exact workload replayed through the facade with
    [nshards] shards. *)
val micro_facade :
  nshards:int ->
  pipeline:Tinca_core.Cache.pipeline ->
  instr:Tinca_sim.Latency.flush_instr ->
  n:int ->
  Exp_commit.sample

(** [pin ~json_path] replays every commit point of the artifact at
    [json_path] through the one-shard facade and compares sfences, flush
    write-backs and ns per commit to the artifact's printed precision.
    Returns the comparison table and the mismatched points, as
    [pipeline/flush instr/txn blocks]. *)
val pin : json_path:string -> Tinca_util.Tabular.t * string list

(** The registry experiment: the scaling table (and, when
    [BENCH_commit.json] exists in the working directory, the pin
    table). *)
val fig_shard : unit -> Tinca_util.Tabular.t list

(** The shard gate's artifact properties: the N=1 pin against
    [json_path], and the N=4 makespan strictly below N=1's. *)
val properties : json_path:string -> Gate.property list
