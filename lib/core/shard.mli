(** Sharded Tinca: N independent regions on one NVM device
    ([[ shard dir | seal | region 0 | region 1 | ... ]]) with a striped
    commit scheduler, for both commit engines.  Every region runs the
    same engine: a complete logging {!Cache} or a {!Paging} region.  Disk
    block numbers are striped across regions by a stable Fibonacci hash.

    This layer owns, once for both engines: the geometry, the directory
    (each engine keeps its own magic and header bytes), the cross-shard
    seal and its roll-forward under a mask, grouping a transaction's
    writes by region, the order of the commit steps, the lane model, and
    the per-shard stats, wear and invariant loops.

    One driver commits a transaction or a group-commit batch through
    every region's contract (seal, drain, retire): every region stages
    its share, (logging) advances its Head, then — when several regions
    are touched — one atomic {e cross-shard commit record} (the "seal")
    is persisted, every region passes its commit point, the seal clears
    and every region retires the commit (logging right after its own
    commit point).  Each paging step
    returns the flush ranges it leaves unfenced and this layer fences
    their union once; logging's steps fence internally.  Recovery
    is all-or-nothing across regions: a durable seal rolls the
    transaction {e forward} on every region in its mask, an absent one
    rolls every region {e back}.  With one shard there is no header, no
    seal and no extra fence: N=1 reproduces the unsharded numbers
    exactly. *)

type t

(** Maximum supported shard count (the seal packs a shard mask above a
    32-bit epoch in one 63-bit atomic word). *)
val max_shards : int

(** Bytes per region for [nshards] regions on a [pmem_bytes] device (the
    whole device for one shard). *)
val span_of : pmem_bytes:int -> nshards:int -> int

(** The engine every region runs, with its per-region configuration. *)
type engine = Logging of Cache.config | Paging of Paging.config

(** Partition the device and format every region ([config] applies per
    region).  Raises [Invalid_argument] if [nshards] is outside
    [1, max_shards] or the device is too small. *)
val format :
  nshards:int ->
  config:engine ->
  pmem:Tinca_pmem.Pmem.t ->
  disk:Tinca_blockdev.Disk.t ->
  clock:Tinca_sim.Clock.t ->
  metrics:Tinca_sim.Metrics.t ->
  t

(** Re-attach after a crash; the engine and the shard count are read
    back from the media.  A durable seal rolls the sealed transaction
    forward on every region in its mask (logging bounds every sealed
    ring first and appends raw-media [Recovery_decision] flight records),
    then retires.  Raises [Cache.Corrupt] on unformatted or corrupt
    media, including a seal mask naming a shard that does not exist.
    [flight_replay] is forwarded to {!Cache.recover_region}. *)
val recover :
  ?flight_replay:bool ->
  pmem:Tinca_pmem.Pmem.t ->
  disk:Tinca_blockdev.Disk.t ->
  clock:Tinca_sim.Clock.t ->
  metrics:Tinca_sim.Metrics.t ->
  unit ->
  t

val nshards : t -> int

(** ["logging"] or ["paging"]. *)
val scheme_name : t -> string

val block_size : t -> int

(** [stripe ~nshards blkno] — the shard a disk block number is striped
    to: stable, total, balanced. *)
val stripe : nshards:int -> int -> int

(** [t] itself on logging media; [Invalid_argument] naming [who] on
    paging media, where logging-only surfaces are a usage error. *)
val require_logging : who:string -> t -> t

(** Logging only. *)
val caches : t -> Cache.t array

(** One region layout per shard, for psan.  Paging only. *)
val page_layouts : t -> Paging.region_layout list

(** {1 Block I/O} *)

val read : t -> int -> bytes
val write_direct : t -> int -> bytes -> unit
val contains : t -> int -> bool
val peek : t -> int -> bytes option

(** Write every dirty block back to disk (decommissioning). *)
val flush_all : t -> unit

(** {1 Transactions} *)

module Txn : sig
  type handle

  val init : t -> handle

  (** Stage a block into the transaction: logging applies it to its
      shard's sub-transaction at once; paging buffers it until commit
      (last write to a block wins). *)
  val add : handle -> int -> bytes -> unit

  val block_count : handle -> int

  (** Commit: a drain of one, sealed here — see {!drain} for the steps;
      the seal word and its clear only when several shards are touched.
      Raises {!Cache.Transaction_too_large}, all-or-nothing, if any
      region rejects its share.  [cause] (default [Sync]) labels paging's
      flight records. *)
  val commit : ?cause:Tinca_obs.Flight.cause -> handle -> unit

  val abort : handle -> unit

  (** Volatilely seal the whole transaction on every shard it touches
      ({!Cache.Txn.seal}: admission, allocation and stores, a slot
      reservation, no flush, no fence) for a later {!drain}; nothing of
      it survives a crash before then.  Raises
      {!Cache.Transaction_too_large} (all-or-nothing) and
      [Invalid_argument] on an empty or non-running transaction, or on
      paging media. *)
  val seal : handle -> unit

  (** The one commit driver over a batch of sealed transactions (the
      async group commit; logging only): every touched region stages and
      fences its share (one stage-A and one slot fence per shard), then
      advances its Head once; one seal word over the union mask when the
      batch spans >= 2 shards; then per shard one batched role switch,
      one Tail persist and the members' retirement (bookkeeping,
      cleaner); the seal clears last.  A batch is atomic under crash.
      [cause] (default [Barrier]) labels the drain in the flight
      recorder. *)
  val drain : ?cause:Tinca_obs.Flight.cause -> handle list -> unit

  (** Tag every sub-handle with the facade's durable-notification
      ticket id before {!seal} (see {!Cache.Txn.set_flight_ticket}). *)
  val set_flight_ticket : handle -> int -> unit
end

(** {1 Parallel-throughput model}

    Shard work runs serially on the one simulated clock; every delta is
    attributed to its shard's {e lane}, cross-shard sync points (the
    seal, the union fences) equalize lanes, and lanes never advance the
    clock.  The {e makespan} (maximum lane) is the wall-clock a
    per-shard-threaded execution would take. *)

val makespan_ns : t -> float

val reset_lanes : t -> unit

(** {1 Stats} *)

type stats = {
  nshards : int;
  agg : Cache.stats;
      (** structural fields summed across shards; [ring_high_water] is
          the per-shard {e max} (per-ring peaks do not sum) *)
  ring_high_water_per_shard : int array;
  multi_commits : int;
  seals : int;
  roll_forwards : int;
}

(** Logging only. *)
val stats : t -> stats

(** Ordered [(key, value)] pairs in the engine's own vocabulary
    (logging: ring high water per shard and max; paging: pool, table and
    per-shard epoch rows), both with the cross-shard counters
    [multi_shard_commits], [cross_shard_seals] and [seal_roll_forwards]
    (sealed recoveries) from the same {!Tinca_sim.Metrics} counters. *)
val stats_kv : t -> (string * string) list

val write_hit_rate : t -> float

(** Per-shard flight-recorder scans from the last recovery —
    [(records, torn)], or [([], 0)] — for [Tinca_obs.Forensics.build]. *)
val flight_scans : t -> ((int * Tinca_obs.Flight.event) list * int) array

(** [(region, total write-backs, max on one line)]: one shard's rows
    verbatim, or a ["header"] row and every shard's as ["s<i>.<region>"]. *)
val region_wear : t -> (string * int * int) list

(** Per-region invariant checks plus: the seal must be clear outside a
    commit. *)
val check_invariants : t -> unit

(** {1 Fault injection (harness self-tests only)}

    [set_fault (Some `Skip_seal)] suppresses the cross-shard commit
    record, recreating the bug class the seal prevents (a crash between
    two shards' finalize steps exposes a partial multi-shard commit).
    [set_fault (Some `Drop_durable_notify)] makes {!Txn.drain}
    publish a batch but skip its seal and finalize steps while the
    facade still acknowledges durability — a crash before the next
    commit point then revokes acknowledged transactions (the lost-ack
    bug class).  The lockstep refinement harness plants these to prove
    its crash-state oracle catches real commit-path mutations.  Always
    reset to [None] (e.g. with [Fun.protect]). *)
val set_fault : [ `Skip_seal | `Drop_durable_notify ] option -> unit
