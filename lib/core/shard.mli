(** Sharded Tinca: N independent caches on one NVM device, with a
    striped commit scheduler (ISSUE 5 tentpole).

    The device is partitioned as

    {v
    [ shard dir | seal | shard 0 (full Cache layout) | shard 1 | ... ]
        64 B      64 B
    v}

    Each shard is a complete {!Cache} — its own superblock, Head/Tail,
    ring, entry table, data region, free monitors and LRU — confined to
    its span via {!Cache.format_region}.  Disk block numbers are striped
    across shards by a stable Fibonacci hash, so independent
    transactions on different shards pay no shared-ring serialization.

    A transaction touching several shards commits through a two-phase
    publish: every shard stages its sub-commit (nothing in any ring
    range), then every shard advances its Head, then one atomic
    {e cross-shard commit record} (the "seal") is persisted, then each
    shard finalizes and the seal retires.  Recovery is all-or-nothing
    across shards: a durable seal rolls the transaction {e forward}
    (completing role switches and Tail advances idempotently); an absent
    seal rolls every shard {e back} via the normal per-shard revocation.
    In particular, a crash between per-shard Head advances never exposes
    a partially committed multi-shard transaction.

    With one shard the scheduler degenerates to the plain {!Cache}
    commit (no seal, no extra fences), so N=1 reproduces the single-ring
    numbers exactly. *)

type t

(** Maximum supported shard count (the seal packs a shard mask above a
    32-bit epoch in one 63-bit atomic word). *)
val max_shards : int

(** [format ~nshards ~config ~pmem ~disk ~clock ~metrics] partitions the
    device and formats every shard.  [config] applies per shard (each
    shard gets its own ring of [config.ring_slots] slots).  With
    [nshards = 1] no shard header is written: the media is the plain
    unsharded {!Cache.format} layout, byte for byte, so a one-shard
    cache is indistinguishable from (and numerically identical to) the
    pre-sharding cache.  Raises [Invalid_argument] if [nshards] is
    outside [1, max_shards] or the device is too small. *)
val format :
  nshards:int ->
  config:Cache.config ->
  pmem:Tinca_pmem.Pmem.t ->
  disk:Tinca_blockdev.Disk.t ->
  clock:Tinca_sim.Clock.t ->
  metrics:Tinca_sim.Metrics.t ->
  t

(** Re-attach after a crash.  Media carrying the shard directory magic:
    applies the cross-shard decision (seal durable => roll the sealed
    transaction forward on every shard in its mask; else => nothing),
    then runs the normal per-shard {!Cache.recover_region}.  Media
    without the magic (a one-shard format, or any pre-sharding device)
    recovers as a single plain {!Cache.recover}.  Raises [Failure] on
    unformatted media.

    [flight_replay] is forwarded to each shard's {!Cache.recover_region}
    (default [true]); the roll-forward pass additionally appends
    raw-media [Recovery_decision] flight records for every entry it
    replays, riding its existing role-switch fence. *)
val recover :
  ?flight_replay:bool ->
  pmem:Tinca_pmem.Pmem.t ->
  disk:Tinca_blockdev.Disk.t ->
  clock:Tinca_sim.Clock.t ->
  metrics:Tinca_sim.Metrics.t ->
  unit ->
  t

val nshards : t -> int

(** The shard a disk block number is striped to: stable, total,
    balanced. *)
val shard_of : t -> int -> int

(** [stripe ~nshards blkno] — the pure striping function behind
    {!shard_of}, exposed for the property tests. *)
val stripe : nshards:int -> int -> int

(** Direct access to shard [i]'s cache (tests, per-shard stats). *)
val cache : t -> int -> Cache.t

val caches : t -> Cache.t array

(** {1 Block I/O} *)

val read : t -> int -> bytes
val write_direct : t -> int -> bytes -> unit
val contains : t -> int -> bool
val peek : t -> int -> bytes option

(** {1 Transactions} *)

module Txn : sig
  type handle

  val init : t -> handle

  (** Stage a block into its shard's sub-transaction. *)
  val add : handle -> int -> bytes -> unit

  val block_count : handle -> int

  (** Number of distinct shards this transaction touches. *)
  val shard_count : handle -> int

  (** Commit: single-shard transactions take the plain {!Cache.Txn.commit}
      fast path; multi-shard ones run the two-phase publish with the
      cross-shard seal.  Raises {!Cache.Transaction_too_large} if any
      shard rejects its sub-commit — already-staged shards are revoked,
      so the failure is all-or-nothing too. *)
  val commit : handle -> unit

  val abort : handle -> unit

  (** Volatilely seal the whole transaction on every shard it touches
      ({!Cache.Txn.seal} per sub-commit: admission, COW stores, entry
      swings, slot staging — no flush, no fence).  A sealed transaction
      waits for {!commit_group} to make it durable; nothing of it can
      survive a crash before then.  Raises {!Cache.Transaction_too_large}
      if any shard rejects its sub-commit (already-sealed shards are
      unwound, so the failure is all-or-nothing) and [Invalid_argument]
      on an empty or non-running transaction. *)
  val seal : handle -> unit

  (** Tag every sub-handle with the facade's durable-notification
      ticket id before {!seal} (see {!Cache.Txn.set_flight_ticket}). *)
  val set_flight_ticket : handle -> int -> unit
end

(** [commit_group s handles] — one durability sequence for a whole batch
    of sealed transactions (the async group commit, ISSUE 8): per
    touched shard, ONE stage-A flush+fence and ONE slot flush+fence over
    all member sub-commits followed by a single Head advance; when the
    batch spans >= 2 shards, one cross-shard seal over the union mask
    (all-or-nothing across the {e whole batch} at crash); then per shard
    one batched role switch and one Tail persist.  [handles] must all be
    sealed and belong to [s]; they are finished on return.  A batch is
    atomic under crash: recovery yields either none of its transactions
    or all of them.

    [cause] (default [Barrier]) labels the drain in each touched shard's
    flight recorder; it does not affect the commit protocol. *)
val commit_group : ?cause:Tinca_obs.Flight.cause -> t -> Txn.handle list -> unit

(** {1 Parallel-throughput model}

    Shard work executes serially on the one simulated clock; every delta
    is attributed to the owning shard's {e lane}, and cross-shard sync
    points (the phases of a multi-shard commit) equalize lanes.  The
    {e makespan} — the maximum lane — is the wall-clock a per-shard-
    threaded execution would take; with N=1 it equals the serial clock
    time spent in shard operations. *)

val makespan_ns : t -> float

val lane_ns : t -> float array

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

val stats : t -> stats

(** Ordered [(key, value)] pairs for {!Tinca_obs.Procfs}: the aggregate
    surface with [ring_high_water_max] plus one [ring_high_water_shard<i>]
    per shard, and the cross-shard commit counters. *)
val stats_kv : stats -> (string * string) list

(** {1 Flight recorder / forensics}

    See {!Cache.flight_note} and {!Tinca_obs.Forensics}. *)

(** Per-shard survivor scans from the last recovery — [(records, torn)]
    per shard, shaped for [Tinca_obs.Forensics.build].  Shards without a
    ring (or attached by [format]) contribute [([], 0)]. *)
val flight_scans : t -> ((int * Tinca_obs.Flight.event) list * int) array

(** Region-attributed NVM wear: [(region, total write-backs, max on one
    line)].  One shard: {!Cache.region_wear} verbatim.  Sharded media:
    a ["header"] row (shard directory + seal lines) followed by every
    shard's regions as ["s<i>.<region>"]. *)
val region_wear : t -> (string * int * int) list

(** The same shape from one row list per shard (the paging engine's
    regions included): the single list verbatim, or the header row then
    every shard's rows prefixed ["s<i>."]. *)
val sharded_wear : Tinca_pmem.Pmem.t -> (string * int * int) list list -> (string * int * int) list

(** Per-shard {!Cache.check_invariants} plus: the seal must be clear
    outside a commit. *)
val check_invariants : t -> unit

(** {1 Fault injection (harness self-tests only)}

    [set_fault (Some `Skip_seal)] suppresses the cross-shard commit
    record, recreating the bug class the seal prevents (a crash between
    two shards' finalize steps exposes a partial multi-shard commit).
    [set_fault (Some `Drop_durable_notify)] makes {!commit_group}
    publish a batch but skip its seal and finalize steps while the
    facade still acknowledges durability — a crash before the next
    commit point then revokes acknowledged transactions (the lost-ack
    bug class).  The lockstep refinement harness plants these to prove
    its crash-state oracle catches real commit-path mutations.  Always
    reset to [None] (e.g. with [Fun.protect]). *)
val set_fault : [ `Skip_seal | `Drop_durable_notify ] option -> unit
