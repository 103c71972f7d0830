(** Paging commit scheme (ISSUE 10): COW page remapping through a
    persistent indirection table, the ablation counterpart of the
    logging (ring) scheme.

    Every transactional write is COWed into a free NVM page frame and
    staged by one 16 B atomic swing of the page's indirection-table
    entry under the shard's next epoch; the commit point is a single
    8 B atomic swing of the shard's persistent epoch word.  No ring, no
    role switch: 2 sfences per single-shard commit of any size.
    Multi-shard commits are sealed by the same [mask<<32|epoch] seal
    word the striped logging scheduler uses.  Recovery rebuilds the
    volatile index from the table, rolling staged entries back (or, when
    a durable seal directs it, forward).

    Per-shard media layout:
    [superblock | epoch word | flight ring | indirection table | page pool].
    The table only holds dirty pages; clean cached blocks are volatile
    only. *)

type t

type config = {
  block_size : int;  (** page size; positive multiple of 64 *)
  flight_slots : int;  (** 64 B flight records per shard; 0 disables *)
  headroom : int;
      (** free frames admission keeps in reserve beyond a transaction's
          own need; >= 0 *)
}

val default_config : config

(** Media magics: the single-shard superblock and the multi-shard
    directory, distinct from the logging scheme's so recovery can
    discriminate the scheme from byte 0. *)
val super_magic : int64

val dir_magic : int64

exception Corrupt of string
exception Transaction_too_large
exception Invariant_violation of string

(** Would this device host a paging format?  The validation
    {!format} performs, without touching media (for [Config.validate]). *)
val check_geometry :
  nshards:int -> pmem_bytes:int -> block_size:int -> flight_slots:int -> (unit, string) result

(** [format ~nshards ~config ~pmem ~disk ~clock ~metrics] initializes
    the whole device for paging: directory header (when [nshards > 1]),
    per-shard superblock, zero epoch, durably zeroed table and flight
    ring.  Raises [Invalid_argument] on bad geometry. *)
val format :
  nshards:int ->
  config:config ->
  pmem:Tinca_pmem.Pmem.t ->
  disk:Tinca_blockdev.Disk.t ->
  clock:Tinca_sim.Clock.t ->
  metrics:Tinca_sim.Metrics.t ->
  t

(** [recover ~pmem ~disk ~clock ~metrics ()] discriminates the media by
    magic, validates the indirection table against itself (frame bounds,
    duplicate mappings, epoch sanity — a torn swing is detected, not
    trusted; raises [Corrupt]), resolves the staged generation and
    rebuilds the volatile index. *)
val recover :
  pmem:Tinca_pmem.Pmem.t ->
  disk:Tinca_blockdev.Disk.t ->
  clock:Tinca_sim.Clock.t ->
  metrics:Tinca_sim.Metrics.t ->
  unit ->
  t

val nshards : t -> int
val block_size : t -> int

(** Same pure striping function as the logging scheduler. *)
val stripe : nshards:int -> int -> int

module Txn : sig
  type handle

  val init : t -> handle

  (** Buffer one whole-block write (volatile until commit).  Last write
      to a block wins. *)
  val add : handle -> int -> bytes -> unit

  val block_count : handle -> int
  val shard_count : handle -> int

  (** Publish the write-set: COW pages + entry swings, one stage fence,
      then the epoch swing(s).  Raises [Transaction_too_large] (after
      full rollback) when the pool cannot host the transaction. *)
  val commit : ?cause:Tinca_obs.Flight.cause -> handle -> unit

  val abort : handle -> unit
end

val read : t -> int -> bytes
val write_direct : t -> int -> bytes -> unit

(** Post-recovery / test probe: the cached content of a block, if cached. *)
val peek : t -> int -> bytes option

val contains : t -> int -> bool

(** Write every dirty page back to disk and durably drop its entry. *)
val flush_all : t -> unit

val stats_kv : t -> (string * string) list
val write_hit_rate : t -> float

(** Per-region (name, wear_sum, wear_max) rows: super / epoch / flight /
    table / pool, prefixed [s<i>.] on sharded media. *)
val region_wear : t -> (string * int * int) list

(** DRAM/NVM cross-checks; raises [Invariant_violation]. *)
val check_invariants : t -> unit

(** psan's region classifier input: absolute offsets of one shard's
    epoch line, flight ring, indirection table and page pool. *)
type region_layout = {
  r_base : int;
  r_epoch_off : int;
  r_flight_off : int;
  r_flight_bytes : int;
  r_table_off : int;
  r_table_bytes : int;
  r_pool_off : int;
  r_pool_bytes : int;
  r_total : int;
}

val region_layouts : t -> region_layout list

(** Post-crash flight-recorder scans per shard (records, torn count),
    shaped for {!Tinca_obs.Forensics.build}. *)
val flight_scans : t -> ((int * Tinca_obs.Flight.event) list * int) array

(** Test-only: [`Torn_swing] splits the 16 B table swing into two 8 B
    halves with the first made durable alone — the planted bug class the
    crash checker and psan must detect.  Global; reset to [None]. *)
val set_fault : [ `Torn_swing ] option -> unit
