(** Paging commit scheme, one region: COW page remapping
    through a persistent indirection table, the ablation counterpart of
    the logging (ring) scheme.  Every write is COWed into a free page
    frame and staged by one 16 B atomic swing of its table entry under
    the region's next epoch; the commit point is one 8 B atomic swing of
    the region's epoch word.  Recovery rebuilds the volatile index from
    the table, rolling staged entries back (or, under a durable seal,
    forward).

    {!Shard} owns everything above one region: striping, the directory,
    the cross-shard seal, grouping writes by region and the order of the
    commit steps below, each of which returns the flush ranges it leaves
    unfenced for Shard to fence as one union. *)

type region

type config = {
  block_size : int;  (** page size; positive multiple of 64 *)
  flight_slots : int;  (** 64 B flight records per shard; 0 disables *)
  headroom : int;
      (** free frames admission keeps in reserve beyond a transaction's
          own need; >= 0 *)
}

val default_config : config

(** The region superblock's magic (byte 0 of one-shard media). *)
val super_magic : int64

(** Would a [span]-byte region host a paging layout ({!create}'s check)? *)
val check_geometry : span:int -> block_size:int -> flight_slots:int -> (unit, string) result

(** Lay out region [id] over [[base, base + span)] without touching
    media.  Raises [Invalid_argument] on bad geometry. *)
val create :
  id:int ->
  base:int ->
  span:int ->
  config:config ->
  pmem:Tinca_pmem.Pmem.t ->
  disk:Tinca_blockdev.Disk.t ->
  clock:Tinca_sim.Clock.t ->
  metrics:Tinca_sim.Metrics.t ->
  region

(** Store the superblock, a zero epoch and a zeroed table and flight
    ring; returns the ranges to fence. *)
val format : region -> (int * int) list

(** The superblock at [base]: [(block_size, nframes, flight_slots)].
    Raises [Cache.Corrupt] when the magic is missing. *)
val read_super : Tinca_pmem.Pmem.t -> base:int -> int * int * int

(** Re-attach region [id] from its superblock without writing anything;
    [expect] is the [(block_size, flight_slots)] every region must agree
    on.  Raises [Cache.Corrupt] on any geometry word no format could
    have written. *)
val attach :
  id:int ->
  base:int ->
  span:int ->
  ?expect:int * int ->
  pmem:Tinca_pmem.Pmem.t ->
  disk:Tinca_blockdev.Disk.t ->
  clock:Tinca_sim.Clock.t ->
  metrics:Tinca_sim.Metrics.t ->
  unit ->
  region

(** Validate the table against itself (frame and block bounds, [owns]
    for the striping, duplicate mappings, epoch sanity — a torn swing is
    detected, not trusted; raises [Cache.Corrupt]), resolve the staged
    generation (forward iff [roll_forward]) and rebuild the volatile
    index.  Fences its own rewrites. *)
val recover : region -> owns:(int -> bool) -> roll_forward:bool -> unit

val block_size : region -> int

val read : region -> int -> bytes
val peek : region -> int -> bytes option

val contains : region -> int -> bool

(** Write every dirty page back to disk and durably drop its entry. *)
val flush_all : region -> unit

(** {1 The region contract}

    As {!Shard} drives it.  The seal: {!pin} every written block's
    existing version, {!admit} each region's share, {!stage} every write
    in first-write order (or {!unstage} them all).  Then Shard fences
    every region's {!drain} as one union, swings every {!commit_point}
    and fences those as one union, and calls {!retire}. *)

(** One COWed write of the in-flight commit. *)
type staged

val pin : region -> int -> bool -> unit

(** Room for one frame per block and a slot per block without one;
    [false] if the pool cannot make it. *)
val admit : region -> int list -> bool

(** COW the block into a free frame and swing its entry under epoch
    E+1.  Raises [Cache.Transaction_too_large] holding nothing. *)
val stage : region -> int -> bytes -> staged

(** Roll one staged write back; returns the rewritten entry ranges. *)
val unstage : region -> staged -> (int * int) list

(** The region's share of the stage fence: every COWed page and staged
    entry plus the [Batch_drain] flight record. *)
val drain : region -> cause:Tinca_obs.Flight.cause -> staged list -> (int * int) list

(** Swing the epoch word to E+1 (the commit point); returns its range
    and the [Tail_persist] flight record's. *)
val commit_point : region -> cause:Tinca_obs.Flight.cause -> (int * int) list

(** Once the commit point is durable: fold the staged writes into the
    volatile index, stamped [now], and run the cleaner. *)
val retire : region -> now:float -> staged list -> unit

(** {1 Introspection} *)

(** Summable stats rows: pool frames (free), table and epoch swings,
    dirty and clean cached blocks, read and write hits and misses. *)
val counts : region -> (string * int) list

(** The volatile epoch. *)
val epoch : region -> int

(** (name, wear_sum, wear_max): super / epoch / flight / table / pool. *)
val region_wear : region -> (string * int * int) list

(** DRAM/NVM cross-checks; raises [Cache.Invariant_violation]. *)
val check_invariants : region -> unit

(** psan's region classifier input: absolute offsets of one region's
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

val layout : region -> region_layout

(** The flight-recorder scan from the last {!recover}, or [([], 0)]. *)
val flight_scan : region -> (int * Tinca_obs.Flight.event) list * int

(** Test-only: [`Torn_swing] splits the 16 B table swing into two 8 B
    halves with the first made durable alone — the planted bug class the
    crash checker and psan must detect.  Global; reset to [None]. *)
val set_fault : [ `Torn_swing ] option -> unit
