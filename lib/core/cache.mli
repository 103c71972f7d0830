(** Tinca: the transactional NVM disk cache (paper §4).

    A write-back (default) or write-through cache interposed between a
    file system and a {!Tinca_blockdev.Disk}, storing cached blocks in a
    {!Tinca_pmem.Pmem} and exporting the paper's transactional
    primitives: {!Txn.init} ([tinca_init_txn]), {!Txn.commit}
    ([tinca_commit]) and {!Txn.abort} ([tinca_abort]).

    Consistency guarantees (verified by the crash-injection test suite):
    after a crash at any point and any subset of unflushed cache lines
    surviving, {!recover} restores the cache to exactly the state as of
    the last completed commit — committed transactions are atomic and
    durable, in-flight ones roll back completely.

    Two deliberate refinements of the paper's §4.4/§4.5 prose, recorded
    here because the test suite depends on them:
    - all role-switch flushes are fenced {e before} the Tail update, so a
      crash can never leave Tail advanced while role switches were lost
      (which would make recovery keep half a transaction);
    - recovery revokes the {e union} of blocks named in the ring range
      [Tail, Head) and blocks whose entry still carries the log role — a
      ring-only scan would miss a block whose entry was persisted before
      its ring slot (paper step 1 precedes step 2). *)

type t

type mode = Write_back | Write_through

(** Shape of the commit protocol's persistence traffic (same ordering
    guarantees and crash semantics either way; see {!Txn.commit}).

    [Batched] (default) is the staged group commit: all COW data blocks
    and swung entries flushed under a single fence, all ring slots under
    one more, then one Head persist — a constant number of fences per
    commit however many blocks it carries.  [Per_block] is the paper's
    literal per-block protocol (~4 fences per block), kept as the
    baseline of the [fig_commit_batch] ablation. *)
type pipeline = Per_block | Batched

type config = {
  block_size : int;   (** default 4096 *)
  ring_slots : int;   (** default 131072 = 1 MB of 8 B slots *)
  mode : mode;
  alloc_policy : Tinca_cachelib.Free_monitor.policy;
      (** NVM data-block allocation order.  [Lifo] (default) reuses the
          most recently freed block; [Fifo] rotates through the whole
          region, spreading write wear evenly — a wear-leveling extension
          for endurance-limited NVM (the paper's §1 PCM concern). *)
  commit_pipeline : pipeline;
      (** How {!Txn.commit} shapes its flushes and fences; default
          [Batched]. *)
  flight_slots : int;
      (** NVM flight-recorder ring capacity in 64 B records; 0 (default)
          disables the recorder and reproduces the historical layout
          byte for byte.  See {!flight_note}. *)
}

val default_config : config

exception Transaction_too_large

(** Raised by the commit path's replacement when every cached block is
    pinned by the in-flight transaction, i.e. there is no eviction
    victim.  Inside {!Txn.commit} this is mapped to
    {!Transaction_too_large} after the partial commit has been rolled
    back; a read miss never raises it (see {!read}). *)
exception Cache_exhausted

(** Recovery rejected the media: unformatted NVM, corrupt superblock
    geometry, ring pointers out of bounds ([Ring.Corrupt] is this
    exception), or an entry table that contradicts itself.  Typed (not a
    bare [Failure]) so callers can distinguish "the medium is bad" from
    an arbitrary internal error; the [Tinca] facade maps it to
    [Tinca.Unformatted]. *)
exception Corrupt of string

(** An internal-invariant audit failed ({!check_invariants}, or a
    bookkeeping structure caught mid-corruption): always a programming
    error, never an API or media error.  Typed (not a bare [Failure])
    so the lockstep sweep and the crash checker key on the audit
    outcome rather than on exception payloads. *)
exception Invariant_violation of string

(** [format ~config ~pmem ~disk ~clock ~metrics] initializes the NVM
    layout (superblock, zeroed pointers and entry table) and returns an
    empty cache. *)
val format :
  config:config ->
  pmem:Tinca_pmem.Pmem.t ->
  disk:Tinca_blockdev.Disk.t ->
  clock:Tinca_sim.Clock.t ->
  metrics:Tinca_sim.Metrics.t ->
  t

(** [format_region ~base ~mem_bytes ...] is {!format} confined to the
    device region [\[base, mem_bytes)] — how {!Shard} packs one cache
    (superblock included) per shard onto a single pmem. *)
val format_region :
  base:int ->
  mem_bytes:int ->
  config:config ->
  pmem:Tinca_pmem.Pmem.t ->
  disk:Tinca_blockdev.Disk.t ->
  clock:Tinca_sim.Clock.t ->
  metrics:Tinca_sim.Metrics.t ->
  t

(** [recover ~pmem ~disk ~clock ~metrics ()] re-attaches after a crash:
    validates the superblock, scans the entry table to rebuild the DRAM
    index / LRU / free monitor, and revokes every block of the in-flight
    transaction (paper §4.5).  Raises {!Corrupt} on unformatted media.

    When the media carries a flight ring, its surviving records are
    scanned {e before} any recovery write (see {!flight_scan_result})
    and recovery appends its own [Recovery_start] / [Recovery_decision]
    records, riding the fences recovery already pays.
    [~flight_replay:false] suppresses the scan result and the
    recovery-time records (the recorder keeps its write cursor): the
    recovered {e cache} state must be bit-identical either way — pinned
    by the flight crash sweep. *)
val recover :
  ?flight_replay:bool ->
  pmem:Tinca_pmem.Pmem.t ->
  disk:Tinca_blockdev.Disk.t ->
  clock:Tinca_sim.Clock.t ->
  metrics:Tinca_sim.Metrics.t ->
  unit ->
  t

(** [recover_region ~base ~mem_bytes ... ()] is {!recover} for the cache
    occupying the device region [\[base, mem_bytes)]. *)
val recover_region :
  ?flight_replay:bool ->
  base:int ->
  mem_bytes:int ->
  pmem:Tinca_pmem.Pmem.t ->
  disk:Tinca_blockdev.Disk.t ->
  clock:Tinca_sim.Clock.t ->
  metrics:Tinca_sim.Metrics.t ->
  unit ->
  t

val layout : t -> Layout.t
val config : t -> config

(** Read and validate the superblock of the cache occupying
    [\[base, mem_bytes)] without attaching to it; raises [Failure] on
    unformatted or corrupt media.  Used by {!Shard} recovery (to locate
    ring and entries for the cross-shard roll-forward before any cache
    is attached) and by the sanitizer's layout discovery. *)
val read_layout : base:int -> mem_bytes:int -> Tinca_pmem.Pmem.t -> Layout.t

(** {1 Block I/O} *)

(** [read t blkno] returns the newest version of the block, from NVM on a
    hit or from disk (filling the cache) on a miss.  When every cached
    block is pinned there is no victim: the miss is served from disk and
    the block stays uncached.  The cleaner's idle pass runs first. *)
val read : t -> int -> bytes

(** [write_direct t blkno data] — single-block atomic write outside any
    caller transaction (implemented as a one-block commit). *)
val write_direct : t -> int -> bytes -> unit

(** {1 Transactions} *)

module Txn : sig
  type handle

  (** [tinca_init_txn]: start a running transaction (DRAM-resident). *)
  val init : t -> handle

  (** Stage a block; staging the same block twice keeps the newest data. *)
  val add : handle -> int -> bytes -> unit

  val block_count : handle -> int

  (** [tinca_commit]: run the commit protocol of §4.4.  On return the
      transaction is durable in NVM.  Raises {!Transaction_too_large} if
      the ring, the NVM data region or the entry table cannot host it —
      either up front (admission control; nothing is written) or, should
      replacement still exhaust mid-commit, after the partial commit has
      been revoked (with the [Batched] pipeline the failure is confined
      to the volatile allocation pass, so nothing was ever written).
      Either way the handle is finished and the cache is exactly as
      before the call.

      With the default [Batched] pipeline the protocol runs as a staged
      group commit with a constant fence count (≤ 6 for any transaction
      size, vs ~4n+2 per-block): (A) all COW data blocks written
      (vectored) and all entries swung atomically, every dirtied line
      flushed once, one fence; (B) all ring slots stored and fenced, then
      Head advanced once with a single persist — entries and slots are
      durable strictly before Head covers them; (C) batched role switch,
      fenced before (D) the Tail persist.  Crash atomicity is unchanged:
      before the Head advance a crash leaves the ring quiescent and
      recovery revokes whatever subset of entries became durable via the
      log-role scan; after it, the ring range covers the whole batch. *)
  val commit : handle -> unit

  (** [tinca_abort]: drop a running transaction, or revoke a partially
      committed one ({!commit_prefix}) to its pre-transaction state. *)
  val abort : handle -> unit

  (** {2 The region contract}

      [commit h] ≡ [seal ~sync:true h; drain [h]; advance_head [h];
      commit_point [h]; retire ~now [h]].  {!Shard} runs the same steps
      for one transaction or a group-commit batch of many, on one shard
      or many, putting the cross-shard seal word between {!advance_head}
      and {!commit_point}.  A batch is atomic under crash: before its
      Head persist every member rolls back (recovery's log-role entry
      scan), after it the ring range names the whole batch.  A drain
      covers one cache's members, in seal order; the [Batched] fence
      bill is ~5 per {e drain}, however many transactions it holds. *)

  (** Tag the handle with the facade's durable-notification ticket id
      before {!seal}, so the flight recorder's [Txn_seal] record (and
      post-crash dossiers) can name the acked ticket.  Purely advisory;
      -1 (the initial value) means "no ticket". *)
  val set_flight_ticket : handle -> int -> unit

  (** Admission control, the allocation pass and the COW data and entry
      stores, with no flush and no fence; the ring slots are only
      reserved.  Reads see the new versions at once (the DRAM index
      points at them), but a crash before the drain's Head persist rolls
      the transaction back.  [~sync:true] (a synchronous commit) opens
      the drain instead — its [Batch_drain] flight record is stored
      before allocation — and leaves the stores to {!drain}'s stage A.
      Under [Per_block] a seal only admits.  Raises
      {!Transaction_too_large} exactly as {!commit} does (handle
      finished, cache untouched, peer sealed transactions undisturbed);
      [Invalid_argument] on an empty or non-running transaction. *)
  val seal : ?sync:bool -> handle -> unit

  (** Drop a sealed, undrained transaction: return its allocations,
      revoke its stored blocks and release its slot reservation. *)
  val unseal : handle -> unit

  (** Stage A (every member's stores, flushed once with pending flight
      records, one fence) and stage B (every member's ring slots stored
      from Head on, one fence) for sealed handles of one cache, in seal
      order; [Per_block] runs the per-block protocol per member instead.
      [cause] (default [Barrier]) labels the drain's [Batch_drain]
      record; a synchronous seal already stored it.  Raises
      {!Transaction_too_large} only under [Per_block], with the failing
      member revoked and finished. *)
  val drain : ?cause:Tinca_obs.Flight.cause -> handle list -> unit

  (** One Head persist covering every drained slot ([Per_block]: Head
      has already moved). *)
  val advance_head : handle list -> unit

  (** One batched role switch, fenced, then Tail := Head: the durable
      commit point of every member. *)
  val commit_point : handle list -> unit

  (** Previous-version reclamation, durability stamps ([now]) and LRU
      promotion, commit counters, write-through propagation when
      configured, then the cleaner ([Frame_cache.clean]). *)
  val retire : now:float -> handle list -> unit

  (** {2 Failure injection (tests and the crash-space checker)} *)

  (** [commit_prefix h k] runs the commit protocol (§4.4 steps 1–3) for
      the first [k] staged blocks and then stops, exactly as an injected
      mid-commit failure would, leaving the handle committing and the
      ring non-quiescent (with [k] published slots; under the [Batched]
      pipeline the prefix runs stages A–B for those [k] blocks).  Follow
      with {!abort} to exercise the production revocation path
      deterministically.  Test-only: a handle driven this way must not
      be [commit]ted. *)
  val commit_prefix : handle -> int -> unit
end

(** {1 Maintenance} *)

(** Write every dirty buffer block back to disk (blocks stay cached and
    are marked clean persistently).  Not needed for durability — commits
    are durable in NVM — only for decommissioning the cache. *)
val flush_all : t -> unit

(** Number of blocks currently cached. *)
val cached_blocks : t -> int

(** Number of vacant NVM data blocks. *)
val free_blocks : t -> int

(** [contains t blkno] *)
val contains : t -> int -> bool

(** Write hit rate so far (paper Fig 12c). *)
val write_hit_rate : t -> float


(** Peak number of NVM blocks simultaneously pinned by COW previous
    versions (paper §5.4.3 spatial overhead). *)
val peak_cow_blocks : t -> int

(** {1 Stats surface}

    One coherent [/proc/tinca]-style snapshot of the cache's health:
    occupancy, dirty/pinned state, hit ratios, commit/abort/recovery
    totals, ring occupancy high-water mark and NVM wear.  Cheap (no
    media scan) and side-effect free. *)

type stats = {
  capacity_blocks : int;
  cached : int;
  free_data : int;
  free_entries : int;
  dirty : int;
  dirty_ratio : float;  (** dirty / capacity *)
  pinned : int;  (** entries in log role (in-flight transaction) *)
  cow_pinned : int;  (** NVM blocks held as COW previous versions *)
  peak_cow : int;
  spares : int;  (** frames held as spares ({!Tinca_cachelib.Frame_cache}) *)
  read_hits : int;
  read_misses : int;
  read_hit_ratio : float;
  write_hits : int;
  write_misses : int;
  write_hit_ratio : float;
  commits : int;
  aborts : int;
  revoked : int;
  recoveries : int;
  ring_slots : int;
  ring_in_flight : int;
  ring_high_water : int;  (** peak ring occupancy since attach *)
  wear_max : int;  (** max per-line NVM write-backs *)
  wear_mean : float;
}

val stats : t -> stats

(** One snapshot over several caches on one device (the shards of a
    {!Shard.t}): structural fields and counters summed, metric-derived
    totals and wear as for any one of them, [ring_high_water] the
    maximum.  [stats t = stats_of [|t|]]. *)
val stats_of : t array -> stats

(** Render as ordered [(key, value)] strings, ready for
    {!Tinca_obs.Procfs.render}. *)
val stats_kv : stats -> (string * string) list

(** Per-line NVM wear attributed to Layout regions, in layout order:
    [(region, total write-backs, max write-backs on one line)].  Regions
    are [super]/[head]/[tail]/[ring]/[flight]/[entries]/[data]; a
    zero-byte region (e.g. [flight] with the recorder off) reports
    [(name, 0, 0)]. *)
val region_wear : t -> (string * int * int) list

(** {1 Flight recorder (ISSUE 9)}

    When [config.flight_slots > 0], the cache keeps a crash-surviving
    event ring in its NVM region (between the commit ring and the entry
    table): fixed 64 B records, overwrite-oldest, each self-delimited by
    a sequence word and CRC-32 so a torn tail record is detected rather
    than trusted.  Records are {e volatile} stores whose cache lines are
    flushed together with (or immediately before) fences the commit
    protocol already pays — the recorder never adds an sfence, pinned by
    [test_budget] with the recorder enabled. *)

(** Label this cache's records with a shard index ({!Shard} sets it at
    construction; defaults to 0). *)
val set_flight_shard : t -> int -> unit

(** Append one record (no-op when the recorder is off).  The commit and
    recovery paths call this at protocol milestones; tests may inject
    extra records.  The record's line is flushed at the next protocol
    fence, not here. *)
val flight_note :
  t ->
  ?batch:int ->
  ?cause:Tinca_obs.Flight.cause ->
  ?a:int ->
  ?b:int ->
  ?c:int ->
  ?d:int ->
  Tinca_obs.Flight.kind ->
  unit

(** The survivor scan {!recover} performed before its first write:
    [(records sorted by sequence, torn count)].  [None] before any
    recovery, or when the ring is absent or [~flight_replay:false]. *)
val flight_scan_result : t -> ((int * Tinca_obs.Flight.event) list * int) option

(** {1 Introspection for tests} *)

(** Newest cached data for [blkno], if cached. *)
val peek : t -> int -> bytes option

(** Full consistency audit of DRAM structures vs NVM media; raises
    {!Invariant_violation} with a description on any violation.  Used by
    tests after every recovery. *)
val check_invariants : t -> unit
