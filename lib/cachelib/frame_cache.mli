(** One region's volatile block cache (paper §4.6): write-back LRU in
    which the blocks a transaction involves are pinned.

    Both commit engines keep one per region (a logging [Cache.t], a
    paging shard) and differ only in what they do to NVM.  This module
    owns the block → frame index, the LRU, the free-frame and free-slot
    pools (a {e slot} is the persistent record naming a block: a logging
    entry, a paging table slot), pins, the dirty count, hit/miss/eviction
    counters, victim selection, the cleaner ({!clean}) and a
    structural audit.  It never touches NVM: the NVM side of an eviction
    or a cleaning is the caller's. *)

type 'a t

(** One cached block.  Fields are read directly; changes go through the
    setters below so the counts stay exact. *)
type 'a block = private {
  key : int;  (** disk block number *)
  mutable frame : int;  (** frame holding the current version *)
  mutable slot : int;  (** metadata slot, or -1 for none *)
  mutable pinned : bool;  (** never a victim while set *)
  mutable dirty : bool;
  mutable durable_at : int;
      (** simulated ns by which the current version was durable; 0 for a
          version that was durable before the cache was built *)
  mutable node : 'a block Lru.node option;
  mutable clean_node : 'a block Lru.node option;
      (** the block's place on the clean list while it is clean *)
  mutable shadow : bytes option;
      (** DRAM copy of the committed version, the data its last commit
          staged; see {!section-versions} *)
  mutable spare : int;  (** frame holding the version before it, or -1 *)
  mutable spare_mask : int64;  (** lines where [spare] differs from it *)
  mutable spare_node : 'a block Lru.node option;
      (** the block's place on the spare list while it holds a spare *)
  mutable drain_gen : int;  (** the drain that last retired a version *)
  ext : 'a;  (** engine-specific state *)
}

(** [evict b] writes a dirty victim back and retires its persistent
    metadata; it runs once per victim, before the victim is unlinked and
    its frame and slot are freed. *)
type 'a hooks = { evict : 'a block -> unit }

(** Empty cache over [frames] frames and [slots] slots.  [policy] orders
    the frame pool; [index_size] is the index's initial hash-table size,
    which fixes its iteration order ({!fold}).  Under [Fifo], whose
    point is to rotate writes through every frame, no frame is kept as
    a spare ({!retire_version}).  [metrics] (default: a private
    registry) receives the COW counters of {!plan_write} and the spare
    count. *)
val create :
  ?policy:Free_monitor.policy ->
  ?metrics:Tinca_sim.Metrics.t ->
  frames:int ->
  slots:int ->
  index_size:int ->
  unit ->
  'a t

val length : 'a t -> int
val find : 'a t -> int -> 'a block option
val mem : 'a t -> int -> bool

(** Count a read hit (and promote the block to MRU) or a read miss. *)
val lookup_read : 'a t -> int -> 'a block option

(** Promote to MRU. *)
val touch : 'a t -> 'a block -> unit

(** Insert as MRU, holding a [frame] and [slot] the caller allocated. *)
val insert :
  'a t -> key:int -> frame:int -> slot:int -> dirty:bool -> pinned:bool -> 'a -> 'a block

(** Unlink from the index and the LRU, and free the frame, the slot and
    the spare. *)
val remove : 'a t -> 'a block -> unit

val set_frame : 'a block -> int -> unit
val set_slot : 'a block -> int -> unit
val set_pinned : 'a block -> bool -> unit

(** [stamp_durable b now]: the current version became durable at [now]
    (the engine's commit point), rounded up to whole ns. *)
val stamp_durable : 'a block -> float -> unit
val set_dirty : 'a t -> 'a block -> bool -> unit
val dirty_count : 'a t -> int

(** Free supply: the free pool plus every spare, which replacement
    reclaims before it evicts a block. *)
val free_frames : 'a t -> int

val free_slots : 'a t -> int

(** Frames held as spares. *)
val spare_count : 'a t -> int

(** Pool access without eviction; [alloc_*] is [None] when empty.
    [alloc_frame] reclaims the LRU-most unpinned block's spare when the
    pool is. *)
val alloc_frame : 'a t -> int option

val alloc_slot : 'a t -> int option
val free_frame : 'a t -> int -> unit
val free_slot : 'a t -> int -> unit

(** Mark a frame or slot used (recovery rebuild); [Invalid_argument] if
    it already is. *)
val claim_frame : 'a t -> int -> unit

val claim_slot : 'a t -> int -> unit

(** The least-recently-used unpinned {e clean} block, or the
    least-recently-used unpinned dirty one when no clean block is
    unpinned: replacement takes a block it can drop for free before one
    it must write back to disk on the caller's path. *)
val victim : 'a t -> 'a block option

(** Reclaim spares, LRU-most first, then evict victims (hook, then
    {!remove}) until [frames] frames are in the free pool and [slots]
    slots are free; [false] when the victims run out first.  Frames are
    freed by reclaiming every unpinned block's spare before {!victim}
    evicts a block: a pinned block's spare is the target of its coming
    write.  Slots are freed by the same
    clean-first rule over the blocks that hold a slot; when no unpinned
    block holds one, it returns [false] without evicting more. *)
val make_room : 'a t -> 'a hooks -> frames:int -> slots:int -> bool

(** [make_room] for one frame (resp. slot), then allocate it; [None]
    when no victim is left. *)
val take_frame : 'a t -> 'a hooks -> int option

val take_slot : 'a t -> 'a hooks -> int option

(** {1:versions Shadows and spares}

    Partial COW writes for both engines.  A commit's staged block is
    already a DRAM copy; after the commit it stays on the block as its
    {e shadow}, the content of the committed version.  The next write's
    staged copy is compared with it line by line (64 B) for a changed-line
    mask, with no NVM read: a host compare, charged to nobody.  When a commit's mask is not full, the frame
    of the version it replaced stays with the block as its {e spare},
    with that mask: the next write COWs into the spare and stores only
    the lines of (spare mask ∪ new mask), every other line of the spare
    already holding the same bytes, durable since the commit that wrote
    them.  A write with no spare takes a fresh frame and stores every
    line.

    Rules the engines keep: only a frame a commit wrote (a version with
    a shadow) becomes a spare, never a read-miss fill; a rolled-back
    COW target is freed, never kept; a shadow mirrors the block's
    committed frame.  Shadows are held for the blocks of the latest
    drain and for blocks holding a spare; spares are reclaimed,
    LRU-most first, before any block is evicted, and freed with their
    block. *)

(** The every-line mask, bit i for 64 B line i: a write with no shadow
    to compare with.  Blocks of more than 64 lines keep no shadow, so
    every write to them takes a fresh frame. *)
val full : int64

(** Where one COW write goes: [target] is the spare to store into, or
    -1 for a fresh frame the engine allocates, written whole; [lines]
    the lines to store ({!full} for a fresh frame); [mask] the lines
    that differ from the committed version ({!full} when the block has
    no shadow). *)
type plan = { target : int; lines : int64; mask : int64 }

(** Plan a COW write of [data] over the block ([None]: a write miss).
    Detaches the block's spare as the target: the engine then owns that
    frame and frees it on a roll-back.  Counts [cache.cow_blocks],
    [cache.cow_lines] (lines stored) and [cache.cow_lines_skipped]. *)
val plan_write : 'a t -> 'a block option -> bytes -> plan

(** The plan's lines as maximal [(pos, len)] byte runs of a block. *)
val runs : plan -> block_size:int -> (int * int) list

(** Start retiring a drain: the previous drain's blocks that hold no
    spare drop their shadows. *)
val new_drain : 'a t -> unit

(** [retire_version t b ~prev ~mask data]: the commit that staged
    [data] with changed-line [mask] is durable, and [prev] (or -1) is
    the frame of the version it replaced.  [prev] becomes the block's
    spare when [mask] is not {!full} (and the pool is not [Fifo]), and
    is freed otherwise; [data]
    becomes the shadow; the block is promoted to MRU. *)
val retire_version : 'a t -> 'a block -> prev:int -> mask:int64 -> bytes -> unit

(** Every shadow equals its block's committed frame ([read] of
    [committed b]), every spare differs from it only inside its mask,
    and every spare holder has a shadow.  [read] should charge nobody. *)
val audit_versions :
  'a t -> read:(int -> bytes) -> committed:('a block -> int) -> (unit, string) result

(** LRU to MRU; [iter_lru_while] stops after [f] returns [false]. *)
val iter_lru : ('a block -> unit) -> 'a t -> unit

val iter_lru_while : 'a t -> ('a block -> bool) -> unit

(** {1 The cleaner}

    Both engines' background write-back (paper §4.6's write-back LRU):
    dirty blocks near the LRU end are written to disk off the caller's
    path, so that replacement finds clean victims instead of stalling
    on a synchronous disk write.  Two passes share one walk order and
    one NVM hook:

    - the {e idle} pass writes into device time that has already gone
      idle ({!Tinca_blockdev.Disk.write_idle}), delaying no access;
    - the {e pressure} pass, after a commit only (the one operation that
      dirties blocks), runs when the dirty share exceeds
      {!pressure_dirty} and the idle pass could not hold it down: a
      streaming writer leaves the disk no idle gap. *)

(** The engine side of a cleaning. *)
type 'a cleaner = {
  disk : Tinca_blockdev.Disk.t;
  dma_read : 'a block -> bytes;
      (** a cleaner write's data: the frame, read by the device (DMA) as
          part of the background transfer and charged to nobody *)
  cleaned : 'a block list -> unit;
      (** the NVM side for every block just written, in write order:
          persist their clean marks, or drop their metadata slots *)
  deferred : Tinca_sim.Metrics.counter;
      (** bumped by each pressure pass that is due but defers because
          the previous batch is still queued *)
}

(** How many unpinned LRU-most blocks one idle pass considers (64), and
    the free-frame level below which it runs at all. *)
val frontier : int

(** Dirty share of the frames (0.7) above which the pressure pass
    runs. *)
val pressure_dirty : float

(** [clean t c ~after_commit] runs the pressure pass if [after_commit],
    then the idle pass (which finds no gap once a batch has queued), and
    hands every block written to [c.cleaned] in one call.  A written block is marked clean and stays
    cached.  Returns how many blocks were written.

    The idle pass runs only when fewer than {!frontier} frames are free
    and the disk has an idle gap that fits a write
    ({!Tinca_blockdev.Disk.idle_fits}).  It walks the {!frontier}
    LRU-most unpinned blocks and writes each dirty one whose version was
    durable ([durable_at]) before the gap began — so a version reaches
    the disk only after it became durable — stopping once the gap is
    used up.  Each block it writes is followed by its dirty unpinned
    successors ([key + 1], [key + 2], ...) under the same rule while
    they fit the gap, at the sequential rate.

    The pressure pass runs when more than {!pressure_dirty} of the
    frames are dirty.  It takes the LRU-most unpinned dirty blocks, each
    with its dirty unpinned neighbours on both sides up to the first
    gap, until 3/4 of that level would remain, and writes them in
    home-block order with queued background writes
    ([Disk.write_block ~background:true]): the caller does not wait for
    them.  A pass that finds the previous batch still queued
    ({!Tinca_blockdev.Disk.background_pending}) writes nothing and
    bumps [c.deferred]; the first pass after the device drains takes
    the batch, sized from the dirty level then.  So at most one batch
    is queued and no caller's clock advances for it.  On an SSD a
    foreground access suspends them; on an HDD it queues behind them.
    Every unpinned dirty block is committed when a commit ends, so no
    durability stamp is needed. *)
val clean : 'a t -> 'a cleaner -> after_commit:bool -> int

(** In index (hash table) order. *)
val fold : ('a block -> 'b -> 'b) -> 'a t -> 'b -> 'b

val read_hits : 'a t -> int
val read_misses : 'a t -> int
val write_hits : 'a t -> int
val write_misses : 'a t -> int
val evictions : 'a t -> int
val note_write : 'a t -> hit:bool -> unit

(** Structural check: the LRU and the index hold the same blocks; the
    clean list holds the LRU's clean blocks in LRU order; every
    referenced frame and slot is in range, not free and referenced once;
    as many frames and slots are used as are referenced (spares
    included); the spare list holds the LRU's spare holders in LRU
    order; the dirty count equals a recount.  [also_holds b] is one more frame [b] references
    (a logging block's previous version), or -1. *)
val audit : ?also_holds:('a block -> int) -> 'a t -> (unit, string) result
