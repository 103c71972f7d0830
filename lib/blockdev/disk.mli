(** Latency-modelled disk (the cache's backing store).

    Two media are modelled, matching the paper's testbed (§5.1, §5.4.1):
    a SATA SSD (fixed per-4 KB cost) and a 7200 rpm HDD (distance-scaled
    seek + rotation + transfer, with sequential-access detection).  The
    backing store is sparse so multi-GB simulated datasets cost only the
    blocks actually written.

    Counters: ["disk.reads"], ["disk.writes"], ["disk.seq_writes"]; per
    cleaner pass, ["disk.bg_writes"] and ["disk.bg_seq_writes"] (queued
    background writes, and those at the sequential rate),
    ["disk.idle_writes"] and ["disk.idle_seq_writes"] (the same for
    {!write_idle}).  Histogram: ["disk.bg_backlog_ns"], the queued
    device time left behind each background write when it is issued. *)

type t

val create :
  clock:Tinca_sim.Clock.t ->
  metrics:Tinca_sim.Metrics.t ->
  kind:Tinca_sim.Latency.disk_kind ->
  nblocks:int ->
  block_size:int ->
  t

val kind : t -> Tinca_sim.Latency.disk_kind
val block_size : t -> int
val nblocks : t -> int

(** [read_block t blkno] — blocks never written read as zeros. *)
val read_block : t -> int -> bytes

(** [write_block ?background t blkno data].  Every access occupies the
    device for its modelled duration, and background writes queue
    behind all earlier accesses.  Foreground accesses (the default)
    block the caller until they complete.  On an HDD the queue is FIFO:
    a foreground access also waits for the queued work ahead of it.  On
    an SSD a foreground access suspends queued background writes (NAND
    program suspend, as for {!write_idle}): it completes as on an idle
    device, and the queued work completes later by exactly its service
    time.  [~background:true] models an asynchronous cleaner thread: the
    write consumes device time without advancing the caller's clock.
    {!read_block} is foreground and follows the same rule. *)
val write_block : ?background:bool -> t -> int -> bytes -> unit

(** [background_pending t]: queued work has not completed by now.  A
    pure query: it advances no clock.  A cleaner that finds work still
    queued defers its batch to a later call, so at most one batch is
    queued and background work cannot pile up unseen, yet no caller
    waits for it. *)
val background_pending : t -> bool

(** [write_idle t ~not_before blkno data] places a write of [blkno] at
    the start of the device's current idle gap — when its last access
    completed — if the data existed by then ([not_before], simulated ns)
    and the whole write ends by now.  Returns whether it was written;
    [data ()] is called only then.  It never advances the clock or
    delays a later access: the model is that foreground I/O pre-empts
    background write-back, as NAND program suspend lets reads do (Wu &
    He, FAST '12), and it uses only gaps a whole write fits.  It moves
    the head like any write, so idle writes to consecutive blocks
    transfer at the sequential rate, and so may a following access.
    An HDD cannot suspend a seek, so on an HDD it always returns
    [false]. *)
val write_idle : t -> not_before:float -> int -> (unit -> bytes) -> bool

(** Whether {!write_idle} can succeed now: the device is an SSD and has
    been idle, since its last access completed, for at least one random
    block write (an SSD's dearest write; it has no positioning cost). *)
val idle_fits : t -> bool

(** Number of distinct blocks ever written (sparse footprint). *)
val written_blocks : t -> int

val reads : t -> int
val writes : t -> int
