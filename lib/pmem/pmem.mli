(** Byte-addressable persistent-memory simulator.

    Models the NVM the paper's prototype runs on (NVDIMM with added
    PCM/STT-RAM delays) together with the volatile CPU cache in front of
    it, because Tinca's correctness argument lives exactly in that gap:

    - regular stores land in a volatile cache-line layer (64 B lines) and
      are NOT durable;
    - [clflush] marks a line for write-back; it only becomes durable at
      the next [sfence] (matching x86 ordering of clflush);
    - at a crash, every line that is dirty or flush-pending independently
      either reaches the medium or is lost — an adversarial model of
      write-back reordering;
    - 8 B and 16 B aligned atomic writes model [mov]/[cmpxchg16b LOCK]:
      they cannot tear (a line either carries the whole value or the
      previous whole value after a crash).

    Reads always observe the newest stores (CPU reads hit its own cache).

    Line state is stored densely: one 4-byte word per line records
    whether it is clean (durable), dirty (stored since it was last
    durable) or flush-pending (durable at the next fence), and, while it
    is not clean, which pre-image slot holds its 64 B durable content.
    A line leaving the clean state takes a slot (the most recently freed
    one, or a fresh one) stamped with a global sequence number; a store
    into a flush-pending line finds its slot from the word; a fence frees
    the slots of the lines it retires, or forgets every slot at once when
    it retires every non-clean line.  A store's run of clean lines takes
    consecutive fresh slots at once, and a flush queues one run of
    lines per range, so the per-line work is a word update; the stamps,
    counters and draws are those of a line-by-line loop.  No store,
    flush or fence hashes, scans or sorts lines.  A crash draws its per-line outcomes in the order a
    stdlib hash table keyed by line index would fold them in, had it seen
    one insertion per line leaving clean and one removal per retirement,
    so every seeded outcome depends only on the history of operations.
    That order is rebuilt from the slots sorted by stamp, only at crash
    and snapshot time.  Per-line wear is a 32-bit counter.

    Every operation charges simulated time to the owning {!Tinca_sim.Clock}
    and bumps counters in the owning {!Tinca_sim.Metrics}:
    ["pmem.stores"], ["pmem.store_lines"], ["pmem.clflush"],
    ["pmem.sfence"], ["pmem.lines_persisted"], ["pmem.read_lines"],
    ["pmem.atomic_writes"], and ["pmem.lines_dirtied"]: the times a line
    entered the dirty state from clean or flush-pending, each one medium
    write owed, whether or not a flush ever starts it
    (["pmem.clflush_writebacks"] counts only the ones that did). *)

type t

(** Raised when the systematic crash-injection countdown expires; see
    {!set_crash_countdown}. *)
exception Crash_point

(** Cache-line size in bytes (64). *)
val line_size : int

(** [create ~clock ~metrics ~tech ~size ()] — [size] must be a multiple of
    [line_size], of at most 2^29 lines.  [seed] drives crash-time nondeterminism resolution;
    [flush_instr] selects the modelled cache-line flush instruction
    (default [Clflush], the only one the paper's testbed supports). *)
val create :
  ?seed:int ->
  ?flush_instr:Tinca_sim.Latency.flush_instr ->
  clock:Tinca_sim.Clock.t ->
  metrics:Tinca_sim.Metrics.t ->
  tech:Tinca_sim.Latency.nvm_tech ->
  size:int ->
  unit ->
  t

val size : t -> int
val tech : t -> Tinca_sim.Latency.nvm_tech

(** The modelled cache-line flush instruction (fixed at {!create}). *)
val flush_instr : t -> Tinca_sim.Latency.flush_instr

(** {1 Volatile stores} *)

(** [write t ~off src] stores all of [src] at [off]. *)
val write : t -> off:int -> bytes -> unit

(** [write_sub t ~off src ~pos ~len] stores [len] bytes of [src] starting
    at [pos]. *)
val write_sub : t -> off:int -> bytes -> pos:int -> len:int -> unit

(** [writev t chunks] — vectored store: each [(off, src)] chunk as one
    {!write}, in list order.  All ranges are validated before any byte is
    stored, so a bad chunk raises [Invalid_argument] without a partial
    scatter.  One [Store] event per non-empty chunk. *)
val writev : t -> (int * bytes) list -> unit

(** [fill t ~off ~len c] stores [len] copies of [c]. *)
val fill : t -> off:int -> len:int -> char -> unit

(** [atomic_write8 t ~off v] — 8 B aligned atomic store. *)
val atomic_write8 : t -> off:int -> int64 -> unit

(** [atomic_write8_int t ~off v] — non-negative [int] convenience.
    Raises [Invalid_argument] when [v] is negative. *)
val atomic_write8_int : t -> off:int -> int -> unit

(** [atomic_write16 t ~off v] — 16 B aligned atomic store ([cmpxchg16b]
    with LOCK); [v] must be exactly 16 bytes. *)
val atomic_write16 : t -> off:int -> bytes -> unit

(** {1 Reads} *)

val read : t -> off:int -> len:int -> bytes

(** A device-side read (DMA from NVM into a disk write): same bytes as
    {!read}, but it charges no clock and counts no read lines — the
    transfer is part of the disk write that consumes it. *)
val dma_read : t -> off:int -> len:int -> bytes

val read_into : t -> off:int -> buf:bytes -> pos:int -> len:int -> unit
val read_u8 : t -> off:int -> int
val read_u64 : t -> off:int -> int64
val read_u64_int : t -> off:int -> int

(** {1 Persistence primitives} *)

(** [clflush t ~off ~len] issues clflush for every line intersecting the
    range.  Lines become durable at the next {!sfence}.  Every issued
    flush pays the instruction latency; only lines that are actually
    dirty (and not already flush-pending) start a medium write-back and
    pay the medium's write latency — a flush of a clean line is a no-op
    and must not inflate the modelled NVM write traffic.
    ["pmem.clflush"] counts issued flushes per line;
    ["pmem.clflush_writebacks"] counts the write-backs they started.

    One call is charged as one back-to-back flush burst: serializing
    [Clflush] pays the full instruction latency per line, while
    [Clflushopt]/[Clwb] pipeline (first line full, each further line only
    the issue slot — {!Tinca_sim.Latency.flush_batch_ns}). *)
val clflush : t -> off:int -> len:int -> unit

(** [flush_ranges t ranges] — scatter-gather flush: one pipelined burst
    of per-line flushes over every line that intersects one of the
    [(off, len)] byte ranges.  The ranges may come in any order, overlap
    or be empty: each distinct line is flushed once, in ascending line
    order, and zero-length ranges flush nothing.  Semantically identical
    to one [clflush] per line — each line is its own instruction,
    crash-countdown event and observer [Clflush] event — but the burst is
    charged with the batch cost, so [Clflushopt]/[Clwb] callers stop
    paying the serialized per-call latency.  With no countdown armed and
    no observer attached, the per-line events are only counted (in
    {!event_count}) and the span tracer gets one [pmem.clflush] delta for
    the call.  Every range is validated
    before anything is issued: an out-of-bounds range raises
    [Invalid_argument] and flushes no line. *)
val flush_ranges : t -> (int * int) list -> unit

(** Ordering + durability point: all flush-pending lines reach the medium.
    It retires exactly the lines flushed (by {!clflush} or {!flush_ranges})
    since the last fence and not re-dirtied by a later store, and its host
    cost is proportional to that count — not to the number of lines that
    are stored but never flushed.  ["pmem.lines_persisted"] rises by the
    number of lines retired. *)
val sfence : t -> unit

(** [persist t ~off ~len] = [clflush]; [sfence] — the paper's write idiom. *)
val persist : t -> off:int -> len:int -> unit

(** {1 Crash injection} *)

(** [crash ?seed ?survival t] simulates power loss: each dirty or
    flush-pending line independently survives (its newest content reaches
    the medium) with probability [survival] (default 0.5) or reverts to
    its last persisted content; then the volatile layer is emptied.
    [seed] overrides the internal RNG for reproducible outcomes. *)
val crash : ?seed:int -> ?survival:float -> t -> unit

(** [set_crash_countdown t (Some k)] raises {!Crash_point} out of the
    [k]-th subsequent mutation/persistence event (store, atomic write,
    clflush or sfence), leaving that event not performed.  A zero-length
    store or flush stores nothing and is no event.  [None] disables
    the hook.  Used by systematic crash-sweep tests. *)
val set_crash_countdown : t -> int option -> unit

(** {1 Crash-space exploration (lib/check)}

    Hooks for the exhaustive crash-space model checker: instead of
    sampling one random survival outcome per crash, it enumerates every
    survival subset of the unfenced lines, re-entering the same pre-crash
    device state via {!snapshot}/{!restore}. *)

(** Indices of the cache lines dirtied since the last fence, ascending.
    At a crash, each may independently reach the medium or be lost. *)
val unfenced_lines : t -> int list

(** The unfenced lines whose loss changes the medium, ascending: a line
    whose volatile content equals its durable content is left out (such
    lines need not be enumerated).  One pass over the owned pre-image
    slots. *)
val torn_lines : t -> int list

(** [crash_select t ~survive] resolves a crash with an explicit verdict
    per unfenced line: [survive idx] means the line's newest content
    reached the medium.  Empties the volatile layer and disarms any
    crash countdown.  [survive] is asked once per unfenced line, in the
    order {!crash} draws in: the reverse of the fold order of a
    [Hashtbl.create 4096] that saw one [add] per line leaving the clean
    state (or per line re-slotted by {!restore}) and one [remove] per line
    a fence retired, since the device was created or last emptied.  The
    order is rebuilt by sorting the owned slots by stamp, so its host cost
    grows with the number of unfenced lines and of freed slots awaiting
    reuse. *)
val crash_select : t -> survive:(int -> bool) -> unit

type snapshot

(** Capture the full device state (medium + volatile line layer). *)
val snapshot : t -> snapshot

(** Reinstate a {!snapshot} taken on this device (sizes must match):
    medium, volatile line layer and wear counters return to the
    snapshot's values; the crash countdown is disarmed.  Simulated time
    and metrics are left untouched. *)
val restore : t -> snapshot -> unit

(** Digest of the whole durable medium, for comparing media images. *)
val media_digest : t -> Digest.t

(** Digest of the durable medium's bytes at the given line indices
    only.  Crashes resolved from one {!snapshot} differ only in their
    {!torn_lines}, so this keys their deduplication at the cost of
    those lines rather than the whole medium.  Charges nothing. *)
val lines_digest : t -> int list -> Digest.t

(** {1 Event observation (lib/check's persistence sanitizer)}

    A lightweight hook called after every mutation/persistence operation
    completes, so an external checker can shadow the device's
    flush/fence state without the device knowing about it.  Exactly one
    event is emitted per public operation ([write] = one [Store] for the
    whole range; [persist] = [Clflush] then [Sfence]); zero-length
    stores and flushes emit nothing.  When no observer is attached
    there is no allocation and no behaviour change.  The span tracer
    does not listen here: a span's counters are deltas of this device's
    {!Tinca_sim.Metrics} counters. *)

type event =
  | Store of { off : int; len : int }  (** non-atomic store: [write]/[write_sub]/[fill] *)
  | Atomic_write of { off : int; len : int }  (** [atomic_write8]/[atomic_write16] *)
  | Clflush of { off : int; len : int }  (** one [clflush] call, whole issued range *)
  | Sfence  (** ordering + durability point *)
  | Crash  (** power loss resolved ([crash] or [crash_select]) *)

(** [set_observer t (Some f)] attaches [f]; [None] detaches.  An
    exception raised by [f] propagates out of the triggering operation
    (strict sanitizer mode relies on this). *)
val set_observer : t -> (event -> unit) option -> unit

(** {2 Call-site labels}

    A free-form label the instrumented client (cache, ring, Flashcache)
    sets before issuing pmem operations, so observers can attribute
    events — e.g. per-call-site redundant-flush counts — without stack
    inspection.  Purely advisory: one mutable field, no effect on
    behaviour or timing. *)

val set_site : t -> string -> unit

(** The most recently set call-site label ([""] initially). *)
val site : t -> string

(** Number of mutation/persistence events so far (for sizing sweeps);
    zero-length stores and flushes are not counted. *)
val event_count : t -> int

(** Lines currently not durable. *)
val dirty_line_count : t -> int

(** [is_dirty t ~off] — is the line containing [off] not durable? *)
val is_dirty : t -> off:int -> bool

(** {1 Wear accounting} *)

(** Total line write-backs to the medium. *)
val wear_total : t -> int

(** Maximum write-backs over any single line. *)
val wear_max : t -> int

(** [wear_max_in t ~off ~len] — maximum per-line write-backs within a
    byte range (e.g. just the data region, excluding hot pointer lines). *)
val wear_max_in : t -> off:int -> len:int -> int

(** [wear_sum_in t ~off ~len] — total line write-backs within a byte
    range; with {!wear_max_in} this attributes wear to Layout regions
    (superblock / pointers / ring / flight / entries / data). *)
val wear_sum_in : t -> off:int -> len:int -> int
