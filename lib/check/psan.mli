(** Always-on persistence sanitizer (psan).

    A linear-time complement to {!Crash_check}: instead of enumerating
    the crash space of one small workload, psan attaches to a live
    {!Tinca_pmem.Pmem.t} through the event-observer hook and shadows
    every store, flush and fence with a per-cache-line state machine
    (Clean → Dirty → Flush_pending → Persisted) plus a
    {!Tinca_core.Layout}-driven region classifier, flagging
    flush/fence-ordering violations as they happen — on any workload,
    including the full benchmark matrix.

    Rules:
    + {b missing-flush}: the commit-point write (ring Tail advance) is
      fenced while dependent data/entry/ring/head lines are still
      volatile;
    + {b unfenced-ack}: {!txn_end} is reached while lines written since
      {!txn_begin} are not yet durable;
    + {b torn-metadata}: a non-atomic store overlaps a metadata region
      (superblock, Head/Tail words, ring slots, entry table) that the
      protocol updates only with [atomic_write8/16];
    + {b persist-race}: a store lands in a flush-pending metadata line
      (the adversarial [Pmem.dirty_line] resolution);
    + {b redundant-flush}: [clflush] of a clean or already-pending line —
      a performance diagnostic, counted per call-site label
      ({!Tinca_pmem.Pmem.set_site}), not a violation.

    Attach {e after} formatting: format legitimately bulk-initialises
    metadata regions with non-atomic stores.  Layoutless attachment
    (e.g. on a Flashcache or JBD2 stack) classifies every line as data,
    so only the unfenced-ack and redundant-flush rules apply.  The
    sanitizer must not be attached while {!Tinca_pmem.Pmem.restore} is
    used to re-enter snapshots (restores are not observable events). *)

(** [Flight] is the crash-surviving event-recorder ring (ISSUE 9): not
    metadata for rules 3–4 (records are CRC-delimited, torn ones are
    detected at scan time), but subject to the recorder-discipline check
    — a record line still {e dirty} at a commit-point fence means the
    recorder failed to fold it into a protocol fence. *)
type region =
  | Superblock
  | Head
  | Tail
  | Ring
  | Flight
  | Entries
  | Data
  | Epoch  (** paging shard's persistent epoch word (commit point) *)
  | Table  (** paging indirection table: 16 B entries, atomic-swing only *)
  | Pool  (** paging COW page pool: bulk data, no atomicity requirement *)
  | Other
type rule = Missing_flush | Unfenced_ack | Torn_metadata | Persist_race

type violation = {
  rule : rule;
  line : int;  (** offending cache line *)
  region : region;
  site : string;  (** call-site label current when detected *)
  event : int;  (** ordinal of the triggering pmem event *)
  message : string;
}

(** Raised on first violation in strict mode. *)
exception Violation of violation

type t

type report = {
  events : int;  (** pmem events observed *)
  stores : int;  (** non-atomic store events *)
  atomic_writes : int;
  flush_calls : int;  (** clflush calls *)
  line_flushes : int;  (** lines those calls covered *)
  redundant_flushes : int;  (** line flushes of clean/pending lines *)
  redundant_by_site : (string * int) list;  (** descending by count *)
  fences : int;
  crashes : int;
  violations : violation list;  (** oldest first *)
  violations_dropped : int;  (** violations beyond [max_violations] *)
}

(** [attach pmem] installs the sanitizer as the device's event observer
    (replacing any previous observer) with an all-clean shadow state.
    [layout] (one cache) or [layouts] (one per shard of a partitioned
    device; they are combined if both are given) enables the region
    classifier and with it the missing-flush, torn-metadata and
    persist-race rules — each applied per layout, with lines outside
    every layout (shard directory, cross-shard seal, padding) exempt.
    [page_layouts] does the same for paging shards
    ({!Tinca_core.Paging.region_layouts}): the table region rejects
    sub-16 B atomic swings (torn-metadata) and an epoch-word fence — the
    paging commit point — demands every table line durable and flags
    flush-pending pool lines sharing the fence (dirty pool lines are
    exempt: clean fills are legitimately volatile).
    [strict] raises {!Violation} on the first violation; default
    records and logs a warning.  [max_violations] (default 1000) bounds
    the kept list; the overflow is counted in
    {!report.violations_dropped}. *)
val attach :
  ?strict:bool ->
  ?max_violations:int ->
  ?layout:Tinca_core.Layout.t ->
  ?layouts:Tinca_core.Layout.t list ->
  ?page_layouts:Tinca_core.Paging.region_layout list ->
  Tinca_pmem.Pmem.t ->
  t

(** Remove the observer; shadow state and counters remain readable. *)
val detach : t -> unit

(** {1 Transaction scope (unfenced-ack rule)} *)

(** Start tracking stores as part of an acknowledged unit of work. *)
val txn_begin : t -> unit

(** The transaction was acknowledged: every line stored since
    {!txn_begin} must be durable, else unfenced-ack fires (once per
    offending line).  Ends the scope. *)
val txn_end : t -> unit

(** End the scope without the durability check (the transaction raised
    or was aborted — nothing was acknowledged). *)
val txn_abort : t -> unit

(** {1 Results} *)

(** Violations so far, oldest first (capped at [max_violations]). *)
val violations : t -> violation list

(** Total violations detected, including dropped ones. *)
val violation_count : t -> int

val report : t -> report
val pp_violation : Format.formatter -> violation -> unit
val rule_name : rule -> string
val region_name : region -> string

(** One line: event, flush and fence counts, redundant line flushes per
    call site, and the violation count with the first violation. *)
val summary : report -> string
