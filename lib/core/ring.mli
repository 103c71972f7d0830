(** The fine-grained ring buffer that regulates committing transactions
    (paper §4.4).

    Replaces JBD2's descriptor and commit blocks: each element is one
    8-byte on-disk block number; [Head] and [Tail] are persistent 8-byte
    monotonic counters (slot = counter mod nslots) updated with atomic
    writes followed by clflush + sfence.  [Head = Tail] means no
    transaction is in flight; the half-open range [Tail, Head) lists the
    blocks of the in-flight transaction. *)

type t

(** The persistent pointers or slots are out of bounds (see {!pending_blknos}).
    [Cache.Corrupt] is this exception. *)
exception Corrupt of string

(** Attach to (already formatted or zeroed) media. *)
val attach : pmem:Tinca_pmem.Pmem.t -> layout:Layout.t -> t

(** A media word that must hold a non-negative int (a ring pointer, the
    cross-shard seal): its value, or -1 when a flipped bit put it beyond
    the int range, for the caller's bounds check to reject. *)
val read_word : Tinca_pmem.Pmem.t -> off:int -> int

val slots : t -> int
val head : t -> int
val tail : t -> int

(** Blocks recorded in the in-flight transaction. *)
val in_flight : t -> int

(** Peak {!in_flight} occupancy observed since attach/format — the ring
    sizing signal surfaced by [Cache.stats].  Volatile: resets on
    re-attach. *)
val high_water : t -> int

(** [record t blkno] writes [blkno] at the Head slot (atomic 8 B +
    persist) and then advances Head (atomic 8 B + persist) — steps 2–3 of
    the commit protocol.  Raises [Invalid_argument] if the ring is full. *)
val record : t -> int -> unit

(** [record_batch t blknos] — the batched variant of {!record}, step 2
    for a whole drained batch: store one slot per block starting at Head
    (atomic 8 B writes), flush each dirtied slot line once, fence.  The
    slots are durable but Head does not cover them yet, so they stay
    invisible to {!pending_blknos} and to recovery until {!publish}.
    Raises [Invalid_argument] if the batch does not fit. *)
val record_batch : t -> int list -> unit

(** [reserve t n] claims [n] slots for a sealed transaction, volatilely:
    nothing is stored until its batch drains.  {!publish} consumes
    reservations, {!rewind_head}/{!reload}/{!format} discard them.
    Raises [Invalid_argument] if the in-flight and reserved slots would
    overrun the ring. *)
val reserve : t -> int -> unit

(** Drop [n] reserved slots (an unsealed transaction's).  Raises
    [Invalid_argument] when [n] exceeds the reserved count. *)
val release : t -> int -> unit

(** Slots reserved by sealed transactions and not yet published. *)
val reserved : t -> int

(** [publish t n] — advance Head over [n] stored slots with a single
    atomic write + persist (step 3 for the whole batch), releasing up to
    [n] reserved slots.  Must follow a {!record_batch} of at least [n]
    slots; no-op when [n = 0]. *)
val publish : t -> int -> unit

(** Persistently set Tail := Head (the commit point, step 5). *)
val commit_point : t -> unit

(** Persistently set Head := Tail (after an abort's revocations). *)
val rewind_head : t -> unit

(** Disk block numbers in [Tail, Head), oldest first (recovery scan).
    Raises {!Corrupt} unless [0 <= Tail <= Head <= Tail + slots], checked
    before anything is read or allocated, and when a slot holds a word
    beyond the int range.  The range is read in at most two pieces (it
    may wrap), so each slot line is charged once. *)
val pending_blknos : t -> int list

(** Re-read Head/Tail from media (after a crash). *)
val reload : t -> unit

(** Zero both pointers persistently (formatting). *)
val format : t -> unit
