(** Executable specification of the transactional cache (DESIGN.md §8).

    The dafny-jrnl journal spec is a [map<Addr, Object>] with read/write
    obligations; this is the same idea for Tinca, in ~100 lines of pure
    OCaml: the entire observable state is one [block -> bytes] map (the
    committed image; absent blocks read as zeros) plus an in-flight
    transaction buffer.  No geometry, no ring, no COW, no shards — which
    is exactly what makes it a specification rather than a second
    implementation.

    Obligations encoded here, checked against the real {!Tinca} facade by
    {!Lockstep} and, after every crash of a sweep, by
    {!Crash_check.judge}:

    - [read] returns exactly the committed map;
    - [commit] applies the whole buffer at once (all-or-nothing — for a
      multi-shard transaction the seal makes this true across shards);
    - [abort], a rejected commit, or a crash before the commit point
      leave the map untouched;
    - validation errors ([Wrong_block_size], [Block_out_of_range],
      [Txn_not_running]) are predicted exactly, with the same constructor
      the facade returns.

    [Transaction_too_large] is the one outcome the spec cannot predict
    (it depends on cache geometry); {!reject} is the transition the
    executor applies when the real system reports it: the transaction is
    terminal and the map is untouched.

    Everything is pure: operations return the successor state, so the
    lockstep executor and the crash-refinement judge can hold onto
    arbitrary historical states for free. *)

type t
(** The committed image: a [block -> bytes] map. *)

type txn
(** An in-flight (or finished) transaction buffer. *)

val create : nblocks:int -> block_size:int -> t
(** All [nblocks] blocks zero-filled. *)

val nblocks : t -> int
val block_size : t -> int

val block : t -> int -> bytes
(** {e Visible} content of a block — the committed map overlaid by the
    sealed queue, newest seal winning (fresh copy; zeros if never
    written).  Total on [0, nblocks); used by the crash-refinement
    judge ({!Crash_check.judge}). *)

val read : t -> int -> (bytes, Tinca.error) result
(** The spec of [Tinca.read]. *)

val init_txn : t -> txn
(** A live transaction with an empty buffer. *)

val live : txn -> bool

val write : t -> txn -> int -> bytes -> (txn, Tinca.error) result
(** Stage a write into the buffer (last write to a block wins).  Errors
    exactly when the facade does: finished handle, wrong size, block out
    of range. *)

val read_in : t -> txn -> int -> (bytes, Tinca.error) result
(** Read-your-writes inside the transaction: the buffer overlays the
    committed map.  (The facade exposes no in-transaction read; this is
    a spec-internal law, pinned by the unit tests.) *)

val commit : t -> txn -> (t * txn, Tinca.error) result
(** Apply the whole buffer to the map, atomically; the returned handle
    is finished.  Drains the sealed queue first (the facade's
    synchronous commit awaits the standing batch).  [Error
    Txn_not_running] on a finished handle. *)

(** {1 Async group commit (ISSUE 8)}

    [Tinca.commit_async] under a nonzero window acknowledges a
    transaction whose durability is deferred: the spec models this as a
    queue of {e sealed} write-sets layered over the committed map.
    Reads see the sealed queue (it is applied volatilely in the real
    cache); a crash may drop it wholesale ({!drop_sealed}) — but never
    partially, because the real committer drains a batch under one
    all-or-nothing pivot.  A drain ({!flush_sealed}) folds sealed
    write-sets into the committed map in seal order. *)

val seal : t -> txn -> (t * txn, Tinca.error) result
(** The spec of [Tinca.commit_async] (nonzero window): append the
    buffer to the sealed queue; the handle is finished.  Same
    validation as {!commit}. *)

val sealed_count : t -> int

val flush_sealed : ?keep:int -> t -> t
(** Fold the oldest sealed write-sets into the committed map, leaving
    the newest [keep] (default 0) still sealed.  The lockstep executor
    reconciles [keep] with the real [Tinca.group_pending] after every
    operation.  Raises [Invalid_argument] if [keep] exceeds the queue
    length. *)

val drop_sealed : t -> t
(** The crash transition for the sealed queue: everything unacked
    vanishes; the committed (durable) map is untouched. *)

val abort : t -> txn -> (t * txn, Tinca.error) result
(** Drop the buffer; the map is untouched. *)

val reject : txn -> txn
(** The [Transaction_too_large] transition: the handle is finished, the
    map (not returned — it is untouched by definition) unchanged. *)

val write_direct : t -> int -> bytes -> (t, Tinca.error) result
(** The spec of [Tinca.write_direct]: a one-block atomic commit. *)

val pending : txn -> (int * bytes) list
(** The buffer, as (block, data) pairs in ascending block order. *)

val equal : t -> t -> bool

