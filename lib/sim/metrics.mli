(** Named-counter registry with snapshot/diff.

    Every simulated component (pmem, disks, caches, journals, file system,
    cluster nodes) registers its counters here so the experiment harness
    can snapshot before a workload, diff after it, and normalize per
    operation — the paper's "normalized quantity of clflush / disk
    writes" methodology (§5.1). *)

type t

val create : unit -> t

(** [incr t name ~by] bumps a counter, creating it at 0 if missing. *)
val incr : t -> string -> by:int -> unit

val get : t -> string -> int

(** {1 Counter handles}

    A hot path resolves its counters once and bumps them without
    hashing a name.  A handle and {!incr} by the same name share one
    cell. *)

type counter

(** [counter t name] — the handle of [name]'s counter.  Resolving a
    handle does not create the counter: it is absent from {!to_list}
    until its first {!add}. *)
val counter : t -> string -> counter

(** [add c by] bumps the counter, creating it at 0 if missing (an [add]
    of 0 creates it too, exactly as [incr ~by:0] does).  A handle
    survives {!reset}: it counts from 0 again. *)
val add : counter -> int -> unit

(** The counter's current value (0 while unlisted). *)
val value : counter -> int

(** All counters, sorted by name. *)
val to_list : t -> (string * int) list

type snapshot

(** O(counters); the snapshot is hashtable-backed, so {!since} is O(1)
    per counter and {!diff} is linear in the current registry. *)
val snapshot : t -> snapshot

(** [diff t snap] — per-counter increments since [snap]. *)
val diff : t -> snapshot -> (string * int) list

(** [since t snap name] — increment of one counter since [snap]. *)
val since : t -> snapshot -> string -> int

(** {1 Latency histograms}

    Log-bucketed distributions (see {!Hist}) live in the same registry
    so per-op-type latencies ride the same snapshot/report plumbing as
    the counters.  By convention names are ["lat.<op>"] in simulated
    nanoseconds. *)

(** [observe t name v] records [v] into the named histogram, creating
    it on first use. *)
val observe : t -> string -> float -> unit

(** [histogram t name] — the named histogram, for a hot path that
    records into it directly ({!Hist.add}).  Like a counter handle it
    is unlisted until its first value. *)
val histogram : t -> string -> Hist.t

(** The named histogram, if it holds a value. *)
val hist : t -> string -> Hist.t option

(** All histograms that hold a value, sorted by name. *)
val hists : t -> (string * Hist.t) list

(** Zeroes and unlists every counter and empties every histogram
    (resolved handles stay valid). *)
val reset : t -> unit
val pp : Format.formatter -> t -> unit

(** The dotted naming convention every counter and histogram a library
    emits must satisfy: two or more [.]-separated segments, each
    matching [[a-z][a-z0-9_]*] — e.g. ["pmem.clflush"],
    ["tinca.commit.blocks"].  Checked by the test suite over the
    registries real workloads populate. *)
val valid_name : string -> bool
