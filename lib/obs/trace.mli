(** Transaction-lifecycle span tracer.

    A global, process-wide tracer (the simulation is single-threaded)
    that is {e near-zero-cost when disabled}: every entry point first
    reads one ref cell and returns — no allocation, no clock read — so
    the instrumentation can stay compiled into every stack
    unconditionally (verified by the disabled-mode zero-allocation test
    and the [check-obs] overhead gate).

    When enabled, {!begin_span}/{!end_span} build a nesting span tree
    timestamped from the simulated {!Tinca_sim.Clock} of the component
    that owns the span.  Each distinct clock becomes one {e track}
    (Chrome: one [tid]); {!name_track} gives tracks stable display names
    ("tinca", "node0-classic", ...).

    A span's counters are registry deltas: {!attach} pairs a clock with
    a {!Tinca_sim.Metrics} registry, and a span on that clock carries
    the change of each {!watched} counter between its open and its
    close.  There is no second counting path: the tracer reads the
    counters [Pmem] already bumps, so a parent's delta covers its
    children's, and the stage-B span of a Tinca commit carries exactly
    its own sfence count and the whole-commit span the protocol's total.
    A span on a clock with no pairing carries no counters.  [Pmem]
    bumps a [Pmem.flush_ranges] burst's counters once, after the burst,
    so a crash countdown firing inside one counts none of it.

    Exports: Chrome [trace_event] JSON ([chrome://tracing], Perfetto)
    and a text flame summary aggregated by span name. *)

(** {1 Lifecycle} *)

(** Start tracing (fresh state; previous spans and events are dropped). *)
val enable : unit -> unit

(** Stop tracing and drop all state.  Export before disabling. *)
val disable : unit -> unit

val enabled : unit -> bool

(** Drop recorded spans/events but keep tracing enabled. *)
val reset : unit -> unit

(** {1 Recording} *)

(** Give the track of [clock] a display name (latest registration wins).
    Works before {!enable}; registrations persist across
    enable/disable cycles, and naming a track keeps its {!attach}
    pairing. *)
val name_track : Tinca_sim.Clock.t -> string -> unit

(** The counters a span reads, sorted by name: [pmem.atomic_writes],
    [pmem.clflush], [pmem.clflush_writebacks], [pmem.lines_dirtied],
    [pmem.read_lines], [pmem.sfence], [pmem.store_lines]. *)
val watched : string list

(** [attach ~clock metrics] pairs [clock]'s track with [metrics]: spans
    on [clock] then carry the deltas of [metrics]' {!watched} counters
    (latest pairing wins).  Persists like {!name_track}. *)
val attach : clock:Tinca_sim.Clock.t -> Tinca_sim.Metrics.t -> unit

(** Open a span named [name], timestamped now on [clock]'s track. *)
val begin_span : clock:Tinca_sim.Clock.t -> string -> unit

(** Close the innermost open span named [name].  Closing out of order
    force-closes (and counts as unbalanced) any spans nested inside it;
    an end with no matching begin is counted and ignored. *)
val end_span : string -> unit

(** Attach a key:value attribute to the innermost open span. *)
val attr : string -> string -> unit

(** {!attr} of an integer, converted only when tracing is enabled. *)
val attr_int : string -> int -> unit

(** Zero-duration instant event on [clock]'s track (e.g.
    [tinca_init_txn]). *)
val instant : clock:Tinca_sim.Clock.t -> string -> unit

(** {1 Introspection} *)

val open_spans : unit -> int

(** Unbalanced begin/end pairs detected so far. *)
val unbalanced : unit -> int

type done_span = {
  name : string;
  track : string;
  start_ns : float;
  dur_ns : float;
  self_ns : float;  (** [dur_ns] minus directly-nested child spans *)
  depth : int;  (** nesting depth at open time (0 = top level) *)
  attrs : (string * string) list;
  counters : (string * int) list;
      (** nonzero {!watched} deltas over the span, sorted by name *)
}

(** Closed spans, in completion order. *)
val completed : unit -> done_span list

(** Closed spans with the given name, completion order. *)
val find_spans : string -> done_span list

(** Counter value on a closed span (0 when absent). *)
val counter : done_span -> string -> int

(** {1 Export} *)

(** Chrome [trace_event] JSON (object format: ["traceEvents"] array of
    B/E/i events plus thread-name metadata; [ts] in microseconds). *)
val export_json : unit -> string

val export_to_file : string -> unit

(** Flame-style text summary: per span name, the call count, total and
    self time, and the attributed sfence / write-back totals. *)
val flame : unit -> string

(** The rows behind {!flame}:
    [(name, count, total_ns, self_ns, sfences, writebacks)], sorted by
    total time descending. *)
val flame_rows : unit -> (string * int * float * float * int * int) list
