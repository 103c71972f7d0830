(** Log-bucketed (HDR-style) latency histogram.

    Fixed-size, allocation-free recording: a value lands in one of
    [16] sub-buckets per power of two, so any recorded value is
    reproduced by {!percentile} with at most ~6% relative error while
    the whole histogram is a single small int array (no samples are
    retained).  Values are simulated nanoseconds by convention, but any
    non-negative float works. *)

type t

val create : unit -> t

(** Record one value.  Negative values are clamped to 0. *)
val add : t -> float -> unit

val count : t -> int
val mean : t -> float

(** Exact largest / smallest recorded value (0 when empty). *)
val max_value : t -> float

val min_value : t -> float

(** [percentile t p] for [p] in [0, 100]: smallest bucket-representative
    value covering [p]% of the recorded population, clamped into
    [[min_value, max_value]].  0 when empty. *)
val percentile : t -> float -> float

type summary = {
  count : int;
  mean : float;
  p50 : float;
  p90 : float;
  p99 : float;
  p999 : float;
  max : float;
}

val summary : t -> summary

(** Merge [src] into [dst] (e.g. per-node histograms into a cluster
    total). *)
val merge : dst:t -> src:t -> unit

val reset : t -> unit

(** One-line rendering: count, mean and the percentile ladder. *)
val pp : Format.formatter -> t -> unit

(** [pp] as a string, for tables and the /proc-style stats surface. *)
val to_string : t -> string
