(** Streaming histogram for latency / size distributions.

    Used by the harness to report transaction-size distributions (paper
    Fig 13). *)

type t

val create : unit -> t
val add : t -> float -> unit
val count : t -> int
val mean : t -> float
val min_value : t -> float
val max_value : t -> float
val stddev : t -> float

(** [percentile t p] with [p] in [\[0, 100\]].  Exact (keeps samples);
    raises [Invalid_argument] on an empty histogram. *)
val percentile : t -> float -> float

(** One-line summary: count/mean/p50/p95/max. *)
val pp : Format.formatter -> t -> unit
