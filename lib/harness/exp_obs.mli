(** fig_obs: the observability surface exercised end to end — a
    /proc-style health snapshot of an instrumented Tinca stack, latency
    percentile ladders per stack and op type, and a flame summary of a
    traced run with per-span fence attribution. *)

val run : unit -> Tinca_util.Tabular.t list

(** The obs gate's properties: a traced 8-block-commit workload exports
    valid Chrome trace JSON (written to a private temp file, removed
    afterwards), its per-span fence attribution meets the persistence
    budget (stage B = 1 sfence, whole commit <= 6), each commit's span
    counters equal the registry's change over it, tracing leaves
    simulated time unchanged, and disabled-mode tracing costs <= 2% of
    commit wall time. *)
val properties : unit -> Gate.property list
