(** fig_group: the async group-commit experiment (ISSUE 8) — K open-loop
    [Tinca.commit_async] streams against one facade, reporting
    sfences-per-commit (amortized to ~6/K by the batch drain), batch
    sizes, Head advances and the p50/p99 sealed-to-durable (ack)
    latency, for window 0 (synchronous baseline) and a nonzero window
    at each stream count. *)

val fig_group : unit -> Tinca_util.Tabular.t list

(** The group gate's properties: window=0 async is media- and
    cost-identical to the synchronous pipeline, sfences per commit < 1
    at >= 8 streams under the default window, and p99 ack latency is
    bounded by the window.  The sweep runs once, on first use. *)
val properties : unit -> Gate.property list

(** The ["group"] block of [BENCH_commit.json] (no surrounding
    braces/comma), emitted by [make bench-json]. *)
val json_block : unit -> string
