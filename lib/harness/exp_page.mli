(** fig_log_vs_page: the commit-scheme ablation (ISSUE 10) — the same
    facade workload against the logging ring pipeline (both variants)
    and the COW paging engine, reporting ns/commit, sfences/commit, NVM
    write amplification (via {!Tinca.region_wear}) and recovery time by
    transaction size, plus the crossover point where paging's constant
    fence budget beats batched logging. *)

type sample = {
  scheme : string;  (** ["log/per-block"], ["log/batched"] or ["paging"] *)
  txn_blocks : int;  (** mean transaction size of the mixed stream *)
  commits : int;
  ns_per_commit : float;
  sfences_per_commit : float;
  nvm_write_amp : float;
      (** media line write-backs x line size per committed payload
          byte, measured-phase only (format and warm-up excluded) *)
  recovery_ns : float;  (** simulated time of {!Tinca.recover} *)
}

val sweep : unit -> sample list

(** Smallest transaction size at which paging's ns/commit matches or
    beats batched logging; [None] when logging wins everywhere. *)
val crossover : sample list -> int option

(** The registry entry. *)
val fig_log_vs_page : unit -> Tinca_util.Tabular.t list

(** The page gate's commit-scheme properties: paging's fence budget is
    flat in transaction size, a budgeted crash-space sweep (N=1 and N=4)
    and lockstep spec refinement hold for paging (logging N=4 rides
    along), and a psan-observed paging workload (N=2, with recovery) is
    violation-free. *)
val properties : unit -> Gate.property list

(** The ["log_vs_page"] block of BENCH_commit.json (injected into
    {!Exp_commit.bench_json} via its [page_block] argument). *)
val json_block : unit -> string
