(** Crash-sweep driver for the flight recorder.

    Complements {!Crash_check}'s default driver (which proves the commit
    protocol) with the two properties only the recorder can violate:

    + {b recovery-semantics pin}: recovering the same crashed medium
      with flight replay on and off must produce bit-identical
      {e logical} cache state — the recorder is a pure observer;
    + {b dossier-vs-judge agreement}: the post-crash dossier's verdict
      ({!Tinca_obs.Forensics.verdict}) must agree with
      {!Crash_check.judge} over the workload's model — [`Clean] at every
      crash point of the correct committer, and [`Dead_acked] naming the
      acked tickets when {!drop_notify_scenario} plants the
      [`Drop_durable_notify] fault.

    {!driver} runs a deterministic group-commit workload through the
    {!Tinca} facade with the recorder on; {!Crash_check.explore} crashes
    it and hands every deduplicated post-crash medium to the judge. *)

(** [budget cfg] is the flight sweep's budget over [cfg]: 384 KB of NVM
    and [Corners_plus 2] survival subsets drawn from [cfg.seed + 17]. *)
val budget : Crash_check.config -> Crash_check.config

(** [budget] over seed 77 and a 24-block universe. *)
val default_config : Crash_check.config

(** Counted by the judge across every state it is handed. *)
type counts = {
  mutable dossiers_built : int;  (** crash states whose recovery produced a dossier *)
  mutable records_replayed : int;  (** surviving flight records across all dossiers *)
}

(** The workload (64 flight slots per shard, a 1 s group-commit window,
    batches of at most 3) and its judge, plus the counts the judge
    accumulates.  Pass the same [cfg] to {!Crash_check.explore}. *)
val driver : Crash_check.config -> Crash_check.driver * counts

(** Plant [`Drop_durable_notify], run two full batches, crash with
    full survival, recover — and require the dossier {e alone} to
    convict every acked ticket of the first (provably dead) batch.
    [Ok dossier] when it does; [Error] describes what it missed. *)
val drop_notify_scenario : Crash_check.config -> (Tinca_obs.Forensics.t, string) result
