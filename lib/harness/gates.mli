(** The gate table: every CI gate as a named list of {!Gate.property}
    values, each carrying exactly the budget of the [make check-*]
    command line it replaced.  [tinca_check gate <name>|all|list] runs
    them through {!Gate.run_all}.

    - [crash-budget]: the 3-commit, 64-subset-cap crash sweep;
    - [spec]: lockstep equivalence and crash refinement at N=1/2/4 (and
      the group passes), plus four planted mutations that must be caught
      with reproducers of at most 6 commands;
    - [psan]: the sanitizer over the Tinca, Classic and Flashcache stacks;
    - [obs]: {!Exp_obs.properties};
    - [shard]: a 4-shard crash sweep and psan, then
      {!Exp_shard.properties} against [BENCH_commit.json];
    - [group]: psan with a batch-scoped group-commit phase, then
      {!Exp_group.properties};
    - [page]: {!Exp_page.properties}, paging psan at 2 shards and a
      standalone paging sweep;
    - [flight]: {!Exp_flight.properties} and two denser flight sweeps
      with their drop-notify scenarios;
    - [crash]: the full default sweep (not in {!ci}). *)

(** The gates [make ci] runs, in order. *)
val ci : Gate.t list

(** {!ci} plus the gates too slow for it. *)
val all : Gate.t list
