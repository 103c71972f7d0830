(** Lockstep refinement harness: drive the executable {!Spec} and a real
    {!Tinca.t} through the same generated command sequence and fail on
    the first observable difference (DESIGN.md §8).

    Three layers:

    - {!run} — execute a command sequence against both systems,
      checking outcome equality per command and full observational
      equivalence (every block readable through the facade equals the
      spec map, plus the media invariant audit) after every command;
    - {!shrink} — delta-debug a failing sequence to a 1-minimal
      reproducer, printable as a replayable OCaml value ({!pp_cmds});
    - {!crash_refine} — the crash-space integration: run the sequence
      through the same executor under {!Crash_check.explore}, so {e
      every} recovered state of every survival subset of every crash
      point faces {!Crash_check.judge} over the executor's spec: the
      durable image, the standing batch drained whole, or the in-flight
      commit fully applied.

    The harness validates itself with planted {!mutation}s: a mutated
    run must diverge, and the shrunk reproducer stays small (the
    acceptance bar is <= 6 commands). *)

(** The command language.  Block payloads are fill bytes (a 4 KB block
    of one repeated byte), which keeps reproducers printable while the
    equivalence check still compares full block content.  Commands
    arriving with no transaction handle yet are no-ops; commands on a
    finished handle are [Txn_not_running] probes. *)
type cmd =
  | Begin  (** [Tinca.init_txn]; abandons any previous handle *)
  | Write of int * int  (** stage (block, fill byte) into the open txn *)
  | Commit
  | Abort
  | Read of int
  | Write_direct of int * int
  | Bad_size_write of int  (** wrong-block-size probe on the open txn *)
  | Commit_async
      (** [Tinca.commit_async] on the open txn: seal now, durable at the
          next batch drain (the ticket joins the outstanding queue) *)
  | Await
      (** [Tinca.await] the oldest outstanding ticket (drains the
          standing batch); a no-op probe when none is outstanding *)

val pp_cmd : Format.formatter -> cmd -> unit

(** Replayable OCaml value, e.g.
    [[| Begin; Write (3, 120); Commit; Read 3 |]]. *)
val pp_cmds : Format.formatter -> cmd array -> unit

(** Cache geometry the sequence runs against.  Deliberately small
    ([default_geometry]: 160 KB NVM = ~30 data blocks, 64-slot ring,
    universe 48 > capacity) so replacement pressure, eviction and
    [Transaction_too_large] rejections are all reachable. *)
type geometry = {
  nvm_kb : int;
  ring_slots : int;
  nshards : int;
  universe : int;  (** disk blocks; also the sweep width *)
  group_window_ns : int;
      (** [Tinca.Config.group_window_ns] for the facade under test;
          0 (the default) = synchronous commits only *)
  scheme : Tinca.Config.scheme;
      (** commit scheme of the facade under test; default
          [Logging Batched].  The spec is scheme-agnostic, so the same
          command sequences refine both engines. *)
}

val default_geometry : geometry

(** Planted commit-path mutations, for harness self-tests: the run must
    diverge (or the crash sweep must report a violation) under each.
    [Lose_writes] silently drops every staged write on the real side
    only; [Abort_commits] turns every real commit into an abort;
    [Skip_seal] suppresses the cross-shard commit record via
    {!Tinca_core.Shard.set_fault} (observable only through
    {!crash_refine} with [nshards >= 2] — without a crash the seal is
    invisible, which is itself a useful property to have pinned);
    [Drop_durable_notify] makes the group committer publish a batch but
    skip its seal and finalize steps while the facade still acknowledges
    durability — the lost-ack bug, likewise observable only through
    {!crash_refine} (with [group_window_ns > 0]): a crash after the
    drain revokes transactions whose awaiters were told they are
    durable.  [Torn_swing] splits the paging scheme's 16 B
    indirection-table entry swing into two 8 B halves with the first
    made durable alone (via {!Tinca_core.Paging.set_fault}) — observable
    only through {!crash_refine} with a [Paging] geometry: recovery must
    detect the half-swung entry, not trust it. *)
type mutation = Lose_writes | Abort_commits | Skip_seal | Drop_durable_notify | Torn_swing

type divergence = { step : int;  (** 0-based command index *) cmd : cmd; reason : string }

val pp_divergence : Format.formatter -> divergence -> unit

type run_stats = {
  ops : int;  (** commands executed *)
  sweeps : int;  (** full-equivalence sweeps (one per command) *)
  blocks_compared : int;
}

(** Seeded command generator: deterministic for a fixed
    [(seed, len, universe)] (pinned by test), mixing reads, writes
    (including out-of-range and wrong-size probes), aborts, commits and
    oversized-transaction probes that exceed the cache capacity.  The
    generator tracks (approximately) whether a transaction is open, so
    even short sequences carry real commit traffic. *)
val gen : seed:int -> len:int -> universe:int -> cmd array

(** Like {!gen} (same determinism contract) but most commits become
    [Commit_async] and the no-handle commit probe becomes [Await], so
    sequences carry mixed acked/unacked transactions for the
    group-commit sweeps. *)
val gen_async : seed:int -> len:int -> universe:int -> cmd array

(** Commits in the sequence whose staged in-range writes stripe to at
    least two shards of [geometry] — the transactions that exercise the
    cross-shard seal.  Used to pick crash-refinement sequences that
    actually cover the striped commit scheduler at [nshards > 1]. *)
val multi_shard_commits : geometry -> cmd array -> int

(** Execute the sequence in lockstep.  [mutate] plants a bug (self-test
    only).  The real system is built fresh on simulated hardware; the
    spec starts from the same all-zeros state. *)
val run : ?mutate:mutation -> geometry -> cmd array -> (run_stats, divergence) result

(** [shrink ~fails cmds] returns a 1-minimal subsequence still failing
    [fails] (removing any single remaining command makes it pass).
    [fails] must be deterministic; [shrink] never returns a sequence
    for which [fails] is false (given [fails cmds] was true). *)
val shrink : fails:(cmd array -> bool) -> cmd array -> cmd array

(** The crash-space integration: sweep every crash point (subject to
    the usual [Capped cap]/[stride] budget) of the command sequence and
    judge every recovered state by spec refinement.  Violations come
    back in the {!Crash_check.report}.  Raises [Invalid_argument] when
    the sequence makes no pmem event (there is nothing to crash). *)
val crash_refine :
  ?mutate:mutation ->
  ?cap:int ->
  ?stride:int ->
  ?progress:(int -> int -> unit) ->
  geometry ->
  cmd array ->
  Crash_check.report
