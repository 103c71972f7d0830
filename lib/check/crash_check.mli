(** Exhaustive crash-space model checker for the Tinca commit protocol.

    The crash-torture suite (test/test_crash.ml) sweeps every pmem event
    as a crash point but resolves each crash with randomly sampled
    cache-line survival outcomes.  This checker instead enumerates, at
    every crash point of a deterministic workload, {e all} survival
    subsets of the lines that are both unfenced and torn (volatile
    content differs from the durable backup) — the full set of media
    images the adversarial crash model can produce — deduplicates
    identical images by digest, and runs recovery plus two oracles on
    each:

    - {!Tinca.check_invariants} on the recovered engine (per-cache audit
      plus the cross-shard seal);
    - {!judge}: the recovered image equals, in full, one of the images
      the {!Spec} model allows — the durable state, the standing batch
      drained whole, or the in-flight transaction applied — never a
      partial mix.

    With [nshards > 1] the same sweep covers the striped commit
    scheduler: transactions stripe across shards, so crash points fall
    between per-shard Head advances and on either side of the
    cross-shard seal, and the judge doubles as the all-or-nothing
    check for multi-shard transactions.

    The workload drives the {!Tinca} facade and recovery goes through
    {!Tinca.recover}, which discriminates the commit scheme from the
    media magic — so setting {!config.scheme} to [Paging] sweeps the
    paging engine's indirection-table protocol with the same oracles.

    When the subset count 2^d at a crash point exceeds the {!masks}
    cap, the checker falls back to a seeded sample (always containing
    the all-lost and all-survive corners) and reports the shortfall both
    via [Logs] and in {!report.capped_points} — coverage loss is never
    silent.

    This is the only crash-exploration loop: {!Lockstep} and
    {!Flight_check} plug their workloads and judges in as a {!driver}. *)

(** Which survival subsets a crash point with [d] torn lines explores.
    Every sampled subset draws one bit per torn line from
    {!config.sample_seed}'s generator. *)
type masks =
  | Capped of int
      (** all 2^d subsets while that fits the cap; past it, that many
          subsets: the all-lost and all-survive corners plus seeded
          samples *)
  | Corners_plus of int
      (** the two corners plus [n] seeded samples (at most 2^d - 2):
          breadth across protocol stages rather than depth per crash *)

type config = {
  seed : int;  (** workload RNG seed *)
  ncommits : int;  (** transactions in the workload *)
  universe : int;  (** disk blocks the workload touches *)
  pmem_bytes : int;  (** NVM size; small enough to force evictions *)
  ring_slots : int;
  masks : masks;  (** which survival subsets each crash point explores *)
  sample_seed : int;  (** seed for the sampled subsets *)
  first_event : int;  (** first crash point (1-based), for sub-range sweeps *)
  stride : int;  (** explore every [stride]-th crash point *)
  nshards : int;  (** shards the device is partitioned into *)
  scheme : Tinca.Config.scheme;  (** commit scheme the sweep drives *)
}

(** seed 2024, 6 commits, universe 48, 160 KB NVM, 64 ring slots,
    [Capped 256] from sample seed 1, full sweep (first_event 1, stride 1), 1 shard,
    logging scheme. *)
val default_config : config

(** The simulated world one sweep iteration lives in; geometry comes
    from {!config} ([pmem_bytes], [universe] disk blocks). *)
type env = {
  pmem : Tinca_pmem.Pmem.t;
  disk : Tinca_blockdev.Disk.t;
  clock : Tinca_sim.Clock.t;
  metrics : Tinca_sim.Metrics.t;
}

(** A fresh world for [config]: PCM NVM of [pmem_bytes] seeded
    [seed + 1], an SSD of [universe] blocks. *)
val mk_env : config -> env

(** The facade configuration a sweep formats: [pmem_bytes],
    [ring_slots], [nshards] and [scheme] over {!Tinca.Config.default}. *)
val tinca_config : config -> Tinca.Config.t

(** [logical_block peek disk blk]: the cached copy of [blk] if [peek]
    has one, else the disk's. *)
val logical_block : (int -> bytes option) -> Tinca_blockdev.Disk.t -> int -> bytes

(** {1 The model and the judge}

    Every sweep judges a recovered image the same way.  A driver keeps
    what the facade has acknowledged as a {!Spec.t}: synchronous commits
    applied, group-commit transactions sealed, the sealed queue folded
    down to {!Tinca.group_pending} after each call.  While a facade call
    that can make a transaction durable runs, [in_flight] holds the spec
    with that transaction applied. *)

type model = { mutable spec : Spec.t; mutable in_flight : Spec.t option }

(** [durably m post call] runs [call] with [in_flight = post] and clears
    it when [call] returns (not when it raises: a crash inside the call
    leaves [post] a candidate). *)
val durably : model -> Spec.t option -> (unit -> 'a) -> 'a

(** [judge m image] accepts the recovered [image] (block -> 4 KB) only
    when every block of the spec's universe equals one candidate in
    full: {!Spec.drop_sealed} (the durable image), {!Spec.flush_sealed}
    (the standing batch drained whole) or [in_flight].  The error names
    the block and 64 B line where the longest-agreeing candidate stops,
    the recovered byte there and each candidate's. *)
val judge : model -> (int -> bytes) -> (unit, string) result

(** A driver's judge: {!judge} over the recovered facade's image. *)
val model_judge : env -> model -> recrash:(unit -> unit) -> Tinca.t -> (unit, string) result

(** One transaction of [(block, bytes)] writes through
    {!Tinca.commit_async}, tracked in the model as {!judge} expects.
    Returns the ticket. *)
val commit_async : Tinca.t -> model -> (int * bytes) list -> Tinca.ticket

(** A pluggable workload + oracle pair.  [fresh env] formats the media
    (so crash points fall inside the workload only) and returns the
    workload thunk together with the judge run on every recovered
    facade (after {!Tinca.check_invariants}).  [recrash ()] puts the
    same crashed medium back (restore the pre-crash snapshot, apply the
    same survival subset), for a judge that recovers it a second way.
    The judge's [Error] message becomes the violation text. *)
type driver = {
  fresh :
    env -> (unit -> unit) * (recrash:(unit -> unit) -> Tinca.t -> (unit, string) result);
}

(** The original deterministic fill-byte workload. *)
val default_driver : config -> driver

(** The read-miss path: every disk block starts with its own fill
    byte; reads fill blocks, read pressure evicts fills and committed
    blocks, and transactions write blocks cached only as volatile
    fills.  Needs [universe] of at least 9 blocks and
    below 256; ignores [ncommits]. *)
val read_miss_driver : config -> driver

(** {!default_config} with 64 KB of NVM (about a dozen frames) over 24
    disk blocks, so the read pressure evicts, and [Capped 4]: every
    crash point holds the unflushed lines of every cached fill. *)
val read_miss_config : config

(** The cleaner, on the same geometry as {!read_miss_config}: commits,
    a disk access, idle time, then a read at whose start the idle pass
    writes the committed blocks back; a cleaned block is overwritten,
    read pressure evicts the oldest blocks, and after more idle time
    the idle pass runs after a commit.
    Two 6-block commits without idle time then make the pressure pass
    write a batch, and reads evict its blocks.  Needs [universe] of at
    least 21 blocks and below 256; ignores [ncommits]. *)
val cleaner_driver : config -> driver

(** {!cleaner_driver}'s group-commit counterpart (logging, Batched
    only): a transaction is sealed and left standing while a read runs
    the cleaner, then the batch drains and, after idle time, the next
    commit's cleaner writes the drained blocks back.  Same geometry as
    {!cleaner_driver}; needs [universe] of at least 12 blocks and below
    256. *)
val group_cleaner_driver : config -> driver

(** Partial COW writes: commits rewrite one, two, no or every 64 B
    line of the same blocks, so write hits COW into spare frames; under logging a
    transaction that stored a line into a spare is aborted
    ([Cache.Txn.commit_prefix], then [abort]); read pressure reclaims
    spares and evicts their blocks.  [group] (default [false]) sends
    every commit through a group-commit window (logging, Batched).  Same
    geometry as {!read_miss_config}, one shard; needs [universe] of at
    least 9 blocks and below 256; ignores [ncommits]. *)
val partial_driver : ?group:bool -> config -> driver

(** Run [driver]'s workload once without a crash and return its world,
    whose counters the caller can read.  [before] (default: nothing)
    sees the world after formatting, before the workload starts. *)
val run_crash_free : ?before:(env -> unit) -> driver -> config -> env

type violation = {
  crash_event : int;  (** the pmem event the crash replaced *)
  surviving : int list;  (** torn lines whose new content reached the medium *)
  lost : int list;  (** torn lines rolled back to their durable content *)
  message : string;
}

type report = {
  span : int;  (** pmem events in the crash-free workload run *)
  crash_points : int;  (** crash points explored *)
  states_checked : int;  (** recovery + invariants + oracle executions *)
  states_deduped : int;  (** subsets collapsing to an already-seen medium *)
  subsets_total : float;  (** sum of 2^d over crash points (the full space) *)
  capped_points : int;  (** crash points where the cap forced sampling *)
  max_torn_lines : int;  (** largest d encountered *)
  violations : violation list;
}

(** [explore cfg] runs the sweep.  [progress crash_at span] is invoked
    before each crash point (for CLI progress display).  [driver]
    (default {!default_driver}) supplies the workload and the oracle —
    {!Lockstep} passes a command-sequence driver.  Raises only on misconfiguration
    ([Invalid_argument]: [stride < 1], [first_event < 1], or
    [first_event] past the workload's span, so a sweep never passes
    having checked nothing) or an internal checker error; protocol bugs
    are returned as {!report.violations}. *)
val explore : ?progress:(int -> int -> unit) -> ?driver:driver -> config -> report

val pp_violation : Format.formatter -> violation -> unit

(** One line: span, crash points, states checked and deduped, capped
    points, max torn lines, and the violation count with the first
    violation. *)
val summary : report -> string

(** Render the report's headline numbers for the experiment harness. *)
val report_table : report -> Tinca_util.Tabular.t
