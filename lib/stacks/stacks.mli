(** Stack builders: assemble the two systems the paper compares (plus the
    motivation variants) from the substrate libraries.

    - {b Tinca}: Ext4-like FS -> Tinca transactional NVM cache -> disk
      (paper Fig 1(c)).
    - {b Classic}: Ext4-like FS -> JBD2 journal -> Flashcache over an NVM
      block device -> disk (paper Fig 1(a), §5.1).
    - {b No-journal}: FS writing straight through Flashcache (the
      motivation experiments' baseline without crash consistency).

    Every stack owns its simulated clock, metrics registry, pmem and
    disk, so experiments can run stacks side by side and diff their
    counters. *)

type env = {
  clock : Tinca_sim.Clock.t;
  metrics : Tinca_sim.Metrics.t;
  pmem : Tinca_pmem.Pmem.t;
  disk : Tinca_blockdev.Disk.t;
}

(** [make_env ~nvm_bytes ~disk_blocks ()] — defaults: PCM, SSD, clflush,
    seed 42. *)
val make_env :
  ?seed:int ->
  ?tech:Tinca_sim.Latency.nvm_tech ->
  ?disk_kind:Tinca_sim.Latency.disk_kind ->
  ?flush_instr:Tinca_sim.Latency.flush_instr ->
  nvm_bytes:int ->
  disk_blocks:int ->
  unit ->
  env

type t = {
  label : string;
  env : env;
  backend : Tinca_fs.Backend.t;
  layouts : Tinca_core.Layout.t list;
      (** NVM space partition for the persistence sanitizer's region
          classifier — one layout per shard (Tinca logging stacks only;
          [[]] elsewhere). *)
  page_layouts : Tinca_core.Paging.region_layout list;
      (** Same for Tinca paging stacks: one epoch/table/pool region
          layout per shard; [[]] elsewhere. *)
  cache_write_hit_rate : unit -> float;
      (** Write hit rate of the cache layer (paper Fig 12c). *)
  peak_cow_blocks : unit -> int;
      (** Peak NVM blocks pinned as COW previous versions (Tinca only;
          paper §5.4.3); 0 for other stacks. *)
  proc_stats : unit -> (string * string) list;
      (** /proc-style health snapshot of the stack's cache layer:
          [Cache.stats_kv] for Tinca, Flashcache/journal occupancy for
          the classic stacks, empty where nothing applies.  Render with
          {!Tinca_obs.Procfs.render}. *)
}

(** Build a Tinca stack through the {!Tinca} facade (validates the
    config, formats the — possibly sharded — cache).  [config.nvm_bytes]
    is overridden with the env's actual device size; the other geometry
    and policy fields apply as given.  Raises the facade's
    [Invalid_argument] mapping if {!Tinca.Config.validate} rejects the
    config. *)
val tinca : ?config:Tinca.Config.t -> env -> t

(** Re-attach a Tinca stack after {!Tinca_pmem.Pmem.crash} (runs the
    facade recovery: shard directory, cross-shard roll-forward or
    rollback, per-shard recovery). *)
val tinca_recover : env -> t

(** Build a Classic stack (formats cache + journal).  [journal_len]
    must match the file system's [journal_len] (the journal lives in the
    last [journal_len] blocks of the disk, as laid out by
    {!Tinca_fs.Fs.format}). *)
val classic :
  ?fc_config:Tinca_flashcache.Flashcache.config -> ?journal_len:int -> env -> t

(** Re-attach a Classic stack after a crash: rebuild the Flashcache
    mirror, then replay the journal. *)
val classic_recover :
  ?fc_config:Tinca_flashcache.Flashcache.config -> ?journal_len:int -> env -> t

(** Flashcache with no journaling above it; [fc_config] exposes the
    metadata_sync / flush_writes ablation knobs of the motivation
    figures. *)
val nojournal : ?fc_config:Tinca_flashcache.Flashcache.config -> env -> t

(** Re-attach a no-journal stack after a crash (rebuild the Flashcache
    mirror from its persistent metadata). *)
val nojournal_recover : ?fc_config:Tinca_flashcache.Flashcache.config -> env -> t

(** UBJ-style union of buffer cache and journal (paper §5.4.4
    comparison). *)
val ubj : ?ubj_config:Tinca_ubj.Ubj.config -> env -> t

(** [instrument stack] attaches the persistence sanitizer
    ({!Tinca_checker.Psan}) to the stack's pmem — with the region
    classifier when the stack carries {!t.layouts} — and returns the
    stack with [commit_blocks] bracketed by the sanitizer's transaction
    scope, so acknowledged commits are checked for unfenced writes.
    Call on a freshly built stack (after format, before the workload).
    [strict]/[max_violations] are passed to {!Tinca_checker.Psan.attach}. *)
val instrument : ?strict:bool -> ?max_violations:int -> t -> t * Tinca_checker.Psan.t
