(** TinFS — an Ext4-like block file system simulator.

    Purpose: generate the same {e block-level traffic shape} as Ext4 in
    [data=journal] mode on top of a cache stack, so the paper's
    experiments measure realistic mixes of file data, inode, bitmap and
    directory-block writes.

    On-disk format (4 KB blocks):
    - block 0 — superblock (magic, geometry, root inode);
    - inode table — 128 B inodes (kind, size, mtime, 12 direct pointers,
      single and double indirect);
    - block bitmap — one bit per data-region block;
    - data region;
    - a reserved journal region, used only by the Classic backend's JBD2
      (Tinca needs none — that is the point of the paper).

    Namespace: a single root directory with 64 B entries.  That matches
    the benchmarks, which address files by name in one flat set.

    Transaction model: every operation stages its modified blocks in a
    DRAM running transaction; {!fsync} (or the [max_dirty_blocks]
    auto-commit threshold, standing in for JBD2's 5 s timer) hands them
    to {!Backend.t.commit_blocks}.  Reads see staged blocks first
    (read-your-writes).

    DRAM caches: like Ext4's buffer cache, the file system keeps every
    committed metadata block it has read or committed (superblock, inode
    table, bitmap, pointer and directory blocks) in a DRAM table, so the
    backend serves each metadata block once; {!fsync} refreshes the table
    from what it commits, and a block committed as file data leaves it.
    File data is cached only in the optional page cache
    ([page_cache_pages]).  Both are volatile and rebuilt from media:
    {!mount} starts them empty. *)

type t

type config = {
  ninodes : int;          (** files + root (default 4096) *)
  journal_len : int;      (** blocks reserved for the Classic journal (default 1024) *)
  max_dirty_blocks : int; (** auto-commit threshold (default 256) *)
  journaled : bool;       (** false = no-journal mode: transactions are
                              replaced by plain cached writes *)
  ordered : bool;         (** Ext4 data=ordered analogue: file data is
                              written in place before the metadata
                              transaction commits.  Cheaper than full data
                              journaling on the Classic stack but gives up
                              the paper's data-consistency level (data
                              writes are not atomic).  Default false =
                              data=journal. *)
  page_cache_pages : int; (** capacity of the volatile DRAM page cache of
                              clean blocks above the NVM cache — the DRAM
                              buffer cache of the paper's Fig 1(c).  0
                              (default) disables it, sending every read to
                              the cache layer. *)
}

val default_config : config

exception File_exists of string
exception No_such_file of string
exception No_space

(** [format ~config backend] writes a fresh file system and returns it
    mounted. *)
val format : config:config -> Backend.t -> t

(** [mount ~config backend] attaches to a previously formatted file
    system (e.g. after crash recovery of the cache underneath).  Raises
    [Failure] on bad magic. *)
val mount : config:config -> Backend.t -> t

(** Geometry introspection. *)
val journal_start : t -> int

val journal_len : t -> int

(** {1 Files} *)

val create : t -> string -> unit
val exists : t -> string -> bool
val delete : t -> string -> unit
val size : t -> string -> int

(** [pwrite t name ~off data] writes [data] at byte offset [off],
    extending the file as needed. *)
val pwrite : t -> string -> off:int -> bytes -> unit

(** [pread t name ~off ~len] — bytes beyond EOF read as zeros. *)
val pread : t -> string -> off:int -> len:int -> bytes

(** Append at EOF. *)
val append : t -> string -> bytes -> unit

(** [rename t old_name new_name] — raises [No_such_file] / [File_exists]. *)
val rename : t -> string -> string -> unit

(** [truncate t name size] — shrinking frees blocks past the new EOF
    (including emptied indirection blocks); extending leaves a hole. *)
val truncate : t -> string -> int -> unit

(** All file names (sorted). *)
val list_files : t -> string list

val file_count : t -> int

(** {1 Durability} *)

(** Commit the running transaction (maps to tinca_commit / JBD2 commit /
    plain writes depending on the backend and [journaled]). *)
val fsync : t -> unit

(** Number of blocks in the running transaction. *)
val dirty_blocks : t -> int

(** fsync, then drain the cache to disk. *)
val shutdown : t -> unit

(** Backend block reads since {!format} or {!mount}: metadata blocks
    (the table's misses) and file-data blocks (the page cache's). *)
val meta_reads : t -> int

val data_reads : t -> int

(** {1 Integrity} *)

(** Full structural check: superblock sane, directory entries point to
    live inodes, block pointers in range and unshared, bitmap consistent
    with reachability.  Raises [Failure] describing the first violation.
    Used by crash-consistency tests after recovery. *)
val fsck : t -> unit
