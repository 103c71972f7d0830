(** Host cost of the commit path: host time and OCaml allocation per
    operation of the process running the simulator.  Host times are the
    best of five runs; allocation is deterministic for a build, so the
    words are exact. *)

(** Host ns per 4 KB block of a [Pmem] COW write, [flush_ranges] and
    [sfence], [blocks_per_fence] blocks per fence, on a 16 MiB PCM
    device. *)
val pmem_ns_per_block : blocks_per_fence:int -> float

type commit_words = {
  minor_words : float;  (** [Gc.quick_stat] minor words per commit *)
  major_words : float;  (** major words per commit, promotions included *)
}

(** [commit_words ~blocks] — the words one synchronous facade commit of
    [blocks] distinct blocks (Batched logging, PCM, 16 MiB, SSD)
    allocates, after a warm-up, over a 1 024-block working set that fits
    the cache.  Every write passes a fresh 4 KB buffer.  It runs no
    timed pass. *)
val commit_words : blocks:int -> commit_words

(** The table [tinca_bench host] prints: [pmem_ns_per_block] at 1, 8
    and 32 blocks per fence, and the host µs (best of five runs) and
    [commit_words] of a facade commit at 1, 8, 16 and 32 blocks. *)
val report : unit -> string
