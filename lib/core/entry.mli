(** The 16-byte Tinca cache entry (paper Fig 5, §4.2).

    Layout (little-endian):
    - byte 0: flags — bit 0 [V]alid (ours: distinguishes free slots),
      bit 1 [R]ole (1 = log block, 0 = buffer block), bit 2 [M]odified;
    - bytes 1..7: on-disk block number (56 bits);
    - bytes 8..11: {e previous} NVM block number (32 bits,
      [fresh] = 0xFFFFFFFF when the block had no prior cached version);
    - bytes 12..15: {e current} NVM block number (32 bits).

    An entry always fits one [cmpxchg16b]-style atomic write, which is
    what makes fine-grained metadata updates crash-atomic. *)

type role = Log | Buffer

type t = {
  valid : bool;
  role : role;
  modified : bool;
  disk_blkno : int;
  prev : int option; (** [None] encodes FRESH *)
  cur : int;
}

(** The FRESH sentinel as stored on media. *)
val fresh : int

(** Size in bytes (16). *)
val size : int

(** [encode t] — 16-byte representation. *)
val encode : t -> bytes

(** [decode b] — [b] must be exactly 16 bytes.  An all-invalid slot
    decodes with [valid = false]. *)
val decode : bytes -> t

(** [decode_at b off] decodes the entry stored at [b.[off .. off+15]],
    so a scan can decode a whole table read in one piece without a
    16-byte copy per entry.  Raises [Invalid_argument] when the range
    does not fit [b]. *)
val decode_at : bytes -> int -> t

(** A zeroed, invalid slot. *)
val invalid_bytes : unit -> bytes

val pp : Format.formatter -> t -> unit
val equal : t -> t -> bool
