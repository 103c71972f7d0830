(** Little-endian fixed-width integer codecs over [Bytes.t].

    All persistent structures (cache entries, ring-buffer slots, journal
    records, inodes, directory entries) are serialized with these helpers
    so their exact byte layout is testable. *)

val get_u8 : bytes -> int -> int
val set_u8 : bytes -> int -> int -> unit

val get_u16 : bytes -> int -> int
val set_u16 : bytes -> int -> int -> unit

val get_u32 : bytes -> int -> int
val set_u32 : bytes -> int -> int -> unit

(** 48-bit unsigned, used for on-disk block numbers inside 7-byte fields. *)
val get_u48 : bytes -> int -> int
val set_u48 : bytes -> int -> int -> unit

(** 56-bit unsigned (fits OCaml's native [int]). *)
val get_u56 : bytes -> int -> int
val set_u56 : bytes -> int -> int -> unit

val get_u64 : bytes -> int -> int64
val set_u64 : bytes -> int -> int64 -> unit

(** [get_u64_int]/[set_u64_int] treat the field as a non-negative OCaml
    [int] (63-bit); raises [Invalid_argument] on overflow when reading. *)
val get_u64_int : bytes -> int -> int
val set_u64_int : bytes -> int -> int -> unit

(** [crc32 b ~pos ~len] — CRC-32 (IEEE polynomial) used to checksum
    persistent superblocks and journal blocks.  Raises [Invalid_argument]
    when the range is not within [b]. *)
val crc32 : bytes -> pos:int -> len:int -> int32
