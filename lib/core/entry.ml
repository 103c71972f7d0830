open Tinca_util

type role = Log | Buffer

type t = {
  valid : bool;
  role : role;
  modified : bool;
  disk_blkno : int;
  prev : int option;
  cur : int;
}

let fresh = 0xFFFFFFFF
let size = 16

let flag_valid = 0b001
let flag_log = 0b010
let flag_modified = 0b100

let encode t =
  let b = Bytes.make size '\000' in
  let flags =
    (if t.valid then flag_valid else 0)
    lor (match t.role with Log -> flag_log | Buffer -> 0)
    lor (if t.modified then flag_modified else 0)
  in
  Codec.set_u8 b 0 flags;
  Codec.set_u56 b 1 t.disk_blkno;
  Codec.set_u32 b 8 (match t.prev with Some p -> p | None -> fresh);
  Codec.set_u32 b 12 t.cur;
  b

let decode_at b off =
  if off < 0 || off + size > Bytes.length b then invalid_arg "Entry.decode_at: need 16 bytes";
  let flags = Codec.get_u8 b off in
  let prev_raw = Codec.get_u32 b (off + 8) in
  {
    valid = flags land flag_valid <> 0;
    role = (if flags land flag_log <> 0 then Log else Buffer);
    modified = flags land flag_modified <> 0;
    disk_blkno = Codec.get_u56 b (off + 1);
    prev = (if prev_raw = fresh then None else Some prev_raw);
    cur = Codec.get_u32 b (off + 12);
  }

let decode b =
  if Bytes.length b <> size then invalid_arg "Entry.decode: need 16 bytes";
  decode_at b 0

let invalid_bytes () = Bytes.make size '\000'

let pp ppf t =
  Format.fprintf ppf "{V=%b R=%s M=%b disk=%d prev=%s cur=%d}" t.valid
    (match t.role with Log -> "log" | Buffer -> "buf")
    t.modified t.disk_blkno
    (match t.prev with Some p -> string_of_int p | None -> "FRESH")
    t.cur

let equal a b =
  a.valid = b.valid && a.role = b.role && a.modified = b.modified
  && a.disk_blkno = b.disk_blkno && a.prev = b.prev && a.cur = b.cur
