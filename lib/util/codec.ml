let get_u8 b off = Char.code (Bytes.get b off)
let set_u8 b off v = Bytes.set b off (Char.chr (v land 0xff))

let get_u16 b off = Bytes.get_uint16_le b off
let set_u16 b off v = Bytes.set_uint16_le b off v

let get_u32 b off = Int32.to_int (Bytes.get_int32_le b off) land 0xffffffff
let set_u32 b off v = Bytes.set_int32_le b off (Int32.of_int v)

let get_u48 b off = get_u32 b off lor (get_u16 b (off + 4) lsl 32)

let set_u48 b off v =
  set_u32 b off (v land 0xffffffff);
  set_u16 b (off + 4) ((v lsr 32) land 0xffff)

let get_u56 b off = get_u48 b off lor (get_u8 b (off + 6) lsl 48)

let set_u56 b off v =
  set_u48 b off v;
  set_u8 b (off + 6) ((v lsr 48) land 0xff)

let get_u64 b off = Bytes.get_int64_le b off
let set_u64 b off v = Bytes.set_int64_le b off v

let get_u64_int b off =
  let v = get_u64 b off in
  if Int64.compare v 0L < 0 || Int64.compare v (Int64.of_int max_int) > 0 then
    invalid_arg "Codec.get_u64_int: out of int range";
  Int64.to_int v

let set_u64_int b off v =
  assert (v >= 0);
  set_u64 b off (Int64.of_int v)

(* Slicing-by-8 tables for the reflected IEEE polynomial, as native ints:
   [crc_tables.(k * 256 + n)] is the CRC of byte [n] followed by [k] zero
   bytes, so one step folds eight input bytes with eight lookups. *)
let crc_tables =
  lazy
    (let t = Array.make (8 * 256) 0 in
     for n = 0 to 255 do
       let c = ref n in
       for _ = 0 to 7 do
         c := if !c land 1 <> 0 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
       done;
       t.(n) <- !c
     done;
     for k = 1 to 7 do
       for n = 0 to 255 do
         let prev = t.(((k - 1) * 256) + n) in
         t.((k * 256) + n) <- (prev lsr 8) lxor t.(prev land 0xff)
       done
     done;
     t)

let crc32 b ~pos ~len =
  if pos < 0 || len < 0 || pos > Bytes.length b - len then invalid_arg "Codec.crc32: bad range";
  let t = Lazy.force crc_tables in
  let c = ref 0xFFFFFFFF and i = ref pos in
  let stop8 = pos + (len land lnot 7) and stop = pos + len in
  while !i < stop8 do
    let lo = !c lxor get_u32 b !i and hi = get_u32 b (!i + 4) in
    c :=
      Array.unsafe_get t ((7 * 256) + (lo land 0xff))
      lxor Array.unsafe_get t ((6 * 256) + ((lo lsr 8) land 0xff))
      lxor Array.unsafe_get t ((5 * 256) + ((lo lsr 16) land 0xff))
      lxor Array.unsafe_get t ((4 * 256) + (lo lsr 24))
      lxor Array.unsafe_get t ((3 * 256) + (hi land 0xff))
      lxor Array.unsafe_get t ((2 * 256) + ((hi lsr 8) land 0xff))
      lxor Array.unsafe_get t (256 + ((hi lsr 16) land 0xff))
      lxor Array.unsafe_get t (hi lsr 24);
    i := !i + 8
  done;
  while !i < stop do
    c := Array.unsafe_get t ((!c lxor Char.code (Bytes.unsafe_get b !i)) land 0xff) lxor (!c lsr 8);
    incr i
  done;
  Int32.of_int (!c lxor 0xFFFFFFFF)
