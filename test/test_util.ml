(* Unit + property tests for tinca_util. *)
open Tinca_util

let test_rng_determinism () =
  let a = Rng.create 7 and b = Rng.create 7 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.next64 a) (Rng.next64 b)
  done

let test_rng_seeds_differ () =
  let a = Rng.create 1 and b = Rng.create 2 in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Int64.equal (Rng.next64 a) (Rng.next64 b) then incr same
  done;
  Alcotest.(check bool) "streams differ" true (!same < 4)

let test_rng_int_bounds () =
  let r = Rng.create 3 in
  for _ = 1 to 10_000 do
    let v = Rng.int r 17 in
    Alcotest.(check bool) "in range" true (v >= 0 && v < 17)
  done

let test_rng_float_bounds () =
  let r = Rng.create 4 in
  for _ = 1 to 10_000 do
    let v = Rng.float r in
    Alcotest.(check bool) "in [0,1)" true (v >= 0.0 && v < 1.0)
  done

let test_rng_copy_independent () =
  let a = Rng.create 5 in
  let _ = Rng.next64 a in
  let b = Rng.copy a in
  Alcotest.(check int64) "copy continues identically" (Rng.next64 a) (Rng.next64 b)

let test_rng_split_differs () =
  let a = Rng.create 6 in
  let b = Rng.split a in
  Alcotest.(check bool) "split stream differs" false (Int64.equal (Rng.next64 a) (Rng.next64 b))

let test_rng_shuffle_permutation () =
  let r = Rng.create 8 in
  let arr = Array.init 100 Fun.id in
  Rng.shuffle r arr;
  let sorted = Array.copy arr in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "is a permutation" (Array.init 100 Fun.id) sorted

let test_zipf_uniform () =
  let z = Zipf.create ~n:10 ~theta:0.0 in
  let r = Rng.create 9 in
  let counts = Array.make 10 0 in
  for _ = 1 to 50_000 do
    let v = Zipf.sample z r in
    counts.(v) <- counts.(v) + 1
  done;
  Array.iter
    (fun c ->
      Alcotest.(check bool) "roughly uniform" true (abs (c - 5000) < 700))
    counts

let test_zipf_skew () =
  let z = Zipf.create ~n:1000 ~theta:0.99 in
  let r = Rng.create 10 in
  let hot = ref 0 in
  let n = 20_000 in
  for _ = 1 to n do
    if Zipf.sample z r < 10 then incr hot
  done;
  (* With theta=0.99 the top-1% of ranks absorbs a large share. *)
  Alcotest.(check bool) "head is hot" true (!hot > n / 4)

let test_codec_roundtrips () =
  let b = Bytes.make 32 '\000' in
  Codec.set_u8 b 0 0xAB;
  Alcotest.(check int) "u8" 0xAB (Codec.get_u8 b 0);
  Codec.set_u16 b 2 0xBEEF;
  Alcotest.(check int) "u16" 0xBEEF (Codec.get_u16 b 2);
  Codec.set_u32 b 4 0xDEADBEEF;
  Alcotest.(check int) "u32" 0xDEADBEEF (Codec.get_u32 b 4);
  Codec.set_u48 b 8 0xABCDEF012345;
  Alcotest.(check int) "u48" 0xABCDEF012345 (Codec.get_u48 b 8);
  Codec.set_u56 b 16 0xA1B2C3D4E5F607;
  Alcotest.(check int) "u56" 0xA1B2C3D4E5F607 (Codec.get_u56 b 16);
  Codec.set_u64 b 24 0x0123456789ABCDEFL;
  Alcotest.(check int64) "u64" 0x0123456789ABCDEFL (Codec.get_u64 b 24)

let test_codec_u64_int () =
  let b = Bytes.make 8 '\000' in
  Codec.set_u64_int b 0 max_int;
  Alcotest.(check int) "max_int" max_int (Codec.get_u64_int b 0);
  Codec.set_u64 b 0 (-1L);
  Alcotest.check_raises "negative rejected" (Invalid_argument "Codec.get_u64_int: out of int range")
    (fun () -> ignore (Codec.get_u64_int b 0))

let test_crc32_known () =
  (* CRC-32 of "123456789" is 0xCBF43926 (IEEE). *)
  let b = Bytes.of_string "123456789" in
  Alcotest.(check int32) "crc" 0xCBF43926l (Codec.crc32 b ~pos:0 ~len:9)

let test_crc32_detects_change () =
  let b = Bytes.of_string "hello world, this is a block" in
  let c1 = Codec.crc32 b ~pos:0 ~len:(Bytes.length b) in
  Bytes.set b 5 'X';
  let c2 = Codec.crc32 b ~pos:0 ~len:(Bytes.length b) in
  Alcotest.(check bool) "crc changed" false (Int32.equal c1 c2)

(* Bit-at-a-time CRC-32, the definition the table-driven kernel must
   agree with on every range. *)
let crc32_bitwise b ~pos ~len =
  let c = ref 0xFFFFFFFF in
  for i = pos to pos + len - 1 do
    c := !c lxor Char.code (Bytes.get b i);
    for _ = 0 to 7 do
      c := if !c land 1 <> 0 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
    done
  done;
  Int32.of_int (!c lxor 0xFFFFFFFF)

let prop_crc32_matches_bitwise =
  QCheck.Test.make ~name:"crc32 matches bitwise definition" ~count:300
    QCheck.(triple (string_of_size Gen.(int_range 0 300)) small_nat small_nat)
    (fun (s, a, b) ->
      let buf = Bytes.of_string s in
      let n = Bytes.length buf in
      let pos = if n = 0 then 0 else a mod (n + 1) in
      let len = if n - pos = 0 then 0 else b mod (n - pos + 1) in
      Int32.equal (crc32_bitwise buf ~pos ~len) (Codec.crc32 buf ~pos ~len))

let test_crc32_bad_range () =
  let b = Bytes.make 16 'x' in
  List.iter
    (fun (pos, len) ->
      Alcotest.check_raises
        (Printf.sprintf "pos %d len %d" pos len)
        (Invalid_argument "Codec.crc32: bad range")
        (fun () -> ignore (Codec.crc32 b ~pos ~len)))
    [ (-1, 4); (0, 17); (9, 8); (0, -1) ]

let test_tabular_render () =
  let t = Tabular.create ~title:"T" [ "a"; "bb" ] in
  Tabular.add_row t [ "1"; "2" ];
  let s = Tabular.render t in
  Alcotest.(check bool) "has title" true (String.length s > 0 && s.[0] = 'T');
  Alcotest.check_raises "arity enforced" (Invalid_argument "Tabular.add_row: arity mismatch")
    (fun () -> Tabular.add_row t [ "only-one" ])

(* Property tests *)

let prop_codec_u56_roundtrip =
  QCheck.Test.make ~name:"codec u56 roundtrip" ~count:500
    QCheck.(int_bound ((1 lsl 56) - 1))
    (fun v ->
      let b = Bytes.make 7 '\000' in
      Tinca_util.Codec.set_u56 b 0 v;
      Tinca_util.Codec.get_u56 b 0 = v)

let prop_codec_u32_roundtrip =
  QCheck.Test.make ~name:"codec u32 roundtrip" ~count:500
    QCheck.(int_bound 0xFFFFFFFF)
    (fun v ->
      let b = Bytes.make 4 '\000' in
      Tinca_util.Codec.set_u32 b 0 v;
      Tinca_util.Codec.get_u32 b 0 = v)

let prop_zipf_in_range =
  QCheck.Test.make ~name:"zipf samples in range" ~count:200
    QCheck.(pair (int_range 1 500) (float_bound_inclusive 1.5))
    (fun (n, theta) ->
      let z = Zipf.create ~n ~theta in
      let r = Rng.create (n + int_of_float (theta *. 100.0)) in
      let ok = ref true in
      for _ = 1 to 100 do
        let v = Zipf.sample z r in
        if v < 0 || v >= n then ok := false
      done;
      !ok)

let suite =
  let q = QCheck_alcotest.to_alcotest in
  [
    ( "util.rng",
      [
        Alcotest.test_case "determinism" `Quick test_rng_determinism;
        Alcotest.test_case "seeds differ" `Quick test_rng_seeds_differ;
        Alcotest.test_case "int bounds" `Quick test_rng_int_bounds;
        Alcotest.test_case "float bounds" `Quick test_rng_float_bounds;
        Alcotest.test_case "copy independent" `Quick test_rng_copy_independent;
        Alcotest.test_case "split differs" `Quick test_rng_split_differs;
        Alcotest.test_case "shuffle permutes" `Quick test_rng_shuffle_permutation;
      ] );
    ( "util.zipf",
      [
        Alcotest.test_case "uniform when theta=0" `Quick test_zipf_uniform;
        Alcotest.test_case "skewed when theta=0.99" `Quick test_zipf_skew;
        q prop_zipf_in_range;
      ] );
    ( "util.codec",
      [
        Alcotest.test_case "roundtrips" `Quick test_codec_roundtrips;
        Alcotest.test_case "u64 int guard" `Quick test_codec_u64_int;
        Alcotest.test_case "crc32 known value" `Quick test_crc32_known;
        Alcotest.test_case "crc32 detects change" `Quick test_crc32_detects_change;
        Alcotest.test_case "crc32 bad range" `Quick test_crc32_bad_range;
        q prop_crc32_matches_bitwise;
        q prop_codec_u56_roundtrip;
        q prop_codec_u32_roundtrip;
      ] );
    ("util.tabular", [ Alcotest.test_case "render + arity" `Quick test_tabular_render ]);
  ]
