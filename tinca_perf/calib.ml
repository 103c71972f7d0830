(* How fast the host runs right now, measured by a fixed piece of work
   that does not depend on the code under test.

   On a shared machine the same pass takes tens of percent longer for
   minutes at a time while neighbours compete for cores, caches and
   memory bandwidth.  The benchmark times this reference work next to
   every measured window and scales host times by it, which cancels most
   of that drift.  The work mimics the simulator's: 4 KiB buffers
   allocated on the major heap and filled byte by byte from random spots
   of a large array, a hash table holding the recent ones, and
   cache-line stores back into the array. *)

open Bigarray

let block = 4096
let media = Array1.create char c_layout (16 * 1024 * 1024) (* outside the OCaml heap *)
let () = Array1.fill media '\x5a'
let blocks = Array1.dim media / block
let iters = 4000

let work () =
  let recent = Hashtbl.create 1024 in
  let x = ref 0x2545F491 and sum = ref 0 in
  for i = 1 to iters do
    x := ((!x * 0x5DEECE66D) + 11) land 0xFFFF_FFFF_FFFF;
    let src = (!x lsr 17) mod blocks * block in
    let b = Bytes.create block in
    for j = 0 to block - 1 do
      Bytes.unsafe_set b j (Array1.unsafe_get media (src + j))
    done;
    Hashtbl.replace recent (i land 1023) b;
    let dst = ((!x lsr 5) mod (blocks * (block / 64))) * 64 in
    for j = 0 to 63 do
      Array1.unsafe_set media (dst + j) (Bytes.unsafe_get b (j lxor i land (block - 1)))
    done;
    sum := !sum + Char.code (Bytes.unsafe_get b (i land (block - 1)))
  done;
  ignore (Sys.opaque_identity !sum)

(* Host time of [work] on an idle 2-vCPU Xeon VM at 2.0 GHz, the machine
   the README's baseline comes from. *)
let nominal_ns = 20e6

(* How many times slower than nominal the host runs now: divide a host
   duration by it, multiply a host rate by it. *)
let slowdown () =
  let t0 = Probe.wall_ns () in
  work ();
  (Probe.wall_ns () -. t0) /. nominal_ns
