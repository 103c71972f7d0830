(* Exact order statistics over retained samples.  The library's
   [Tinca_sim.Hist] quantises by about 6%, too coarse for a 1% bound, so
   the benchmark keeps every sample and ranks them itself. *)

(* Nearest-rank percentile with the rank given in per-mille (500 = p50,
   990 = p99, 999 = p99.9), in integer arithmetic so p99.9 of 20 000
   samples is exactly the 19 980th, not a float-rounded neighbour. *)
let rank ~n per_mille = max 1 (((per_mille * n) + 999) / 1000)

let nearest_rank sorted per_mille =
  let n = Array.length sorted in
  if n = 0 then invalid_arg "Stats.nearest_rank: no samples";
  sorted.(rank ~n per_mille - 1)

let sorted_of list =
  let a = Array.of_list list in
  Array.sort Float.compare a;
  a

(* The choosing-metrics rule for a tail: the highest of p99.9 / p99 with
   at least ten samples beyond it.  Below 1 000 samples even p99 has
   fewer than ten beyond it; it is still reported, with its count. *)
let tail_per_mille n = if n - rank ~n 999 >= 10 then 999 else 990

let percentile_name per_mille = Printf.sprintf "p%g" (float_of_int per_mille /. 10.0)

let median list = nearest_rank (sorted_of list) 500

(* Python's [statistics.quantiles(data, n=4)] (the default "exclusive"
   method), the spread BENCHMARK.json's bounds are stated in.  Needs two
   or more values. *)
let quartiles list =
  let d = sorted_of list in
  let ld = Array.length d in
  if ld < 2 then invalid_arg "Stats.quartiles: needs two or more values";
  let m = ld + 1 in
  let q i =
    let j = max 1 (min (ld - 1) (i * m / 4)) in
    let delta = (i * m) - (j * 4) in
    ((d.(j - 1) *. float_of_int (4 - delta)) +. (d.(j) *. float_of_int delta)) /. 4.0
  in
  (q 1, q 2, q 3)
