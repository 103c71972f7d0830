(* Host cost of the commit path: what a commit costs the OCaml process
   running the simulator, not the simulated machine.  Host time varies
   from run to run, so each figure is the best of [rounds] runs;
   allocation is deterministic, so the words of one run are exact. *)

module Pmem = Tinca_pmem.Pmem
module Stacks = Tinca_stacks.Stacks

let block = 4096
let rounds = 5
let nvm_bytes = 16 * 1024 * 1024

(* Host ns of [f ()], the best of [rounds] calls. *)
let best_ns f =
  let best = ref infinity in
  for _ = 1 to rounds do
    let t0 = Unix.gettimeofday () in
    f ();
    best := Float.min !best ((Unix.gettimeofday () -. t0) *. 1e9)
  done;
  !best

(* A 4 KB COW write into a fresh block of a 16 MiB PCM device, [k]
   blocks per [flush_ranges] + [sfence], over 4 096 blocks a run. *)
let pmem_ns_per_block ~blocks_per_fence:k =
  let env = Stacks.make_env ~nvm_bytes ~disk_blocks:1 () in
  let p = env.Stacks.pmem in
  let nblocks = nvm_bytes / block in
  let data = Bytes.make block 'c' in
  let total = 4096 / k * k in
  let next = ref 0 in
  let run () =
    for _ = 1 to total / k do
      let ranges =
        List.init k (fun i ->
            let off = (!next + i) mod nblocks * block in
            Pmem.write p ~off data;
            (off, block))
      in
      next := (!next + k) mod nblocks;
      Pmem.flush_ranges p ranges;
      Pmem.sfence p
    done
  in
  run ();
  best_ns run /. float_of_int total

type commit_words = { minor_words : float; major_words : float }

(* [n] synchronous facade commits of [blocks] distinct blocks each
   (Batched logging, PCM, 16 MiB, SSD) over a 1 024-block working set
   that fits the cache, after a warm-up, as [(run, n)].  Every write
   passes a fresh 4 KB buffer whose every line differs from the block's
   previous version. *)
let commit_stream ~blocks =
  let env = Stacks.make_env ~nvm_bytes ~disk_blocks:4096 () in
  let tc =
    Tinca.ok_exn
      (Tinca.format
         ~config:{ Tinca.Config.default with Tinca.Config.nvm_bytes }
         ~pmem:env.Stacks.pmem ~disk:env.Stacks.disk ~clock:env.Stacks.clock
         ~metrics:env.Stacks.metrics)
  in
  let universe = 1024 in
  let c = ref 0 in
  let commit () =
    let txn = Tinca.init_txn tc in
    (* A new byte each pass over the working set. *)
    let fill = Char.chr (!c * blocks / universe land 255) in
    for i = 0 to blocks - 1 do
      Tinca.ok_exn (Tinca.write txn (((!c * blocks) + i) mod universe) (Bytes.make block fill))
    done;
    Tinca.ok_exn (Tinca.commit txn);
    incr c
  in
  let n = max 64 (4096 / blocks) in
  let run () =
    for _ = 1 to n do
      commit ()
    done
  in
  (* Warm-up: every block of the working set cached once, then a run. *)
  for _ = 1 to (universe / blocks) + 1 do
    commit ()
  done;
  run ();
  (run, n)

(* The words one [run ()] of [n] commits allocates, per commit.  A minor
   collection on each side brings the counts up to date. *)
let words_per_commit (run, n) =
  Gc.minor ();
  let g0 = Gc.quick_stat () in
  run ();
  Gc.minor ();
  let g1 = Gc.quick_stat () in
  let per w0 w1 = (w1 -. w0) /. float_of_int n in
  {
    minor_words = per g0.Gc.minor_words g1.Gc.minor_words;
    major_words = per g0.Gc.major_words g1.Gc.major_words;
  }

let commit_words ~blocks = words_per_commit (commit_stream ~blocks)

let report () =
  let b = Buffer.create 512 in
  Printf.bprintf b "Pmem 4 KB COW write + flush_ranges + sfence (best of %d)\n" rounds;
  Printf.bprintf b "%18s %14s\n" "blocks per fence" "ns per block";
  List.iter
    (fun k -> Printf.bprintf b "%18d %14.0f\n" k (pmem_ns_per_block ~blocks_per_fence:k))
    [ 1; 8; 32 ];
  Printf.bprintf b "\nFacade commit, Batched logging, PCM (host time best of %d)\n" rounds;
  Printf.bprintf b "%8s %12s %14s %14s\n" "blocks" "host us" "minor words" "major words";
  List.iter
    (fun blocks ->
      let ((run, n) as stream) = commit_stream ~blocks in
      let w = words_per_commit stream in
      let host_us = best_ns run /. 1e3 /. float_of_int n in
      Printf.bprintf b "%8d %12.1f %14.0f %14.0f\n" blocks host_us w.minor_words w.major_words)
    [ 1; 8; 16; 32 ];
  Buffer.contents b
