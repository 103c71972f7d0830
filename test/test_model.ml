(* Model-based testing of the Tinca cache: long random interleavings of
   transactions, direct writes, reads, aborts, flushes and recoveries are
   checked against a trivial reference model (a map from disk block to
   last committed content).  Evictions, COW, ring wraparound and the
   cleaner all churn underneath while the observable contract
   must hold exactly. *)
open Tinca_core
open Tinca_sim
module Pmem = Tinca_pmem.Pmem
module Disk = Tinca_blockdev.Disk

let universe = 96
let block c = Bytes.make 4096 c

type world = {
  mutable cache : Cache.t;
  pmem : Pmem.t;
  disk : Disk.t;
  clock : Clock.t;
  metrics : Metrics.t;
  model : (int, char) Hashtbl.t;
}

let mk_world seed =
  let clock = Clock.create () in
  let metrics = Metrics.create () in
  let pmem = Pmem.create ~seed ~clock ~metrics ~tech:Latency.Pcm ~size:(192 * 1024) () in
  let disk = Disk.create ~clock ~metrics ~kind:Latency.Ssd ~nblocks:universe ~block_size:4096 in
  let config = { Cache.default_config with ring_slots = 32 } in
  let cache = Cache.format ~config ~pmem ~disk ~clock ~metrics in
  { cache; pmem; disk; clock; metrics; model = Hashtbl.create 64 }

let logical w blk =
  match Cache.peek w.cache blk with
  | Some d -> Bytes.get d 0
  | None -> Bytes.get (Disk.read_block w.disk blk) 0

let check w ctx =
  for blk = 0 to universe - 1 do
    let expect = match Hashtbl.find_opt w.model blk with Some c -> c | None -> '\000' in
    let got = logical w blk in
    if got <> expect then
      Alcotest.failf "%s: block %d holds %C, model says %C" ctx blk got expect
  done;
  Cache.check_invariants w.cache

let run_session ~seed ~steps =
  let rng = Tinca_util.Rng.create seed in
  let w = mk_world seed in
  for step = 1 to steps do
    let dice = Tinca_util.Rng.int rng 100 in
    if dice < 40 then begin
      (* multi-block transaction *)
      let h = Cache.Txn.init w.cache in
      let n = 1 + Tinca_util.Rng.int rng 5 in
      let staged = ref [] in
      for _ = 1 to n do
        let blk = Tinca_util.Rng.int rng universe in
        let c = Char.chr (33 + Tinca_util.Rng.int rng 90) in
        Cache.Txn.add h blk (block c);
        staged := (blk, c) :: !staged
      done;
      Cache.Txn.commit h;
      List.iter (fun (blk, c) -> Hashtbl.replace w.model blk c) (List.rev !staged)
    end
    else if dice < 55 then begin
      let blk = Tinca_util.Rng.int rng universe in
      let c = Char.chr (33 + Tinca_util.Rng.int rng 90) in
      Cache.write_direct w.cache blk (block c);
      Hashtbl.replace w.model blk c
    end
    else if dice < 75 then begin
      (* read must observe the model *)
      let blk = Tinca_util.Rng.int rng universe in
      let expect = match Hashtbl.find_opt w.model blk with Some c -> c | None -> '\000' in
      let got = Bytes.get (Cache.read w.cache blk) 0 in
      if got <> expect then Alcotest.failf "step %d: read %d got %C want %C" step blk got expect
    end
    else if dice < 85 then begin
      (* staged-then-aborted transaction leaves no trace *)
      let h = Cache.Txn.init w.cache in
      Cache.Txn.add h (Tinca_util.Rng.int rng universe) (block '!');
      Cache.Txn.abort h
    end
    else if dice < 92 then Cache.flush_all w.cache
    else begin
      (* quiescent crash + recovery: everything committed must persist *)
      Pmem.crash ~seed:(step * 7) ~survival:0.5 w.pmem;
      w.cache <-
        Cache.recover ~pmem:w.pmem ~disk:w.disk ~clock:w.clock ~metrics:w.metrics ()
    end;
    if step mod 50 = 0 then check w (Printf.sprintf "seed %d step %d" seed step)
  done;
  check w (Printf.sprintf "seed %d end" seed)

let test_model_sessions () =
  for seed = 1 to 8 do
    run_session ~seed ~steps:600
  done

let suite =
  [
    ( "core.model",
      [ Alcotest.test_case "random ops vs reference model" `Slow test_model_sessions ] );
  ]

(* Model-based FS content test: random pwrite/pread/append/truncate on a
   single file checked against a plain byte-array model, over a real
   Tinca stack (indirect blocks, sparse holes, bitmap churn included). *)
module Fs = Tinca_fs.Fs
module Stacks = Tinca_stacks.Stacks

let prop_fs_content_model =
  QCheck.Test.make ~name:"fs contents agree with byte model" ~count:25
    QCheck.(pair small_nat (list_of_size Gen.(int_range 1 25) (triple (int_bound 3) (int_bound 200) (int_bound 40))))
    (fun (seed, ops) ->
      let env = Stacks.make_env ~seed ~nvm_bytes:(4 * 1024 * 1024) ~disk_blocks:16384 () in
      let stack = Stacks.tinca env in
      let fs =
        Fs.format
          ~config:{ Fs.default_config with ninodes = 64; journal_len = 128 }
          stack.Stacks.backend
      in
      Fs.create fs "m";
      let limit = 700 * 1024 in
      let model = Bytes.make limit '\000' in
      let size = ref 0 in
      List.iter
        (fun (op, a, b) ->
          match op with
          | 0 ->
              (* pwrite *)
              let off = a * 997 mod (limit / 2) in
              let len = 1 + (b * 731 mod 20_000) in
              let len = min len (limit - off) in
              let c = Char.chr (33 + ((a + b) mod 90)) in
              Fs.pwrite fs "m" ~off (Bytes.make len c);
              Bytes.fill model off len c;
              size := max !size (off + len)
          | 1 ->
              (* append *)
              let len = 1 + (b * 613 mod 8_000) in
              if !size + len <= limit then begin
                let c = Char.chr (33 + (b mod 90)) in
                Fs.append fs "m" (Bytes.make len c);
                Bytes.fill model !size len c;
                size := !size + len
              end
          | 2 ->
              (* shrink truncate *)
              let newsize = if !size = 0 then 0 else a * 977 mod !size in
              Fs.truncate fs "m" newsize;
              Bytes.fill model newsize (limit - newsize) '\000';
              size := newsize
          | _ -> Fs.fsync fs)
        ops;
      Fs.fsync fs;
      Fs.fsck fs;
      (* Sizes agree and full contents agree. *)
      Fs.size fs "m" = !size
      && (!size = 0 || Bytes.equal (Fs.pread fs "m" ~off:0 ~len:!size) (Bytes.sub model 0 !size)))

let fs_model_suite =
  [ ("fs.model", [ QCheck_alcotest.to_alcotest prop_fs_content_model ]) ]
