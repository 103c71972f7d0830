(* The five workloads: their inputs, generated from the seed, and one
   pass over them — set-up and an unmeasured warm-up, the measured
   phase, then a crash with one unit of work still in flight, recovery,
   and a check of every block against what was acknowledged.

   All workloads are closed-loop and single-process: the simulation is
   single-threaded, and "32 streams" on group-32 means 32 logical
   clients interleaved round-robin on one simulated clock. *)

open Tinca_sim
module Pmem = Tinca_pmem.Pmem
module Disk = Tinca_blockdev.Disk
module Stacks = Tinca_stacks.Stacks
module Fs = Tinca_fs.Fs
module Backend = Tinca_fs.Backend
module Ops = Tinca_workloads.Ops
module Block_trace = Tinca_workloads.Trace
module Rng = Tinca_util.Rng
module Trace = Tinca_obs.Trace
module Samples = Probe.Samples

let nvm_bytes = 8 * 1024 * 1024 (* PCM; about 1 784 cache blocks under logging *)
let block_size = 4096

type shape =
  | Commits of { universe : int; max_blocks : int; reads : int; txns : int }
      (** synchronous facade transactions of 1..[max_blocks] distinct
          blocks, each followed by [reads] point reads *)
  | Group of { streams : int; rounds : int; universe : int; max_blocks : int }
      (** [streams] depth-1 [commit_async] streams; each transaction reads
          1..[max_blocks] blocks, then writes them *)
  | Fs_trace of {
      nblocks : int;
      ops : int;
      read_pct : float;
      zipf_theta : float;
      fsync_every : int;
    }  (** [Trace.synthesize] replayed through the file system *)

type t = { name : string; config : Tinca.Config.t; shape : shape }

let logging = { Tinca.Config.default with Tinca.Config.nvm_bytes }

let paging =
  { logging with Tinca.Config.commit_scheme = Tinca.Config.Paging Tinca.Config.default_page_cfg }

(* The working set (1 024 blocks) fits the cache, so these isolate the
   commit protocol and Pmem; fs and disk are bypassed. *)
let commits = Commits { universe = 1024; max_blocks = 15; reads = 8; txns = 6000 }

(* 16 384 blocks (64 MiB) is about 9x the cache: eviction, background
   cleaning and disk write-back all run. *)
let fs_zipf =
  Fs_trace { nblocks = 16384; ops = 12000; read_pct = 0.5; zipf_theta = 0.9; fsync_every = 8 }

let all =
  [
    (* The control for group-32: same commit path, window 0. *)
    { name = "commit-log"; config = logging; shape = commits };
    (* Same inputs on the other Commit_scheme engine: an interface change
       that helps logging but costs paging shows here. *)
    { name = "commit-page"; config = paging; shape = commits };
    (* The only workload where batching, cross-shard seals and conflict
       drains matter. *)
    {
      name = "group-32";
      config =
        {
          logging with
          Tinca.Config.nshards = 4;
          ring_slots = 4096;
          group_window_ns = 4_000_000;
          group_max_batch = 64;
        };
      shape = Group { streams = 32; rounds = 600; universe = 1024; max_blocks = 3 };
    };
    (* Larger than the cache: fs, eviction and disk dilute any gain that
       is only in the commit path. *)
    { name = "fs-zipf-log"; config = logging; shape = fs_zipf };
    (* The identical trace on paging, whose eviction path under pressure
       no other workload reaches. *)
    { name = "fs-zipf-page"; config = paging; shape = fs_zipf };
  ]

let find name = List.find_opt (fun w -> String.equal w.name name) all

let scale_count scale n = max 1 (int_of_float (Float.round (scale *. float_of_int n)))

(* [--scale] multiplies every op count and the fs-* file size. *)
let scaled scale w =
  let shape =
    match w.shape with
    | Commits c -> Commits { c with txns = scale_count scale c.txns }
    | Group g -> Group { g with rounds = scale_count scale g.rounds }
    | Fs_trace f ->
        Fs_trace { f with ops = scale_count scale f.ops; nblocks = max 64 (scale_count scale f.nblocks) }
  in
  { w with shape }

(* --- inputs ------------------------------------------------------------ *)

type txn = { writes : int array; reads : int array }

(* One replayed trace operation and the fsyncs that follow it. *)
type fs_unit = { op : Block_trace.op; fsyncs : int }

type inputs =
  | Commit_in of { fill : int array list; warm : txn array; measured : txn array; pending : int array }
  | Group_in of {
      fill : int array list;
      warm : int array array array;  (** round -> stream -> blocks *)
      measured : int array array array;
      pending : int array array;
    }
  | Fs_in of { trace : Block_trace.op list; warm : fs_unit array; measured : fs_unit array; pending : int array }

type generated = {
  inputs : inputs;
  crash_frac : float;  (** where in the in-flight durable call the power fails *)
  crash_seed : int;  (** which unfenced lines survive *)
}

let distinct rng ~universe n =
  let a = Array.make n 0 in
  let rec mem b j i = j < i && (a.(j) = b || mem b (j + 1) i) in
  let i = ref 0 in
  while !i < n do
    let b = Rng.int rng universe in
    if not (mem b 0 !i) then begin
      a.(!i) <- b;
      incr i
    end
  done;
  a

(* Every block of the universe once, eight per transaction, so the
   measured phase starts with a warm cache. *)
let fill_of universe =
  List.init ((universe + 7) / 8) (fun i -> Array.init (min 8 (universe - (i * 8))) (fun j -> (i * 8) + j))

let warm_count n = max 1 (n / 10)

(* Transaction sizes 1..[max], each equally often in a seed-shuffled
   order: every seed sees the same size mix, so seeds differ in which
   blocks are touched and in what order, not in how much is written. *)
let sizes rng ~max n =
  let a = Array.init n (fun i -> 1 + (i mod max)) in
  Rng.shuffle rng a;
  a

let units_of trace =
  let rec go acc = function
    | [] -> List.rev acc
    | Block_trace.Fsync :: rest -> (
        match acc with
        | u :: acc' -> go ({ u with fsyncs = u.fsyncs + 1 } :: acc') rest
        | [] -> go acc rest)
    | op :: rest -> go ({ op; fsyncs = 0 } :: acc) rest
  in
  Array.of_list (go [] trace)

let generate w ~seed =
  let rng = Rng.create seed in
  let crng = Rng.split rng in
  let inputs =
    match w.shape with
    | Commits { universe; max_blocks; reads; txns } ->
        let txn size =
          let writes = distinct rng ~universe size in
          let reads = Array.init reads (fun _ -> Rng.int rng universe) in
          { writes; reads }
        in
        let batch n = Array.map txn (sizes rng ~max:max_blocks n) in
        let warm = batch (warm_count txns) in
        let measured = batch txns in
        let pending = (txn max_blocks).writes in
        Commit_in { fill = fill_of universe; warm; measured; pending }
    | Group { streams; rounds; universe; max_blocks } ->
        let gen n =
          let s = sizes rng ~max:max_blocks (n * streams) in
          Array.init n (fun r -> Array.init streams (fun k -> distinct rng ~universe s.((r * streams) + k)))
        in
        let warm = gen (warm_count rounds) in
        let measured = gen rounds in
        let pending = (gen 1).(0) in
        Group_in { fill = fill_of universe; warm; measured; pending }
    | Fs_trace { nblocks; ops; read_pct; zipf_theta; fsync_every } ->
        let nwarm = warm_count ops in
        let trace =
          Block_trace.synthesize ~seed ~nblocks ~ops:(nwarm + ops) ~read_pct ~zipf_theta ~fsync_every
        in
        let units = units_of trace in
        let warm = Array.sub units 0 nwarm in
        let measured = Array.sub units nwarm (Array.length units - nwarm) in
        let pending = distinct rng ~universe:(Block_trace.max_blkno trace + 1) fsync_every in
        Fs_in { trace; warm; measured; pending }
  in
  let crash_frac = Rng.float crng in
  let crash_seed = Rng.int crng 0x3FFF_FFFF in
  { inputs; crash_frac; crash_seed }

let inputs_digest g = Digest.to_hex (Digest.string (Marshal.to_string g []))

(* --- block stamps and the ledger of versions ---------------------------- *)

(* Every block write carries (block, version) in its first and last 16
   bytes; a block whose two stamps disagree is torn. *)
let stamp_into buf ~pos blk ver =
  Bytes.fill buf pos block_size (Char.unsafe_chr ((blk + ver) land 0xff));
  Bytes.set_int64_le buf pos (Int64.of_int blk);
  Bytes.set_int64_le buf (pos + 8) (Int64.of_int ver);
  Bytes.set_int64_le buf (pos + block_size - 16) (Int64.of_int blk);
  Bytes.set_int64_le buf (pos + block_size - 8) (Int64.of_int ver)

let stamped blk ver =
  let b = Bytes.create block_size in
  stamp_into b ~pos:0 blk ver;
  b

(* [Some version] when [data] at [pos] is an intact stamp of [blk]; a
   never-written block reads as zeros, version 0. *)
let version_of ~blk data ~pos =
  let get o = Int64.to_int (Bytes.get_int64_le data (pos + o)) in
  let b = get 0 and v = get 8 in
  if b = get (block_size - 16) && v = get (block_size - 8) && (b = blk || (b = 0 && v = 0)) then Some v
  else None

type ledger = {
  latest : int array;  (** newest version written (sealed or staged) *)
  acked : int array;  (** newest version acknowledged durable *)
}

let ledger n = { latest = Array.make n 0; acked = Array.make n 0 }

let next_version l b =
  l.latest.(b) <- l.latest.(b) + 1;
  l.latest.(b)

let ack l b = l.acked.(b) <- l.latest.(b)

exception Wrong_data of int

(* A read during the run must return the newest version. *)
let check_current l b data ~pos =
  if version_of ~blk:b data ~pos <> Some l.latest.(b) then raise (Wrong_data b)

(* After the crash every block must hold its acknowledged version or one
   written after it; the in-flight unit (one transaction, one group batch,
   or one fsync's worth of writes) must have survived whole or not at all. *)
let verify l ~read =
  let bad = ref 0 and pending = ref 0 and survived = ref 0 in
  Array.iteri
    (fun b latest ->
      let in_flight = latest > l.acked.(b) in
      if in_flight then incr pending;
      match read b with
      | Some data -> (
          match version_of ~blk:b data ~pos:0 with
          | Some v when v >= l.acked.(b) && v <= latest -> if in_flight && v = latest then incr survived
          | Some _ | None -> incr bad)
      | None -> incr bad
      | exception (Out_of_memory | Stack_overflow as e) -> raise e
      | exception _ -> incr bad)
    l.latest;
  if !survived <> 0 && !survived <> !pending then incr bad;
  !bad

(* --- one pass ------------------------------------------------------------ *)

(* What the per-layer report reads off the cache under test. *)
type handle = {
  kv : unit -> (string * string) list;
  group : unit -> Layers.group;
  peak_cow : unit -> int;
}

let no_handle = { kv = (fun () -> []); group = (fun () -> Layers.no_group); peak_cow = (fun () -> 0) }

let facade_handle tc =
  let paging = Tinca.scheme_name tc = "paging" in
  {
    kv = (fun () -> Tinca.stats_kv tc);
    group = (fun () -> Layers.group_of tc);
    peak_cow = (fun () -> if paging then 0 else Tinca.peak_cow_blocks tc);
  }

type measured = {
  setup_s : float;
  sim_ns : float;
  wall_ns : float;
  windows : (float * float) list;
      (** ten equal windows: ops per host second, and [Calib.slowdown]
          at the window's ends *)
  slowdown : float;  (** median [Calib.slowdown] over set-up and the measured phase *)
  live_mb : float;  (** live OCaml heap right after the measured phase *)
  counts : (string * int) list;  (** counter deltas *)
  before : Layers.snapshot;
  after : Layers.snapshot;
  rows : Layers.row list;
  chrome_problems : string list;
}

type ctx = {
  probe : Probe.t;
  env : Stacks.env;
  setup_start : float;
  setup_slowdown : float;
  slowdown : unit -> float;  (** [Calib.slowdown], or 1 where host time is not reported *)
  chrome : string option;
  durable_sim : Samples.t;
  durable_wall : Samples.t;
  read_sim : Samples.t;
  mutable handle : handle;
  mutable failed : int;
  mutable user_bytes : int;
  mutable backend_blocks : int;
  mutable durable_events : int;  (** pmem events of the latest durable call *)
  mutable measured : measured option;
}

let call ctx = Probe.call ctx.probe

let note_user_bytes ctx n = if ctx.probe.Probe.measuring then ctx.user_bytes <- ctx.user_bytes + n

(* Run one op; an error result, a wrong read or an exception counts it
   failed and the run goes on. *)
let attempt ctx f =
  match f () with
  | true -> ()
  | false -> ctx.failed <- ctx.failed + 1
  | exception (Out_of_memory | Stack_overflow as e) -> raise e
  | exception _ -> ctx.failed <- ctx.failed + 1

(* Count the pmem events of a durable call: the crash step places its
   power failure at a seed-chosen point inside one such call. *)
let durable ctx f =
  let e0 = Pmem.event_count ctx.env.Stacks.pmem in
  let r = f () in
  ctx.durable_events <- Pmem.event_count ctx.env.Stacks.pmem - e0;
  r

(* Fail the power inside [f] once the in-flight unit is staged, then
   resolve the crash with the seed's choice of surviving lines. *)
let crash_inside ctx g f =
  let pmem = ctx.env.Stacks.pmem in
  let k = 1 + int_of_float (g.crash_frac *. float_of_int (max 1 ctx.durable_events)) in
  Pmem.set_crash_countdown pmem (Some k);
  (match f () with () -> () | exception Pmem.Crash_point -> ());
  Pmem.set_crash_countdown pmem None;
  Pmem.crash ~seed:g.crash_seed pmem

let snapshot ctx =
  let pmem = ctx.env.Stacks.pmem in
  {
    Layers.kv = ctx.handle.kv ();
    group = ctx.handle.group ();
    peak_cow = ctx.handle.peak_cow ();
    wear_max = Pmem.wear_max pmem;
    wear_mean = float_of_int (Pmem.wear_total pmem) /. float_of_int (Pmem.size pmem / Pmem.line_size);
  }

(* The measured phase: [n] ops in ten windows, with the host's speed
   ([Calib]) taken between windows, outside their timing.  Set-up ends
   where it starts. *)
let measure ctx ~n op =
  let env = ctx.env in
  let setup_s = (Probe.wall_ns () -. ctx.setup_start) /. 1e9 in
  let traced = ctx.probe.Probe.traced in
  let before = snapshot ctx in
  let bounds = Array.init 11 (fun k -> k * n / 10) in
  let starts = Array.make 11 0.0 and ends = Array.make 11 0.0 and slow = Array.make 11 0.0 in
  let boundary k =
    ends.(k) <- Probe.wall_ns ();
    slow.(k) <- ctx.slowdown ();
    starts.(k) <- Probe.wall_ns ()
  in
  let snap = Metrics.snapshot env.Stacks.metrics in
  let ev0 = Pmem.event_count env.Stacks.pmem in
  Gc.full_major ();
  if traced then Trace.enable ();
  let s0 = Clock.now_ns env.Stacks.clock in
  Probe.start ctx.probe;
  boundary 0;
  let k = ref 1 in
  for i = 0 to n - 1 do
    op i;
    while !k <= 10 && i + 1 >= bounds.(!k) do
      boundary !k;
      incr k
    done
  done;
  Probe.stop ctx.probe;
  let sim_ns = Clock.now_ns env.Stacks.clock -. s0 in
  let rows = if traced then Trace.flame_rows () else [] in
  Gc.full_major ();
  let live_mb = float_of_int ((Gc.stat ()).Gc.live_words * (Sys.word_size / 8)) /. 1048576.0 in
  let chrome_problems =
    match ctx.chrome with
    | Some path when traced -> (
        Trace.export_to_file path;
        match Tinca_obs.Jsonv.validate_trace_file path with Ok _ -> [] | Error ps -> ps)
    | Some _ | None -> []
  in
  if traced then Trace.reset ();
  let windows =
    List.filter_map
      (fun k ->
        let nops = bounds.(k) - bounds.(k - 1) in
        if nops = 0 then None
        else
          Some
            ( float_of_int nops /. ((ends.(k) -. starts.(k - 1)) /. 1e9),
              (slow.(k - 1) +. slow.(k)) /. 2.0 ))
      (List.init 10 (fun k -> k + 1))
  in
  let counts =
    ("pmem.events", Pmem.event_count env.Stacks.pmem - ev0) :: Metrics.diff env.Stacks.metrics snap
    |> List.filter (fun (_, v) -> v <> 0)
    |> List.sort compare
  in
  ctx.measured <-
    Some
      {
        setup_s;
        sim_ns;
        wall_ns = List.fold_left (fun acc k -> acc +. ends.(k) -. starts.(k - 1)) 0.0 (List.init 10 succ);
        windows;
        slowdown = Stats.median (ctx.setup_slowdown :: Array.to_list slow);
        live_mb;
        counts;
        before;
        after = snapshot ctx;
        rows;
        chrome_problems;
      }

let format_tinca w env =
  let config = { w.config with Tinca.Config.nvm_bytes = Pmem.size env.Stacks.pmem } in
  Trace.name_track env.Stacks.clock "tinca";
  Tinca.ok_exn
    (Tinca.format ~config ~pmem:env.Stacks.pmem ~disk:env.Stacks.disk ~clock:env.Stacks.clock
       ~metrics:env.Stacks.metrics)

let recover_tinca env =
  Tinca.recover ~pmem:env.Stacks.pmem ~disk:env.Stacks.disk ~clock:env.Stacks.clock
    ~metrics:env.Stacks.metrics

(* --- the three workload loops --------------------------------------- *)

let read_checked ctx tc l b =
  match call ctx ~sim:ctx.read_sim "tinca.api.read" (fun () -> Tinca.read tc b) with
  | Ok data -> check_current l b data ~pos:0
  | Error _ -> raise (Wrong_data b)

let commit_txn ctx tc l (x : txn) =
  let txn = call ctx "tinca.api.init_txn" (fun () -> Tinca.init_txn tc) in
  let staged =
    Array.for_all
      (fun b ->
        let data = stamped b (next_version l b) in
        call ctx "tinca.api.write" (fun () -> Tinca.write txn b data) = Ok ())
      x.writes
  in
  let committed =
    durable ctx (fun () ->
        call ctx ~sim:ctx.durable_sim ~wall:ctx.durable_wall "tinca.api.commit" (fun () ->
            Tinca.commit txn))
    = Ok ()
  in
  if committed then Array.iter (ack l) x.writes;
  note_user_bytes ctx (Array.length x.writes * block_size);
  Array.iter (read_checked ctx tc l) x.reads;
  staged && committed

let run_commits ctx g ~fill ~warm ~measured ~pending tc l =
  List.iter (fun writes -> attempt ctx (fun () -> commit_txn ctx tc l { writes; reads = [||] })) fill;
  Array.iter (fun x -> attempt ctx (fun () -> commit_txn ctx tc l x)) warm;
  measure ctx ~n:(Array.length measured) (fun i ->
      attempt ctx (fun () -> commit_txn ctx tc l measured.(i)));
  let txn = Tinca.init_txn tc in
  Array.iter (fun b -> ignore (Tinca.write txn b (stamped b (next_version l b)))) pending;
  crash_inside ctx g (fun () -> if Tinca.commit txn = Ok () then Array.iter (ack l) pending)

(* One group-32 transaction: wait for this stream's previous ticket
   (depth 1), read the blocks, write them back, seal.  Its durable
   latency is seal to durable, taken when the batch drains. *)
let group_txn ctx tc l tickets k blocks =
  let drained =
    match tickets.(k) with
    | Some tk when not (Tinca.ticket_durable tk) ->
        durable ctx (fun () ->
            call ctx ~wall:ctx.durable_wall "tinca.api.await" (fun () -> Tinca.await tk))
        = Ok ()
    | Some _ | None -> true
  in
  tickets.(k) <- None;
  let txn = call ctx "tinca.api.init_txn" (fun () -> Tinca.init_txn tc) in
  Array.iter (read_checked ctx tc l) blocks;
  let versions = Array.map (next_version l) blocks in
  let staged =
    Array.for_all2
      (fun b v -> call ctx "tinca.api.write" (fun () -> Tinca.write txn b (stamped b v)) = Ok ())
      blocks versions
  in
  note_user_bytes ctx (Array.length blocks * block_size);
  let measuring = ctx.probe.Probe.measuring in
  match call ctx "tinca.api.commit_async" (fun () -> Tinca.commit_async txn) with
  | Ok tk ->
      Tinca.on_durable tk (fun () ->
          Array.iteri (fun i b -> l.acked.(b) <- max l.acked.(b) versions.(i)) blocks;
          match Tinca.ticket_latency_ns tk with
          | Some ns when measuring -> Samples.add ctx.durable_sim ns
          | Some _ | None -> ());
      tickets.(k) <- Some tk;
      drained && staged
  | Error _ -> false

let await_all ctx tickets =
  Array.iteri
    (fun k t ->
      tickets.(k) <- None;
      match t with
      | Some tk when not (Tinca.ticket_durable tk) ->
          attempt ctx (fun () ->
              durable ctx (fun () ->
                  call ctx ~wall:ctx.durable_wall "tinca.api.await" (fun () -> Tinca.await tk))
              = Ok ())
      | Some _ | None -> ())
    tickets

let run_group ctx g ~fill ~warm ~measured ~pending tc l =
  let streams = Array.length pending in
  let tickets = Array.make streams None in
  let round r = Array.iteri (fun k blocks -> attempt ctx (fun () -> group_txn ctx tc l tickets k blocks)) r in
  List.iter (fun writes -> attempt ctx (fun () -> group_txn ctx tc l tickets 0 writes)) fill;
  Array.iter round warm;
  await_all ctx tickets;
  let n = Array.length measured * streams in
  measure ctx ~n (fun i ->
      let k = i mod streams in
      attempt ctx (fun () -> group_txn ctx tc l tickets k measured.(i / streams).(k));
      if i = n - 1 then await_all ctx tickets);
  round pending;
  (* The newest ticket is in the standing batch: awaiting it drains the
     whole batch, and the power fails inside that drain. *)
  let newest = Array.fold_left (fun acc t -> if Option.is_some t then t else acc) None tickets in
  crash_inside ctx g (fun () -> Option.iter (fun tk -> ignore (Tinca.await tk)) newest)

let fs_config = { Fs.default_config with Fs.ninodes = 64; journal_len = 64 }

(* The benchmark's wrapper of the stack's backend: the fs layer's calls
   into the Tinca facade, timed from outside both. *)
let wrap_backend ctx (b : Backend.t) =
  {
    b with
    Backend.read_block =
      (fun blk -> call ctx "tinca.backend.read_block" (fun () -> b.Backend.read_block blk));
    commit_blocks =
      (fun blocks ->
        if ctx.probe.Probe.measuring then
          ctx.backend_blocks <- ctx.backend_blocks + List.length blocks;
        call ctx "tinca.backend.commit_blocks" (fun () -> b.Backend.commit_blocks blocks));
    write_blocks =
      (fun blocks -> call ctx "tinca.backend.write_blocks" (fun () -> b.Backend.write_blocks blocks));
    sync = (fun () -> call ctx "tinca.backend.sync" b.Backend.sync);
  }

let blocks_of ~off ~len =
  if off mod block_size <> 0 || len mod block_size <> 0 then invalid_arg "unaligned file access";
  List.init (len / block_size) (fun i -> (off / block_size) + i)

(* The benchmark-owned Ops.t: writes carry stamps, reads are checked,
   fsync acknowledges everything written before it. *)
let fs_ops ctx fs l =
  let unacked = ref [] in
  {
    Ops.create = (fun name -> call ctx "fs.create" (fun () -> Fs.create fs name));
    delete = (fun name -> call ctx "fs.delete" (fun () -> Fs.delete fs name));
    exists = (fun name -> call ctx "fs.exists" (fun () -> Fs.exists fs name));
    size = (fun name -> call ctx "fs.size" (fun () -> Fs.size fs name));
    pwrite =
      (fun name ~off ~len ->
        let buf = Bytes.create len in
        List.iteri
          (fun i b ->
            stamp_into buf ~pos:(i * block_size) b (next_version l b);
            unacked := b :: !unacked)
          (blocks_of ~off ~len);
        note_user_bytes ctx len;
        call ctx "fs.pwrite" (fun () -> Fs.pwrite fs name ~off buf));
    pread =
      (fun name ~off ~len ->
        let data = call ctx ~sim:ctx.read_sim "fs.pread" (fun () -> Fs.pread fs name ~off ~len) in
        List.iteri (fun i b -> check_current l b data ~pos:(i * block_size)) (blocks_of ~off ~len));
    fsync =
      (fun () ->
        durable ctx (fun () ->
            call ctx ~sim:ctx.durable_sim ~wall:ctx.durable_wall "fs.fsync" (fun () -> Fs.fsync fs));
        List.iter (ack l) !unacked;
        unacked := []);
    compute = (fun _ -> ());
  }

let replay (ops : Ops.t) u =
  let off b = b * block_size in
  (match u.op with
  | Block_trace.Read b -> ops.Ops.pread Block_trace.file_name ~off:(off b) ~len:block_size
  | Block_trace.Write b -> ops.Ops.pwrite Block_trace.file_name ~off:(off b) ~len:block_size
  | Block_trace.Fsync -> ());
  for _ = 1 to u.fsyncs do
    ops.Ops.fsync ()
  done;
  true

let run_fs ctx g ~trace ~warm ~measured ~pending (stack : Stacks.t) l =
  let fs = Fs.format ~config:fs_config (wrap_backend ctx stack.Stacks.backend) in
  let ops = fs_ops ctx fs l in
  Block_trace.prealloc ~block_size trace ops;
  Array.iter (fun u -> attempt ctx (fun () -> replay ops u)) warm;
  measure ctx ~n:(Array.length measured) (fun i -> attempt ctx (fun () -> replay ops measured.(i)));
  Array.iter (fun b -> attempt ctx (fun () -> replay ops { op = Block_trace.Write b; fsyncs = 0 })) pending;
  crash_inside ctx g ops.Ops.fsync

let disk_blocks = function
  | Commits { universe; _ } | Group { universe; _ } -> universe
  | Fs_trace { nblocks; _ } -> (2 * nblocks) + 1024

let universe_of = function
  | Commit_in { fill; _ } | Group_in { fill; _ } ->
      List.fold_left (fun acc f -> acc + Array.length f) 0 fill
  | Fs_in { trace; _ } -> Block_trace.max_blkno trace + 1

(* Re-attach after the crash: the facade's recovery (and, on fs-*, the
   file-system mount), timed in simulated ns; then a reader of what
   survived. *)
let recover w env =
  let clock = env.Stacks.clock in
  let s0 = Clock.now_ns clock in
  match w.shape with
  | Fs_trace _ ->
      let stack = Stacks.tinca_recover env in
      let fs = Fs.mount ~config:fs_config stack.Stacks.backend in
      let sim = Clock.now_ns clock -. s0 in
      Fs.fsck fs;
      let read b = Some (Fs.pread fs Block_trace.file_name ~off:(b * block_size) ~len:block_size) in
      (sim, stack.Stacks.proc_stats (), read)
  | Commits _ | Group _ ->
      let tc = Tinca.ok_exn (recover_tinca env) in
      let sim = Clock.now_ns clock -. s0 in
      let read b = match Tinca.read tc b with Ok d -> Some d | Error _ -> None in
      (sim, Tinca.stats_kv tc, read)

let recover_cycles = 50

type pass = {
  ops : int;
  failed : int;  (** failed ops plus blocks that failed the post-crash check *)
  user_bytes : int;
  durable_sim : Samples.t;
  durable_wall : Samples.t;
  read_sim : Samples.t;
  recover_sim_ns : float;
  outside_wall_ns : float;  (** measured-phase host time outside layer calls (traced) *)
  layers : (string * float) list;  (** per-layer metrics (traced passes) *)
  m : measured;
}

let run_pass ?chrome ~slowdown ~recover_cycles w g ~traced =
  Gc.full_major ();
  let setup_slowdown = slowdown () in
  let setup_start = Probe.wall_ns () in
  let env = Stacks.make_env ~nvm_bytes ~disk_blocks:(disk_blocks w.shape) () in
  let ctx =
    {
      probe = Probe.create ~traced env.Stacks.clock;
      env;
      setup_start;
      setup_slowdown;
      slowdown;
      chrome;
      durable_sim = Samples.create ();
      durable_wall = Samples.create ();
      read_sim = Samples.create ();
      handle = no_handle;
      failed = 0;
      user_bytes = 0;
      backend_blocks = 0;
      durable_events = 0;
      measured = None;
    }
  in
  let l = ledger (universe_of g.inputs) in
  (match g.inputs with
  | Commit_in { fill; warm; measured; pending } ->
      let tc = format_tinca w env in
      ctx.handle <- facade_handle tc;
      run_commits ctx g ~fill ~warm ~measured ~pending tc l
  | Group_in { fill; warm; measured; pending } ->
      let tc = format_tinca w env in
      ctx.handle <- facade_handle tc;
      run_group ctx g ~fill ~warm ~measured ~pending tc l
  | Fs_in { trace; warm; measured; pending } ->
      let stack = Stacks.tinca ~config:w.config env in
      ctx.handle <-
        { no_handle with kv = stack.Stacks.proc_stats; peak_cow = stack.Stacks.peak_cow_blocks };
      run_fs ctx g ~trace ~warm ~measured ~pending stack l);
  let m = Option.get ctx.measured in
  let crashed = if traced then Some (Pmem.snapshot env.Stacks.pmem) else None in
  if traced then Trace.reset ();
  let recovered, recover_sim_ns, kv_recovered, violations =
    match recover w env with
    | sim, kv, read -> (true, sim, kv, verify l ~read)
    | exception (Out_of_memory | Stack_overflow as e) -> raise e
    | exception _ -> (false, 0.0, [], Array.length l.latest)
  in
  let recover_rows = if traced then Trace.flame_rows () else [] in
  Trace.disable ();
  let recover_wall_ns =
    match crashed with
    | Some image when recovered ->
        List.init recover_cycles (fun _ ->
            Pmem.restore env.Stacks.pmem image;
            let w0 = Probe.wall_ns () in
            ignore (recover_tinca env);
            Probe.wall_ns () -. w0)
    | Some _ | None -> []
  in
  let ops =
    match g.inputs with
    | Commit_in { measured; _ } -> Array.length measured
    | Group_in { measured; pending; _ } -> Array.length measured * Array.length pending
    | Fs_in { measured; _ } -> Array.length measured
  in
  let layers =
    if not traced then []
    else
      Layers.compute
        {
          Layers.probe = ctx.probe;
          ops;
          sim_ns = m.sim_ns;
          counts = m.counts;
          before = m.before;
          after = m.after;
          kv_recovered;
          rows = m.rows;
          recover_rows;
          recover_wall_ns;
          backend_blocks = ctx.backend_blocks;
        }
  in
  {
      ops;
      failed = ctx.failed + violations;
      user_bytes = ctx.user_bytes;
      durable_sim = ctx.durable_sim;
      durable_wall = ctx.durable_wall;
      read_sim = ctx.read_sim;
      recover_sim_ns;
      layers;
      outside_wall_ns = m.wall_ns -. ctx.probe.Probe.top_wall_ns;
      m;
    }
