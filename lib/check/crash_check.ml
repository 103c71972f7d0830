(* Exhaustive crash-space model checker for the Tinca commit protocol.

   The torture tests in test/test_crash.ml sweep every pmem event as a
   crash point but resolve each crash with *randomly sampled* cache-line
   survival outcomes, so low-probability torn states go untested.  This
   checker closes that gap: for a deterministic workload it enumerates
   every pmem event as a crash point and, at each crash, walks the
   survival subsets of the unfenced cache lines *exhaustively* — all 2^d
   torn media images — rather than sampling them.

   d is kept tractable by two reductions, neither of which loses states:
   - lines whose volatile content equals their durable backup are
     dropped from the subset space (their survival cannot change the
     medium), which is what keeps d small at most crash points given the
     protocol's own fencing;
   - post-crash media images are deduplicated by digest, so subsets that
     collapse to the same medium run recovery once.

   When 2^d still exceeds the configured cap (typically inside a torn
   4 KB data-block store, d = 64), the checker falls back to a *seeded
   sample* of the subset space that always includes the all-lost and
   all-survive corners, and reports "explored X of Y" via Logs and the
   final report instead of truncating silently.  A sweep that wants
   breadth across protocol stages rather than depth per crash (the
   flight recorder's) asks for the corners plus a few samples instead.

   Every explored state must pass three gates:
   1. Tinca.recover succeeds — the facade discriminates the commit
      scheme (logging ring vs. paging indirection table) from the media
      magic, so the same sweep covers both schemes;
   2. Tinca.check_invariants holds on the recovered engine (per-cache
      audit plus: the cross-shard seal must be clear);
   3. the judge: the recovered logical state (cache overlaying disk,
      full block content) equals one of the images the driver's Spec
      model allows — the durable state, the standing batch drained
      whole, or the in-flight transaction applied — never a partial
      mix.

   With [nshards > 1] the workload's multi-block transactions stripe
   across shards, so the sweep covers every crash point of the striped
   commit scheduler — in particular the window between one shard's Head
   advance and the next, and either side of the cross-shard seal — and
   gate 3 doubles as the all-or-nothing oracle for multi-shard
   transactions: a recovered state where one shard's sub-commit is
   visible and another's is not matches neither the pre-txn nor the
   post-txn image and is flagged. *)

open Tinca_sim
module Pmem = Tinca_pmem.Pmem
module Disk = Tinca_blockdev.Disk

let log_src = Logs.Src.create "tinca.check" ~doc:"Tinca crash-space model checker"

module Log = (val Logs.src_log log_src : Logs.LOG)

type masks = Capped of int | Corners_plus of int

type config = {
  seed : int;  (** workload RNG seed *)
  ncommits : int;  (** transactions in the workload *)
  universe : int;  (** disk blocks the workload touches *)
  pmem_bytes : int;  (** NVM size; small enough to force evictions *)
  ring_slots : int;
  masks : masks;  (** which survival subsets each crash point explores *)
  sample_seed : int;  (** seed for the sampled subsets *)
  first_event : int;  (** first crash point (1-based), for sub-range sweeps *)
  stride : int;  (** explore every [stride]-th crash point *)
  nshards : int;  (** shards the device is partitioned into *)
  scheme : Tinca.Config.scheme;  (** commit scheme the sweep drives *)
}

let default_config =
  {
    seed = 2024;
    ncommits = 6;
    universe = 48;
    pmem_bytes = 160 * 1024 (* ~30 data blocks: forces evictions *);
    ring_slots = 64;
    masks = Capped 256;
    sample_seed = 1;
    first_event = 1;
    stride = 1;
    nshards = 1;
    scheme = Tinca.Config.Logging Tinca.Batched;
  }

type violation = {
  crash_event : int;  (** the pmem event the crash replaced *)
  surviving : int list;  (** torn lines whose new content reached the medium *)
  lost : int list;  (** torn lines rolled back to their durable content *)
  message : string;
}

type report = {
  span : int;  (** pmem events in the crash-free workload run *)
  crash_points : int;  (** crash points explored *)
  states_checked : int;  (** recovery + invariants + oracle executions *)
  states_deduped : int;  (** survival subsets collapsing to an already-seen medium *)
  subsets_total : float;  (** Σ 2^d over crash points (the full space) *)
  capped_points : int;  (** crash points where the cap forced sampling *)
  max_torn_lines : int;  (** largest d encountered *)
  violations : violation list;
}

(* --- the model and the judge ------------------------------------------- *)

type env = { pmem : Pmem.t; disk : Disk.t; clock : Clock.t; metrics : Metrics.t }

(* What a driver has acknowledged, as a Spec, plus the image of the
   facade call now running when that call can make a transaction
   durable. *)
type model = { mutable spec : Spec.t; mutable in_flight : Spec.t option }

let durably m post call =
  m.in_flight <- post;
  let r = call () in
  m.in_flight <- None;
  r

(* Logical content of [blk] after recovery: cache version if cached, else
   the disk's. *)
let logical_block peek disk blk =
  match peek blk with Some data -> data | None -> Disk.read_block disk blk

(* The images a crash may leave: the sealed queue lost, the batch
   drained whole, or the running call's transaction applied. *)
let candidates m =
  ("durable", Spec.drop_sealed m.spec)
  :: ("drained", Spec.flush_sealed m.spec)
  :: (match m.in_flight with Some s -> [ ("in-flight", s) ] | None -> [])

(* The first (block, byte offset) where [image] and [s] differ. *)
let first_diff image s =
  let rec go blk =
    if blk >= Spec.nblocks s then None
    else
      let got = image.(blk) and want = Spec.block s blk in
      if Bytes.equal got want then go (blk + 1)
      else
        let rec off i =
          if i < Bytes.length got && i < Bytes.length want && Bytes.get got i = Bytes.get want i
          then off (i + 1)
          else i
        in
        Some (blk, off 0)
  in
  go 0

let judge m image =
  let image = Array.init (Spec.nblocks m.spec) image in
  let cands = candidates m in
  if List.exists (fun (_, s) -> first_diff image s = None) cands then Ok ()
  else
    (* Name the line where the candidate that agrees longest stops. *)
    let blk, off =
      List.fold_left (fun acc (_, s) -> max acc (Option.get (first_diff image s))) (0, 0) cands
    in
    let byte b = if off < Bytes.length b then Printf.sprintf "%C" (Bytes.get b off) else "none" in
    Error
      (Printf.sprintf "block %d line %d is %s (%s): the recovered image matches no candidate" blk
         (off / 64) (byte image.(blk))
         (String.concat ", "
            (List.map (fun (name, s) -> name ^ " " ^ byte (Spec.block s blk)) cands)))

(* The judge of every driver here: the recovered facade's image. *)
let model_judge env m ~recrash:_ recovered = judge m (logical_block (Tinca.peek recovered) env.disk)

(* --- deterministic workloads -------------------------------------------- *)

(* A pluggable workload + oracle.  [fresh env] formats the media and
   returns the workload thunk (run until it finishes or the armed crash
   countdown fires) and the judge applied to every recovered facade.
   [recrash ()] puts the same crashed medium back, for a judge that
   recovers it a second way.  The drivers below judge by [model_judge];
   Lockstep supplies a command-sequence workload, Flight_check a
   group-commit workload whose judge also reads the forensic dossier. *)
type driver = {
  fresh : env -> (unit -> unit) * (recrash:(unit -> unit) -> Tinca.t -> (unit, string) result);
}

let mk_env cfg =
  let clock = Clock.create () in
  let metrics = Metrics.create () in
  let pmem =
    Pmem.create ~seed:(cfg.seed + 1) ~clock ~metrics ~tech:Latency.Pcm ~size:cfg.pmem_bytes ()
  in
  let disk =
    Disk.create ~clock ~metrics ~kind:Latency.Ssd ~nblocks:cfg.universe ~block_size:4096
  in
  { pmem; disk; clock; metrics }

let tinca_config cfg =
  {
    Tinca.Config.default with
    Tinca.Config.nvm_bytes = cfg.pmem_bytes;
    ring_slots = cfg.ring_slots;
    nshards = cfg.nshards;
    commit_scheme = cfg.scheme;
  }

let mk_tinca ?(group_window_ns = 0) cfg env =
  Tinca.ok_exn
    (Tinca.format
       ~config:{ (tinca_config cfg) with Tinca.Config.group_window_ns }
       ~pmem:env.pmem ~disk:env.disk ~clock:env.clock ~metrics:env.metrics)

(* One transaction staging [(blk, bytes)] pairs, in order, on the facade
   and in the spec. *)
let stage tc m writes =
  let h = Tinca.init_txn tc in
  let stxn =
    List.fold_left
      (fun stxn (blk, data) ->
        Tinca.ok_exn (Tinca.write h blk data);
        Result.get_ok (Spec.write m.spec stxn blk data))
      (Spec.init_txn m.spec) writes
  in
  (h, stxn)

(* A synchronous commit, acknowledged once [Tinca.commit] returns. *)
let commit tc m writes =
  let h, stxn = stage tc m writes in
  let post, _ = Result.get_ok (Spec.commit m.spec stxn) in
  durably m (Some post) (fun () -> Tinca.ok_exn (Tinca.commit h));
  m.spec <- post

let reconcile tc m = m.spec <- Spec.flush_sealed ~keep:(Tinca.group_pending tc) m.spec

(* A group-commit transaction, sealed once [Tinca.commit_async] returns;
   a drain inside the call can make it durable with the batch. *)
let commit_async tc m writes =
  let h, stxn = stage tc m writes in
  let sealed, _ = Result.get_ok (Spec.seal m.spec stxn) in
  let tk =
    durably m (Some (Spec.flush_sealed sealed)) (fun () -> Tinca.ok_exn (Tinca.commit_async h))
  in
  m.spec <- sealed;
  reconcile tc m;
  tk

let fills = List.map (fun (blk, v) -> (blk, Bytes.make 4096 v))
let commit_fills tc m writes = commit tc m (fills writes)

(* [ncommits] transactions of 1..4 fill-byte blocks with repeated block
   choices (exercising COW write hits) and occasional reads mixed in. *)
let run_workload cfg tc m =
  let rng = Tinca_util.Rng.create cfg.seed in
  for _txn = 1 to cfg.ncommits do
    let n = 1 + Tinca_util.Rng.int rng 4 in
    let writes =
      List.init n (fun _ ->
          let blk = Tinca_util.Rng.int rng cfg.universe in
          (blk, Char.chr (Tinca_util.Rng.int rng 256)))
    in
    (* Staging a write touches no NVM, so this read may come first. *)
    if Tinca_util.Rng.chance rng 0.3 then
      ignore (Tinca.read tc (Tinca_util.Rng.int rng cfg.universe));
    commit_fills tc m writes
  done

let empty_model cfg =
  { spec = Spec.create ~nblocks:cfg.universe ~block_size:4096; in_flight = None }

(* A crash-free run; [before] sees the world once the media is
   formatted, before the workload starts. *)
let run_crash_free ?(before = fun (_ : env) -> ()) driver cfg =
  let env = mk_env cfg in
  let workload, _judge = driver.fresh env in
  before env;
  workload ();
  env

(* Events of a crash-free run, so the sweep covers the whole span.
   [fresh] formats the media before we start counting, matching the
   sweep loop (crash points fall inside the workload only). *)
let total_events driver cfg =
  let before = ref 0 in
  let env = run_crash_free ~before:(fun env -> before := Pmem.event_count env.pmem) driver cfg in
  Pmem.event_count env.pmem - !before

let default_driver cfg =
  {
    fresh =
      (fun env ->
        let tc = mk_tinca cfg env and m = empty_model cfg in
        ((fun () -> run_workload cfg tc m), model_judge env m));
  }

(* A driver whose disk blocks start with their own fill bytes, [blk + 1],
   which seed the spec. *)
let own_fills_driver ?group_window_ns workload cfg =
  {
    fresh =
      (fun env ->
        let m = empty_model cfg in
        for blk = 0 to cfg.universe - 1 do
          let data = Bytes.make 4096 (Char.chr (blk + 1)) in
          Disk.write_block env.disk blk data;
          m.spec <- Result.get_ok (Spec.write_direct m.spec blk data)
        done;
        let tc = mk_tinca ?group_window_ns cfg env in
        ((fun () -> workload cfg env tc m), model_judge env m));
  }

(* Read fills are volatile: a fill stores its frame and writes no entry,
   a crash un-caches it, and a write to a filled block takes the miss
   path.  Every disk block starts with its own fill byte, so a recovered
   block that exposes an unflushed frame cannot match the spec.
   Reads fill blocks; read pressure then evicts fills and committed
   blocks alike; transactions then write blocks cached only as fills,
   and finally a COW hit beside a fill.  [ncommits] is ignored. *)
let read_miss_workload cfg _env tc m =
  let read blk = ignore (Tinca.read tc blk) and last = cfg.universe - 1 in
  for blk = 0 to 5 do
    read blk
  done;
  commit_fills tc m [ (0, 'a'); (6, 'a') ];
  for blk = 8 to last do
    read blk
  done;
  read 1;
  read 2;
  commit_fills tc m [ (1, 'b'); (2, 'b'); (last, 'b') ];
  read 3;
  commit_fills tc m [ (last, 'c'); (3, 'c') ]

let read_miss_config =
  { default_config with masks = Capped 4; pmem_bytes = 64 * 1024; universe = 24 }

let read_miss_driver = own_fills_driver read_miss_workload

(* The cleaner under the same judge.  Its idle pass runs when fewer
   frames are free than its frontier (always, on this device) and the
   disk has been idle since after a version became durable, so the
   workload reads a missing block after its commits (a disk access) and
   then idles.  The idle pass runs at the next read's start, a cleaned
   block is overwritten, read pressure evicts the oldest blocks, and
   after more idle time it runs after a commit.  Two 6-block commits
   with no idle time in between then leave more than 70 % of the 15
   frames dirty, so the pressure pass writes a batch, and reads evict
   the batch's blocks, whose next version is then read from disk.
   [ncommits] is ignored. *)
let cleaner_workload cfg env tc m =
  let read blk = ignore (Tinca.read tc blk) and last = cfg.universe - 1 in
  let idle () = Clock.advance env.clock 1e6 in
  commit_fills tc m [ (0, 'a'); (1, 'a') ];
  commit_fills tc m [ (2, 'a') ];
  read 8;
  idle ();
  read 9;
  commit_fills tc m [ (1, 'b'); (3, 'b') ];
  for blk = 10 to 15 do
    read blk
  done;
  idle ();
  commit_fills tc m [ (2, 'c'); (4, 'c') ];
  for blk = 16 to last do
    read blk
  done;
  commit_fills tc m [ (0, 'd'); (3, 'd') ];
  commit_fills tc m (List.init 6 (fun i -> (9 + i, 'e')));
  commit_fills tc m (List.init 6 (fun i -> (15 + i, 'f')));
  for blk = 0 to 8 do
    read blk
  done

let cleaner_driver = own_fills_driver cleaner_workload

(* The cleaner inside a group-commit window: a transaction is sealed
   (its writes staged, nothing flushed) and left standing while a read
   runs the cleaner, which writes committed blocks back and persists
   their clean marks; the batch then drains, and after a disk access
   and idle time the next commit's cleaner writes the drained blocks
   back.  The window never expires on its own. *)
let group_cleaner_workload cfg env tc m =
  let read blk = ignore (Tinca.read tc blk) and last = cfg.universe - 1 in
  let idle () = Clock.advance env.clock 1e6 in
  commit_fills tc m [ (0, 'a'); (1, 'a') ];
  commit_fills tc m [ (2, 'a') ];
  read 8;
  idle ();
  ignore (commit_async tc m (fills [ (3, 'b'); (4, 'b') ]));
  idle ();
  read 9;
  Tinca.group_flush tc;
  reconcile tc m;
  read 10;
  idle ();
  commit_fills tc m [ (1, 'c'); (5, 'c') ];
  for blk = 11 to last do
    read blk
  done;
  commit_fills tc m [ (3, 'd'); (0, 'd') ]

let group_cleaner_driver = own_fills_driver ~group_window_ns:1_000_000_000 group_cleaner_workload

(* --- partial writes ----------------------------------------------------- *)

(* [blk]'s acknowledged bytes with each of [lines] filled with [v]. *)
let edited m blk lines v =
  let b = Spec.block m.spec blk in
  List.iter (fun i -> Bytes.fill b (i * 64) 64 v) lines;
  (blk, b)

let every_line = List.init 64 Fun.id

(* Few lines of the same blocks rewritten across commits, so write hits
   find a shadow and COW into spare frames: one line, two, none (an
   identical rewrite) and every line.  Under logging an aborted
   transaction stores a line into a block's spare (commit_prefix, then
   abort); read pressure then reclaims spares and evicts their blocks.
   With [group] each commit is one group-commit batch of one transaction
   per block, drained at once.  [ncommits] is ignored. *)
let partial_workload ~group cfg _env tc m =
  let commit edits =
    let writes = List.map (fun (blk, lines, v) -> edited m blk lines v) edits in
    if group then begin
      List.iter (fun w -> ignore (commit_async tc m [ w ])) writes;
      Tinca.group_flush tc;
      reconcile tc m
    end
    else commit tc m writes
  in
  commit [ (0, every_line, 'a'); (1, every_line, 'a') ];
  commit [ (0, [ 3 ], 'b'); (1, [ 5; 6 ], 'b') ];
  commit [ (0, [ 7 ], 'c'); (2, every_line, 'c') ];
  commit [ (0, [], 'd'); (1, [ 5 ], 'd') ];
  (match cfg.scheme with
  | Tinca.Config.Logging _ ->
      let module Cache = Tinca_core.Cache in
      let h = Cache.Txn.init (Tinca_core.Shard.caches (Tinca.shard tc)).(0) in
      Cache.Txn.add h 0 (snd (edited m 0 [ 20 ] 'x'));
      Cache.Txn.commit_prefix h 1;
      Cache.Txn.abort h
  | Tinca.Config.Paging _ -> ());
  commit [ (0, [ 9 ], 'e'); (1, every_line, 'f') ];
  for blk = 8 to cfg.universe - 1 do
    ignore (Tinca.read tc blk)
  done;
  commit [ (0, [ 3 ], 'g'); (1, [ 1 ], 'g') ]

let partial_driver ?(group = false) cfg =
  own_fills_driver
    ?group_window_ns:(if group then Some 1_000_000_000 else None)
    (partial_workload ~group) cfg

(* Run the three gates on the current (post-crash) medium.  Recovery goes
   through the facade, which sniffs the scheme from the media magic. *)
let check_state env judge =
  match Tinca.recover ~pmem:env.pmem ~disk:env.disk ~clock:env.clock ~metrics:env.metrics with
  | exception e -> Error (Printf.sprintf "recovery raised %s" (Printexc.to_string e))
  | Error e -> Error (Printf.sprintf "recovery failed: %s" (Tinca.error_message e))
  | Ok recovered -> (
      match Tinca.check_invariants recovered with
      | exception e -> Error (Printf.sprintf "invariant audit raised %s" (Printexc.to_string e))
      | () -> judge recovered)

(* --- survival-subset enumeration --------------------------------------- *)

(* The subsets [policy] explores at a crash point with [d] torn lines, as
   masks over [torn] (bit j = torn line j survives).  [Capped cap]: all
   2^d when that fits the cap, otherwise [cap] subsets — the two corners
   (all lost / all survive) plus seeded samples.  [Corners_plus n]: the
   corners plus [n] seeded samples.  Every sample draws one bit per torn
   line from [rng], and all are drawn before any is explored. *)
let subset_masks ~d ~policy ~rng =
  let full = 2.0 ** float_of_int d in
  let sample _ =
    let tbl = Hashtbl.create 16 in
    for j = 0 to d - 1 do
      if Tinca_util.Rng.bool rng then Hashtbl.replace tbl j ()
    done;
    `Table tbl
  in
  match policy with
  | Capped cap when d <= 29 && 1 lsl d <= cap ->
      (`Exhaustive, List.init (1 lsl d) (fun m -> `Bits m), full)
  | Capped cap ->
      let masks = ref [] in
      for i = 1 to max 0 (cap - 2) do
        masks := sample i :: !masks
      done;
      (`Sampled, `Bits 0 :: `All :: !masks, full)
  | Corners_plus n ->
      let samples = List.init (min n (max 0 ((1 lsl min d 20) - 2))) sample in
      ((if d <= 1 then `Exhaustive else `Sampled), `Bits 0 :: `All :: samples, full)

let mask_mem mask j =
  match mask with
  | `Bits m -> m land (1 lsl j) <> 0
  | `All -> true
  | `Table tbl -> Hashtbl.mem tbl j

(* --- the sweep ---------------------------------------------------------- *)

let explore ?(progress = fun (_ : int) (_ : int) -> ()) ?driver cfg =
  if cfg.stride < 1 then invalid_arg "Crash_check.explore: stride must be >= 1";
  if cfg.first_event < 1 then invalid_arg "Crash_check.explore: first_event must be >= 1";
  let driver = match driver with Some d -> d | None -> default_driver cfg in
  let span = total_events driver cfg in
  if cfg.first_event > span then
    invalid_arg
      (Printf.sprintf "Crash_check.explore: first_event %d is past the workload's %d pmem events"
         cfg.first_event span);
  let sample_rng = Tinca_util.Rng.create cfg.sample_seed in
  let crash_points = ref 0 in
  let states_checked = ref 0 in
  let states_deduped = ref 0 in
  let subsets_total = ref 0.0 in
  let capped_points = ref 0 in
  let max_torn = ref 0 in
  let violations = ref [] in
  let k = ref cfg.first_event in
  while !k <= span do
    let crash_at = !k in
    progress crash_at span;
    let env = mk_env cfg in
    let workload, judge = driver.fresh env in
    Pmem.set_crash_countdown env.pmem (Some crash_at);
    (match workload () with
    | () ->
        (* [span] counts exactly the workload's events, so every armed
           countdown in [1, span] must fire. *)
        failwith
          (Printf.sprintf "Crash_check: countdown %d did not fire within span %d" crash_at span)
    | exception Pmem.Crash_point ->
        incr crash_points;
        (* Only lines whose volatile content differs from their durable
           backup span distinct media images; everything else is fixed. *)
        let torn_list = Pmem.torn_lines env.pmem in
        let d = List.length torn_list in
        if d > !max_torn then max_torn := d;
        let torn = Array.of_list torn_list in
        let torn_bit = Hashtbl.create 16 in
        Array.iteri (fun j idx -> Hashtbl.replace torn_bit idx j) torn;
        let snap = Pmem.snapshot env.pmem in
        let kind, masks, full = subset_masks ~d ~policy:cfg.masks ~rng:sample_rng in
        subsets_total := !subsets_total +. full;
        let explored = List.length masks in
        (if kind = `Sampled then begin
           incr capped_points;
           Log.info (fun m ->
               m "crash point %d/%d: %d torn lines; exploring %d of %.0f survival subsets \
                  (seeded sample)"
                 crash_at span d explored full)
         end
         else
           Log.debug (fun m ->
               m "crash point %d/%d: %d torn lines; exploring all %d survival subsets" crash_at
                 span d explored));
        let seen = Hashtbl.create 64 in
        List.iter
          (fun mask ->
            let recrash () =
              Pmem.restore env.pmem snap;
              Pmem.crash_select env.pmem ~survive:(fun idx ->
                  (* Verdicts for untorn lines are irrelevant to the medium;
                     resolve them as survived. *)
                  match Hashtbl.find_opt torn_bit idx with
                  | Some j -> mask_mem mask j
                  | None -> true)
            in
            recrash ();
            (* Every subset starts from [snap], so the media can differ
               only in the torn lines. *)
            let digest = Pmem.lines_digest env.pmem torn_list in
            if Hashtbl.mem seen digest then incr states_deduped
            else begin
              Hashtbl.add seen digest ();
              incr states_checked;
              match check_state env (judge ~recrash) with
              | Ok () -> ()
              | Error message ->
                  let surviving = ref [] and lost = ref [] in
                  Array.iteri
                    (fun j l -> if mask_mem mask j then surviving := l :: !surviving
                      else lost := l :: !lost)
                    torn;
                  violations :=
                    {
                      crash_event = crash_at;
                      surviving = List.rev !surviving;
                      lost = List.rev !lost;
                      message;
                    }
                    :: !violations
            end)
          masks);
    k := !k + cfg.stride
  done;
  {
    span;
    crash_points = !crash_points;
    states_checked = !states_checked;
    states_deduped = !states_deduped;
    subsets_total = !subsets_total;
    capped_points = !capped_points;
    max_torn_lines = !max_torn;
    violations = List.rev !violations;
  }

let pp_violation ppf v =
  let lines l = String.concat "," (List.map string_of_int l) in
  Format.fprintf ppf "crash@@event %d survived=[%s] lost=[%s]: %s" v.crash_event
    (lines v.surviving) (lines v.lost) v.message

let summary r =
  Printf.sprintf "span %d, %d crash points, %d states (%d deduped), %d capped, max %d torn, %d violations%s"
    r.span r.crash_points r.states_checked r.states_deduped r.capped_points r.max_torn_lines
    (List.length r.violations)
    (match r.violations with v :: _ -> Format.asprintf " (first: %a)" pp_violation v | [] -> "")

let report_table r =
  let t = Tinca_util.Tabular.create ~title:"Crash-space exploration" [ "metric"; "value" ] in
  let add k v = Tinca_util.Tabular.add_row t [ k; v ] in
  add "pmem events in workload (span)" (string_of_int r.span);
  add "crash points explored" (string_of_int r.crash_points);
  add "survival-subset space (sum 2^d)" (Printf.sprintf "%.0f" r.subsets_total);
  add "post-crash states checked" (string_of_int r.states_checked);
  add "states deduped (identical media)" (string_of_int r.states_deduped);
  add "crash points capped (sampled)" (string_of_int r.capped_points);
  add "max torn lines at one crash" (string_of_int r.max_torn_lines);
  add "violations" (string_of_int (List.length r.violations));
  t
