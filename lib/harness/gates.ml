(* The gate table: every CI gate as a list of properties, run through
   Gate.  Each property carries exactly the budget of the command line
   it replaced (sweep configs, seeds, shard counts, psan commit counts). *)

module Check = Tinca_checker.Crash_check
module FCheck = Tinca_checker.Flight_check
module Lockstep = Tinca_checker.Lockstep
module Psan = Tinca_checker.Psan
module Stacks = Tinca_stacks.Stacks
module Backend = Tinca_fs.Backend
module Pmem = Tinca_pmem.Pmem
module Rng = Tinca_util.Rng

let sweep = Exp_check.sweep_property

(* --- persistence sanitizer ----------------------------------------------- *)

let psan_seed = Check.default_config.Check.seed
let psan_universe = 160

(* Random commit/read mix through a stack's backend; [commit_blocks] is
   already bracketed with the sanitizer's transaction scope by
   [Stacks.instrument]. *)
let psan_workload ~commits ~seed (stack : Stacks.t) =
  let rng = Rng.create seed in
  for _ = 1 to commits do
    let n = 1 + Rng.int rng 4 in
    let blocks =
      List.init n (fun _ ->
          (Rng.int rng psan_universe, Bytes.make 4096 (Char.chr (Rng.int rng 256))))
    in
    stack.Stacks.backend.Backend.commit_blocks blocks;
    if Rng.chance rng 0.3 then
      ignore (stack.Stacks.backend.Backend.read_block (Rng.int rng psan_universe))
  done

let psan_phase label run =
  Gate.property ("psan " ^ label) (fun () ->
      let r = run () in
      (Psan.summary r, r.Psan.violations = [] && r.Psan.violations_dropped = 0))

let psan_env ?(journal_len = 0) () =
  Stacks.make_env ~seed:psan_seed ~nvm_bytes:(512 * 1024) ~disk_blocks:(psan_universe + journal_len) ()

(* Tinca with full region classification (layout-aware rules active,
   one layout per shard), through a crash, recovery and a second
   workload phase: the sanitizer stays attached across the crash (its
   shadow resets on the Crash event) and audits recovery's revocation
   writes too. *)
let psan_tinca ~commits ~shards ~scheme () =
  let env = psan_env () in
  let config =
    match
      Tinca.Config.of_args
        ~base:{ Tinca.Config.default with Tinca.Config.ring_slots = 256 }
        ~scheme ~shards ~nvm_bytes:(512 * 1024) ()
    with
    | Ok c -> c
    | Error m -> invalid_arg m
  in
  let stack, psan = Stacks.instrument (Stacks.tinca ~config env) in
  psan_workload ~commits ~seed:psan_seed stack;
  Pmem.crash ~seed:(psan_seed + 1) env.Stacks.pmem;
  let recovered = Stacks.tinca_recover env in
  let recommit blocks =
    Psan.txn_begin psan;
    match recovered.Stacks.backend.Backend.commit_blocks blocks with
    | () -> Psan.txn_end psan
    | exception e ->
        Psan.txn_abort psan;
        raise e
  in
  psan_workload ~commits:(max 1 (commits / 4)) ~seed:(psan_seed + 2)
    { recovered with Stacks.backend = { recovered.Stacks.backend with Backend.commit_blocks = recommit } };
  Psan.detach psan;
  Psan.report psan

(* A stack without a Tinca layout: the unfenced-ack and redundant-flush
   rules carry the audit. *)
let psan_plain ~commits env make =
  let stack, psan = Stacks.instrument (make env) in
  psan_workload ~commits ~seed:psan_seed stack;
  stack.Stacks.backend.Backend.sync ();
  Psan.detach psan;
  Psan.report psan

(* The facade's async path driven directly.  The sanitizer scope
   brackets a whole batch — [txn_begin] before the first
   [commit_async], [txn_end] only after every ticket's [await] — because
   under a nonzero window the acknowledgement point is the durable
   (await) point: unfenced-ack then checks that the ONE batched drain
   really made every store of the batch durable. *)
let psan_group ~commits ~shards ~window () =
  let env = psan_env () in
  let config =
    {
      Tinca.Config.default with
      Tinca.Config.nvm_bytes = Pmem.size env.Stacks.pmem;
      ring_slots = 256;
      nshards = shards;
      group_window_ns = window;
      group_max_batch = 8;
    }
  in
  let tc =
    Tinca.ok_exn
      (Tinca.format ~config ~pmem:env.Stacks.pmem ~disk:env.Stacks.disk ~clock:env.Stacks.clock
         ~metrics:env.Stacks.metrics)
  in
  let psan = Psan.attach ~layouts:(Tinca.layouts tc) env.Stacks.pmem in
  let rng = Rng.create (psan_seed + 3) in
  for _ = 1 to commits do
    Psan.txn_begin psan;
    let tickets =
      List.init (1 + Rng.int rng 4) (fun _ ->
          let txn = Tinca.init_txn tc in
          for _ = 1 to 1 + Rng.int rng 3 do
            Tinca.ok_exn
              (Tinca.write txn (Rng.int rng psan_universe)
                 (Bytes.make 4096 (Char.chr (Rng.int rng 256))))
          done;
          Tinca.ok_exn (Tinca.commit_async txn))
    in
    List.iter (fun tk -> Tinca.ok_exn (Tinca.await tk)) tickets;
    Psan.txn_end psan;
    if Rng.chance rng 0.3 then ignore (Tinca.ok_exn (Tinca.read tc (Rng.int rng psan_universe)))
  done;
  Tinca.sync tc;
  Psan.detach psan;
  Psan.report psan

(* The three stacks under the sanitizer, plus the async group-commit
   phase when [window] > 0 (the group committer is logging-only). *)
let psan ?(shards = 1) ?(scheme = "logging") ?(window = 0) ~commits () =
  [
    psan_phase
      (Printf.sprintf "Tinca/%s + crash recovery (%d shard%s)" scheme shards
         (if shards = 1 then "" else "s"))
      (psan_tinca ~commits ~shards ~scheme);
    psan_phase "Classic (JBD2 + Flashcache)" (fun () ->
        psan_plain ~commits (psan_env ~journal_len:64 ()) (Stacks.classic ~journal_len:64));
    psan_phase "Flashcache (no journal)" (fun () ->
        psan_plain ~commits (psan_env ()) (fun env -> Stacks.nojournal env));
  ]
  @
  if window = 0 then []
  else
    [
      psan_phase
        (Printf.sprintf "Tinca async group commit (window %d ns, %d shard%s)" window shards
           (if shards = 1 then "" else "s"))
        (psan_group ~commits ~shards ~window);
    ]

(* --- spec refinement ----------------------------------------------------- *)

let spec_seeds = 3
let spec_len = 80
let spec_cap = 16
let spec_stride = 5

(* Wide in simulated time, so batches survive between commands and
   drains come from Await, same-block conflicts, ring pressure and the
   max-batch cap — mixed acked/unacked transactions at every crash. *)
let async_window = 1_000_000

let geom ?(window = 0) n =
  { Lockstep.default_geometry with Lockstep.nshards = n; group_window_ns = window }

(* A sequence without pmem events has no crash point to fail at. *)
let crash_fails ?mutate ~cap ~stride g cmds =
  match Lockstep.crash_refine ?mutate ~cap ~stride g cmds with
  | r -> r.Check.violations <> []
  | exception Invalid_argument _ -> false

let repro ~fails cmds =
  let small = Lockstep.shrink ~fails cmds in
  (small, Format.asprintf "minimal reproducer (%d commands): %a" (Array.length small) Lockstep.pp_cmds small)

(* Observational equivalence after every command, over [spec_seeds]
   generated sequences at each shard count. *)
let equivalence label ~window genf =
  Gate.property label (fun () ->
      let lines = ref [] and ok = ref true in
      List.iter
        (fun n ->
          let g = geom ~window n in
          let ops = ref 0 and blocks = ref 0 in
          for seed = 1 to spec_seeds do
            let cmds = genf ~seed ~len:spec_len ~universe:g.Lockstep.universe in
            match Lockstep.run g cmds with
            | Ok s ->
                ops := !ops + s.Lockstep.ops;
                blocks := !blocks + s.Lockstep.blocks_compared
            | Error d ->
                ok := false;
                let _, r = repro ~fails:(fun c -> Result.is_error (Lockstep.run g c)) cmds in
                lines :=
                  Format.asprintf "N=%d seed %d DIVERGED: %a; %s" n seed Lockstep.pp_divergence d r
                  :: !lines
          done;
          lines := Printf.sprintf "N=%d: %d ops, %d blocks compared" n !ops !blocks :: !lines)
        [ 1; 2; 4 ];
      (Printf.sprintf "%d seeds x %d commands; " spec_seeds spec_len
       ^ String.concat "; " (List.rev !lines), !ok))

(* Crash-space refinement of one sequence: the first generated seed
   whose sequence carries real commit traffic — at N > 1 including a
   commit that stripes across shards (so the sweep covers the
   cross-shard seal), and under a window at least two [Commit_async]
   and one [Await] (a standing batch AND post-drain acked-durable
   transactions at crash). *)
let crash_refinement label ~window genf n =
  Gate.property label (fun () ->
      let g = geom ~window n in
      let len = min spec_len 14 in
      let busy cmds =
        let count p = Array.fold_left (fun k c -> if p c then k + 1 else k) 0 cmds in
        count (function Lockstep.Commit | Lockstep.Commit_async -> true | _ -> false) >= 2
        && count (function Lockstep.Write _ -> true | _ -> false) >= 3
        && (n = 1 || Lockstep.multi_shard_commits g cmds >= 1)
        && (window = 0
           || count (function Lockstep.Commit_async -> true | _ -> false) >= 2
              && count (function Lockstep.Await -> true | _ -> false) >= 1)
      in
      let rec pick seed =
        if seed > 50 then genf ~seed:1 ~len ~universe:g.Lockstep.universe
        else
          let c = genf ~seed ~len ~universe:g.Lockstep.universe in
          if busy c then c else pick (seed + 1)
      in
      let cmds = pick 1 in
      let r = Lockstep.crash_refine ~cap:spec_cap ~stride:spec_stride g cmds in
      let detail = Printf.sprintf "stride %d, %s" spec_stride (Check.summary r) in
      if r.Check.violations = [] then (detail, true)
      else
        ( detail ^ "; "
          ^ snd (repro ~fails:(crash_fails ~cap:spec_cap ~stride:spec_stride g) cmds),
          false ))

(* Self-validation: a planted commit-path mutation must be caught on
   one of the first 20 generated sequences and shrink to at most 6
   commands.  With [crash] it must be invisible to the plain lockstep
   run and caught by the crash sweep alone. *)
let planted label ?(crash = false) ?(filter = fun _ -> true) ~mutate ~gen g =
  Gate.property label (fun () ->
      let probe cmds =
        match (Lockstep.run ~mutate g cmds, crash) with
        | Error d, false -> Some (Format.asprintf "%a" Lockstep.pp_divergence d)
        | Ok _, true -> (
            match Lockstep.crash_refine ~mutate ~cap:16 ~stride:1 g cmds with
            | { Check.violations = v :: _; _ } ->
                Some (Format.asprintf "crash sweep: %a" Check.pp_violation v)
            | _ -> None
            | exception Invalid_argument _ -> None)
        | _ -> None
      in
      let rec go seed =
        if seed > 20 then None
        else
          let cmds = gen ~seed ~len:(if crash then 12 else 30) ~universe:g.Lockstep.universe in
          match if filter cmds then probe cmds else None with
          | Some d -> Some (d, cmds)
          | None -> go (seed + 1)
      in
      match go 1 with
      | None -> ("NOT caught: the oracle is blind to it", false)
      | Some (detail, cmds) ->
          let fails =
            if crash then crash_fails ~mutate ~cap:16 ~stride:1 g
            else fun c -> Result.is_error (Lockstep.run ~mutate g c)
          in
          let small, r = repro ~fails cmds in
          (Printf.sprintf "caught (%s); %s" detail r, Array.length small <= 6))

let spec_properties () =
  let w = async_window in
  [
    equivalence "lockstep equivalence at N=1/2/4" ~window:0 Lockstep.gen;
    equivalence "lockstep equivalence at N=1/2/4 (group)" ~window:w Lockstep.gen_async;
  ]
  @ List.map
      (fun n -> crash_refinement (Printf.sprintf "crash refinement N=%d" n) ~window:0 Lockstep.gen n)
      [ 1; 2; 4 ]
  (* N=1 covers the single-shard batch pivot, N=2 the batched cross-shard
     seal; N=4 adds cost but no new mechanism. *)
  @ List.map
      (fun n ->
        crash_refinement (Printf.sprintf "crash refinement N=%d (group)" n) ~window:w
          Lockstep.gen_async n)
      [ 1; 2 ]
  @ [
      planted "planted Lose_writes at N=1" ~mutate:Lockstep.Lose_writes ~gen:Lockstep.gen (geom 1);
      planted "planted Abort_commits at N=2" ~mutate:Lockstep.Abort_commits ~gen:Lockstep.gen
        (geom 2);
      (* The seal only matters to recovery. *)
      planted "planted Skip_seal at N=2 (crash sweep)" ~crash:true
        ~filter:(fun c -> Lockstep.multi_shard_commits (geom 2) c >= 1)
        ~mutate:Lockstep.Skip_seal ~gen:Lockstep.gen (geom 2);
      (* The facade still answers reads from the sealed data and tells
         awaiters they are durable; a crash after the drain revokes the
         whole batch. *)
      planted "planted Drop_durable_notify (group window, crash sweep)" ~crash:true
        ~mutate:Lockstep.Drop_durable_notify ~gen:Lockstep.gen_async (geom ~window:w 1);
    ]

(* --- the table ----------------------------------------------------------- *)

let gate name doc properties = { Gate.name; doc; properties }

(* The read-miss workload under each way a write can meet a fill. *)
let read_miss_sweep (label, scheme) =
  let cfg = { Check.read_miss_config with Check.scheme } in
  sweep ~driver:(Check.read_miss_driver cfg) ("read-miss sweep (" ^ label ^ ", cap 4)") cfg

let commit_paths =
  [
    ("batched", Tinca.Config.Logging Tinca.Batched);
    ("per-block", Tinca.Config.Logging Tinca.Per_block);
    ("paging", Tinca.Config.Paging Tinca.Config.default_page_cfg);
  ]

(* A sweep of a workload that exists to drive one mechanism: its
   crash-free run must bump [counter], or the sweep would say nothing
   about the mechanism. *)
let exercised ~sweep ~counter ~noun label cfg driver =
  Gate.property (sweep ^ " sweep (" ^ label ^ ", cap 4)") (fun () ->
      let env = Check.run_crash_free driver cfg in
      let n = Tinca_sim.Metrics.get env.Check.metrics counter in
      let r = Check.explore ~driver cfg in
      (Printf.sprintf "%d %s; %s" n noun (Check.summary r), n > 0 && r.Check.violations = []))

let cleaner_property = exercised ~sweep:"cleaner" ~counter:"tinca.cleaned" ~noun:"blocks cleaned"

let cleaner_sweep (label, scheme) =
  let cfg = { Check.read_miss_config with Check.scheme } in
  cleaner_property label cfg (Check.cleaner_driver cfg)

(* The cleaner with a sealed transaction standing in a group window. *)
let group_cleaner_sweep =
  let cfg = Check.read_miss_config in
  cleaner_property "group window" cfg (Check.group_cleaner_driver cfg)

(* Partial COW writes: the crash-free run must write into spares. *)
let partial_property =
  exercised ~sweep:"partial-write" ~counter:"cache.cow_lines_skipped" ~noun:"lines skipped"

let partial_sweep (label, scheme) =
  let cfg = { Check.read_miss_config with Check.scheme } in
  partial_property label cfg (Check.partial_driver cfg)

let group_partial_sweep =
  let cfg = Check.read_miss_config in
  partial_property "group window" cfg (Check.partial_driver ~group:true cfg)

let crash_budget =
  gate "crash-budget"
    "budgeted crash-space sweep: 3 commits, 64-subset cap; read fills, eviction, writes to \
     fills, the cleaner and partial writes into spare frames under all three commit paths and \
     in a group-commit window"
    ([
       sweep "crash sweep (3 commits, cap 64)"
         { Check.default_config with Check.ncommits = 3; masks = Check.Capped 64 };
     ]
    @ List.map read_miss_sweep commit_paths
    @ List.map cleaner_sweep commit_paths
    @ [ group_cleaner_sweep ]
    @ List.map partial_sweep commit_paths
    @ [ group_partial_sweep ])

let spec =
  gate "spec"
    "executable-spec refinement: lockstep equivalence and crash refinement at N=1/2/4, planted \
     mutations caught with small reproducers"
    (spec_properties ())

let psan_gate =
  gate "psan" "persistence sanitizer over the Tinca, Classic and Flashcache stacks"
    (psan ~commits:200 ())

let obs =
  gate "obs" "span-trace export, per-span fence attribution, disabled-mode overhead"
    (Exp_obs.properties ())

let shard =
  gate "shard" "4-shard crash sweep and psan, N=1 equivalence pin, scaling sanity"
    ([
       sweep "crash sweep (2 commits, cap 48, 4 shards, 256 KB)"
         {
           Check.default_config with
           Check.ncommits = 2;
           masks = Check.Capped 48;
           nshards = 4;
           pmem_bytes = 256 * 1024;
         };
     ]
    @ psan ~commits:100 ~shards:4 ()
    @ Exp_shard.properties ~json_path:"BENCH_commit.json")

let group =
  gate "group" "async group commit: batch-scoped psan, window=0 pin, amortized fences, ack bound"
    (psan ~commits:120 ~window:400_000 () @ Exp_group.properties ())

let page =
  gate "page" "paging commit scheme: fence budget, crash sweeps, refinement, psan"
    (Exp_page.properties ()
    @ psan ~commits:150 ~shards:2 ~scheme:"paging" ()
    @ [
        sweep "paging crash sweep (3 commits, cap 32, stride 3)"
          {
            Check.default_config with
            Check.ncommits = 3;
            masks = Check.Capped 32;
            stride = 3;
            scheme = Tinca.Config.Paging Tinca.Config.default_page_cfg;
          };
      ])

let flight =
  let cfg nshards stride = FCheck.budget { Check.default_config with Check.nshards; stride } in
  gate "flight" "flight recorder: fences, overhead, psan, crash sweeps, dossier convictions"
    (Exp_flight.properties ()
    @ [
        Exp_flight.sweep_property "flight crash sweep (stride 9)" (cfg 1 9);
        Exp_flight.drop_notify_property "drop-notify scenario (stride-9 config)" (cfg 1 9);
        Exp_flight.sweep_property "flight crash sweep (stride 13, 4 shards)" (cfg 4 13);
        Exp_flight.drop_notify_property "drop-notify scenario (stride-13 config, 4 shards)"
          (cfg 4 13);
      ])

let crash =
  gate "crash" "the full exhaustive sweep of the default 6-commit workload"
    [ sweep "crash sweep (6 commits, cap 256)" Check.default_config ]

let ci = [ crash_budget; spec; psan_gate; obs; shard; group; page; flight ]
let all = ci @ [ crash ]
