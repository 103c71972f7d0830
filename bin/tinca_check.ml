(* Crash-consistency checker CLI.

   tinca_check                     - full sweep: every crash point of the
                                     default 6-commit workload, every
                                     survival subset of the torn lines
   tinca_check --commits 3 --cap 64  - quicker budgeted run
   tinca_check --psan              - persistence-sanitizer mode: run the
                                     Tinca, Classic (JBD2 + Flashcache)
                                     and raw-Flashcache stacks with the
                                     flush/fence sanitizer attached
   tinca_check --lockstep          - refinement mode: drive the executable
                                     spec and a real Tinca in lockstep over
                                     generated command sequences at N in
                                     {1,2,4}, judge every crash-recovered
                                     state by spec refinement, and
                                     self-validate the oracle with planted
                                     commit-path mutations

   Exit status 0 when every explored post-crash state recovers to a
   consistent prefix of the commit history (or, under --psan, when no
   ordering violation is flagged; or, under --lockstep, when all runs
   refine the spec and every planted mutation is caught); 1 when any
   violation is found (each is printed). *)

open Cmdliner
module Check = Tinca_checker.Crash_check
module Psan = Tinca_checker.Psan
module Lockstep = Tinca_checker.Lockstep
module FCheck = Tinca_checker.Flight_check
module Forensics = Tinca_obs.Forensics
module Stacks = Tinca_stacks.Stacks
module Backend = Tinca_fs.Backend
module Pmem = Tinca_pmem.Pmem
module Rng = Tinca_util.Rng

(* --- persistence-sanitizer mode ----------------------------------------- *)

(* Random commit/read mix through a stack's backend; [commit_blocks] is
   already bracketed with the sanitizer's transaction scope by
   [Stacks.instrument]. *)
let psan_workload ~commits ~universe ~seed (stack : Stacks.t) =
  let rng = Rng.create seed in
  for _ = 1 to commits do
    let n = 1 + Rng.int rng 4 in
    let blocks =
      List.init n (fun _ ->
          (Rng.int rng universe, Bytes.make 4096 (Char.chr (Rng.int rng 256))))
    in
    stack.Stacks.backend.Backend.commit_blocks blocks;
    if Rng.chance rng 0.3 then
      ignore (stack.Stacks.backend.Backend.read_block (Rng.int rng universe))
  done

let psan_summary label psan =
  let r = Psan.report psan in
  Printf.printf "\n== %s ==\n" label;
  Tinca_util.Tabular.print (Psan.report_table r);
  List.iter (fun v -> Format.printf "  %a@." Psan.pp_violation v) r.Psan.violations;
  Psan.violation_count psan

(* Group-commit phase: drive the facade's async path directly.  The
   sanitizer scope brackets a whole batch — [txn_begin] before the first
   [commit_async], [txn_end] only after every ticket's [await] — because
   under a nonzero window the acknowledgement point is the durable
   (await) point, not the commit_async return: unfenced-ack then checks
   that the ONE batched drain really made every store of the batch
   durable. *)
let run_psan_group ~commits ~seed ~universe ~shards ~window =
  let env = Stacks.make_env ~seed ~nvm_bytes:(512 * 1024) ~disk_blocks:universe () in
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
  let rng = Rng.create (seed + 3) in
  for _ = 1 to commits do
    Psan.txn_begin psan;
    let nbatch = 1 + Rng.int rng 4 in
    let tickets =
      List.init nbatch (fun _ ->
          let txn = Tinca.init_txn tc in
          let n = 1 + Rng.int rng 3 in
          for _ = 1 to n do
            Tinca.ok_exn
              (Tinca.write txn (Rng.int rng universe)
                 (Bytes.make 4096 (Char.chr (Rng.int rng 256))))
          done;
          Tinca.ok_exn (Tinca.commit_async txn))
    in
    List.iter (fun tk -> Tinca.ok_exn (Tinca.await tk)) tickets;
    Psan.txn_end psan;
    if Rng.chance rng 0.3 then ignore (Tinca.ok_exn (Tinca.read tc (Rng.int rng universe)))
  done;
  Tinca.sync tc;
  let n =
    psan_summary
      (Printf.sprintf "Tinca (async group commit, window %d ns, %d shard%s)" window shards
         (if shards = 1 then "" else "s"))
      psan
  in
  Psan.detach psan;
  n

let run_psan commits seed universe shards group_window scheme =
  let nbad = ref 0 in
  (* Tinca: full region classification (layout-aware rules active, one
     layout per shard — logging ring regions or paging epoch/table/pool
     regions, per --scheme), including a crash + recovery + second
     workload phase. *)
  let env = Stacks.make_env ~seed ~nvm_bytes:(512 * 1024) ~disk_blocks:universe () in
  let config =
    match
      Tinca.Config.of_args
        ~base:{ Tinca.Config.default with Tinca.Config.ring_slots = 256 }
        ~scheme ~shards ~nvm_bytes:(512 * 1024) ()
    with
    | Ok c -> c
    | Error m ->
        Printf.eprintf "tinca_check --psan: %s\n" m;
        exit 2
  in
  let stack, psan = Stacks.instrument (Stacks.tinca ~config env) in
  psan_workload ~commits ~universe ~seed stack;
  Pmem.crash ~seed:(seed + 1) env.Stacks.pmem;
  (* The sanitizer stays attached across the crash (its shadow resets on
     the Crash event) and audits recovery's revocation writes too. *)
  let recovered = Stacks.tinca_recover env in
  let recommit blocks =
    Psan.txn_begin psan;
    match recovered.Stacks.backend.Backend.commit_blocks blocks with
    | () -> Psan.txn_end psan
    | exception e ->
        Psan.txn_abort psan;
        raise e
  in
  psan_workload ~commits:(max 1 (commits / 4)) ~universe ~seed:(seed + 2)
    { recovered with
      Stacks.backend = { recovered.Stacks.backend with Backend.commit_blocks = recommit } };
  nbad :=
    !nbad
    + psan_summary
        (Printf.sprintf "Tinca/%s (commit workload + crash recovery, %d shard%s)"
           (Tinca.Config.scheme_name config.Tinca.Config.commit_scheme)
           shards
           (if shards = 1 then "" else "s"))
        psan;
  Psan.detach psan;
  (* Classic: JBD2 journal over Flashcache.  No Tinca layout, so the
     unfenced-ack and redundant-flush rules carry the audit. *)
  let journal_len = 64 in
  let env =
    Stacks.make_env ~seed ~nvm_bytes:(512 * 1024) ~disk_blocks:(universe + journal_len) ()
  in
  let stack, psan = Stacks.instrument (Stacks.classic ~journal_len env) in
  psan_workload ~commits ~universe ~seed stack;
  stack.Stacks.backend.Backend.sync ();
  nbad := !nbad + psan_summary "Classic (JBD2 + Flashcache)" psan;
  Psan.detach psan;
  (* Raw Flashcache (no journal above it). *)
  let env = Stacks.make_env ~seed ~nvm_bytes:(512 * 1024) ~disk_blocks:universe () in
  let stack, psan = Stacks.instrument (Stacks.nojournal env) in
  psan_workload ~commits ~universe ~seed stack;
  stack.Stacks.backend.Backend.sync ();
  nbad := !nbad + psan_summary "Flashcache (no journal)" psan;
  Psan.detach psan;
  (* Async group-commit phase (ISSUE 8), when a window was given.  The
     group committer is logging-only (validated so), hence skipped under
     --scheme paging. *)
  (match config.Tinca.Config.commit_scheme with
  | Tinca.Config.Logging _ when group_window > 0 ->
      nbad := !nbad + run_psan_group ~commits ~seed ~universe ~shards ~window:group_window
  | Tinca.Config.Paging _ when group_window > 0 ->
      Printf.printf "\n(group-commit psan phase skipped: the paging scheme has no group committer)\n"
  | _ -> ());
  if !nbad = 0 then begin
    Printf.printf "\npsan: no persistence-ordering violations across the three stacks.\n";
    0
  end
  else begin
    Printf.printf "\npsan: %d VIOLATION(S).\n" !nbad;
    1
  end

(* --- lockstep refinement mode -------------------------------------------- *)

(* Shrink a failing sequence and print it as a replayable OCaml value. *)
let print_repro ~fails cmds =
  let small = Lockstep.shrink ~fails cmds in
  Format.printf "  minimal reproducer (%d command%s):@.    %a@." (Array.length small)
    (if Array.length small = 1 then "" else "s")
    Lockstep.pp_cmds small;
  small

let geom ?(group_window = 0) ?(scheme = Lockstep.default_geometry.Lockstep.scheme) n =
  {
    Lockstep.default_geometry with
    Lockstep.nshards = n;
    group_window_ns = group_window;
    scheme;
  }

(* Lockstep equivalence over [seeds] generated sequences per shard
   count, once with synchronous commits and once through the async
   group-commit path (nonzero window, [gen_async] sequences carrying
   mixed acked/unacked transactions).  Returns the failure count (after
   printing shrunk repros). *)
let lockstep_equiv ~seeds ~len ~awin ~quiet ~scheme =
  let bad = ref 0 in
  let pass ~label ~window genf =
    List.iter
      (fun n ->
        let g = geom ~group_window:window ~scheme n in
        let ops = ref 0 and blocks = ref 0 in
        for seed = 1 to seeds do
          let cmds = genf ~seed ~len ~universe:g.Lockstep.universe in
          match Lockstep.run g cmds with
          | Ok s ->
              ops := !ops + s.Lockstep.ops;
              blocks := !blocks + s.Lockstep.blocks_compared
          | Error d ->
              incr bad;
              Format.printf "lockstep%s: DIVERGENCE at N=%d seed %d: %a@." label n seed
                Lockstep.pp_divergence d;
              ignore
                (print_repro ~fails:(fun c -> Result.is_error (Lockstep.run g c)) cmds)
        done;
        if not quiet then
          Printf.printf
            "lockstep%s: N=%d: %d seeds x %d commands clean (%d ops, %d blocks compared)\n"
            label n seeds len !ops !blocks)
      [ 1; 2; 4 ]
  in
  pass ~label:"" ~window:0 Lockstep.gen;
  (* The group committer is logging-only; under paging the async pass
     would be an invalid config. *)
  (match scheme with
  | Tinca.Config.Logging _ -> pass ~label:" (group)" ~window:awin Lockstep.gen_async
  | Tinca.Config.Paging _ -> ());
  !bad

(* Crash-space refinement: every recovered state of every explored
   survival subset must equal the spec (last acknowledged commit, or
   that plus the in-flight commit).  Budgeted by [cap] and [stride];
   coverage is printed, never silently truncated. *)
let lockstep_crash ~len ~cap ~stride ~awin ~quiet ~scheme =
  let bad = ref 0 in
  (* Pick the first seed whose sequence carries real commit traffic —
     a commit-free sequence has almost no pmem events to crash — and,
     at N > 1, at least one commit that stripes across shards (so the
     sweep covers the cross-shard seal, not just per-shard commits).
     Under a nonzero window, additionally require at least two
     [Commit_async] and one [Await], so crash points see a standing
     batch AND post-drain acked-durable transactions (mixed
     acked/unacked at crash). *)
  let busy g cmds =
    let count p = Array.fold_left (fun k c -> if p c then k + 1 else k) 0 cmds in
    count (function Lockstep.Commit | Lockstep.Commit_async -> true | _ -> false) >= 2
    && count (function Lockstep.Write _ -> true | _ -> false) >= 3
    && (g.Lockstep.nshards = 1 || Lockstep.multi_shard_commits g cmds >= 1)
    && (g.Lockstep.group_window_ns = 0
       || count (function Lockstep.Commit_async -> true | _ -> false) >= 2
          && count (function Lockstep.Await -> true | _ -> false) >= 1)
  in
  let pass ~label ~window genf shard_counts =
    List.iter
      (fun n ->
        let g = geom ~group_window:window ~scheme n in
        let cmds =
          let rec pick seed =
            if seed > 50 then genf ~seed:1 ~len ~universe:g.Lockstep.universe
            else
              let c = genf ~seed ~len ~universe:g.Lockstep.universe in
              if busy g c then c else pick (seed + 1)
          in
          pick 1
        in
        let progress =
          if quiet then fun _ _ -> ()
          else fun k span ->
            if k mod 50 = 0 || k = span then
              Printf.eprintf "\rlockstep%s crash refinement N=%d: crash point %d/%d%!" label n k
                span
        in
        let r = Lockstep.crash_refine ~cap ~stride ~progress g cmds in
        if not quiet then Printf.eprintf "\r%!";
        Printf.printf
          "lockstep%s: N=%d crash refinement: %d crash points, %d recovered states checked (%d \
           deduped, %.0f subsets in full space, %d capped points, stride %d)\n"
          label n r.Check.crash_points r.Check.states_checked r.Check.states_deduped
          r.Check.subsets_total r.Check.capped_points stride;
        match r.Check.violations with
        | [] -> ()
        | vs ->
            bad := !bad + List.length vs;
            Format.printf "lockstep%s: N=%d crash refinement: %d VIOLATION(S):@." label n
              (List.length vs);
            List.iter (fun v -> Format.printf "  %a@." Check.pp_violation v) vs;
            ignore
              (print_repro
                 ~fails:(fun c ->
                   (Lockstep.crash_refine ~cap ~stride g c).Check.violations <> [])
                 cmds))
      shard_counts
  in
  pass ~label:"" ~window:0 Lockstep.gen [ 1; 2; 4 ];
  (* The group sweep runs at N in {1,2}: N=1 covers the single-shard
     batch pivot, N=2 the batched cross-shard seal; N=4 adds cost but no
     new mechanism (the sync pass already sweeps it).  Logging-only. *)
  (match scheme with
  | Tinca.Config.Logging _ -> pass ~label:" (group)" ~window:awin Lockstep.gen_async [ 1; 2 ]
  | Tinca.Config.Paging _ -> ());
  !bad

(* Self-validation: each planted commit-path mutation must be caught,
   and the shrunk reproducer must stay small (<= 6 commands). *)
let lockstep_selftest ~awin ~quiet ~scheme =
  let bad = ref 0 in
  let check label found fails cmds =
    match found with
    | None ->
        incr bad;
        Printf.printf "self-test: %s NOT caught — the oracle is blind to it\n" label
    | Some detail ->
        Printf.printf "self-test: %s caught (%s)\n" label detail;
        let small = print_repro ~fails cmds in
        if Array.length small > 6 then begin
          incr bad;
          Printf.printf "self-test: %s reproducer has %d commands (> 6): shrinker too weak\n"
            label (Array.length small)
        end
  in
  (* Find a generated sequence the mutated run fails on; nearly any seed
     with a committed write works, but search a few to stay robust. *)
  let find_seq f =
    let rec go seed = if seed > 20 then None else
      let cmds = Lockstep.gen ~seed ~len:30 ~universe:Lockstep.default_geometry.Lockstep.universe in
      match f cmds with Some detail -> Some (detail, cmds) | None -> go (seed + 1)
    in
    go 1
  in
  let plain mutate n =
    let g = geom ~scheme n in
    let probe cmds =
      match Lockstep.run ~mutate g cmds with
      | Error d -> Some (Format.asprintf "%a" Lockstep.pp_divergence d)
      | Ok _ -> None
    in
    let found = find_seq probe in
    check
      (Printf.sprintf "planted %s at N=%d"
         (match mutate with
         | Lockstep.Lose_writes -> "Lose_writes"
         | Lockstep.Abort_commits -> "Abort_commits"
         | Lockstep.Skip_seal -> "Skip_seal"
         | Lockstep.Drop_durable_notify -> "Drop_durable_notify"
         | Lockstep.Torn_swing -> "Torn_swing")
         n)
      (Option.map fst found)
      (fun c -> Result.is_error (Lockstep.run ~mutate g c))
      (match found with Some (_, cmds) -> cmds | None -> [||])
  in
  plain Lockstep.Lose_writes 1;
  plain Lockstep.Abort_commits 2;
  match scheme with
  | Tinca.Config.Paging _ ->
      (* The paging planted fault: a torn 16 B indirection-table swing.
         Invisible without a crash (the second half lands before any
         read); the crash sweep must catch the half-swung entry. *)
      let g = geom ~scheme 1 in
      let crash_fails c =
        (Lockstep.crash_refine ~mutate:Lockstep.Torn_swing ~cap:16 ~stride:1 g c)
          .Check.violations
        <> []
      in
      let probe cmds =
        let r = Lockstep.crash_refine ~mutate:Lockstep.Torn_swing ~cap:16 ~stride:1 g cmds in
        match r.Check.violations with
        | [] -> None
        | v :: _ -> Some (Format.asprintf "crash sweep: %a" Check.pp_violation v)
      in
      let found =
        let rec go seed =
          if seed > 20 then None
          else
            let cmds = Lockstep.gen ~seed ~len:12 ~universe:g.Lockstep.universe in
            match Lockstep.run ~mutate:Lockstep.Torn_swing g cmds with
            | Error _ -> go (seed + 1) (* want the crash sweep, not a plain divergence *)
            | Ok _ -> ( match probe cmds with Some d -> Some (d, cmds) | None -> go (seed + 1))
        in
        go 1
      in
      check "planted Torn_swing at N=1 (crash sweep)" (Option.map fst found) crash_fails
        (match found with Some (_, cmds) -> cmds | None -> [||]);
      ignore quiet;
      ignore awin;
      !bad
  | Tinca.Config.Logging _ ->
  (* Skip_seal is invisible without a crash (the seal only matters to
     recovery): the plain run must stay clean, and the crash-space sweep
     at N=2 must flag the partial multi-shard commit. *)
  let g = geom 2 in
  let crash_fails c =
    (Lockstep.crash_refine ~mutate:Lockstep.Skip_seal ~cap:16 ~stride:1 g c).Check.violations
    <> []
  in
  let probe cmds =
    match Lockstep.run ~mutate:Lockstep.Skip_seal g cmds with
    | Error d ->
        Some (Format.asprintf "unexpectedly visible without a crash: %a" Lockstep.pp_divergence d)
    | Ok _ ->
        let r = Lockstep.crash_refine ~mutate:Lockstep.Skip_seal ~cap:16 ~stride:1 g cmds in
        (match r.Check.violations with
        | [] -> None
        | v :: _ -> Some (Format.asprintf "crash sweep: %a" Check.pp_violation v))
  in
  let found =
    let rec go seed = if seed > 20 then None else
      let cmds = Lockstep.gen ~seed ~len:12 ~universe:g.Lockstep.universe in
      if Lockstep.multi_shard_commits g cmds < 1 then go (seed + 1)
      else
        match Lockstep.run ~mutate:Lockstep.Skip_seal g cmds with
        | Error _ -> go (seed + 1) (* want the crash sweep, not a plain divergence *)
        | Ok _ -> (match probe cmds with Some d -> Some (d, cmds) | None -> go (seed + 1))
    in
    go 1
  in
  check "planted Skip_seal at N=2 (crash sweep)" (Option.map fst found) crash_fails
    (match found with Some (_, cmds) -> cmds | None -> [||]);
  (* Drop_durable_notify publishes a batch but skips its commit point:
     the facade still answers reads from the sealed data and tells
     awaiters they are durable, so the plain async run must stay clean —
     only the crash sweep can flag the lost acked-durable transactions
     (a crash after the drain revokes the whole batch). *)
  let g = geom ~group_window:awin 1 in
  let crash_fails c =
    (Lockstep.crash_refine ~mutate:Lockstep.Drop_durable_notify ~cap:16 ~stride:1 g c)
      .Check.violations
    <> []
  in
  let probe cmds =
    match Lockstep.run ~mutate:Lockstep.Drop_durable_notify g cmds with
    | Error d ->
        Some (Format.asprintf "unexpectedly visible without a crash: %a" Lockstep.pp_divergence d)
    | Ok _ -> (
        let r =
          Lockstep.crash_refine ~mutate:Lockstep.Drop_durable_notify ~cap:16 ~stride:1 g cmds
        in
        match r.Check.violations with
        | [] -> None
        | v :: _ -> Some (Format.asprintf "crash sweep: %a" Check.pp_violation v))
  in
  let found =
    let rec go seed = if seed > 20 then None else
      let cmds = Lockstep.gen_async ~seed ~len:12 ~universe:g.Lockstep.universe in
      match Lockstep.run ~mutate:Lockstep.Drop_durable_notify g cmds with
      | Error _ -> go (seed + 1) (* want the crash sweep, not a plain divergence *)
      | Ok _ -> (match probe cmds with Some d -> Some (d, cmds) | None -> go (seed + 1))
    in
    go 1
  in
  check "planted Drop_durable_notify (group window, crash sweep)" (Option.map fst found)
    crash_fails
    (match found with Some (_, cmds) -> cmds | None -> [||]);
  ignore quiet;
  !bad

let run_lockstep seeds len cap stride group_window quiet scheme =
  let t0 = Unix.gettimeofday () in
  (* Window for the async passes: wide in simulated time, so batches
     survive between commands and drains come from Await, same-block
     conflicts, ring pressure and the max-batch cap — mixed
     acked/unacked transactions at every crash point. *)
  let awin = if group_window > 0 then group_window else 1_000_000 in
  let bad =
    lockstep_equiv ~seeds ~len ~awin ~quiet ~scheme
    + lockstep_crash ~len:(min len 14) ~cap ~stride ~awin ~quiet ~scheme
    + lockstep_selftest ~awin ~quiet ~scheme
  in
  Printf.printf "(wall time %.1fs)\n" (Unix.gettimeofday () -. t0);
  if bad = 0 then begin
    Printf.printf
      "lockstep (%s): refinement holds at N in {1,2,4} and every planted mutation was caught.\n"
      (Tinca.Config.scheme_name scheme);
    0
  end
  else begin
    Printf.printf "lockstep: %d FAILURE(S).\n" bad;
    1
  end

(* --- flight-recorder mode ------------------------------------------------ *)

(* Crash sweep with the recorder ON (recovery-semantics pin + dossier
   agreement at every explored state), then the planted-fault scenario:
   the dossier alone must convict the acked tickets Drop_durable_notify
   killed. *)
let run_flight commits seed universe shards from stride quiet =
  let t0 = Unix.gettimeofday () in
  let cfg =
    {
      FCheck.default_config with
      FCheck.ncommits = commits;
      seed;
      universe;
      nshards = shards;
      first_event = from;
      stride;
    }
  in
  let progress =
    if quiet then fun _ _ -> ()
    else fun k span ->
      if k mod 20 = 0 || k = span then Printf.eprintf "\rflight crash point %d/%d%!" k span
  in
  let report =
    try FCheck.sweep ~progress cfg
    with Invalid_argument msg ->
      Printf.eprintf "tinca_check --flight: %s\n" msg;
      exit 2
  in
  if not quiet then Printf.eprintf "\r%!";
  Tinca_util.Tabular.print (FCheck.report_table report);
  let bad = ref (List.length report.FCheck.violations) in
  List.iter (fun m -> Printf.printf "  %s\n" m) report.FCheck.violations;
  (match FCheck.drop_notify_scenario cfg with
  | Ok dossier ->
      Printf.printf
        "drop-notify scenario: dossier convicted every acked ticket of the dead batch.\n";
      if not quiet then print_string (Forensics.render dossier)
  | Error msg ->
      incr bad;
      Printf.printf "drop-notify scenario: FAILED — %s\n" msg);
  Printf.printf "(wall time %.1fs)\n" (Unix.gettimeofday () -. t0);
  if !bad = 0 then begin
    Printf.printf
      "flight: recorder is a pure observer (replay on/off states identical) and the dossier \
       agrees with the judge at every explored crash state.\n";
    0
  end
  else begin
    Printf.printf "flight: %d FAILURE(S).\n" !bad;
    1
  end

let run psan lockstep flight commits seed universe ring_slots pmem_kb cap sample_seed from stride
    shards lockstep_seeds lockstep_len group_window scheme_str verbose quiet =
  if verbose then begin
    Logs.set_reporter (Logs.format_reporter ());
    Logs.set_level (Some Logs.Info)
  end;
  (* One funnel for the scheme choice: parse + validate the combination
     through Config.of_args so every mode rejects the same combos the
     facade would. *)
  let scheme =
    match Tinca.Config.of_args ~scheme:scheme_str ~shards () with
    | Ok c -> c.Tinca.Config.commit_scheme
    | Error m ->
        Printf.eprintf "tinca_check: %s\n" m;
        exit 2
  in
  if psan then run_psan commits seed universe shards group_window scheme_str
  else if lockstep then
    run_lockstep lockstep_seeds lockstep_len cap stride group_window quiet scheme
  else if flight then run_flight commits seed universe shards from stride quiet
  else
  let cfg =
    {
      Check.ncommits = commits;
      seed;
      universe;
      ring_slots;
      pmem_bytes = pmem_kb * 1024;
      mask_cap = cap;
      sample_seed;
      first_event = from;
      stride;
      nshards = shards;
      scheme;
    }
  in
  let progress =
    if quiet then fun _ _ -> ()
    else fun k span ->
      if k mod 50 = 0 || k = span then Printf.eprintf "\rcrash point %d/%d%!" k span
  in
  let t0 = Unix.gettimeofday () in
  let report =
    try Check.explore ~progress cfg
    with Invalid_argument msg ->
      (* Misconfiguration (bad --from/--stride, NVM too small for the
         ring, ...) — report it as a usage error, not a crash. *)
      Printf.eprintf "tinca_check: %s\n" msg;
      exit 2
  in
  if not quiet then Printf.eprintf "\r%!";
  Tinca_util.Tabular.print (Check.report_table report);
  if report.Check.capped_points > 0 then
    Printf.printf
      "note: %d of %d crash points exceeded the %d-subset cap; those were explored by seeded \
       sample (always including the all-lost and all-survive corners).  Raise --cap for full \
       coverage.\n"
      report.Check.capped_points report.Check.crash_points cap
  else
    Printf.printf "coverage: exhaustive — every survival subset of every crash point explored.\n";
  Printf.printf "(wall time %.1fs)\n" (Unix.gettimeofday () -. t0);
  match report.Check.violations with
  | [] -> 0
  | vs ->
      Printf.printf "\n%d VIOLATION(S):\n" (List.length vs);
      List.iter (fun v -> Format.printf "  %a@." Check.pp_violation v) vs;
      1

let cmd =
  let doc =
    "Exhaustively model-check the Tinca commit protocol's crash space: every pmem event of a \
     deterministic workload is taken as a crash point, and at each one every survival subset \
     of the torn (dirtied-but-unfenced) cache lines is recovered and audited."
  in
  let commits =
    Arg.(value & opt int 6 & info [ "commits" ] ~docv:"N" ~doc:"Transactions in the workload.")
  in
  let seed =
    Arg.(value & opt int Check.default_config.Check.seed
         & info [ "seed" ] ~docv:"SEED" ~doc:"Workload RNG seed.")
  in
  let universe =
    Arg.(value & opt int Check.default_config.Check.universe
         & info [ "universe" ] ~docv:"N" ~doc:"Disk blocks the workload touches.")
  in
  let ring_slots =
    Arg.(value & opt int Check.default_config.Check.ring_slots
         & info [ "ring-slots" ] ~docv:"N" ~doc:"Ring buffer slots.")
  in
  let pmem_kb =
    Arg.(value & opt int (Check.default_config.Check.pmem_bytes / 1024)
         & info [ "pmem-kb" ] ~docv:"KB" ~doc:"NVM size in KiB (small forces evictions).")
  in
  let cap =
    Arg.(value & opt int Check.default_config.Check.mask_cap
         & info [ "cap" ] ~docv:"N"
             ~doc:"Max survival subsets per crash point before falling back to seeded sampling.")
  in
  let sample_seed =
    Arg.(value & opt int Check.default_config.Check.sample_seed
         & info [ "sample-seed" ] ~docv:"SEED" ~doc:"Seed for the capped-sampling fallback.")
  in
  let from =
    Arg.(value & opt int 1
         & info [ "from" ] ~docv:"K" ~doc:"First crash point (1-based), for sub-range sweeps.")
  in
  let stride =
    Arg.(value & opt int 1 & info [ "stride" ] ~docv:"S" ~doc:"Explore every S-th crash point.")
  in
  let shards =
    Arg.(value & opt int 1
         & info [ "shards" ] ~docv:"N"
             ~doc:
               "Partition the NVM device into N shards: the sweep (and --psan) then covers the \
                striped commit scheduler — multi-shard transactions, per-shard Head advances and \
                the cross-shard seal.")
  in
  let verbose = Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Log per-crash-point detail.") in
  let quiet = Arg.(value & flag & info [ "q"; "quiet" ] ~doc:"No progress line on stderr.") in
  let psan =
    Arg.(value & flag
         & info [ "psan" ]
             ~doc:
               "Persistence-sanitizer mode: instead of the crash-space sweep, run the Tinca, \
                Classic (JBD2 + Flashcache) and raw-Flashcache stacks with the always-on \
                flush/fence sanitizer attached and report ordering violations plus redundant \
                flushes per call site.  Honours --commits, --seed and --universe; the \
                sweep-specific flags are ignored.")
  in
  let lockstep =
    Arg.(value & flag
         & info [ "lockstep" ]
             ~doc:
               "Refinement mode: drive the executable journal spec and a real Tinca through \
                generated command sequences in lockstep at 1, 2 and 4 shards, checking \
                observational equivalence after every command; then judge every crash-recovered \
                state by spec refinement ($(b,--cap)/$(b,--stride) budget the sweep); then \
                self-validate by planting commit-path mutations that must be caught.  Failing \
                sequences are auto-shrunk to minimal replayable reproducers.  Honours \
                $(b,--lockstep-seeds), $(b,--lockstep-len), $(b,--cap), $(b,--stride) and \
                $(b,-q); the other sweep flags are ignored.")
  in
  let flight =
    Arg.(value & flag
         & info [ "flight" ]
             ~doc:
               "Flight-recorder mode (ISSUE 9): crash-sweep a group-commit workload with the \
                NVM flight recorder enabled, checking at every explored post-crash state that \
                (a) recovery with flight replay on and off yields bit-identical logical cache \
                state (the recorder is a pure observer) and (b) the forensic dossier's verdict \
                agrees with an acked-durability oracle; then plant the Drop_durable_notify \
                committer fault and require the dossier alone to name the acked tickets that \
                died.  Honours --commits, --seed, --universe, --shards, --from, --stride and -q.")
  in
  let lockstep_seeds =
    Arg.(value & opt int 5
         & info [ "lockstep-seeds" ] ~docv:"N"
             ~doc:"Generated sequences per shard count in --lockstep mode.")
  in
  let lockstep_len =
    Arg.(value & opt int 120
         & info [ "lockstep-len" ] ~docv:"N"
             ~doc:
               "Commands per generated sequence in --lockstep mode (the crash-refinement stage \
                uses a shorter prefix budget of at most 14).")
  in
  let group_window =
    Arg.(value & opt int 0
         & info [ "group-window" ] ~docv:"NS"
             ~doc:
               "Async group-commit window in simulated nanoseconds (ISSUE 8).  Under --psan, a \
                nonzero value adds a Tinca phase driving $(b,commit_async)/$(b,await) with the \
                sanitizer acknowledgement scope ending at the durable (await) point.  Under \
                --lockstep it overrides the window of the async (group) passes, which otherwise \
                default to 1000000 ns.")
  in
  let scheme =
    Arg.(value & opt string "logging"
         & info [ "scheme" ] ~docv:"SCHEME"
             ~doc:
               "Commit scheme under test (ISSUE 10): $(b,logging) (the ring pipeline), \
                $(b,per-block) (logging with per-block fences) or $(b,paging) (COW page \
                remapping through a persistent indirection table).  Honoured by the crash-space \
                sweep, --psan and --lockstep; --flight is a group-commit scenario and stays on \
                the logging scheme.")
  in
  let info = Cmd.info "tinca_check" ~doc in
  Cmd.v info
    Term.(
      const run $ psan $ lockstep $ flight $ commits $ seed $ universe $ ring_slots $ pmem_kb
      $ cap $ sample_seed $ from $ stride $ shards $ lockstep_seeds $ lockstep_len $ group_window
      $ scheme $ verbose $ quiet)

let () = exit (Cmd.eval' cmd)
