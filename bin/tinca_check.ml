(* Crash-consistency checker CLI.

   tinca_check                       - full sweep: every crash point of the
                                       default 6-commit workload, every
                                       survival subset of the torn lines
   tinca_check --commits 3 --cap 64  - quicker budgeted run
   tinca_check gate <name>           - one CI gate (or `all`, or `list`):
                                       its properties in one verdict table

   Exit status 0 when every explored post-crash state recovers to a
   consistent prefix of the commit history (or, for `gate`, when every
   property of every gate passed); 1 when any violation is found (each
   is printed); 2 on a usage error. *)

open Cmdliner
module Check = Tinca_checker.Crash_check
module Gate = Tinca_harness.Gate
module Gates = Tinca_harness.Gates

let run commits seed universe ring_slots pmem_kb cap sample_seed from stride shards scheme_str
    verbose quiet =
  if verbose then begin
    Logs.set_reporter (Logs.format_reporter ());
    Logs.set_level (Some Logs.Info)
  end;
  (* One funnel for the scheme choice: parse + validate the combination
     through Config.of_args so the sweep rejects the same combos the
     facade would. *)
  let scheme =
    match Tinca.Config.of_args ~scheme:scheme_str ~shards () with
    | Ok c -> c.Tinca.Config.commit_scheme
    | Error m ->
        Printf.eprintf "tinca_check: %s\n" m;
        exit 2
  in
  let cfg =
    {
      Check.ncommits = commits;
      seed;
      universe;
      ring_slots;
      pmem_bytes = pmem_kb * 1024;
      masks = Check.Capped cap;
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

let sweep_term =
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
    let default = match Check.default_config.Check.masks with Check.Capped c -> c | _ -> 256 in
    Arg.(value & opt int default
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
               "Partition the NVM device into N shards: the sweep then covers the \
                striped commit scheduler — multi-shard transactions, per-shard Head advances and \
                the cross-shard seal.")
  in
  let verbose = Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Log per-crash-point detail.") in
  let quiet = Arg.(value & flag & info [ "q"; "quiet" ] ~doc:"No progress line on stderr.") in
  let scheme =
    Arg.(value & opt string "logging"
         & info [ "scheme" ] ~docv:"SCHEME"
             ~doc:
               "Commit scheme under test: $(b,logging) (the ring pipeline), $(b,per-block) \
                (logging with per-block fences) or $(b,paging) (COW page remapping through a \
                persistent indirection table).")
  in
  Term.(
    const run $ commits $ seed $ universe $ ring_slots $ pmem_kb $ cap $ sample_seed $ from
    $ stride $ shards $ scheme $ verbose $ quiet)

let run_gates names =
  let find name =
    match List.find_opt (fun g -> g.Gate.name = name) Gates.all with
    | Some g -> [ g ]
    | None ->
        Printf.eprintf "tinca_check gate: unknown gate %S (try `tinca_check gate list`)\n" name;
        exit 2
  in
  if names = [ "list" ] then begin
    List.iter
      (fun g ->
        Printf.printf "%-14s %s%s\n" g.Gate.name g.Gate.doc
          (if List.memq g Gates.ci then "" else " [not in all]"))
      Gates.all;
    0
  end
  else if Gate.run_all (List.concat_map (function "all" -> Gates.ci | n -> find n) names) then 0
  else 1

let gate_cmd =
  let doc =
    "Run CI gates by name ($(b,all) runs every gate make ci runs; $(b,list) names them).  Each \
     gate prints one verdict table; a property that raises is a FAIL row and the rest still \
     run.  Exit 1 if any property failed."
  in
  let names = Arg.(non_empty & pos_all string [] & info [] ~docv:"GATE") in
  Cmd.v (Cmd.info "gate" ~doc) Term.(const run_gates $ names)

let () =
  let doc =
    "Exhaustively model-check the Tinca commit protocol's crash space: every pmem event of a \
     deterministic workload is taken as a crash point, and at each one every survival subset \
     of the torn (dirtied-but-unfenced) cache lines is recovered and audited."
  in
  exit (Cmd.eval' (Cmd.group ~default:sweep_term (Cmd.info "tinca_check" ~doc) [ gate_cmd ]))
