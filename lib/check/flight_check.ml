(* Crash-sweep driver for the flight recorder.

   Two properties keep the recorder honest, and both are only provable
   by crashing with it on:

   1. Recovery-semantics pin — the recorder must be a pure observer.
      For every crash state, recovering the SAME crashed medium with
      flight replay on and with it off must yield bit-identical logical
      cache state (every block's content as seen through the cache).
      The media themselves legitimately diverge (replay-on recovery
      appends Recovery_start/Recovery_decision records), so the pin is
      on the logical state, not the medium digest.

   2. Dossier-vs-judge agreement — the dossier's acked-vs-survived
      verdict must agree with Crash_check.judge over the model of what
      was acknowledged before the crash.  With the production committer
      the dossier must be Clean at every crash state (the serial-drain
      inference has no false positives: batch B+1's drain record only
      reaches the medium after batch B's Tail fence).  With the planted
      [`Drop_durable_notify] fault the dossier alone — no model checker,
      no oracle — must name the acked tickets that died
      ([drop_notify_scenario]).

   The sweep itself is Crash_check.explore: this module supplies the
   group-commit workload and the judge, and [budget] picks the survival
   policy — the two corners plus seeded samples per crash point, because
   this sweep needs breadth across protocol stages, not depth per crash
   (the exhaustive subset walk is the default driver's job). *)

module Check = Crash_check
module Pmem = Tinca_pmem.Pmem
module Shard = Tinca_core.Shard
module Forensics = Tinca_obs.Forensics
module Rng = Tinca_util.Rng

(* The recorder and group committer every flight sweep runs: a window
   wide enough that drains come from triggers (max-batch, conflicts,
   ring pressure), not the clock. *)
let flight_slots = 64
let window_ns = 1_000_000_000
let max_batch = 3

let budget cfg =
  { cfg with Check.pmem_bytes = 384 * 1024; masks = Check.Corners_plus 2; sample_seed = cfg.Check.seed + 17 }

let default_config = budget { Check.default_config with Check.seed = 77; universe = 24 }

type counts = { mutable dossiers_built : int; mutable records_replayed : int }

let format cfg env =
  Tinca.ok_exn
    (Tinca.format
       ~config:
         {
           (Check.tinca_config cfg) with
           Tinca.Config.flight_slots;
           group_window_ns = window_ns;
           group_max_batch = max_batch;
         }
       ~pmem:env.Check.pmem ~disk:env.Check.disk ~clock:env.Check.clock ~metrics:env.Check.metrics)

(* One digest over every block's recovered logical content — the value
   the recorder on/off pin compares. *)
let logical_digest peek disk universe =
  let buf = Buffer.create (universe * 4096) in
  for blk = 0 to universe - 1 do
    Buffer.add_bytes buf (Check.logical_block peek disk blk)
  done;
  Digest.string (Buffer.contents buf)

(* Judge one recovered medium: the image against the model, the
   dossier's verdict, then the same medium recovered with replay off. *)
let judge cfg counts env m ~recrash t_on =
  let errs = ref [] in
  let err fmt = Printf.ksprintf (fun m -> errs := m :: !errs) fmt in
  let peek_on = Tinca.peek t_on and disk = env.Check.disk and universe = cfg.Check.universe in
  let d_on = logical_digest peek_on disk universe in
  (match Check.judge m (Check.logical_block peek_on disk) with Ok () -> () | Error e -> err "%s" e);
  (* No fault planted: the committer never acked without durability, so
     a Dead_acked verdict would be a false conviction — and it must agree
     with the judge, which just checked that every acked write survived. *)
  (match Tinca.last_crash_report t_on with
  | Some d -> (
      counts.dossiers_built <- counts.dossiers_built + 1;
      counts.records_replayed <- counts.records_replayed + d.Forensics.record_count;
      match Forensics.verdict d with
      | `Clean -> ()
      | `Dead_acked dead ->
          let s, b = match dead with (s, b, _) :: _ -> (s, b) | [] -> (-1, -1) in
          err "dossier convicted %d ticket(s) on a fault-free run (first: shard %d batch %d)"
            (List.length dead) s b)
  | None -> ());
  (* The pin: same crashed medium, replay off -> identical logical state. *)
  recrash ();
  (match
     Shard.recover ~flight_replay:false ~pmem:env.Check.pmem ~disk ~clock:env.Check.clock
       ~metrics:env.Check.metrics ()
   with
  | exception e -> err "recovery (replay off) raised %s" (Printexc.to_string e)
  | shard_off ->
      if logical_digest (Shard.peek shard_off) disk universe <> d_on then
        err "replay on/off recovered DIFFERENT logical states (recorder is not a pure observer)");
  match List.rev !errs with [] -> Ok () | es -> Error (String.concat "; " es)

(* The deterministic group-commit workload, tracked in a Crash_check
   model: each transaction is sealed in the spec once its commit_async
   returns, and the spec's sealed queue follows the facade's pending
   batch, so at any crash the recovered state must be the durable image
   (standing batch lost), the batch drained whole, or (mid-call, when a
   drain triggered inside commit_async — max-batch, ring pressure —
   covers the new transaction) everything drained including it. *)
let driver cfg =
  let counts = { dossiers_built = 0; records_replayed = 0 } in
  let fresh env =
    let t = format cfg env in
    let m =
      { Check.spec = Spec.create ~nblocks:cfg.Check.universe ~block_size:4096; in_flight = None }
    in
    let workload () =
      let rng = Rng.create cfg.Check.seed in
      for _ = 1 to cfg.Check.ncommits do
        let n = 1 + Rng.int rng 3 in
        let writes =
          List.init n (fun _ ->
              (Rng.int rng cfg.Check.universe, Bytes.make 4096 (Char.chr (1 + Rng.int rng 255))))
        in
        ignore (Check.commit_async t m writes)
      done;
      Tinca.group_flush t
    in
    (workload, judge cfg counts env m)
  in
  ({ Check.fresh }, counts)

(* --- the planted lost-ack scenario --------------------------------------- *)

(* Run >= 2 group drains under [`Drop_durable_notify] (batches publish,
   the facade acks durability, but no batch is ever sealed or
   finalized), crash, recover — and require the DOSSIER ALONE to name
   the acked tickets of every non-final batch.  (The newest batch is
   structurally indistinguishable from a legitimate crash window; the
   inference convicts exactly the batches some later drain proves were
   passed over.)  Every transaction writes one block per shard, so each
   batch drains on every shard and the second batch's drain evidence
   convicts the first on all of them — with fewer shards touched the
   per-shard inference would (correctly) leave untouched shards'
   members unconvicted. *)
let drop_notify_scenario cfg =
  let nshards = cfg.Check.nshards in
  if 2 * max_batch * nshards > cfg.Check.universe then
    invalid_arg "Flight_check.drop_notify_scenario: universe too small for the batches";
  let env = Check.mk_env cfg in
  let t = format cfg env in
  let first_batch = ref [] in
  Shard.set_fault (Some `Drop_durable_notify);
  Fun.protect
    ~finally:(fun () -> Shard.set_fault None)
    (fun () ->
      (* Two full batches of [max_batch] txns on distinct blocks (no
         conflict drains), drained by the max-batch trigger; each txn
         writes [nshards] consecutive blocks so it stripes across every
         shard. *)
      for i = 0 to (2 * max_batch) - 1 do
        let txn = Tinca.init_txn t in
        for s = 0 to nshards - 1 do
          Tinca.ok_exn (Tinca.write txn ((i * nshards) + s) (Bytes.make 4096 (Char.chr (65 + i))))
        done;
        let tk = Tinca.ok_exn (Tinca.commit_async txn) in
        if i < max_batch then first_batch := Tinca.ticket_id tk :: !first_batch
      done);
  (* Every ticket was acked durable (the fault's signature), yet nothing
     carries a Tail record.  Crash with full survival: everything the
     faulty committer fenced is on the medium — the best case for the
     bug to hide in. *)
  Pmem.crash_select env.Check.pmem ~survive:(fun _ -> true);
  match
    Tinca.recover ~pmem:env.Check.pmem ~disk:env.Check.disk ~clock:env.Check.clock
      ~metrics:env.Check.metrics
  with
  | Error e -> Error (Printf.sprintf "recovery failed: %s" (Tinca.error_message e))
  | Ok t2 -> (
      match Tinca.last_crash_report t2 with
      | None -> Error "no dossier: flight ring absent or empty"
      | Some dossier -> (
          match Forensics.verdict dossier with
          | `Clean -> Error "dossier verdict Clean: the planted Drop_durable_notify went uncaught"
          | `Dead_acked dead ->
              let convicted = List.map (fun (_, _, tk) -> tk) dead in
              let missing = List.filter (fun tk -> not (List.mem tk convicted)) !first_batch in
              if missing <> [] then
                Error
                  (Printf.sprintf "dossier missed acked ticket(s) %s of the first dead batch"
                     (String.concat "," (List.map string_of_int missing)))
              else Ok dossier))
