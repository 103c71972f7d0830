(* tinca_perf: the end-to-end benchmark of the Tinca stack.

     perf.exe run --workload W [--seed S] [--seconds N] [--trace 0|1]
                  [--scale X] [--out F] [--chrome F]
     perf.exe compare PARENT.jsonl CHANGE.jsonl [--benchmark BENCHMARK.json]
     perf.exe smoke [--benchmark BENCHMARK.json]

   [run] generates the workload's inputs from the seed and repeats
   passes (set-up and warm-up, measured phase, crash, recovery, check)
   until [--seconds] of host time have gone, at least three times.  It
   prints every metric as "name value unit" and, as its last line, one
   JSON object {correct, attempted, failed, metrics}.  Simulated metrics
   come from the first pass and must repeat exactly in every later one;
   host-time metrics are medians over all passes, scaled by the host's
   speed at the time they were taken ([Calib]).  With [--trace 1] it
   runs one untraced and one traced pass instead and reports the
   per-layer metrics; the traced pass must reproduce every simulated
   metric and count of the untraced one.  [--out F] appends the full
   result to F as one JSON line, the input of [compare]. *)

module Samples = Probe.Samples

(* name, unit.  Simulated times carry their own units: they are exact
   functions of the inputs, so a structural constant (every read a cache
   hit of one fixed cost) reads the same for every seed. *)
let end_to_end =
  [
    ("throughput_sim_ops_s", "ops/sim_s");
    ("durable_mean_sim_us", "sim_us");
    ("durable_tail_sim_us", "sim_us");
    ("read_mean_sim_us", "sim_us");
    ("read_tail_sim_us", "sim_us");
    ("nvm_write_amp", "ratio");
    ("recover_sim_ms", "sim_ms");
    ("throughput_wall_ops_s", "ops/s");
    ("durable_p50_wall_us", "us");
    ("setup_s", "s");
    ("heap_live_mb", "MiB");
  ]

let min_passes = 3

(* Every digit the float carries; JSON has no NaN or infinity. *)
let json_num v = if Float.is_finite v then Printf.sprintf "%.17g" v else "null"

type result = {
  workload : string;
  seed : int;
  scale : float;
  traced : bool;
  passes : int;
  attempted : int;
  failed : int;
  problems : string list;  (** checks that failed, beyond failed ops *)
  metrics : (string * float) list;
  sim : (string * float) list;  (** simulated metrics of the first pass *)
  notes : (string * string) list;  (** sample counts and tail percentiles *)
  inputs_digest : string;
}

let correct r = r.failed = 0 && r.problems = []

(* --- simulated metrics of one pass: exact, so they must repeat ----------- *)

(* Mean and tail.  Simulated latencies take few distinct values (a read
   hit costs two, three or four NVM block reads by file depth), so a
   median jumps between them from seed to seed; the mean does not. *)
let mean_and_tail samples =
  let s = Stats.sorted_of (Samples.to_list samples) in
  let n = Array.length s in
  if n = 0 then (0.0, 0.0, 990)
  else
    let tail = Stats.tail_per_mille n in
    (Array.fold_left ( +. ) 0.0 s /. float_of_int n, Stats.nearest_rank s tail, tail)

let sim_metrics (p : Workload.pass) =
  let dmean, dtail, _ = mean_and_tail p.Workload.durable_sim in
  let rmean, rtail, _ = mean_and_tail p.Workload.read_sim in
  let persisted = Layers.count p.Workload.m.Workload.counts "pmem.lines_persisted" in
  [
    ("throughput_sim_ops_s", float_of_int p.Workload.ops /. (p.Workload.m.Workload.sim_ns /. 1e9));
    ("durable_mean_sim_us", dmean /. 1000.0);
    ("durable_tail_sim_us", dtail /. 1000.0);
    ("read_mean_sim_us", rmean /. 1000.0);
    ("read_tail_sim_us", rtail /. 1000.0);
    ("nvm_write_amp", persisted *. float_of_int Tinca_pmem.Pmem.line_size /. float_of_int p.Workload.user_bytes);
    ("recover_sim_ms", p.Workload.recover_sim_ns /. 1e6);
  ]

(* Everything a pass simulates: its simulated metrics, every counter
   delta and every sample count.  Two passes over the same inputs, traced
   or not, must agree on all of it. *)
let fingerprint (p : Workload.pass) =
  ( sim_metrics p,
    p.Workload.m.Workload.counts,
    (Samples.length p.Workload.durable_sim, Samples.length p.Workload.read_sim) )

let notes_of (p : Workload.pass) =
  let note kind samples =
    let _, _, tail = mean_and_tail samples in
    [
      (kind ^ "_samples", string_of_int (Samples.length samples));
      (kind ^ "_tail", Stats.percentile_name tail);
    ]
  in
  note "durable" p.Workload.durable_sim @ note "read" p.Workload.read_sim

(* Host-time metrics over every pass: rates multiplied and durations
   divided by the host slowdown measured at the same moment ([Calib]),
   or taken as they are. *)
let host_metrics ~calibrated (passes : Workload.pass list) =
  let by slowdown = if calibrated then slowdown else 1.0 in
  let all f = List.concat_map f passes in
  let durable_wall =
    Stats.sorted_of
      (all (fun p ->
           let s = by p.Workload.m.Workload.slowdown in
           List.map (fun ns -> ns /. s) (Samples.to_list p.Workload.durable_wall)))
  in
  [
    ( "throughput_wall_ops_s",
      Stats.median (all (fun p -> List.map (fun (r, s) -> r *. by s) p.Workload.m.Workload.windows)) );
    ( "durable_p50_wall_us",
      if Array.length durable_wall = 0 then 0.0 else Stats.nearest_rank durable_wall 500 /. 1000.0 );
    ( "setup_s",
      Stats.median
        (List.map (fun p -> p.Workload.m.Workload.setup_s /. by p.Workload.m.Workload.slowdown) passes)
    );
  ]

let run ?(recover_cycles = Workload.recover_cycles) ?(slowdown = Calib.slowdown) ?chrome ~scale ~seconds
    ~traced ~seed w =
  let w = Workload.scaled scale w in
  let t0 = Probe.wall_ns () in
  let g = Workload.generate w ~seed in
  let gen_wall_ns = Probe.wall_ns () -. t0 in
  let pass ~traced = Workload.run_pass ?chrome ~slowdown ~recover_cycles w g ~traced in
  let first = pass ~traced:false in
  let passes =
    if traced then [ first; pass ~traced:true ]
    else
      let rec more acc n =
        if n >= min_passes && Probe.wall_ns () -. t0 >= seconds *. 1e9 then List.rev acc
        else more (pass ~traced:false :: acc) (n + 1)
      in
      more [ first ] 1
  in
  let fp = fingerprint first in
  let problems =
    List.concat
      [
        (if List.for_all (fun p -> fingerprint p = fp) passes then []
         else [ "simulated metrics or counts differ between passes over the same inputs" ]);
        List.concat_map (fun p -> p.Workload.m.Workload.chrome_problems) passes;
      ]
  in
  let metrics, problems =
    if traced then
      let tp = List.nth passes 1 in
      let layers =
        ( "bench.gen_wall_frac",
          (gen_wall_ns +. tp.Workload.outside_wall_ns) /. (gen_wall_ns +. tp.Workload.m.Workload.wall_ns) )
        :: ( "bench.trace_overhead_wall_frac",
             let calibrated (p : Workload.pass) = p.Workload.m.Workload.wall_ns /. p.Workload.m.Workload.slowdown in
             (calibrated tp /. calibrated first) -. 1.0 )
        :: tp.Workload.layers
      in
      let problems =
        if List.assoc "bench.unattributed_sim_frac" layers = 0.0 then problems
        else "simulated time passed outside every timed layer call" :: problems
      in
      (List.map (fun (name, _, _) -> (name, List.assoc name layers)) Layers.catalog, problems)
    else
      ( sim_metrics first
        @ host_metrics ~calibrated:true passes
        @ [
            (* From the first pass, before earlier passes' samples are
               also live. *)
            ("heap_live_mb", first.Workload.m.Workload.live_mb);
          ],
        problems )
  in
  let notes =
    if traced then notes_of first
    else
      notes_of first
      @ List.map
          (fun (name, v) -> ("uncalibrated " ^ name, json_num v))
          (host_metrics ~calibrated:false passes)
      @ [
          ( "host slowdown",
            json_num (Stats.median (List.map (fun p -> p.Workload.m.Workload.slowdown) passes)) );
        ]
  in
  {
    workload = w.Workload.name;
    seed;
    scale;
    traced;
    passes = List.length passes;
    attempted = List.fold_left (fun acc p -> acc + p.Workload.ops) 0 passes;
    failed = List.fold_left (fun acc p -> acc + p.Workload.failed) 0 passes;
    problems;
    metrics;
    sim = sim_metrics first;
    notes;
    inputs_digest = Workload.inputs_digest g;
  }

(* --- output -------------------------------------------------------------- *)

let unit_of name =
  match List.assoc_opt name end_to_end with
  | Some u -> u
  | None -> (
      match List.find_opt (fun (n, _, _) -> String.equal n name) Layers.catalog with
      | Some (_, u, _) -> u
      | None -> "")

let json_str s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | ('"' | '\\') as c -> Buffer.add_char b '\\'; Buffer.add_char b c
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let json_metrics r =
  "{"
  ^ String.concat ", "
      (List.map
         (fun (name, v) ->
           Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (json_str name) (json_num v)
             (json_str (unit_of name)))
         r.metrics)
  ^ "}"

let summary_json r =
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": %s}" (correct r)
    r.attempted r.failed (json_metrics r)

let full_json r =
  let obj kvs = "{" ^ String.concat ", " (List.map (fun (k, v) -> json_str k ^ ": " ^ v) kvs) ^ "}" in
  obj
    [
      ("workload", json_str r.workload);
      ("seed", string_of_int r.seed);
      ("scale", json_num r.scale);
      ("trace", string_of_bool r.traced);
      ("passes", string_of_int r.passes);
      ("correct", string_of_bool (correct r));
      ("attempted", string_of_int r.attempted);
      ("failed", string_of_int r.failed);
      ("problems", "[" ^ String.concat ", " (List.map json_str r.problems) ^ "]");
      ("inputs_digest", json_str r.inputs_digest);
      ("notes", obj (List.map (fun (k, v) -> (k, json_str v)) r.notes));
      ("metrics", json_metrics r);
    ]

let print_result r =
  Printf.printf "# %s seed=%d scale=%g passes=%d trace=%b\n" r.workload r.seed r.scale r.passes
    r.traced;
  List.iter (fun (k, v) -> Printf.printf "# %s %s\n" k v) r.notes;
  List.iter (fun p -> Printf.printf "# FAILED CHECK: %s\n" p) r.problems;
  List.iter (fun (name, v) -> Printf.printf "%s %s %s\n" name (json_num v) (unit_of name)) r.metrics;
  Printf.printf "failed_ops_frac %s frac\n"
    (json_num (float_of_int r.failed /. float_of_int (max 1 r.attempted)));
  print_endline (summary_json r)

let append_line path line =
  let oc = open_out_gen [ Open_append; Open_creat ] 0o644 path in
  output_string oc (line ^ "\n");
  close_out oc

(* --- smoke test ------------------------------------------------------------ *)

(* Every workload at 1% size, run twice with one seed (untraced, then
   traced): the simulated metrics must repeat exactly, nothing may fail,
   no simulated time may escape the layer timing, the JSON must parse,
   and another seed must change the inputs.  BENCHMARK.json, when given,
   must list what this program emits.  Host times are not checked, so
   the host's speed is not measured. *)
let smoke ~benchmark =
  let errors = ref [] in
  let fail fmt = Printf.ksprintf (fun m -> errors := m :: !errors) fmt in
  let once w ~traced =
    run ~recover_cycles:2 ~slowdown:(fun () -> 1.0) ~scale:0.01 ~seconds:0.0 ~traced ~seed:1 w
  in
  List.iter
    (fun w ->
      let a = once w ~traced:false in
      let b = once w ~traced:true in
      let name = w.Workload.name in
      if a.sim <> b.sim then fail "%s: simulated metrics differ between two runs of seed 1" name;
      List.iter
        (fun r ->
          if not (correct r) then
            fail "%s: failed=%d problems=[%s]" name r.failed (String.concat "; " r.problems);
          List.iter
            (fun json ->
              match Tinca_obs.Jsonv.parse json with
              | Ok _ -> ()
              | Error e -> fail "%s: result JSON does not parse: %s" name e)
            [ full_json r; summary_json r ])
        [ a; b ];
      let g1 = Workload.generate (Workload.scaled 0.01 w) ~seed:1
      and g2 = Workload.generate (Workload.scaled 0.01 w) ~seed:2 in
      if Workload.inputs_digest g1 = Workload.inputs_digest g2 then
        fail "%s: seeds 1 and 2 generate the same inputs" name)
    Workload.all;
  Option.iter
    (fun path ->
      List.iter (fail "%s")
        (Compare.check_catalog path ~end_to_end ~per_layer:Layers.catalog
           ~workloads:(List.map (fun w -> w.Workload.name) Workload.all)))
    benchmark;
  match List.rev !errors with
  | [] -> 0
  | es ->
      List.iter prerr_endline es;
      1

(* --- command line ------------------------------------------------------ *)

let usage =
  "perf.exe run --workload W [--seed S] [--seconds N] [--trace 0|1] [--scale X] [--out F] [--chrome F]\n\
   perf.exe compare PARENT.jsonl CHANGE.jsonl [--benchmark BENCHMARK.json]\n\
   perf.exe smoke [--benchmark BENCHMARK.json]"

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  let scale = ref 1.0 and out = ref None and chrome = ref None in
  let benchmark = ref None and files = ref [] in
  let specs =
    [
      ("--workload", Arg.Set_string workload, "W one of the workloads in BENCHMARK.json");
      ("--seed", Arg.Set_int seed, "S input seed (default 1; 2 is held out for checking claims)");
      ("--seconds", Arg.Set_float seconds, "N host seconds to keep repeating passes (default 10)");
      ("--trace", Arg.Set_int trace, "0|1 1 = traced run reporting per-layer metrics");
      ("--scale", Arg.Set_float scale, "X multiply op counts and the fs file size (default 1)");
      ("--out", Arg.String (fun f -> out := Some f), "F append the full result as one JSON line");
      ("--chrome", Arg.String (fun f -> chrome := Some f), "F write the traced pass's Chrome trace");
      ("--benchmark", Arg.String (fun f -> benchmark := Some f), "F BENCHMARK.json (bounds, catalog)");
    ]
  in
  let argv = Sys.argv in
  let cmd, rest =
    if Array.length argv > 1 && argv.(1) <> "" && argv.(1).[0] <> '-' then
      (argv.(1), Array.append [| argv.(0) |] (Array.sub argv 2 (Array.length argv - 2)))
    else ("run", argv)
  in
  (match Arg.parse_argv rest specs (fun f -> files := f :: !files) usage with
  | () -> ()
  | exception Arg.Help msg ->
      print_string msg;
      exit 0
  | exception Arg.Bad msg ->
      prerr_string msg;
      exit 2);
  let code =
    match cmd with
    | "run" -> (
        match Workload.find !workload with
        | None ->
            Printf.eprintf "unknown workload %S; one of: %s\n" !workload
              (String.concat " " (List.map (fun w -> w.Workload.name) Workload.all));
            2
        | Some w ->
            if !trace <> 0 && !trace <> 1 then (prerr_endline "--trace takes 0 or 1"; exit 2);
            let r =
              run ?chrome:!chrome ~scale:!scale ~seconds:!seconds ~traced:(!trace = 1) ~seed:!seed w
            in
            Option.iter (fun f -> append_line f (full_json r)) !out;
            print_result r;
            if correct r then 0 else 1)
    | "compare" -> (
        match List.rev !files with
        | [ parent; change ] -> (
            match
              Compare.main ~benchmark:(Option.value ~default:"BENCHMARK.json" !benchmark) ~parent
                ~change
            with
            | code -> code
            | exception (Failure msg | Sys_error msg) ->
                prerr_endline msg;
                2)
        | _ ->
            prerr_endline usage;
            2)
    | "smoke" -> smoke ~benchmark:!benchmark
    | other ->
        Printf.eprintf "unknown command %S\n%s\n" other usage;
        2
  in
  exit code
