(* [perf.exe compare PARENT CHANGE]: judge a change against its parent
   from two files of results ([run --out], one JSON object per line),
   with the bounds in BENCHMARK.json.

   Runs of one workload pair up in file order, so record them
   alternating which side runs first.  Per workload and end-to-end
   metric the verdict is
   - gain: at least ten pairs, the change wins nine tenths of them (ties
     count for neither side), and the medians differ by more than the
     parent's interquartile range;
   - unresolved: the parent's own spread (interquartile range over
     median) exceeds the bound, unless every change run beats every
     parent run;
   - REGRESSION: the change's median is worse than the parent's by more
     than the bound;
   - ok otherwise.
   More failed operations on the change side also counts as a
   regression.  Exit 1 on any regression. *)

module J = Tinca_obs.Jsonv

let read_file path = In_channel.with_open_bin path In_channel.input_all

let parse_file path =
  match J.parse (read_file path) with
  | Ok v -> v
  | Error e -> failwith (Printf.sprintf "%s: %s" path e)

let str = function Some (J.Str s) -> s | _ -> ""
let num = function Some (J.Num n) -> n | _ -> nan
let arr = function Some (J.Arr l) -> l | _ -> []

(* (name, unit, better, bound) per end-to-end metric *)
let end_to_end_of bench =
  List.map
    (fun m ->
      (str (J.member "name" m), str (J.member "unit" m), str (J.member "better" m), num (J.member "bound" m)))
    (arr (J.member "end_to_end" bench))

let check_catalog path ~end_to_end ~per_layer ~workloads =
  match parse_file path with
  | exception Failure e -> [ e ]
  | exception Sys_error e -> [ e ]
  | bench ->
      let listed key fields = List.map fields (arr (J.member key bench)) in
      let diff what expected got =
        if expected = got then []
        else [ Printf.sprintf "%s: %s lists something other than what perf.exe emits" path what ]
      in
      diff "end_to_end" end_to_end
        (List.map (fun (n, u, _, _) -> (n, u)) (end_to_end_of bench))
      @ diff "per_layer" per_layer
          (listed "per_layer" (fun m ->
               (str (J.member "name" m), str (J.member "unit" m), str (J.member "better" m))))
      @ diff "workloads" workloads (listed "workloads" (fun w -> str (J.member "name" w)))

type run = { workload : string; failed : int; values : (string * float) list }

let load path =
  read_file path |> String.split_on_char '\n'
  |> List.filter (fun l -> String.trim l <> "")
  |> List.filter_map (fun line ->
         match J.parse line with
         | Error e -> failwith (Printf.sprintf "%s: %s" path e)
         | Ok v when J.member "trace" v = Some (J.Bool true) -> None
         | Ok v ->
             let values =
               match J.member "metrics" v with
               | Some (J.Obj ms) -> List.map (fun (k, m) -> (k, num (J.member "value" m))) ms
               | _ -> []
             in
             Some
               {
                 workload = str (J.member "workload" v);
                 failed = int_of_float (num (J.member "failed" v));
                 values;
               })

let verdict ~better ~bound parent change =
  let lower_better = better = "lower" in
  let beats c p = if lower_better then c < p else c > p in
  let med_p = Stats.median parent and med_c = Stats.median change in
  let iqr = match Stats.quartiles parent with q1, _, q3 -> q3 -. q1 | exception Invalid_argument _ -> 0.0 in
  let rec zip a b = match (a, b) with x :: a, y :: b -> (x, y) :: zip a b | _ -> [] in
  let pairs = zip parent change in
  let wins = List.length (List.filter (fun (p, c) -> beats c p) pairs) in
  let worse = (if lower_better then med_c -. med_p else med_p -. med_c) /. med_p in
  let gain =
    List.length pairs >= 10
    && wins * 10 >= 9 * List.length pairs
    && beats med_c med_p
    && Float.abs (med_c -. med_p) > iqr
  in
  let every_better = List.for_all (fun c -> List.for_all (fun p -> beats c p) parent) change in
  let v =
    if gain then "gain"
    else if iqr /. med_p > bound && not every_better then "unresolved"
    else if worse > bound then "REGRESSION"
    else "ok"
  in
  (v, worse)

let main ~benchmark ~parent ~change =
  let bounds = end_to_end_of (parse_file benchmark) in
  let parent = load parent and change = load change in
  let workloads = List.sort_uniq compare (List.map (fun r -> r.workload) parent) in
  let bad = ref false in
  List.iter
    (fun w ->
      let side runs = List.filter (fun r -> r.workload = w) runs in
      let p = side parent and c = side change in
      if c <> [] then begin
        let failed runs = List.fold_left (fun acc r -> acc + r.failed) 0 runs in
        let cells =
          List.filter_map
            (fun (name, _, better, bound) ->
              let values runs = List.filter_map (fun r -> List.assoc_opt name r.values) runs in
              match (values p, values c) with
              | [], _ | _, [] -> None
              | pv, cv ->
                  let v, worse = verdict ~better ~bound pv cv in
                  if v = "REGRESSION" then bad := true;
                  Some (Printf.sprintf "%s %s %+.2f%%" name v (-100.0 *. worse)))
            bounds
        in
        let fail_cell =
          if failed c > failed p then (
            bad := true;
            [ Printf.sprintf "failed_ops REGRESSION %d > %d" (failed c) (failed p) ])
          else []
        in
        Printf.printf "%s pairs=%d | %s\n" w (min (List.length p) (List.length c))
          (String.concat " | " (fail_cell @ cells))
      end)
    workloads;
  if !bad then 1 else 0
