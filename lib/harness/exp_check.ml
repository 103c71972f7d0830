(* Crash-space model-checking experiment: a budgeted run of the
   exhaustive checker (lib/check) as a registry entry, so `tinca_bench
   run crash_space` reports the explored state-space size alongside the
   paper's tables.  The full sweep lives behind `make check-crash` /
   `tinca_check`; this entry uses a moderate cap to stay in experiment
   wall-time territory. *)

module Check = Tinca_checker.Crash_check
module Tabular = Tinca_util.Tabular

let sweep_property ?driver name cfg =
  Gate.property name (fun () ->
      let r = Check.explore ?driver cfg in
      (Check.summary r, r.Check.violations = []))

let run () =
  let report = Check.explore { Check.default_config with Check.masks = Check.Capped 128 } in
  let t = Check.report_table report in
  (match report.Check.violations with
  | [] -> ()
  | vs ->
      List.iter
        (fun v -> Tabular.add_row t [ "VIOLATION"; Format.asprintf "%a" Check.pp_violation v ])
        vs);
  [ t ]
