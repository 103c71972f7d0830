(** Registry wrapper for the exhaustive crash-space model checker
    (lib/check): a budgeted sweep of the default deterministic workload,
    reporting crash points, explored/deduped post-crash states and any
    consistency violations. *)

val run : unit -> Tinca_util.Tabular.t list

(** A {!Tinca_checker.Crash_check.explore} sweep of [cfg] (default
    driver) as a gate property: {!Tinca_checker.Crash_check.summary} in
    the detail, ok when no explored state violated an oracle. *)
val sweep_property :
  ?driver:Tinca_checker.Crash_check.driver ->
  string ->
  Tinca_checker.Crash_check.config ->
  Gate.property
