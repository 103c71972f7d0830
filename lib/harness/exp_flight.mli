(** fig_flight: the NVM flight recorder priced on the commit
    micro-benchmark (ISSUE 9) — the same mixed-size stream as
    fig_commit_batch, recorder off vs on, reporting fences (must be
    identical), flush write-backs (the folded record lines) and
    simulated ns per commit. *)

val fig_flight : unit -> Tinca_util.Tabular.t list

(** A {!Tinca_checker.Flight_check} sweep of [cfg] as a gate property:
    span, crash points, states, dossiers and records replayed in the
    detail; ok when no explored state broke the replay on/off pin or the
    dossier agreement. *)
val sweep_property : string -> Tinca_checker.Crash_check.config -> Gate.property

(** {!Tinca_checker.Flight_check.drop_notify_scenario} of [cfg] as a gate
    property. *)
val drop_notify_property : string -> Tinca_checker.Crash_check.config -> Gate.property

(** The flight gate's recorder properties: zero added fences, <= 2%
    aggregate ns overhead, a recorder-on group-commit workload
    psan-clean at N=1 and N=4, the flight crash sweep clean at N=1 and
    N=4 (recovery-semantics pin + dossier-vs-judge agreement) and the
    planted [Drop_durable_notify] convicted by the dossier alone. *)
val properties : unit -> Gate.property list
