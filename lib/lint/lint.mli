(** `Tinca_lint` entry points: scan [lib/] under a repo root, parse every
    implementation with compiler-libs, run {!Rules} R1–R5 and reconcile
    against the checked-in {!Baseline}.  Deliberately free of any tinca
    dependency: the linter must never depend on the code it judges. *)

type report = {
  files : string list;  (** .ml files scanned, repo-relative *)
  findings : Rules.finding list;  (** R1–R5, baselined or not *)
  deferred : Rules.deferred list;  (** R3 [\[@@pmem.defer\]] obligations *)
  errors : (string * string) list;  (** (file, parse error) *)
}

(** Parse one implementation from a string ([file] only labels
    locations and drives rule scoping). *)
val parse_string : file:string -> string -> (Parsetree.structure, string) result

(** Parse + run R1–R4 — the fixture-suite entry point. *)
val check_string :
  file:string -> string -> (Rules.finding list * Rules.deferred list, string) result

(** Scan [root/lib] recursively and lint every [.ml] (R5 additionally
    sees the [.mli] list). *)
val run : root:string -> report

(** The R1 subset of the findings: the module-toplevel shared-mutable-
    state inventory a migration of shards onto OCaml 5 domains (parked
    on the ROADMAP) would start from. *)
val inventory : report -> Rules.finding list

val pp_finding : Rules.finding -> string
val pp_deferred : Rules.deferred -> string

(** Fold the run's findings into baseline entries, keeping [old]'s
    justifications for entries that already exist and a
    ["TODO: justify this suppression"] placeholder for new ones (which a
    human must edit — the placeholder is deliberately conspicuous). *)
val to_baseline : old:Baseline.t -> report -> Baseline.t
