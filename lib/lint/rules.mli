(** The five pmem-discipline lint rules, as purely syntactic passes over
    a parsed implementation ({!Parsetree.structure}).  No typing
    environment is consulted; each rule's approximations are documented
    in DESIGN.md §9.

    - {b R1 domain-readiness} — every module-toplevel mutable value
      ([ref], [Hashtbl.create], [Buffer.create], arrays/bytes, literals
      of in-file mutable record types) is shared state once shards run
      on real domains; the full finding list {e is} the shared-state
      inventory a migration of shards onto OCaml 5 domains (parked on
      the ROADMAP) would start from.
    - {b R2 pmem encapsulation} — [Pmem] mutation/persistence calls
      ([write*], [atomic_write*], [fill], [clflush], [flush_ranges],
      [sfence], [persist]) are allowed only under {!pmem_allowlist};
      everyone else must go through [Cache]/[Ring].
    - {b R3 fence discipline} — per toplevel function of a pmem-touching
      module: any path that mutates pmem and falls off the end must
      reach flush + fence (or [persist]); otherwise the binding needs
      [\[@@pmem.defer "why"\]], and every deferral is reported.  Calls
      count by the callee's summary: calling a function that carries the
      attribute is a mutation, calling one that persists on every path
      (a fence helper; judged from its own operations and its own calls'
      summaries) is a persist — in the same file, and by qualified name
      for lib/core functions.
    - {b R4 error discipline} — [Obj.magic] and catch-all
      [try ... with _ ->] everywhere; [failwith] / bare [assert false]
      additionally in [lib/core] + [lib/tinca.ml] (result discipline:
      [Tinca.error] exists).
    - {b R5 interface coverage} — every [lib/] module has an [.mli]. *)

type rule = R1 | R2 | R3 | R4 | R5

val rule_name : rule -> string
val rule_of_string : string -> rule option

(** One-line human description of what the rule enforces. *)
val rule_title : rule -> string

type finding = {
  rule : rule;
  file : string;  (** repo-relative path, forward slashes *)
  line : int;
  token : string;
      (** stable baseline-matching key: the flagged identifier, function
          name, Pmem operation or violation class — line numbers are
          reported but not matched on, so unrelated edits do not
          invalidate the baseline *)
  message : string;
}

type deferred = {
  d_file : string;
  d_line : int;
  d_fn : string;
  d_reason : string;  (** the [\[@@pmem.defer "..."\]] justification *)
}

(** Modules allowed to call [Pmem] mutation primitives directly
    (directory prefixes). *)
val pmem_allowlist : string list

(** R3's call summaries of lib/core functions, by qualified name, from
    [(repo-relative path, parsed implementation)] pairs; other paths are
    ignored. *)
type summaries

val core_summaries : (string * Parsetree.structure) list -> summaries

(** Run R1–R4 on one parsed implementation.  [file] must be the
    repo-relative path (rule scoping switches on it); [core] (default
    empty) summarizes the lib/core functions it may call.  Returns the
    findings plus R3's deferred fence obligations. *)
val check_impl :
  ?core:summaries -> file:string -> Parsetree.structure -> finding list * deferred list

(** R5 over the scanned file lists (both repo-relative). *)
val r5 : ml_files:string list -> mli_files:string list -> finding list
