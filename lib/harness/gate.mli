(** CI gates: a gate is a name plus a list of properties, and {!run} is
    the one place that decides whether a gate passed.

    A property is a named thunk returning a detail string and a verdict.
    Properties run in order; one that raises becomes a FAIL row naming
    the exception, and the properties after it still run. *)

type property = { name : string; check : unit -> string * bool }

type t = { name : string; doc : string; properties : property list }

val property : string -> (unit -> string * bool) -> property

type row = { property : string; ok : bool; seconds : float; detail : string }

type result = { gate : string; rows : row list; seconds : float; passed : bool }

(** Run every property of the gate, timing each and the whole. *)
val run : t -> result

(** The verdict table of one result, followed by its PASS/FAIL line. *)
val render : result -> string

(** Run the gates in order, printing each verdict table as its gate
    finishes (every gate runs, whatever the earlier ones returned), then
    a per-gate wall-time summary when there is more than one gate.  True
    when every row of every gate passed. *)
val run_all : t list -> bool
