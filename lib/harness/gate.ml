(* The gate runner: one verdict table per gate, exceptions as FAIL rows,
   and one boolean for the exit code. *)

module Tabular = Tinca_util.Tabular

type property = { name : string; check : unit -> string * bool }
type t = { name : string; doc : string; properties : property list }

let property name check = { name; check }

type row = { property : string; ok : bool; seconds : float; detail : string }
type result = { gate : string; rows : row list; seconds : float; passed : bool }

let timed f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

let run_property (p : property) =
  let (detail, ok), seconds =
    timed (fun () ->
        try p.check () with e -> (Printf.sprintf "raised %s" (Printexc.to_string e), false))
  in
  { property = p.name; ok; seconds; detail }

let run (g : t) =
  let rows, seconds = timed (fun () -> List.map run_property g.properties) in
  { gate = g.name; rows; seconds; passed = List.for_all (fun r -> r.ok) rows }

let verdict ok = if ok then "ok" else "FAIL"
let failed r = List.length (List.filter (fun row -> not row.ok) r.rows)

let render r =
  let t = Tabular.create ~title:("gate " ^ r.gate) [ "property"; "ok"; "s"; "detail" ] in
  List.iter
    (fun row ->
      Tabular.add_row t [ row.property; verdict row.ok; Printf.sprintf "%.1f" row.seconds; row.detail ])
    r.rows;
  Printf.sprintf "%sgate %s: %s (%d of %d properties failed, %.1f s)\n" (Tabular.render t) r.gate
    (if r.passed then "PASS" else "FAIL")
    (failed r) (List.length r.rows) r.seconds

let run_all gates =
  let results =
    List.map
      (fun g ->
        let r = run g in
        print_string (render r);
        print_newline ();
        r)
      gates
  in
  if List.length results > 1 then begin
    let t = Tabular.create ~title:"gate summary" [ "gate"; "ok"; "failed"; "s" ] in
    List.iter
      (fun r ->
        Tabular.add_row t
          [ r.gate; verdict r.passed; string_of_int (failed r); Printf.sprintf "%.1f" r.seconds ])
      results;
    Tabular.add_row t
      [
        "total"; verdict (List.for_all (fun r -> r.passed) results);
        string_of_int (List.fold_left (fun a r -> a + failed r) 0 results);
        Printf.sprintf "%.1f" (List.fold_left (fun a r -> a +. r.seconds) 0.0 results);
      ];
    Tabular.print t
  end;
  List.for_all (fun r -> r.passed) results
