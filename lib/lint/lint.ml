(* Orchestration: scan lib/ for sources, parse each with compiler-libs,
   run the rules, and reconcile against the baseline.  Kept free of any
   tinca dependency so the linter never depends on the code it judges. *)

type report = {
  files : string list;
  findings : Rules.finding list;
  deferred : Rules.deferred list;
  errors : (string * string) list;
}

(* --- parsing ------------------------------------------------------------ *)

let parse_string ~file src =
  let lexbuf = Lexing.from_string src in
  Lexing.set_filename lexbuf file;
  match Parse.implementation lexbuf with
  | str -> Ok str
  | exception Syntaxerr.Error _ ->
      Error (Printf.sprintf "%s: syntax error (not valid OCaml)" file)
  | exception Lexer.Error (_, loc) ->
      Error (Printf.sprintf "%s:%d: lexer error" file loc.Location.loc_start.Lexing.pos_lnum)

let check_string ~file src =
  match parse_string ~file src with
  | Ok str -> Ok (Rules.check_impl ~file str)
  | Error _ as e -> e

(* --- filesystem scan ---------------------------------------------------- *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* Repo-relative path with forward slashes, assuming [path] extends
   [root]. *)
let relativize ~root path =
  let prefix = (if root = "" || root = "." then "." else root) ^ "/" in
  let n = String.length prefix in
  if String.length path >= n && String.sub path 0 n = prefix then
    String.sub path n (String.length path - n)
  else path

let rec scan_dir dir =
  match Sys.readdir dir with
  | entries ->
      Array.sort compare entries;
      Array.fold_left
        (fun acc name ->
          let path = Filename.concat dir name in
          if Sys.is_directory path then acc @ scan_dir path
          else if Filename.check_suffix name ".ml" || Filename.check_suffix name ".mli" then
            acc @ [ path ]
          else acc)
        [] entries
  | exception Sys_error _ -> []

(* --- the run ------------------------------------------------------------ *)

let run ~root =
  let sources = scan_dir (Filename.concat root "lib") |> List.map (relativize ~root) in
  let ml_files = List.filter (fun f -> Filename.check_suffix f ".ml") sources in
  let mli_files = List.filter (fun f -> Filename.check_suffix f ".mli") sources in
  let parsed =
    List.map (fun file -> (file, parse_string ~file (read_file (Filename.concat root file)))) ml_files
  in
  let core =
    Rules.core_summaries
      (List.filter_map (function file, Ok str -> Some (file, str) | _, Error _ -> None) parsed)
  in
  let findings, deferred, errors =
    List.fold_left
      (fun (fs, ds, es) (file, parsed) ->
        match parsed with
        | Ok str ->
            let f, d = Rules.check_impl ~core ~file str in
            (fs @ f, ds @ d, es)
        | Error msg -> (fs, ds, es @ [ (file, msg) ]))
      ([], [], []) parsed
  in
  let findings = findings @ Rules.r5 ~ml_files ~mli_files in
  { files = ml_files; findings; deferred; errors }

let inventory report = List.filter (fun (f : Rules.finding) -> f.rule = Rules.R1) report.findings

(* --- rendering ---------------------------------------------------------- *)

let pp_finding (f : Rules.finding) =
  Printf.sprintf "%s:%d: [%s] %s" f.file f.line (Rules.rule_name f.rule) f.message

let pp_deferred (d : Rules.deferred) =
  Printf.sprintf "%s:%d: %s — %s" d.d_file d.d_line d.d_fn d.d_reason

(* Current findings folded into baseline entries, keeping the ledger's
   existing justifications and marking new ones for a human to fill in. *)
let to_baseline ~old report =
  List.map
    (fun (f : Rules.finding) ->
      match Baseline.covers old f with
      | Some e -> e
      | None ->
          {
            Baseline.rule = f.rule;
            file = f.file;
            token = f.token;
            justification = "TODO: justify this suppression";
          })
    report.findings
