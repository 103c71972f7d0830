(* The five lint rules, each a purely syntactic pass over one parsed
   implementation (compiler-libs Parsetree).  No typing information is
   available, so every rule errs on the side of "flag it and let the
   baseline carry a justification" — see DESIGN.md §9 for the precise
   approximations each rule makes. *)

open Parsetree

type rule = R1 | R2 | R3 | R4 | R5

let rule_name = function
  | R1 -> "R1"
  | R2 -> "R2"
  | R3 -> "R3"
  | R4 -> "R4"
  | R5 -> "R5"

let rule_of_string = function
  | "R1" -> Some R1
  | "R2" -> Some R2
  | "R3" -> Some R3
  | "R4" -> Some R4
  | "R5" -> Some R5
  | _ -> None

let rule_title = function
  | R1 -> "domain-readiness: module-toplevel mutable state"
  | R2 -> "pmem encapsulation: direct Pmem mutation outside the core"
  | R3 -> "fence discipline: pmem mutation not followed by flush+fence"
  | R4 -> "error discipline: Obj.magic / failwith / assert false / catch-all"
  | R5 -> "interface coverage: lib module without an .mli"

type finding = {
  rule : rule;
  file : string;  (* repo-relative, forward slashes *)
  line : int;
  token : string;  (* baseline-matching key: ident / function / symbol *)
  message : string;
}

type deferred = {
  d_file : string;
  d_line : int;
  d_fn : string;
  d_reason : string;  (* the [@@pmem.defer "..."] justification *)
}

(* --- path classification ------------------------------------------------ *)

let under dir file =
  String.length file >= String.length dir && String.sub file 0 (String.length dir) = dir

(* R2: the only modules allowed to touch Pmem's mutation/persistence
   surface directly; everything else must go through Cache/Ring. *)
let pmem_allowlist = [ "lib/core/"; "lib/jbd2/"; "lib/check/"; "lib/pmem/" ]

let r2_allowed file = List.exists (fun d -> under d file) pmem_allowlist

(* R3 judges every pmem-touching module except the device model itself
   and the checkers (which replay/shadow events rather than owning a
   persistence protocol). *)
let r3_applies file = (not (under "lib/pmem/" file)) && not (under "lib/check/" file)

(* R4's failwith / assert-false ban applies to the result-disciplined
   core ([Tinca.error] exists); Obj.magic and catch-alls are banned
   everywhere. *)
let r4_strict file = under "lib/core/" file || file = "lib/tinca.ml"

(* --- Parsetree helpers -------------------------------------------------- *)

let line_of_loc (loc : Location.t) = loc.Location.loc_start.Lexing.pos_lnum
let line_of e = line_of_loc e.pexp_loc

(* Longident.flatten raises on [Lapply]; this one never does. *)
let rec flat acc = function
  | Longident.Lident s -> s :: acc
  | Longident.Ldot (l, s) -> flat (s :: acc) l
  | Longident.Lapply (_, l) -> flat acc l

let ident_path e =
  match e.pexp_desc with Pexp_ident { Location.txt; _ } -> Some (flat [] txt) | _ -> None

let rec pat_vars p =
  match p.ppat_desc with
  | Ppat_var { Location.txt; _ } -> [ txt ]
  | Ppat_alias (p, { Location.txt; _ }) -> txt :: pat_vars p
  | Ppat_tuple ps | Ppat_array ps -> List.concat_map pat_vars ps
  | Ppat_construct (_, Some (_, p))
  | Ppat_variant (_, Some p)
  | Ppat_constraint (p, _)
  | Ppat_open (_, p)
  | Ppat_lazy p
  | Ppat_exception p ->
      pat_vars p
  | Ppat_record (fields, _) -> List.concat_map (fun (_, p) -> pat_vars p) fields
  | Ppat_or (a, b) -> pat_vars a @ pat_vars b
  | _ -> []

let binding_name vb = match pat_vars vb.pvb_pat with n :: _ -> n | [] -> "_"

(* Walk every module-toplevel value binding, descending into nested
   [module M = struct ... end] (and functor bodies / constrained module
   expressions) but never into expressions. *)
let rec walk_bindings ~on_vb str =
  List.iter
    (fun item ->
      match item.pstr_desc with
      | Pstr_value (_, vbs) -> List.iter on_vb vbs
      | Pstr_module mb -> walk_mod ~on_vb mb.pmb_expr
      | Pstr_recmodule mbs -> List.iter (fun mb -> walk_mod ~on_vb mb.pmb_expr) mbs
      | Pstr_include { pincl_mod = me; _ } -> walk_mod ~on_vb me
      | _ -> ())
    str

and walk_mod ~on_vb me =
  match me.pmod_desc with
  | Pmod_structure s -> walk_bindings ~on_vb s
  | Pmod_constraint (me, _) | Pmod_functor (_, me) -> walk_mod ~on_vb me
  | _ -> ()

(* --- R1: domain-readiness ----------------------------------------------- *)

(* Function/lazy boundaries stop the scan: [let f x = ref x] allocates
   per call, not at module init.  Mutable-record literals are detected
   via the record type declarations of the *same file* (a literal
   mentioning a field that some in-file record type declares [mutable]);
   cross-module mutable records need the type environment we do not
   have. *)

let mutable_call path =
  match path with
  | [ "ref" ] | [ "Stdlib"; "ref" ] -> Some "ref cell"
  | [ "Hashtbl"; ("create" | "copy" | "of_seq") ] -> Some "Hashtbl"
  | [ "Buffer"; "create" ] -> Some "Buffer"
  | [ "Queue"; "create" ] -> Some "Queue"
  | [ "Stack"; "create" ] -> Some "Stack"
  | [ "Atomic"; "make" ] -> Some "Atomic"
  | [ "Array"; ("make" | "create" | "init" | "make_matrix" | "copy" | "of_list" | "sub" | "append" | "concat") ]
    ->
      Some "array"
  | [ "Bytes"; ("create" | "make" | "init" | "of_string" | "copy" | "sub") ] -> Some "bytes"
  | _ -> None

let mutable_field_names str =
  let acc = ref [] in
  List.iter
    (fun item ->
      match item.pstr_desc with
      | Pstr_type (_, decls) ->
          List.iter
            (fun d ->
              match d.ptype_kind with
              | Ptype_record labels ->
                  if List.exists (fun l -> l.pld_mutable = Mutable) labels then
                    List.iter (fun l -> acc := l.pld_name.Location.txt :: !acc) labels
              | _ -> ())
            decls
      | _ -> ())
    str;
  !acc

let mutable_ctors ~mutable_fields e =
  let acc = ref [] in
  let record_is_mutable fields =
    List.exists
      (fun ({ Location.txt; _ }, _) ->
        match flat [] txt with [ n ] -> List.mem n mutable_fields | _ -> false)
      fields
  in
  let it =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun self ex ->
          match ex.pexp_desc with
          | Pexp_fun _ | Pexp_function _ | Pexp_lazy _ -> ()
          | Pexp_apply ({ pexp_desc = Pexp_ident { Location.txt; _ }; _ }, args) ->
              (match mutable_call (flat [] txt) with
              | Some what -> acc := (line_of ex, what) :: !acc
              | None -> ());
              List.iter (fun (_, a) -> self.expr self a) args
          | Pexp_array _ ->
              acc := (line_of ex, "array literal") :: !acc;
              Ast_iterator.default_iterator.expr self ex
          | Pexp_record (fields, _) when record_is_mutable fields ->
              acc := (line_of ex, "mutable-record literal") :: !acc;
              Ast_iterator.default_iterator.expr self ex
          | _ -> Ast_iterator.default_iterator.expr self ex);
    }
  in
  it.expr it e;
  List.rev !acc

let r1 ~file str =
  let mutable_fields = mutable_field_names str in
  let acc = ref [] in
  walk_bindings str ~on_vb:(fun vb ->
      let name = binding_name vb in
      List.iter
        (fun (line, what) ->
          acc :=
            {
              rule = R1;
              file;
              line;
              token = name;
              message =
                Printf.sprintf "toplevel mutable state: `%s` holds a %s (shared across domains)"
                  name what;
            }
            :: !acc)
        (mutable_ctors ~mutable_fields vb.pvb_expr));
  List.rev !acc

(* --- R2 + R4: expression-level scans ------------------------------------ *)

type pmem_op = Mutate | Flush | Fence | Persist_op

let pmem_op_of_path = function
  | [ "Pmem"; fn ] | [ "Tinca_pmem"; "Pmem"; fn ] -> (
      match fn with
      | "write" | "write_sub" | "writev" | "fill" | "atomic_write8" | "atomic_write8_int"
      | "atomic_write16" ->
          Some (fn, Mutate)
      | "clflush" | "flush_ranges" -> Some (fn, Flush)
      | "sfence" -> Some (fn, Fence)
      | "persist" -> Some (fn, Persist_op)
      | _ -> None)
  | _ -> None

let expr_findings ~file str =
  let acc = ref [] in
  let add rule line token message = acc := { rule; file; line; token; message } :: !acc in
  let on_ident e path =
    (match pmem_op_of_path path with
    | Some (fn, _) when not (r2_allowed file) ->
        add R2 (line_of e) fn
          (Printf.sprintf
             "direct Pmem.%s outside %s — go through Cache/Ring" fn
             (String.concat "," pmem_allowlist))
    | _ -> ());
    match path with
    | [ "Obj"; "magic" ] | [ "Stdlib"; "Obj"; "magic" ] ->
        add R4 (line_of e) "obj_magic" "Obj.magic is forbidden"
    | [ "failwith" ] | [ "Stdlib"; "failwith" ] when r4_strict file ->
        add R4 (line_of e) "failwith"
          "failwith in the result-disciplined core — use a typed error (Tinca.error) or a \
           dedicated exception"
    | _ -> ()
  in
  let it =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun self e ->
          (match e.pexp_desc with
          | Pexp_ident { Location.txt; _ } -> on_ident e (flat [] txt)
          | Pexp_assert { pexp_desc = Pexp_construct ({ Location.txt = Lident "false"; _ }, None); _ }
            when r4_strict file ->
              add R4 (line_of e) "assert_false"
                "bare `assert false` in the result-disciplined core — use a typed error or a \
                 dedicated exception"
          | Pexp_try (_, cases) ->
              List.iter
                (fun c ->
                  match (c.pc_lhs.ppat_desc, c.pc_guard) with
                  | (Ppat_any | Ppat_alias ({ ppat_desc = Ppat_any; _ }, _)), None ->
                      add R4 (line_of_loc c.pc_lhs.ppat_loc) "catch_all"
                        "catch-all `try ... with _ ->` swallows every exception (including \
                         Out_of_memory and Stack_overflow) — match the specific exceptions"
                  | _ -> ())
                cases
          | _ -> ());
          Ast_iterator.default_iterator.expr self e);
    }
  in
  it.structure it str;
  List.rev !acc

(* --- R3: fence discipline ----------------------------------------------- *)

(* Syntactic, following calls: walk each toplevel function body
   tracking a persistence state —

     Clean    no unpersisted pmem mutation on this path
     Dirty    a mutation with no subsequent flush
     Flushed  flushed but not yet fenced

   joined across branches worst-first (Dirty > Flushed > Clean).
   [Pmem.persist] returns to Clean (its sfence also orders any earlier
   flushes); a lone [sfence] only clears Flushed (it does not write back
   unflushed lines).  A call counts by its callee's summary (see
   [summarize] and [level1]): calling a function that carries
   [@@pmem.defer] is a mutation, calling one that persists on every path
   is a persist.
   Approximations: a lambda's body is accounted where the lambda appears
   (right for the [List.iter (fun ...) ...; fence] idiom); loops join
   {0, 1} executions; a path ending in raise/failwith/invalid_arg is
   exempt.  A function that exits non-Clean needs [@@pmem.defer "why"],
   and every such deferral is reported.

   Two more states serve the summaries only: [Entered] is "dirty on
   entry, not yet touched by this body" (a path that leaves it so does
   nothing to the caller's writes), [Never] a path that does not return
   (raise), so it constrains nothing. *)

type pstate = Never | Entered | Clean | Flushed | Dirty

let pstate_name = function
  | Never | Entered | Clean -> "clean"
  | Flushed -> "flushed-unfenced"
  | Dirty -> "unflushed"

let rank = function Never -> 0 | Entered -> 1 | Clean -> 2 | Flushed -> 3 | Dirty -> 4
let join a b = if rank a >= rank b then a else b

(* What a call does to the caller's state. *)
type summary = Defers | Persists

let is_raise_path = function
  | [ "raise" ] | [ "raise_notrace" ] | [ "failwith" ] | [ "invalid_arg" ]
  | [ "Stdlib"; ("raise" | "raise_notrace" | "failwith" | "invalid_arg") ] ->
      true
  | _ -> false

let eval ~calls st e =
  let rec eval st e =
    match e.pexp_desc with
    | Pexp_ident _ | Pexp_constant _ | Pexp_extension _ | Pexp_pack _ | Pexp_object _ | Pexp_new _
    | Pexp_unreachable ->
        st
    | Pexp_let (_, vbs, body) ->
        let st = List.fold_left (fun st vb -> eval st vb.pvb_expr) st vbs in
        eval st body
    | Pexp_fun (_, default, _, body) ->
        let st = match default with Some d -> eval st d | None -> st in
        eval st body
    | Pexp_function cases -> eval_cases st cases
    | Pexp_apply (f, args) ->
        if (match ident_path f with Some p -> is_raise_path p | None -> false) then Never
        else
          let st = eval st f in
          let st = List.fold_left (fun st (_, a) -> eval st a) st args in (
          match ident_path f with
          | Some p -> (
              match pmem_op_of_path p with
              | Some (_, Mutate) -> Dirty
              | Some (_, Flush) -> ( match st with Dirty | Entered -> Flushed | s -> s)
              | Some (_, Fence) -> ( match st with Flushed -> Clean | s -> s)
              | Some (_, Persist_op) -> Clean
              | None -> (
                  match calls p with Some Defers -> Dirty | Some Persists -> Clean | None -> st))
          | None -> st)
    | Pexp_match (scrut, cases) -> eval_cases (eval st scrut) cases
    | Pexp_try (body, cases) ->
        (* The body's normal exit, or a handler entered at its end. *)
        let st = eval st body in
        join st (eval_cases st cases)
    | Pexp_tuple es | Pexp_array es -> List.fold_left eval st es
    | Pexp_construct (_, arg) | Pexp_variant (_, arg) -> (
        match arg with Some a -> eval st a | None -> st)
    | Pexp_record (fields, base) ->
        let st = match base with Some b -> eval st b | None -> st in
        List.fold_left (fun st (_, fe) -> eval st fe) st fields
    | Pexp_field (e, _) -> eval st e
    | Pexp_setfield (a, _, b) -> eval (eval st a) b
    | Pexp_ifthenelse (c, t, e) ->
        let st = eval st c in
        join (eval st t) (match e with Some e -> eval st e | None -> st)
    | Pexp_sequence (a, b) -> eval (eval st a) b
    | Pexp_while (c, body) ->
        let st = eval st c in
        join st (eval st body)
    | Pexp_for (_, lo, hi, _, body) ->
        let st = eval (eval st lo) hi in
        join st (eval st body)
    | Pexp_constraint (e, _)
    | Pexp_coerce (e, _, _)
    | Pexp_poly (e, _)
    | Pexp_newtype (_, e)
    | Pexp_open (_, e)
    | Pexp_letmodule (_, _, e)
    | Pexp_letexception (_, e)
    | Pexp_lazy e
    | Pexp_send (e, _)
    | Pexp_setinstvar (_, e) ->
        eval st e
    | Pexp_assert e -> (
        match e.pexp_desc with
        | Pexp_construct ({ Location.txt = Lident "false"; _ }, None) -> Never
        | _ -> eval st e)
    | Pexp_override fields -> List.fold_left (fun st (_, fe) -> eval st fe) st fields
    | Pexp_letop { let_; ands; body } ->
        let st = eval st let_.pbop_exp in
        let st = List.fold_left (fun st a -> eval st a.pbop_exp) st ands in
        eval st body

  and eval_cases st cases =
    List.fold_left
      (fun acc c ->
        let st = match c.pc_guard with Some g -> eval st g | None -> st in
        join acc (eval st c.pc_rhs))
      (if cases = [] then st else Never)
      cases
  in
  eval st e

let defer_attr attrs =
  List.find_map
    (fun a ->
      if a.attr_name.Location.txt = "pmem.defer" then
        Some
          (match a.attr_payload with
          | PStr
              [ { pstr_desc = Pstr_eval ({ pexp_desc = Pexp_constant (Pconst_string (s, _, _)); _ }, _); _ } ]
            ->
              s
          | _ -> "")
      else None)
    attrs

(* --- R3's call summaries ------------------------------------------------- *)

(* A binding's summary: [Defers] when it carries [@@pmem.defer];
   [Persists] when every path that touches pmem, entered with unflushed
   writes, ends clean — a fence helper's shape. *)
let summarize ~calls vb =
  if defer_attr vb.pvb_attributes <> None then Some Defers
  else if eval ~calls Entered vb.pvb_expr = Clean then Some Persists
  else None

(* Every toplevel binding with the module path it sits under. *)
let rec bindings path str =
  List.concat_map
    (fun item ->
      match item.pstr_desc with
      | Pstr_value (_, vbs) -> List.map (fun vb -> (path, vb)) vbs
      | Pstr_module { pmb_name = { Location.txt = Some m; _ }; pmb_expr; _ } ->
          mod_bindings (path @ [ m ]) pmb_expr
      | Pstr_include { pincl_mod; _ } -> mod_bindings path pincl_mod
      | _ -> [])
    str

and mod_bindings path me =
  match me.pmod_desc with
  | Pmod_structure s -> bindings path s
  | Pmod_constraint (me, _) | Pmod_functor (_, me) -> mod_bindings path me
  | _ -> []

type table = (string list, summary) Hashtbl.t
type summaries = { core0 : table; core1 : table }

let rec suffixes = function [] -> [] | _ :: tl as l -> l :: suffixes tl
let lookup tables p = List.find_map (fun t -> Hashtbl.find_opt t p) tables

(* [file]'s summaries, keyed as calls inside the file name a binding (any
   suffix of its module path) or, [qualified], as other files name a
   lib/core binding (its module, with or without the library). *)
let summaries_of ~calls ~qualified ~file str : table =
  let m = String.capitalize_ascii (Filename.remove_extension (Filename.basename file)) in
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun (path, vb) ->
      match summarize ~calls vb with
      | None -> ()
      | Some sm ->
          let key = path @ [ binding_name vb ] in
          List.iter
            (fun k -> Hashtbl.replace tbl k sm)
            (if qualified then [ m :: key; "Tinca_core" :: m :: key ] else suffixes key))
    (bindings [] str);
  tbl

(* Summaries one call level deep: a body's own pmem operations, and its
   calls by their callees' own operations. *)
let level1 ~core0 ~qualified ~file str =
  let own0 = summaries_of ~calls:(fun _ -> None) ~qualified:false ~file str in
  summaries_of ~calls:(lookup [ own0; core0 ]) ~qualified ~file str

let core_summaries files =
  let core = List.filter (fun (file, _) -> under "lib/core/" file) files in
  let merge f =
    let tbl = Hashtbl.create 256 in
    List.iter (fun (file, str) -> Hashtbl.replace_seq tbl (Hashtbl.to_seq (f ~file str))) core;
    tbl
  in
  let core0 = merge (summaries_of ~calls:(fun _ -> None) ~qualified:true) in
  { core0; core1 = merge (level1 ~core0 ~qualified:true) }

let r3 ~core ~file str =
  if not (r3_applies file) then ([], [])
  else begin
    let own = level1 ~core0:core.core0 ~qualified:false ~file str in
    let calls = lookup [ own; core.core1 ] in
    let findings = ref [] and deferred = ref [] in
    walk_bindings str ~on_vb:(fun vb ->
        let fn = binding_name vb in
        let line = line_of_loc vb.pvb_loc in
        let st = match eval ~calls Clean vb.pvb_expr with Never | Entered -> Clean | s -> s in
        match (st, defer_attr vb.pvb_attributes) with
        | (Never | Entered | Clean), None -> ()
        | (Never | Entered | Clean), Some _ ->
            findings :=
              {
                rule = R3;
                file;
                line;
                token = fn;
                message =
                  Printf.sprintf
                    "`%s` carries [@@pmem.defer] but every path already persists — drop the \
                     stale attribute"
                    fn;
              }
              :: !findings
        | (Dirty | Flushed), Some reason when String.trim reason <> "" ->
            deferred := { d_file = file; d_line = line; d_fn = fn; d_reason = reason } :: !deferred
        | (Dirty | Flushed), Some _ ->
            findings :=
              {
                rule = R3;
                file;
                line;
                token = fn;
                message =
                  Printf.sprintf
                    "`%s` defers its fence obligation but [@@pmem.defer] carries no \
                     justification string"
                    fn;
              }
              :: !findings
        | (Dirty | Flushed), None ->
            findings :=
              {
                rule = R3;
                file;
                line;
                token = fn;
                message =
                  Printf.sprintf
                    "`%s` can exit with %s pmem writes — flush_ranges/clflush + sfence (or \
                     persist) before returning, or annotate [@@pmem.defer \"why\"]"
                    fn (pstate_name st);
              }
              :: !findings);
    (List.rev !findings, List.rev !deferred)
  end

(* --- R5: interface coverage --------------------------------------------- *)

let r5 ~ml_files ~mli_files =
  let has_mli f = List.mem (f ^ "i") mli_files in
  List.filter_map
    (fun f ->
      if Filename.check_suffix f ".ml" && not (has_mli f) then
        Some
          {
            rule = R5;
            file = f;
            line = 1;
            token = Filename.remove_extension (Filename.basename f);
            message =
              Printf.sprintf "module `%s` has no .mli — every lib/ module must declare its \
                              public surface"
                (String.capitalize_ascii (Filename.remove_extension (Filename.basename f)));
          }
      else None)
    ml_files

(* --- per-file entry point ----------------------------------------------- *)

let check_impl ?core ~file str =
  let core =
    match core with Some c -> c | None -> { core0 = Hashtbl.create 1; core1 = Hashtbl.create 1 }
  in
  let f1 = r1 ~file str in
  let f24 = expr_findings ~file str in
  let f3, deferred = r3 ~core ~file str in
  (f1 @ f24 @ f3, deferred)
