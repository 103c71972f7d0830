module Clock = Tinca_sim.Clock
module Metrics = Tinca_sim.Metrics

type done_span = {
  name : string;
  track : string;
  start_ns : float;
  dur_ns : float;
  self_ns : float;
  depth : int;
  attrs : (string * string) list;
  counters : (string * int) list;
}

(* Sorted by name, so a span's nonzero deltas come out sorted. *)
let watched =
  [ "pmem.atomic_writes"; "pmem.clflush"; "pmem.clflush_writebacks"; "pmem.lines_dirtied";
    "pmem.read_lines"; "pmem.sfence"; "pmem.store_lines" ]

(* One clock's registration: its display name and the watched counter
   handles of the registry paired with it ([||] when unpaired).  These
   survive enable/disable: components register their clocks at
   construction time, which may precede [enable]. *)
type track = {
  clock : Clock.t;
  mutable label : string option;
  mutable watch : Metrics.counter array;
}

type open_span = {
  sp_name : string;
  sp_tid : int;
  sp_clock : Clock.t;
  sp_start : float;
  sp_depth : int;
  mutable sp_attrs : (string * string) list; (* reversed *)
  sp_watch : Metrics.counter array;
  sp_base : int array; (* [sp_watch]'s values at open *)
  mutable sp_child_ns : float;
}

type ev = {
  ev_ph : char; (* 'B' | 'E' | 'i' *)
  ev_name : string;
  ev_tid : int;
  ev_ts : float; (* simulated ns *)
  ev_args : (string * string) list;
}

type state = {
  mutable events : ev list; (* newest first *)
  mutable stack : open_span list; (* innermost first *)
  mutable dones : done_span list; (* newest first *)
  mutable unbalanced : int;
  mutable clocks : (track * int) list; (* clock's track -> tid *)
  mutable tid_names : (int * string) list;
  mutable next_tid : int;
}

let registry : track list ref = ref []

let st : state option ref = ref None

let enabled () = match !st with None -> false | Some _ -> true

let fresh () =
  { events = []; stack = []; dones = []; unbalanced = 0; clocks = []; tid_names = [];
    next_tid = 1 }

let enable () = st := Some (fresh ())
let disable () = st := None
let reset () = if enabled () then st := Some (fresh ())

let track_of clock =
  match List.find_opt (fun tr -> tr.clock == clock) !registry with
  | Some tr -> tr
  | None ->
      let tr = { clock; label = None; watch = [||] } in
      registry := tr :: !registry;
      tr

let name_track clock name = (track_of clock).label <- Some name

let attach ~clock metrics =
  (track_of clock).watch <- Array.of_list (List.map (Metrics.counter metrics) watched)

let tid_of s clock =
  let rec find = function
    | [] ->
        let tr = track_of clock and tid = s.next_tid in
        s.next_tid <- tid + 1;
        s.clocks <- (tr, tid) :: s.clocks;
        let name = match tr.label with Some n -> n | None -> "track-" ^ string_of_int tid in
        s.tid_names <- (tid, name) :: s.tid_names;
        (tr, tid)
    | ((tr, _) as hit) :: _ when tr.clock == clock -> hit
    | _ :: rest -> find rest
  in
  find s.clocks

let track_name s tid =
  match List.assoc_opt tid s.tid_names with Some n -> n | None -> "track-" ^ string_of_int tid

let begin_span ~clock name =
  match !st with
  | None -> ()
  | Some s ->
      let tr, tid = tid_of s clock in
      let ts = Clock.now_ns clock in
      s.events <- { ev_ph = 'B'; ev_name = name; ev_tid = tid; ev_ts = ts; ev_args = [] } :: s.events;
      s.stack <-
        { sp_name = name; sp_tid = tid; sp_clock = clock; sp_start = ts;
          sp_depth = List.length s.stack; sp_attrs = []; sp_watch = tr.watch;
          sp_base = Array.map Metrics.value tr.watch; sp_child_ns = 0.0 }
        :: s.stack

let attr k v =
  match !st with
  | None -> ()
  | Some s -> (
      match s.stack with [] -> () | sp :: _ -> sp.sp_attrs <- (k, v) :: sp.sp_attrs)

let attr_int k v = if enabled () then attr k (string_of_int v)

(* The watched counters' nonzero deltas since [sp] opened, by name. *)
let deltas sp =
  let rec go i = function
    | [] -> []
    | name :: rest ->
        let d = Metrics.value sp.sp_watch.(i) - sp.sp_base.(i) in
        if d <> 0 then (name, d) :: go (i + 1) rest else go (i + 1) rest
  in
  if Array.length sp.sp_watch = 0 then [] else go 0 watched

(* Close [sp]; the stack must already be popped past it so the parent
   (if any) is at the head for self-time folding. *)
let close s sp =
  let ts = Clock.now_ns sp.sp_clock in
  let dur = ts -. sp.sp_start in
  (match s.stack with parent :: _ -> parent.sp_child_ns <- parent.sp_child_ns +. dur | [] -> ());
  let counters = deltas sp in
  let args =
    List.rev sp.sp_attrs @ List.map (fun (k, v) -> (k, string_of_int v)) counters
  in
  s.events <-
    { ev_ph = 'E'; ev_name = sp.sp_name; ev_tid = sp.sp_tid; ev_ts = ts; ev_args = args }
    :: s.events;
  s.dones <-
    { name = sp.sp_name; track = track_name s sp.sp_tid; start_ns = sp.sp_start; dur_ns = dur;
      self_ns = dur -. sp.sp_child_ns; depth = sp.sp_depth; attrs = List.rev sp.sp_attrs;
      counters }
    :: s.dones

let end_span name =
  match !st with
  | None -> ()
  | Some s -> (
      match s.stack with
      | [] -> s.unbalanced <- s.unbalanced + 1
      | top :: rest when String.equal top.sp_name name ->
          s.stack <- rest;
          close s top
      | stack ->
          if List.exists (fun sp -> String.equal sp.sp_name name) stack then begin
            (* Force-close the misnested inner spans, then the named one. *)
            let rec pop () =
              match s.stack with
              | [] -> ()
              | sp :: rest ->
                  s.stack <- rest;
                  if String.equal sp.sp_name name then close s sp
                  else begin
                    s.unbalanced <- s.unbalanced + 1;
                    close s sp;
                    pop ()
                  end
            in
            pop ()
          end
          else s.unbalanced <- s.unbalanced + 1)

let instant ~clock name =
  match !st with
  | None -> ()
  | Some s ->
      let _, tid = tid_of s clock in
      s.events <-
        { ev_ph = 'i'; ev_name = name; ev_tid = tid; ev_ts = Clock.now_ns clock; ev_args = [] }
        :: s.events

let open_spans () = match !st with None -> 0 | Some s -> List.length s.stack
let unbalanced () = match !st with None -> 0 | Some s -> s.unbalanced
let completed () = match !st with None -> [] | Some s -> List.rev s.dones

let find_spans name =
  List.filter (fun d -> String.equal d.name name) (completed ())

let counter d name = match List.assoc_opt name d.counters with Some v -> v | None -> 0

(* --- Chrome trace_event export ------------------------------------------ *)

let json_escape s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let add_args buf args =
  Buffer.add_string buf "{";
  List.iteri
    (fun i (k, v) ->
      if i > 0 then Buffer.add_string buf ", ";
      Buffer.add_string buf (Printf.sprintf "\"%s\": \"%s\"" (json_escape k) (json_escape v)))
    args;
  Buffer.add_string buf "}"

let export_json () =
  match !st with
  | None -> "{\"traceEvents\": []}\n"
  | Some s ->
      let buf = Buffer.create 4096 in
      Buffer.add_string buf "{\"traceEvents\": [\n";
      let first = ref true in
      let emit line =
        if not !first then Buffer.add_string buf ",\n";
        first := false;
        Buffer.add_string buf line
      in
      List.iter
        (fun (tid, name) ->
          emit
            (Printf.sprintf
               "  {\"ph\": \"M\", \"name\": \"thread_name\", \"pid\": 1, \"tid\": %d, \
                \"args\": {\"name\": \"%s\"}}"
               tid (json_escape name)))
        (List.sort compare s.tid_names);
      List.iter
        (fun e ->
          let b = Buffer.create 128 in
          Buffer.add_string b
            (Printf.sprintf
               "  {\"ph\": \"%c\", \"name\": \"%s\", \"pid\": 1, \"tid\": %d, \"ts\": %.3f"
               e.ev_ph (json_escape e.ev_name) e.ev_tid (e.ev_ts /. 1000.0));
          if e.ev_ph = 'i' then Buffer.add_string b ", \"s\": \"t\"";
          if e.ev_args <> [] then begin
            Buffer.add_string b ", \"args\": ";
            add_args b e.ev_args
          end;
          Buffer.add_string b "}";
          emit (Buffer.contents b))
        (List.rev s.events);
      Buffer.add_string buf "\n], \"displayTimeUnit\": \"ns\"}\n";
      Buffer.contents buf

let export_to_file path =
  let oc = open_out path in
  output_string oc (export_json ());
  close_out oc

(* --- flame summary ------------------------------------------------------ *)

let flame_rows () =
  let agg = Hashtbl.create 32 in
  List.iter
    (fun d ->
      let n, total, self, sf, wb =
        match Hashtbl.find_opt agg d.name with Some x -> x | None -> (0, 0.0, 0.0, 0, 0)
      in
      Hashtbl.replace agg d.name
        ( n + 1,
          total +. d.dur_ns,
          self +. d.self_ns,
          sf + counter d "pmem.sfence",
          wb + counter d "pmem.clflush_writebacks" ))
    (completed ());
  Hashtbl.fold (fun name (n, total, self, sf, wb) acc -> (name, n, total, self, sf, wb) :: acc)
    agg []
  |> List.sort (fun (_, _, a, _, _, _) (_, _, b, _, _, _) -> compare b a)

let flame () =
  let rows = flame_rows () in
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    (Printf.sprintf "%-28s %8s %12s %12s %8s %8s\n" "span" "count" "total_us" "self_us"
       "sfence" "flushwb");
  List.iter
    (fun (name, n, total, self, sf, wb) ->
      Buffer.add_string buf
        (Printf.sprintf "%-28s %8d %12.2f %12.2f %8d %8d\n" name n (total /. 1000.0)
           (self /. 1000.0) sf wb))
    rows;
  Buffer.contents buf
