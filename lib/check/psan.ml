(* Always-on persistence sanitizer (psan).

   The crash-space model checker (crash_check.ml) proves the commit
   protocol correct by brute force, but it is exponential in torn lines
   and runs one small deterministic workload.  This module is the
   complementary linear-time tool in the pmemcheck/PMTest tradition: it
   attaches to a live {!Tinca_pmem.Pmem.t} through the event-observer
   hook and shadows every store/flush/fence with a per-cache-line state
   machine

     Clean -> Dirty -> Flush_pending -> Persisted

   (implemented sparsely: a hash table holds only the not-yet-durable
   lines), with one more not-durable state, Fill, for a line whose
   latest store came from a clean read-fill site: a volatile fill's
   durable home is the disk, so it is the one unflushed line a commit
   point or an acknowledgement may leave behind.  Plus a
   {!Tinca_core.Layout}-driven region classifier, and it flags protocol
   violations as they happen — on any workload, at a cost
   linear in the number of pmem events.

   Rules (see DESIGN.md §6.2):
   1. missing-flush   — the commit-point write (ring Tail advance) is
                        fenced while dependent data/entry/ring/head
                        lines are still volatile; a crash just before
                        that fence could persist Tail without them.
   2. unfenced-ack    — a transaction is acknowledged (txn_end) while
                        lines written inside it are not yet durable.
   3. torn-metadata   — a non-atomic store (write/write_sub/fill)
                        overlaps a metadata region the protocol updates
                        only with atomic_write8/16.
   4. persist-race    — a store lands in a flush-pending metadata line,
                        making the in-flight write-back's outcome
                        adversarial (see Pmem.dirty_line).
   5. redundant-flush — clflush of a line that is clean or already
                        flush-pending; not a correctness violation but a
                        wasted medium round-trip, counted per call-site
                        label as a performance diagnostic. *)

module Pmem = Tinca_pmem.Pmem
module Layout = Tinca_core.Layout
module Entry = Tinca_core.Entry
module Paging = Tinca_core.Paging

let log_src = Logs.Src.create "tinca.psan" ~doc:"Tinca persistence sanitizer"

module Log = (val Logs.src_log log_src : Logs.LOG)

(* [Epoch]/[Table]/[Pool] are the paging scheme's region classes
   (ISSUE 10): the per-shard epoch word (the commit point), the
   indirection table (16 B atomic swings only) and the COW page pool. *)
type region =
  | Superblock
  | Head
  | Tail
  | Ring
  | Flight
  | Entries
  | Data
  | Epoch
  | Table
  | Pool
  | Other

let region_name = function
  | Superblock -> "superblock"
  | Head -> "head"
  | Tail -> "tail"
  | Ring -> "ring"
  | Flight -> "flight"
  | Entries -> "entries"
  | Data -> "data"
  | Epoch -> "epoch"
  | Table -> "table"
  | Pool -> "pool"
  | Other -> "other"

type rule = Missing_flush | Unfenced_ack | Torn_metadata | Persist_race

let rule_name = function
  | Missing_flush -> "missing-flush"
  | Unfenced_ack -> "unfenced-ack"
  | Torn_metadata -> "torn-metadata"
  | Persist_race -> "persist-race"

type violation = {
  rule : rule;
  line : int;  (** offending cache line *)
  region : region;
  site : string;  (** call-site label current when detected *)
  event : int;  (** ordinal of the triggering pmem event *)
  message : string;
}

exception Violation of violation

type report = {
  events : int;
  stores : int;
  atomic_writes : int;
  flush_calls : int;
  line_flushes : int;
  redundant_flushes : int;
  redundant_by_site : (string * int) list;  (* descending by count *)
  fences : int;
  crashes : int;
  violations : violation list;  (* oldest first *)
  violations_dropped : int;
}

(* [Fill]: stored but never flushed, by a clean read fill (see
   [is_fill_site]); any other store makes the line [Dirty] again. *)
type state = Dirty | Flush_pending | Fill

type t = {
  pmem : Pmem.t;
  layouts : Layout.t list;
      (* one per shard on a partitioned device; [] = layoutless *)
  page_layouts : Paging.region_layout list;
      (* one per shard of a paging device (ISSUE 10); [] = not paging *)
  strict : bool;
  max_violations : int;
  (* Lines that are not durable; absent = Clean/Persisted. *)
  volatile : (int, state) Hashtbl.t;
  (* Lines stored while inside txn_begin..txn_end. *)
  txn_lines : (int, unit) Hashtbl.t;
  mutable in_txn : bool;
  redundant_by_site : (string, int ref) Hashtbl.t;
  mutable events : int;
  mutable stores : int;
  mutable atomic_writes : int;
  mutable flush_calls : int;
  mutable line_flushes : int;
  mutable redundant_flushes : int;
  mutable fences : int;
  mutable crashes : int;
  mutable violations : violation list;  (* newest first *)
  mutable dropped : int;  (* violations past max_violations *)
}

(* --- region classification --------------------------------------------- *)

(* [off] must lie inside [l]'s span. *)
let region_in (l : Layout.t) off =
  if off < l.Layout.head_off then Superblock
  else if off < l.Layout.tail_off then Head
  else if off < l.Layout.ring_off then Tail
  else if off < l.Layout.flight_off then Ring
  else if off < l.Layout.entries_off then Flight
  else if off < l.Layout.entries_off + (l.Layout.nblocks * Entry.size) then Entries
  else if off < l.Layout.data_off then Other (* alignment padding *)
  else Data

let layout_of_line t idx =
  let off = idx * Pmem.line_size in
  List.find_opt (fun l -> off >= l.Layout.super_off && off < l.Layout.total_bytes) t.layouts

(* [off] must lie inside [r]'s span. *)
let page_region_in (r : Paging.region_layout) off =
  if off < r.Paging.r_base + 64 then Superblock
  else if off >= r.Paging.r_epoch_off && off < r.Paging.r_epoch_off + 64 then Epoch
  else if off >= r.Paging.r_flight_off && off < r.Paging.r_flight_off + r.Paging.r_flight_bytes
  then Flight
  else if off >= r.Paging.r_table_off && off < r.Paging.r_table_off + r.Paging.r_table_bytes then
    Table
  else if off >= r.Paging.r_pool_off && off < r.Paging.r_pool_off + r.Paging.r_pool_bytes then
    Pool
  else Other (* alignment padding *)

let page_layout_of_line t idx =
  let off = idx * Pmem.line_size in
  List.find_opt
    (fun (r : Paging.region_layout) -> off >= r.Paging.r_base && off < r.Paging.r_base + r.Paging.r_total)
    t.page_layouts

let region_of_line t idx =
  match (t.layouts, t.page_layouts) with
  | [], [] -> Data (* no layout: every line is payload; only rules 2+5 apply *)
  | _ -> (
      match layout_of_line t idx with
      | Some l -> region_in l (idx * Pmem.line_size)
      | None -> (
          match page_layout_of_line t idx with
          | Some r -> page_region_in r (idx * Pmem.line_size)
          | None ->
              (* Between/outside the shard layouts: the shard directory,
                 the cross-shard seal (updated only with fenced atomic
                 writes) and inter-shard padding. *)
              Other))

(* Regions whose torn or racing update breaks recovery.  Data blocks and
   page-pool frames are exempt: they are protected by COW, not by
   atomicity.  Flight records are exempt too: each is self-delimited by
   a sequence/CRC word, so a torn record is detected at scan time rather
   than trusted. *)
let is_metadata = function
  | Superblock | Head | Tail | Ring | Entries | Epoch | Table -> true
  | Flight | Data | Pool | Other -> false

let lines_of_range off len =
  let first = off / Pmem.line_size in
  let last = (off + len - 1) / Pmem.line_size in
  (first, last)

(* --- violation plumbing ------------------------------------------------- *)

let violate t rule line fmt =
  Printf.ksprintf
    (fun message ->
      let v =
        { rule; line; region = region_of_line t line; site = Pmem.site t.pmem;
          event = t.events; message }
      in
      if List.length t.violations >= t.max_violations then t.dropped <- t.dropped + 1
      else begin
        t.violations <- v :: t.violations;
        Log.warn (fun m ->
            m "%s: line %d (%s)%s: %s" (rule_name rule) v.line (region_name v.region)
              (if v.site = "" then "" else " at " ^ v.site)
              v.message)
      end;
      if t.strict then raise (Violation v))
    fmt

(* --- the shadow state machine ------------------------------------------- *)

(* The read-miss fill sites of the two engines.  Neither writes an entry
   or table slot naming the frame, so recovery never reads it. *)
let is_fill_site = function "cache.read_fill" | "paging.fill" -> true | _ -> false

let note_store t ~off ~len ~atomic =
  let first, last = lines_of_range off len in
  let stored = if is_fill_site (Pmem.site t.pmem) then Fill else Dirty in
  for idx = first to last do
    let region = region_of_line t idx in
    if (not atomic) && is_metadata region then
      violate t Torn_metadata idx
        "non-atomic %d-byte store into the %s region (protocol requires atomic_write8/16)" len
        (region_name region);
    (* Paging swing discipline: an indirection-table entry is 16 B and
       must change in ONE atomic swing — an 8 B atomic into the table is
       half an entry, exactly the durably-torn frankenstein the recovery
       validator must otherwise catch. *)
    if atomic && len < 16 && region = Table then
      violate t Torn_metadata idx
        "%d-byte atomic into the table region (an indirection entry swings as one 16 B atomic)"
        len;
    (match Hashtbl.find_opt t.volatile idx with
    | Some Flush_pending ->
        if is_metadata region then
          violate t Persist_race idx
            "store into a flush-pending %s line: the in-flight write-back's outcome becomes \
             adversarial"
            (region_name region);
        Hashtbl.replace t.volatile idx stored
    | Some _ | None -> Hashtbl.replace t.volatile idx stored);
    if t.in_txn then Hashtbl.replace t.txn_lines idx ()
  done

let note_clflush t ~off ~len =
  t.flush_calls <- t.flush_calls + 1;
  let first, last = lines_of_range off len in
  for idx = first to last do
    t.line_flushes <- t.line_flushes + 1;
    match Hashtbl.find_opt t.volatile idx with
    | Some (Dirty | Fill) -> Hashtbl.replace t.volatile idx Flush_pending
    | Some Flush_pending | None ->
        (* Clean, persisted or already pending: the flush is issued but
           starts no write-back — pure overhead on the hot path. *)
        t.redundant_flushes <- t.redundant_flushes + 1;
        let site = Pmem.site t.pmem in
        (match Hashtbl.find_opt t.redundant_by_site site with
        | Some r -> incr r
        | None -> Hashtbl.add t.redundant_by_site site (ref 1))
  done

let note_sfence t =
  t.fences <- t.fences + 1;
  (* Missing-flush: this fence makes the ring Tail advance durable (the
     commit point).  Every line the committed transaction depends on —
     data, entries, ring slots, Head — must already be durable; a line
     still Dirty here was never flushed, and a line still Flush_pending
     shares this fence's pre-fence crash window with Tail, so in either
     case a crash can surface the commit point without its dependencies. *)
  (* The check is per shard layout: a Tail fence commits only its own
     shard's sub-transaction, whose dependencies all live inside that
     shard's span (cross-shard ordering is the seal's job, checked by
     the sharded crash sweep).  A [Fill] line is no dependency: no entry
     names a clean fill's frame. *)
  List.iter
    (fun (l : Layout.t) ->
      let tail_line = l.Layout.tail_off / Pmem.line_size in
      if Hashtbl.find_opt t.volatile tail_line = Some Flush_pending then
        Hashtbl.iter
          (fun idx state ->
            let off = idx * Pmem.line_size in
            if
              idx <> tail_line && state <> Fill && off >= l.Layout.super_off
              && off < l.Layout.total_bytes
            then
              match region_in l off with
              | (Data | Entries | Ring | Head) as region ->
                  violate t Missing_flush idx
                    "commit-point (Tail) fence while %s line is still %s" (region_name region)
                    (if state = Dirty then "dirty (never flushed)"
                     else "flush-pending (same fence as Tail)")
              | Flight ->
                  (* Recorder discipline: every flight record written
                     during the commit must have been flushed by the
                     commit point.  Sharing the Tail fence is fine — a
                     record is not a recovery dependency (torn ones are
                     detected by CRC) — but a still-dirty record line
                     means the recorder skipped its fold-into-fence. *)
                  if state = Dirty then
                    violate t Missing_flush idx
                      "commit-point (Tail) fence while a flight-recorder line is still dirty \
                       (record was never folded into a protocol fence)"
              | Superblock | Tail | Other | Epoch | Table | Pool -> ())
          t.volatile)
    t.layouts;
  (* Paging analogue: an epoch-word fence is the commit point of a
     paging shard.  Every staged table swing and COW page the epoch bump
     publishes must have been made durable by the earlier stage fence —
     a table or pool line still volatile here means the commit point
     can surface without its mapping or its data.  A [Fill] line is
     exempt, as under logging: a clean fill maps nothing. *)
  List.iter
    (fun (r : Paging.region_layout) ->
      let epoch_line = r.Paging.r_epoch_off / Pmem.line_size in
      if Hashtbl.find_opt t.volatile epoch_line = Some Flush_pending then
        Hashtbl.iter
          (fun idx state ->
            let off = idx * Pmem.line_size in
            if
              idx <> epoch_line && state <> Fill && off >= r.Paging.r_base
              && off < r.Paging.r_base + r.Paging.r_total
            then
              match page_region_in r off with
              | (Table | Pool) as region ->
                  violate t Missing_flush idx
                    "commit-point (epoch) fence while a %s line is still %s" (region_name region)
                    (if state = Dirty then "dirty (never flushed)"
                     else "flush-pending (same fence as the epoch word)")
              | Flight ->
                  if state = Dirty then
                    violate t Missing_flush idx
                      "commit-point (epoch) fence while a flight-recorder line is still dirty \
                       (record was never folded into a protocol fence)"
              | Superblock | Head | Tail | Ring | Entries | Data | Epoch | Other -> ())
          t.volatile)
    t.page_layouts;
  (* All pending lines reach the medium: Flush_pending -> Persisted. *)
  let persisted =
    Hashtbl.fold (fun idx s acc -> if s = Flush_pending then idx :: acc else acc) t.volatile []
  in
  List.iter (Hashtbl.remove t.volatile) persisted

let note_crash t =
  t.crashes <- t.crashes + 1;
  (* Power loss: the volatile layer is resolved (one way or the other);
     whatever the medium now holds is the durable state. *)
  Hashtbl.reset t.volatile;
  Hashtbl.reset t.txn_lines;
  t.in_txn <- false

let on_event t ev =
  t.events <- t.events + 1;
  match (ev : Pmem.event) with
  | Pmem.Store { off; len } ->
      t.stores <- t.stores + 1;
      note_store t ~off ~len ~atomic:false
  | Pmem.Atomic_write { off; len } ->
      t.atomic_writes <- t.atomic_writes + 1;
      note_store t ~off ~len ~atomic:true
  | Pmem.Clflush { off; len } -> note_clflush t ~off ~len
  | Pmem.Sfence -> note_sfence t
  | Pmem.Crash -> note_crash t

(* --- public API ---------------------------------------------------------- *)

let attach ?(strict = false) ?(max_violations = 1000) ?layout ?(layouts = []) ?(page_layouts = [])
    pmem =
  let t =
    {
      pmem;
      layouts = (match layout with Some l -> l :: layouts | None -> layouts);
      page_layouts;
      strict;
      max_violations;
      volatile = Hashtbl.create 256;
      txn_lines = Hashtbl.create 64;
      in_txn = false;
      redundant_by_site = Hashtbl.create 16;
      events = 0;
      stores = 0;
      atomic_writes = 0;
      flush_calls = 0;
      line_flushes = 0;
      redundant_flushes = 0;
      fences = 0;
      crashes = 0;
      violations = [];
      dropped = 0;
    }
  in
  Pmem.set_observer pmem (Some (on_event t));
  t

let detach t = Pmem.set_observer t.pmem None

let txn_begin t =
  t.in_txn <- true;
  Hashtbl.reset t.txn_lines

let txn_abort t =
  t.in_txn <- false;
  Hashtbl.reset t.txn_lines

let txn_end t =
  Hashtbl.iter
    (fun idx () ->
      match Hashtbl.find_opt t.volatile idx with
      | None | Some Fill -> ()
      | Some state ->
          violate t Unfenced_ack idx
            "transaction acknowledged while %s line written inside it is still %s"
            (region_name (region_of_line t idx))
            (if state = Dirty then "dirty" else "flush-pending"))
    t.txn_lines;
  txn_abort t

let violations t = List.rev t.violations
let violation_count t = List.length t.violations + t.dropped

let report t : report =
  let by_site =
    Hashtbl.fold (fun site r acc -> (site, !r) :: acc) t.redundant_by_site []
    |> List.sort (fun (_, a) (_, b) -> compare b a)
  in
  {
    events = t.events;
    stores = t.stores;
    atomic_writes = t.atomic_writes;
    flush_calls = t.flush_calls;
    line_flushes = t.line_flushes;
    redundant_flushes = t.redundant_flushes;
    redundant_by_site = by_site;
    fences = t.fences;
    crashes = t.crashes;
    violations = List.rev t.violations;
    violations_dropped = t.dropped;
  }

let pp_violation ppf v =
  Format.fprintf ppf "[%s] event %d, line %d (%s)%s: %s" (rule_name v.rule) v.event v.line
    (region_name v.region)
    (if v.site = "" then "" else ", site " ^ v.site)
    v.message

let summary (r : report) =
  let sites =
    List.map
      (fun (site, n) -> Printf.sprintf ", %d @ %s" n (if site = "" then "<unlabelled>" else site))
      r.redundant_by_site
  in
  Printf.sprintf
    "%d events, %d stores / %d atomic, %d clflush (%d lines), %d sfences, %d redundant line \
     flushes%s, %d violations%s"
    r.events r.stores r.atomic_writes r.flush_calls r.line_flushes r.fences r.redundant_flushes
    (String.concat "" sites)
    (List.length r.violations + r.violations_dropped)
    (match r.violations with v :: _ -> Format.asprintf " (first: %a)" pp_violation v | [] -> "")
