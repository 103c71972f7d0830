open Tinca_sim

exception Crash_point

let line_size = 64

type line = { backup : Bytes.t; mutable pending : bool }

type event =
  | Store of { off : int; len : int }
  | Atomic_write of { off : int; len : int }
  | Clflush of { off : int; len : int }
  | Sfence
  | Crash

type t = {
  media : Bytes.t;
  lines : (int, line) Hashtbl.t;
  (* Lines made flush-pending since the last fence, newest first: the
     only lines the next [sfence] can retire.  May hold duplicates and
     lines a later store re-dirtied; [sfence] skips both. *)
  mutable flushed : int list;
  clock : Clock.t;
  metrics : Metrics.t;
  tech : Latency.nvm_tech;
  flush_instr : Latency.flush_instr;
  lat : Latency.nvm;
  rng : Tinca_util.Rng.t;
  wear : int array;
  mutable countdown : int option;
  mutable events : int;
  mutable observer : (event -> unit) option;
  mutable site : string;
}

let create ?(seed = 42) ?(flush_instr = Latency.Clflush) ~clock ~metrics ~tech ~size () =
  if size <= 0 || size mod line_size <> 0 then
    invalid_arg "Pmem.create: size must be a positive multiple of 64";
  {
    media = Bytes.make size '\000';
    lines = Hashtbl.create 4096;
    flushed = [];
    clock;
    metrics;
    tech;
    flush_instr;
    lat = Latency.nvm_of_tech ~flush_instr tech;
    rng = Tinca_util.Rng.create seed;
    wear = Array.make (size / line_size) 0;
    countdown = None;
    events = 0;
    observer = None;
    site = "";
  }

let size t = Bytes.length t.media
let tech t = t.tech
let flush_instr t = t.flush_instr

(* --- event observation (lib/check's persistence sanitizer) -------------- *)

let set_observer t obs = t.observer <- obs
let set_site t s = t.site <- s
let site t = t.site

let event t =
  t.events <- t.events + 1;
  match t.countdown with
  | None -> ()
  | Some k -> if k <= 1 then raise Crash_point else t.countdown <- Some (k - 1)

let check_range t off len =
  if off < 0 || len < 0 || off + len > Bytes.length t.media then
    invalid_arg
      (Printf.sprintf "Pmem: range [%d, %d) out of bounds (size %d)" off (off + len)
         (Bytes.length t.media))

(* Make sure the line exists in the volatile layer before mutating it,
   snapshotting the currently-durable content as rollback state.  A store
   into a flush-pending line resolves the in-flight write-back
   adversarially: it may or may not have reached the medium. *)
let dirty_line t idx =
  match Hashtbl.find_opt t.lines idx with
  | Some line ->
      if line.pending then begin
        if Tinca_util.Rng.bool t.rng then
          Bytes.blit t.media (idx * line_size) line.backup 0 line_size;
        line.pending <- false
      end
  | None ->
      let backup = Bytes.create line_size in
      Bytes.blit t.media (idx * line_size) backup 0 line_size;
      Hashtbl.add t.lines idx { backup; pending = false }

let lines_of_range off len =
  let first = off / line_size in
  let last = (off + len - 1) / line_size in
  (first, last)

(* Whether anyone consumes the event stream.  When nobody does, the hot
   paths do not even build the event records. *)
let observed t = Option.is_some t.observer || Tinca_obs.Trace.enabled ()

(* Every hardware event fans out to the attached observer (the
   persistence sanitizer keeps sole ownership of [set_observer]) and,
   when span tracing is on, to the tracer as per-span counters.
   Write-back attribution is noted separately at the flush sites, where
   the dirty-line count is known. *)
let emit t ev =
  (match t.observer with Some f -> f ev | None -> ());
  if Tinca_obs.Trace.enabled () then
    match ev with
    | Store { off; len } ->
        let first, last = lines_of_range off len in
        Tinca_obs.Trace.note "pmem.store_lines" ~by:(last - first + 1)
    | Atomic_write _ -> Tinca_obs.Trace.note "pmem.atomic_writes" ~by:1
    | Clflush { off; len } ->
        let first, last = lines_of_range off len in
        Tinca_obs.Trace.note "pmem.clflush" ~by:(last - first + 1)
    | Sfence -> Tinca_obs.Trace.note "pmem.sfence" ~by:1
    | Crash -> ()

let store_range t off len =
  event t;
  if len > 0 then begin
    let first, last = lines_of_range off len in
    for idx = first to last do
      dirty_line t idx
    done;
    let nlines = last - first + 1 in
    Clock.advance t.clock (t.lat.store_ns *. float_of_int nlines);
    Metrics.incr t.metrics "pmem.stores" ~by:1;
    Metrics.incr t.metrics "pmem.store_lines" ~by:nlines
  end

let write_sub t ~off src ~pos ~len =
  check_range t off len;
  if pos < 0 || len < 0 || pos + len > Bytes.length src then
    invalid_arg "Pmem.write_sub: bad source range";
  store_range t off len;
  Bytes.blit src pos t.media off len;
  if len > 0 && observed t then emit t (Store { off; len })

let write t ~off src = write_sub t ~off src ~pos:0 ~len:(Bytes.length src)

(* Vectored write: all ranges are validated before any byte is stored, so
   a bad chunk cannot leave a partial scatter behind. *)
let writev t chunks =
  List.iter (fun (off, src) -> check_range t off (Bytes.length src)) chunks;
  List.iter (fun (off, src) -> write t ~off src) chunks

let fill t ~off ~len c =
  check_range t off len;
  store_range t off len;
  Bytes.fill t.media off len c;
  if len > 0 && observed t then emit t (Store { off; len })

let atomic_write8 t ~off v =
  check_range t off 8;
  if off mod 8 <> 0 then invalid_arg "Pmem.atomic_write8: misaligned";
  store_range t off 8;
  Metrics.incr t.metrics "pmem.atomic_writes" ~by:1;
  Bytes.set_int64_le t.media off v;
  if observed t then emit t (Atomic_write { off; len = 8 })

let atomic_write8_int t ~off v =
  if v < 0 then invalid_arg "Pmem.atomic_write8_int: negative value";
  atomic_write8 t ~off (Int64.of_int v)

let atomic_write16 t ~off v =
  check_range t off 16;
  if off mod 16 <> 0 then invalid_arg "Pmem.atomic_write16: misaligned";
  if Bytes.length v <> 16 then invalid_arg "Pmem.atomic_write16: value must be 16 bytes";
  store_range t off 16;
  Metrics.incr t.metrics "pmem.atomic_writes" ~by:1;
  Bytes.blit v 0 t.media off 16;
  if observed t then emit t (Atomic_write { off; len = 16 })

let charge_read t off len =
  if len > 0 then begin
    let first, last = lines_of_range off len in
    let nlines = last - first + 1 in
    Clock.advance t.clock (t.lat.read_ns *. float_of_int nlines);
    Metrics.incr t.metrics "pmem.read_lines" ~by:nlines
  end

let read t ~off ~len =
  check_range t off len;
  charge_read t off len;
  Bytes.sub t.media off len

let read_into t ~off ~buf ~pos ~len =
  check_range t off len;
  if pos < 0 || len < 0 || pos + len > Bytes.length buf then
    invalid_arg "Pmem.read_into: bad destination range";
  charge_read t off len;
  Bytes.blit t.media off buf pos len

let read_u8 t ~off =
  check_range t off 1;
  charge_read t off 1;
  Char.code (Bytes.get t.media off)

let read_u64 t ~off =
  check_range t off 8;
  charge_read t off 8;
  Bytes.get_int64_le t.media off

let read_u64_int t ~off =
  let v = read_u64 t ~off in
  if Int64.compare v 0L < 0 || Int64.compare v (Int64.of_int max_int) > 0 then
    invalid_arg "Pmem.read_u64_int: out of int range";
  Int64.to_int v

(* One line's flush: start the write-back of a dirty line that is not
   already in flight and queue it for the next fence.  Returns whether a
   write-back started; flushing a clean or already flush-pending line is
   issued but is a no-op. *)
let flush_line t idx =
  match Hashtbl.find_opt t.lines idx with
  | Some line when not line.pending ->
      line.pending <- true;
      t.flushed <- idx :: t.flushed;
      true
  | Some _ | None -> false

let clflush t ~off ~len =
  check_range t off len;
  event t;
  if len > 0 then begin
    let first, last = lines_of_range off len in
    (* A flush of a clean (or already flush-pending) line is issued but
       initiates no medium write-back, so it must not be charged the
       medium's write latency — only the dirty lines whose write-back
       this flush actually starts pay [write_ns]. *)
    let dirtied = ref 0 in
    for idx = first to last do
      if flush_line t idx then incr dirtied
    done;
    let nlines = last - first + 1 in
    Metrics.incr t.metrics "pmem.clflush" ~by:nlines;
    Metrics.incr t.metrics "pmem.clflush_writebacks" ~by:!dirtied;
    (* One call = one back-to-back flush burst over the range: clflush
       serializes (full latency per line), clflushopt/clwb pipeline. *)
    Clock.advance t.clock
      (Latency.flush_batch_ns t.flush_instr nlines
      +. (t.lat.write_ns *. float_of_int !dirtied));
    if !dirtied > 0 then Tinca_obs.Trace.note "pmem.clflush_writebacks" ~by:!dirtied;
    if observed t then emit t (Clflush { off; len })
  end

(* Scatter-gather flush: one back-to-back burst of per-line flushes over
   an arbitrary (deduplicated) line set, so batched callers stop paying
   a separate serialized [clflush] call per line.  Each line is its own
   instruction — its own crash-countdown event and observer event — but
   the burst is charged with the pipelined batch cost. *)
let flush_lines t lines =
  let lines = List.sort_uniq compare lines in
  let total = Bytes.length t.media / line_size in
  List.iter
    (fun idx ->
      if idx < 0 || idx >= total then
        invalid_arg (Printf.sprintf "Pmem.flush_lines: line %d out of bounds (device has %d)" idx total))
    lines;
  let dirtied = ref 0 and issued = ref 0 in
  List.iter
    (fun idx ->
      event t;
      incr issued;
      if flush_line t idx then incr dirtied;
      if observed t then emit t (Clflush { off = idx * line_size; len = line_size }))
    lines;
  if !issued > 0 then begin
    Metrics.incr t.metrics "pmem.clflush" ~by:!issued;
    Metrics.incr t.metrics "pmem.clflush_writebacks" ~by:!dirtied;
    Clock.advance t.clock
      (Latency.flush_batch_ns t.flush_instr !issued
      +. (t.lat.write_ns *. float_of_int !dirtied));
    if !dirtied > 0 then Tinca_obs.Trace.note "pmem.clflush_writebacks" ~by:!dirtied
  end

(* Retires exactly the lines flushed since the last fence, walking only
   [t.flushed] — not the whole line table, which also holds every line
   stored but never flushed.  Removing a key keeps the rest of its bucket
   in order, so the order lines are retired in cannot change the table's
   later iteration order, which [crash] draws its per-line outcomes in. *)
let sfence t =
  event t;
  Metrics.incr t.metrics "pmem.sfence" ~by:1;
  Clock.advance t.clock t.lat.sfence_ns;
  let persisted = ref 0 in
  List.iter
    (fun idx ->
      match Hashtbl.find_opt t.lines idx with
      | Some line when line.pending ->
          Hashtbl.remove t.lines idx;
          t.wear.(idx) <- t.wear.(idx) + 1;
          incr persisted
      | Some _ | None -> () (* re-dirtied by a later store, or a duplicate already retired *))
    t.flushed;
  t.flushed <- [];
  if !persisted > 0 then Metrics.incr t.metrics "pmem.lines_persisted" ~by:!persisted;
  emit t Sfence

let persist t ~off ~len =
  clflush t ~off ~len;
  sfence t

let crash ?seed ?(survival = 0.5) t =
  let rng = match seed with Some s -> Tinca_util.Rng.create s | None -> t.rng in
  let entries = Hashtbl.fold (fun idx line acc -> (idx, line) :: acc) t.lines [] in
  List.iter
    (fun (idx, line) ->
      if Tinca_util.Rng.chance rng survival then begin
        (* The line's newest content reached the medium before power loss. *)
        t.wear.(idx) <- t.wear.(idx) + 1
      end
      else Bytes.blit line.backup 0 t.media (idx * line_size) line_size)
    entries;
  Hashtbl.reset t.lines;
  t.flushed <- [];
  t.countdown <- None;
  emit t Crash

(* --- crash-space exploration hooks (lib/check) ------------------------- *)

(* Cache lines dirtied since the last fence, ascending.  At a crash each
   of these may independently reach the medium or be lost, so they span
   the survival-subset space the model checker enumerates. *)
let unfenced_lines t =
  List.sort compare (Hashtbl.fold (fun idx _ acc -> idx :: acc) t.lines [])

(* Whether losing/keeping [idx] changes the medium: a line whose volatile
   content equals its durable backup is unaffected by the crash outcome. *)
let line_torn t idx =
  match Hashtbl.find_opt t.lines idx with
  | None -> false
  | Some line ->
      not (Bytes.equal line.backup (Bytes.sub t.media (idx * line_size) line_size))

(* Resolve a crash with an explicit survival verdict per unfenced line
   ([survive idx] = the line's newest content reached the medium), instead
   of [crash]'s random sampling.  Leaves the device quiescent. *)
let crash_select t ~survive =
  let entries = Hashtbl.fold (fun idx line acc -> (idx, line) :: acc) t.lines [] in
  List.iter
    (fun (idx, line) ->
      if survive idx then t.wear.(idx) <- t.wear.(idx) + 1
      else Bytes.blit line.backup 0 t.media (idx * line_size) line_size)
    entries;
  Hashtbl.reset t.lines;
  t.flushed <- [];
  t.countdown <- None;
  emit t Crash

type snapshot = {
  snap_media : Bytes.t;
  snap_lines : (int * Bytes.t * bool) list; (* line idx, backup, pending *)
  snap_wear : int array;
}

(* Capture / reinstate the full device state (medium + volatile line
   layer), so the checker can re-enter the same pre-crash state once per
   survival subset without replaying the workload.  [restore] disarms any
   crash countdown; simulated time and metrics are left untouched. *)
let snapshot t =
  {
    snap_media = Bytes.copy t.media;
    snap_lines =
      Hashtbl.fold (fun idx l acc -> (idx, Bytes.copy l.backup, l.pending) :: acc) t.lines [];
    snap_wear = Array.copy t.wear;
  }

let restore t s =
  if Bytes.length s.snap_media <> Bytes.length t.media then
    invalid_arg "Pmem.restore: snapshot from a different-sized device";
  Bytes.blit s.snap_media 0 t.media 0 (Bytes.length t.media);
  Hashtbl.reset t.lines;
  List.iter
    (fun (idx, backup, pending) ->
      Hashtbl.add t.lines idx { backup = Bytes.copy backup; pending })
    s.snap_lines;
  t.flushed <-
    List.filter_map (fun (idx, _, pending) -> if pending then Some idx else None) s.snap_lines;
  Array.blit s.snap_wear 0 t.wear 0 (Array.length t.wear);
  t.countdown <- None

(* Digest of the durable medium, for deduplicating post-crash images. *)
let media_digest t = Digest.bytes t.media

let set_crash_countdown t c =
  (match c with
  | Some k when k < 1 -> invalid_arg "Pmem.set_crash_countdown: k must be >= 1"
  | _ -> ());
  t.countdown <- c

let event_count t = t.events
let dirty_line_count t = Hashtbl.length t.lines
let is_dirty t ~off = Hashtbl.mem t.lines (off / line_size)
let wear_total t = Array.fold_left ( + ) 0 t.wear
let wear_max t = Array.fold_left max 0 t.wear

let wear_histogram t =
  let h = Tinca_util.Histogram.create () in
  Array.iter (fun w -> Tinca_util.Histogram.add h (float_of_int w)) t.wear;
  h

let wear_max_in t ~off ~len =
  check_range t off len;
  let first = off / line_size and last = (off + len - 1) / line_size in
  let m = ref 0 in
  for i = first to last do
    if t.wear.(i) > !m then m := t.wear.(i)
  done;
  !m

let wear_sum_in t ~off ~len =
  check_range t off len;
  let first = off / line_size and last = (off + len - 1) / line_size in
  let s = ref 0 in
  for i = first to last do
    s := !s + t.wear.(i)
  done;
  !s
