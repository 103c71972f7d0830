open Tinca_sim

exception Crash_point

let line_size = 64

(* Per-line states in [t.state], one byte per line. *)
let clean = '\000' (* durable: the medium holds the newest content *)
let dirty = '\001' (* stored since it was last durable *)
let pending = '\002' (* flushed; durable at the next fence *)

(* The undo log: fixed-size chunks of [chunk_entries] entries, each a
   line index and that line's 64 B pre-image.  Entry [p] lives in chunk
   [p lsr chunk_bits], slot [p land chunk_mask]. *)
let chunk_bits = 10
let chunk_entries = 1 lsl chunk_bits
let chunk_mask = chunk_entries - 1

type chunk = { lines : int array; pre : Bytes.t }

(* The bucket count of [Hashtbl.create 4096], the table whose fold order
   [crash] draws in (see [fold_order]). *)
let initial_buckets = 4096

type event =
  | Store of { off : int; len : int }
  | Atomic_write of { off : int; len : int }
  | Clflush of { off : int; len : int }
  | Sfence
  | Crash

type t = {
  media : Bytes.t;
  (* The only record of each line's state: [clean], [dirty] or
     [pending]. *)
  state : Bytes.t;
  (* Append-only undo log: one entry each time a line leaves [clean],
     holding the durable content a crash may revert it to.  An entry is
     live while it is its line's newest and the line is not clean; a
     fence only flips state bytes, leaving dead entries behind until the
     log is truncated or compacted. *)
  mutable chunks : chunk array;
  mutable len : int; (* entries in the log *)
  mutable live : int; (* non-clean lines, one live entry each *)
  (* The bucket count a [Hashtbl.create 4096] would have after this
     history of inserts: it doubles when an insert leaves more than twice
     as many entries as buckets, and only [clear_lines] resets it. *)
  mutable nbuckets : int;
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
    state = Bytes.make (size / line_size) clean;
    chunks = [||];
    len = 0;
    live = 0;
    nbuckets = initial_buckets;
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

(* --- the undo log ------------------------------------------------------ *)

let entry_line t p = t.chunks.(p lsr chunk_bits).lines.(p land chunk_mask)

(* Copies entry [p]'s pre-image into [dst] at [dst_off]. *)
let blit_pre t p dst dst_off =
  Bytes.blit t.chunks.(p lsr chunk_bits).pre ((p land chunk_mask) * line_size) dst dst_off line_size

(* Drops the chunks past the end of the log, so a log that once grew
   long does not keep its peak footprint. *)
let trim t =
  let keep = max 1 ((t.len + chunk_mask) lsr chunk_bits) in
  if Array.length t.chunks > keep then t.chunks <- Array.sub t.chunks 0 keep

(* Or-ed into a state byte by [live_positions] while it runs. *)
let seen = 4

(* Log positions of the live entries — each non-clean line's newest —
   oldest first.  A backward pass takes the first entry it meets for
   each non-clean line, marking the line's state byte so older entries
   for it are skipped; the marks are cleared before returning. *)
let live_positions t =
  let acc = ref [] in
  for p = t.len - 1 downto 0 do
    let idx = entry_line t p in
    let s = Bytes.get t.state idx in
    if s = dirty || s = pending then begin
      Bytes.set t.state idx (Char.unsafe_chr (Char.code s lor seen));
      acc := p :: !acc
    end
  done;
  List.iter
    (fun p ->
      let idx = entry_line t p in
      Bytes.set t.state idx (Char.unsafe_chr (Char.code (Bytes.get t.state idx) land lnot seen)))
    !acc;
  !acc

(* Keeps only the live entries, in log order. *)
let compact t =
  List.iteri
    (fun w p ->
      if w <> p then begin
        let c = t.chunks.(w lsr chunk_bits) and slot = w land chunk_mask in
        c.lines.(slot) <- entry_line t p;
        blit_pre t p c.pre (slot * line_size)
      end)
    (live_positions t);
  t.len <- t.live;
  trim t

(* Logs line [idx] leaving [clean], with the pre-image at [src_off] in
   [src].  A log longer than about 1.25x its live entries plus one chunk
   is compacted first, so dead entries cost bounded space. *)
let append t idx src src_off =
  if t.len > t.live + (t.live lsr 2) + chunk_entries then compact t;
  let p = t.len in
  if p lsr chunk_bits = Array.length t.chunks then
    t.chunks <-
      Array.append t.chunks
        [| { lines = Array.make chunk_entries 0; pre = Bytes.create (chunk_entries * line_size) } |];
  let c = t.chunks.(p lsr chunk_bits) and slot = p land chunk_mask in
  c.lines.(slot) <- idx;
  Bytes.blit src src_off c.pre (slot * line_size) line_size;
  t.len <- p + 1;
  t.live <- t.live + 1;
  if t.live > 2 * t.nbuckets then t.nbuckets <- 2 * t.nbuckets

(* Position of line [idx]'s newest entry, which must exist. *)
let rec newest_entry t idx p = if entry_line t p = idx then p else newest_entry t idx (p - 1)

(* Before a store mutates line [idx], log its durable content as
   rollback state.  A store into a flush-pending line resolves the
   in-flight write-back adversarially: it may or may not have reached the
   medium (the only store that looks its entry up, by a backward scan). *)
let dirty_line t idx =
  let s = Bytes.get t.state idx in
  if s = clean then begin
    append t idx t.media (idx * line_size);
    Bytes.set t.state idx dirty
  end
  else if s = pending then begin
    if Tinca_util.Rng.bool t.rng then begin
      let p = newest_entry t idx (t.len - 1) in
      Bytes.blit t.media (idx * line_size) t.chunks.(p lsr chunk_bits).pre
        ((p land chunk_mask) * line_size) line_size
    end;
    Bytes.set t.state idx dirty
  end

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
  if Bytes.get t.state idx = dirty then begin
    Bytes.set t.state idx pending;
    t.flushed <- idx :: t.flushed;
    true
  end
  else false

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
   the distinct lines the byte ranges touch, in ascending order, so
   batched callers stop paying a separate serialized [clflush] call per
   line.  Each line is its own instruction — its own crash-countdown
   event and observer event — but the burst is charged with the
   pipelined batch cost.  The ranges are sorted by first line and swept
   once: a line shared by several ranges is issued the first time only. *)
let flush_ranges t ranges =
  List.iter (fun (off, len) -> check_range t off len) ranges;
  let spans =
    List.sort
      (fun (a, _) (b, _) -> Int.compare a b)
      (List.filter_map
         (fun (off, len) -> if len > 0 then Some (lines_of_range off len) else None)
         ranges)
  in
  let next = ref 0 and issued = ref 0 and dirtied = ref 0 in
  List.iter
    (fun (first, last) ->
      for idx = max first !next to last do
        event t;
        incr issued;
        if flush_line t idx then incr dirtied;
        if observed t then emit t (Clflush { off = idx * line_size; len = line_size })
      done;
      next := max !next (last + 1))
    spans;
  if !issued > 0 then begin
    Metrics.incr t.metrics "pmem.clflush" ~by:!issued;
    Metrics.incr t.metrics "pmem.clflush_writebacks" ~by:!dirtied;
    Clock.advance t.clock
      (Latency.flush_batch_ns t.flush_instr !issued
      +. (t.lat.write_ns *. float_of_int !dirtied));
    if !dirtied > 0 then Tinca_obs.Trace.note "pmem.clflush_writebacks" ~by:!dirtied
  end

(* Retires exactly the lines flushed since the last fence, walking only
   [t.flushed] — not every non-durable line, which includes every line
   stored but never flushed.  Retiring a line only flips its state byte:
   its log entry goes dead in place, so the order lines are retired in
   cannot change the order [crash] draws in.  Once no line is live the
   whole log is dropped. *)
let sfence t =
  event t;
  Metrics.incr t.metrics "pmem.sfence" ~by:1;
  Clock.advance t.clock t.lat.sfence_ns;
  let persisted = ref 0 in
  List.iter
    (fun idx ->
      (* Skips a line re-dirtied by a later store, and a duplicate entry
         already retired. *)
      if Bytes.get t.state idx = pending then begin
        Bytes.set t.state idx clean;
        t.wear.(idx) <- t.wear.(idx) + 1;
        incr persisted
      end)
    t.flushed;
  t.flushed <- [];
  if !persisted > 0 then begin
    Metrics.incr t.metrics "pmem.lines_persisted" ~by:!persisted;
    t.live <- t.live - !persisted;
    if t.live = 0 then begin
      t.len <- 0;
      trim t
    end
  end;
  emit t Sfence

let persist t ~off ~len =
  clflush t ~off ~len;
  sfence t

(* --- crash-space exploration hooks (lib/check) ------------------------- *)

(* Cache lines dirtied since the last fence, ascending.  At a crash each
   of these may independently reach the medium or be lost, so they span
   the survival-subset space the model checker enumerates. *)
let unfenced_lines t = List.sort Int.compare (List.map (entry_line t) (live_positions t))

(* The unfenced lines whose loss changes the medium, ascending: a line
   whose volatile content equals its logged pre-image is unaffected by
   the crash outcome. *)
let torn_lines t =
  let cur = Bytes.create line_size in
  List.sort Int.compare
    (List.filter_map
       (fun p ->
         let idx = entry_line t p in
         blit_pre t p cur 0;
         if Bytes.equal cur (Bytes.sub t.media (idx * line_size) line_size) then None else Some idx)
       (live_positions t))

(* Empties the volatile line layer: every line is clean again, and the
   emulated table is back to its initial bucket count. *)
let clear_lines t =
  for p = 0 to t.len - 1 do
    Bytes.set t.state (entry_line t p) clean
  done;
  t.len <- 0;
  t.live <- 0;
  t.nbuckets <- initial_buckets;
  t.flushed <- [];
  trim t

(* The live entries as [(line, position)] pairs, in the reverse of the
   order a stdlib [Hashtbl.create 4096] would fold them in had it seen one
   [add] per log append and one [remove] per retirement.  Such a table
   holds each bucket's keys newest first, and neither a removal nor a
   resize reorders the rest, so a fresh table with the same bucket count,
   fed only the live entries oldest first, folds in the same order. *)
let fold_order t =
  let h = Hashtbl.create t.nbuckets in
  List.iter (fun p -> Hashtbl.add h (entry_line t p) p) (live_positions t);
  Hashtbl.fold (fun idx p acc -> (idx, p) :: acc) h []

(* Resolve a crash with an explicit survival verdict per unfenced line
   ([survive idx] = the line's newest content reached the medium), asked
   in [fold_order].  Leaves the device quiescent. *)
let crash_select t ~survive =
  List.iter
    (fun (idx, p) ->
      if survive idx then t.wear.(idx) <- t.wear.(idx) + 1
      else blit_pre t p t.media (idx * line_size))
    (fold_order t);
  clear_lines t;
  t.countdown <- None;
  emit t Crash

let crash ?seed ?(survival = 0.5) t =
  let rng = match seed with Some s -> Tinca_util.Rng.create s | None -> t.rng in
  (* Surviving: the line's newest content reached the medium before power loss. *)
  crash_select t ~survive:(fun _ -> Tinca_util.Rng.chance rng survival)

type snapshot = {
  snap_media : Bytes.t;
  snap_lines : (int * Bytes.t * bool) list; (* line idx, pre-image, pending *)
  snap_wear : int array;
}

(* Capture / reinstate the full device state (medium + volatile line
   layer), so the checker can re-enter the same pre-crash state once per
   survival subset without replaying the workload.  [restore] re-logs the
   lines in the snapshot's order and disarms any crash countdown;
   simulated time and metrics are left untouched. *)
let snapshot t =
  {
    snap_media = Bytes.copy t.media;
    snap_lines =
      List.map
        (fun (idx, p) ->
          let pre = Bytes.create line_size in
          blit_pre t p pre 0;
          (idx, pre, Bytes.get t.state idx = pending))
        (fold_order t);
    snap_wear = Array.copy t.wear;
  }

let restore t s =
  if Bytes.length s.snap_media <> Bytes.length t.media then
    invalid_arg "Pmem.restore: snapshot from a different-sized device";
  Bytes.blit s.snap_media 0 t.media 0 (Bytes.length t.media);
  clear_lines t;
  List.iter
    (fun (idx, pre, is_pending) ->
      append t idx pre 0;
      Bytes.set t.state idx (if is_pending then pending else dirty))
    s.snap_lines;
  t.flushed <-
    List.filter_map (fun (idx, _, is_pending) -> if is_pending then Some idx else None) s.snap_lines;
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
let dirty_line_count t = t.live

let is_dirty t ~off =
  off >= 0 && off < Bytes.length t.media && Bytes.get t.state (off / line_size) <> clean

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
