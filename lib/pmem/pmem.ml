open Tinca_sim

exception Crash_point

let line_size = 64

(* Per-line metadata in [t.lines]: one 4-byte word per line, its state in
   the low [state_bits] bits and, while the line is not clean, the index
   of the pre-image slot it owns in the rest. *)
let clean = 0 (* durable: the medium holds the newest content *)
let dirty = 1 (* stored since it was last durable *)
let pending = 2 (* flushed; durable at the next fence *)
let state_bits = 2
let state_mask = 3

(* A slot index is below the line count, so capping that at 2^29 keeps
   every word a non-negative int32. *)
let owner_bits = 29
let max_lines = 1 lsl owner_bits

(* 32-bit cells of [t.lines] and [t.wear], unchecked: every line index
   that reaches them comes from a range [check_range] accepted, from
   [is_dirty]'s own bounds test, or from a slot's owner, which was such
   an index when the slot was taken.  The checked primitives measurably
   slow the store, flush and fence paths. *)
external get32 : Bytes.t -> int -> int32 = "%caml_bytes_get32u"
external set32 : Bytes.t -> int -> int32 -> unit = "%caml_bytes_set32u"

(* Pre-image slots: fixed-size chunks of [chunk_slots] slots, each one
   int cell (the stamp it was taken with, above the [owner_bits] of the
   line that owns it) and that line's 64 B pre-image: 72 B a slot, which
   matters because every stored but never flushed line keeps one.  Slot
   [s] lives in chunk [s lsr chunk_bits], index [s land chunk_mask]. *)
let chunk_bits = 10
let chunk_slots = 1 lsl chunk_bits
let chunk_mask = chunk_slots - 1

type chunk = { cell : int array; pre : Bytes.t }

(* A fence that empties the layer trims its chunks every
   [trim_epochs]th time, to what the largest of those epochs used. *)
let trim_epochs = 64

(* The largest stamp a cell holds (2^33 - 1). *)
let max_stamp = max_int lsr owner_bits

(* The bucket count of [Hashtbl.create 4096], the table whose fold order
   [crash] draws in (see [fold_order]). *)
let initial_buckets = 4096

type event =
  | Store of { off : int; len : int }
  | Atomic_write of { off : int; len : int }
  | Clflush of { off : int; len : int }
  | Sfence
  | Crash

(* The device's counters, resolved once at [create]. *)
type counters = {
  c_stores : Metrics.counter;
  c_store_lines : Metrics.counter;
  c_atomic_writes : Metrics.counter;
  c_read_lines : Metrics.counter;
  c_clflush : Metrics.counter;
  c_clflush_writebacks : Metrics.counter;
  c_sfence : Metrics.counter;
  c_lines_persisted : Metrics.counter;
  c_lines_dirtied : Metrics.counter;
}

type t = {
  media : Bytes.t;
  (* The only record of each line's state and slot (see [clean]). *)
  lines : Bytes.t;
  (* Every non-clean line owns one slot, holding the durable content a
     crash may revert it to.  A line takes a slot when it leaves [clean]
     and gives it back when a fence retires it. *)
  mutable chunks : chunk array;
  mutable next : int; (* slots [0, next) have been handed out since the layer was last empty *)
  mutable peak : int; (* the most slots an epoch used since the last trim *)
  mutable emptied : int; (* fences that emptied the layer since the last trim *)
  mutable free : int array; (* stack of given-back slots below [next] *)
  mutable nfree : int;
  mutable seq : int; (* the next stamp: slots taken later get larger stamps *)
  mutable live : int; (* non-clean lines, one owned slot each *)
  mutable npending : int; (* flush-pending lines *)
  (* The bucket count a [Hashtbl.create 4096] would have after this
     history of inserts: it doubles when an insert leaves more than twice
     as many entries as buckets, and only [clear_lines] resets it. *)
  mutable nbuckets : int;
  (* Stack of the runs of lines a flush made flush-pending since the last
     fence, run [r] being lines [flushed.(2r), flushed.(2r + 1)] and the
     newest run on top: the only lines the next [sfence] can retire.
     Runs may overlap and hold lines that were not made pending, or that
     a later store re-dirtied; [sfence] skips every line not pending. *)
  mutable flushed : int array;
  mutable nflushed : int; (* runs *)
  mutable spans : int array; (* [flush_ranges]' scratch: its spans, keyed *)
  clock : Clock.t;
  ctr : counters;
  tech : Latency.nvm_tech;
  flush_instr : Latency.flush_instr;
  lat : Latency.nvm;
  rng : Tinca_util.Rng.t;
  (* Write-backs per line, one 32-bit cell each. *)
  wear : Bytes.t;
  mutable countdown : int option;
  mutable events : int;
  mutable observer : (event -> unit) option;
  mutable site : string;
}

let create ?(seed = 42) ?(flush_instr = Latency.Clflush) ~clock ~metrics ~tech ~size () =
  if size <= 0 || size mod line_size <> 0 then
    invalid_arg "Pmem.create: size must be a positive multiple of 64";
  let nlines = size / line_size in
  if nlines > max_lines then invalid_arg "Pmem.create: more than 2^29 lines";
  {
    media = Bytes.make size '\000';
    lines = Bytes.make (4 * nlines) '\000';
    chunks = [||];
    next = 0;
    peak = 0;
    emptied = 0;
    free = [||];
    nfree = 0;
    seq = 0;
    live = 0;
    npending = 0;
    nbuckets = initial_buckets;
    flushed = [||];
    nflushed = 0;
    spans = [||];
    clock;
    ctr =
      (let c = Metrics.counter metrics in
       {
         c_stores = c "pmem.stores";
         c_store_lines = c "pmem.store_lines";
         c_atomic_writes = c "pmem.atomic_writes";
         c_read_lines = c "pmem.read_lines";
         c_clflush = c "pmem.clflush";
         c_clflush_writebacks = c "pmem.clflush_writebacks";
         c_sfence = c "pmem.sfence";
         c_lines_persisted = c "pmem.lines_persisted";
         c_lines_dirtied = c "pmem.lines_dirtied";
       });
    tech;
    flush_instr;
    lat = Latency.nvm_of_tech ~flush_instr tech;
    rng = Tinca_util.Rng.create seed;
    wear = Bytes.make (4 * nlines) '\000';
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

(* --- line words and pre-image slots -------------------------------------- *)

let word t idx = Int32.to_int (get32 t.lines (idx lsl 2))
let set_word t idx w = set32 t.lines (idx lsl 2) (Int32.of_int w)
let slot_of w = w lsr state_bits
let with_state w state = w land lnot state_mask lor state
let owner t s = t.chunks.(s lsr chunk_bits).cell.(s land chunk_mask) land (max_lines - 1)
let stamp t s = t.chunks.(s lsr chunk_bits).cell.(s land chunk_mask) lsr owner_bits

let set_cell t s ~stamp idx =
  t.chunks.(s lsr chunk_bits).cell.(s land chunk_mask) <- (stamp lsl owner_bits) lor idx

let wear t idx = Int32.to_int (get32 t.wear (idx lsl 2)) land 0xFFFF_FFFF
let bump_wear t idx = set32 t.wear (idx lsl 2) (Int32.succ (get32 t.wear (idx lsl 2)))

(* Copies slot [s]'s pre-image into [dst] at [dst_off]. *)
let blit_pre t s dst dst_off =
  Bytes.blit t.chunks.(s lsr chunk_bits).pre ((s land chunk_mask) * line_size) dst dst_off line_size

(* Overwrites slot [s]'s pre-image with [line_size] bytes of [src] at
   [src_off]. *)
let set_pre t s src src_off =
  Bytes.blit src src_off t.chunks.(s lsr chunk_bits).pre ((s land chunk_mask) * line_size) line_size

(* Drops the chunks past the first [slots] slots, keeping at least one,
   and starts a new trim window. *)
let trim t slots =
  let keep = max 1 ((slots + chunk_mask) lsr chunk_bits) in
  if Array.length t.chunks > keep then t.chunks <- Array.sub t.chunks 0 keep;
  t.peak <- 0;
  t.emptied <- 0

(* The slots owned by a non-clean line, ascending.  A given-back slot
   still names its last owner, but that line is now clean or owns
   another slot. *)
let owned_slots t =
  let acc = ref [] in
  for s = t.next - 1 downto 0 do
    let w = word t (owner t s) in
    if w land state_mask <> clean && slot_of w = s then acc := s :: !acc
  done;
  !acc

(* Past [max_stamp] the owned slots are renumbered 0, 1, ... in stamp
   order: [fold_order] reads only the order of the owned slots' stamps,
   and a given-back slot's stamp is overwritten when it is taken. *)
let renumber t =
  let owned = List.sort (fun a b -> Int.compare (stamp t a) (stamp t b)) (owned_slots t) in
  List.iteri (fun i s -> set_cell t s ~stamp:i (owner t s)) owned;
  t.seq <- List.length owned

(* Makes sure slot [s] has a chunk. *)
let ensure_chunk t s =
  while s lsr chunk_bits >= Array.length t.chunks do
    t.chunks <-
      Array.append t.chunks
        [| { cell = Array.make chunk_slots 0; pre = Bytes.create (chunk_slots * line_size) } |]
  done

(* [n] more lines own a slot.  One insert at a time, the emulated table
   doubles whenever an insert leaves more than twice as many entries as
   buckets, so after the last it is the smallest doubling that holds
   them all. *)
let add_live t n =
  t.live <- t.live + n;
  while t.live > 2 * t.nbuckets do
    t.nbuckets <- 2 * t.nbuckets
  done

(* Line [idx] leaves [clean] as [state] with the pre-image at [src_off]
   in [src]: it takes the most recently given-back slot, or else the
   next one never handed out, stamped with the next sequence number. *)
let take_slot t idx state src src_off =
  let s =
    if t.nfree > 0 then begin
      t.nfree <- t.nfree - 1;
      t.free.(t.nfree)
    end
    else begin
      let s = t.next in
      ensure_chunk t s;
      t.next <- s + 1;
      s
    end
  in
  if t.seq > max_stamp then renumber t;
  set_cell t s ~stamp:t.seq idx;
  t.seq <- t.seq + 1;
  set_pre t s src src_off;
  set_word t idx ((s lsl state_bits) lor state);
  add_live t 1

(* The clean lines [first, first + n) leave [clean] as [dirty] together,
   with the free stack empty and stamps to spare: they take the fresh
   slots [next, next + n) in line order, stamped as [n] calls of
   [take_slot] would stamp them, and their pre-images are copied from
   the medium with one blit per chunk. *)
let take_run t first n =
  let s0 = t.next in
  ensure_chunk t (s0 + n - 1);
  for i = 0 to n - 1 do
    let s = s0 + i in
    set_cell t s ~stamp:(t.seq + i) (first + i);
    set_word t (first + i) ((s lsl state_bits) lor dirty)
  done;
  let s = ref s0 in
  while !s < s0 + n do
    let c = !s lsr chunk_bits in
    let upto = min (s0 + n) ((c + 1) lsl chunk_bits) in
    Bytes.blit t.media
      ((first + !s - s0) * line_size)
      t.chunks.(c).pre
      ((!s land chunk_mask) * line_size)
      ((upto - !s) * line_size);
    s := upto
  done;
  t.next <- s0 + n;
  t.seq <- t.seq + n;
  add_live t n

(* A full stack of [n] elements, copied into one with room to grow. *)
let grow stack n =
  let grown = Array.make (max 64 (2 * n)) 0 in
  Array.blit stack 0 grown 0 n;
  grown

let give_back t s =
  if t.nfree = Array.length t.free then t.free <- grow t.free t.nfree;
  t.free.(t.nfree) <- s;
  t.nfree <- t.nfree + 1

let push_flushed t first last =
  let n = 2 * t.nflushed in
  if n = Array.length t.flushed then t.flushed <- grow t.flushed n;
  t.flushed.(n) <- first;
  t.flushed.(n + 1) <- last;
  t.nflushed <- t.nflushed + 1

(* Whether anyone consumes the event stream.  When nobody does, the hot
   paths do not even build the event records. *)
let observed t = Option.is_some t.observer

(* Every hardware event goes to the attached observer (the persistence
   sanitizer keeps sole ownership of [set_observer]). *)
let emit t ev = match t.observer with Some f -> f ev | None -> ()

let is_clean t idx = word t idx land state_mask = clean

(* Before a store mutates lines [first, last], keep each one's durable
   content as rollback state, in ascending line order.  A clean line
   takes a slot holding its medium content.  A run of clean lines takes
   given-back slots one at a time while there are any, then the rest
   as one [take_run], renumbering first if its stamps would pass
   [max_stamp] (which keeps the order of every stamp, all [fold_order]
   reads).  A store into a flush-pending line resolves the in-flight
   write-back adversarially: it may or may not have reached the medium.
   Only those lines draw from the RNG, so the draws are those of a
   line-by-line loop.  Returns how many lines entered [dirty] (from
   clean or flush-pending): each such entry owes the medium one more
   write. *)
let dirty_lines t first last =
  let entered = ref 0 and idx = ref first in
  while !idx <= last do
    let i = !idx in
    let w = word t i in
    let state = w land state_mask in
    if state = clean then begin
      let j = ref (i + 1) in
      while !j <= last && is_clean t !j do
        incr j
      done;
      let k = ref i in
      while !k < !j && t.nfree > 0 do
        take_slot t !k dirty t.media (!k * line_size);
        incr k
      done;
      let n = !j - !k in
      if n > 0 then begin
        if t.seq + n - 1 > max_stamp then renumber t;
        take_run t !k n
      end;
      entered := !entered + (!j - i);
      idx := !j
    end
    else begin
      if state = pending then begin
        if Tinca_util.Rng.bool t.rng then set_pre t (slot_of w) t.media (i * line_size);
        set_word t i (with_state w dirty);
        t.npending <- t.npending - 1;
        incr entered
      end;
      incr idx
    end
  done;
  !entered

(* A zero-length store stores nothing: no event, no charge. *)
let store_range t off len =
  if len > 0 then begin
    event t;
    let first = off / line_size and last = (off + len - 1) / line_size in
    let entered = dirty_lines t first last in
    let nlines = last - first + 1 in
    Clock.advance t.clock (t.lat.store_ns *. float_of_int nlines);
    Metrics.add t.ctr.c_stores 1;
    Metrics.add t.ctr.c_store_lines nlines;
    Metrics.add t.ctr.c_lines_dirtied entered
  end

(* A store of [len] bytes of [src] at [pos] into the checked range at
   [off]. *)
let store_bytes t ~off src ~pos ~len =
  store_range t off len;
  Bytes.blit src pos t.media off len;
  if len > 0 && observed t then emit t (Store { off; len })

let write_sub t ~off src ~pos ~len =
  check_range t off len;
  if pos < 0 || len < 0 || pos + len > Bytes.length src then
    invalid_arg "Pmem.write_sub: bad source range";
  store_bytes t ~off src ~pos ~len

let write t ~off src =
  check_range t off (Bytes.length src);
  store_bytes t ~off src ~pos:0 ~len:(Bytes.length src)

let rec check_chunks t = function
  | [] -> ()
  | (off, src) :: rest ->
      check_range t off (Bytes.length src);
      check_chunks t rest

let rec store_chunks t = function
  | [] -> ()
  | (off, src) :: rest ->
      store_bytes t ~off src ~pos:0 ~len:(Bytes.length src);
      store_chunks t rest

(* Vectored write: all ranges are validated before any byte is stored, so
   a bad chunk cannot leave a partial scatter behind. *)
let writev t chunks =
  check_chunks t chunks;
  store_chunks t chunks

let fill t ~off ~len c =
  check_range t off len;
  store_range t off len;
  Bytes.fill t.media off len c;
  if len > 0 && observed t then emit t (Store { off; len })

let atomic_write8 t ~off v =
  check_range t off 8;
  if off mod 8 <> 0 then invalid_arg "Pmem.atomic_write8: misaligned";
  store_range t off 8;
  Metrics.add t.ctr.c_atomic_writes 1;
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
  Metrics.add t.ctr.c_atomic_writes 1;
  Bytes.blit v 0 t.media off 16;
  if observed t then emit t (Atomic_write { off; len = 16 })

let charge_read t off len =
  if len > 0 then begin
    let first = off / line_size and last = (off + len - 1) / line_size in
    let nlines = last - first + 1 in
    Clock.advance t.clock (t.lat.read_ns *. float_of_int nlines);
    Metrics.add t.ctr.c_read_lines nlines
  end

let read t ~off ~len =
  check_range t off len;
  charge_read t off len;
  Bytes.sub t.media off len

let dma_read t ~off ~len =
  check_range t off len;
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
  let w = word t idx in
  if w land state_mask = dirty then begin
    set_word t idx (with_state w pending);
    t.npending <- t.npending + 1;
    push_flushed t idx idx;
    true
  end
  else false

(* [flush_line] over lines [first, last] with no event between them:
   the lines it makes pending are queued as one run, from the lowest to
   the highest of them.  Returns how many write-backs started. *)
let flush_span t first last =
  let lo = ref (-1) and hi = ref (-1) and started = ref 0 in
  for idx = first to last do
    let w = word t idx in
    if w land state_mask = dirty then begin
      set_word t idx (with_state w pending);
      if !lo < 0 then lo := idx;
      hi := idx;
      incr started
    end
  done;
  if !started > 0 then begin
    t.npending <- t.npending + !started;
    push_flushed t !lo !hi
  end;
  !started

let clflush t ~off ~len =
  check_range t off len;
  if len > 0 then begin
    event t;
    let first = off / line_size and last = (off + len - 1) / line_size in
    (* A flush of a clean (or already flush-pending) line is issued but
       initiates no medium write-back, so it must not be charged the
       medium's write latency — only the dirty lines whose write-back
       this flush actually starts pay [write_ns]. *)
    let dirtied = flush_span t first last in
    let nlines = last - first + 1 in
    Metrics.add t.ctr.c_clflush nlines;
    Metrics.add t.ctr.c_clflush_writebacks dirtied;
    (* One call = one back-to-back flush burst over the range: clflush
       serializes (full latency per line), clflushopt/clwb pipeline. *)
    Clock.advance t.clock
      (Latency.flush_batch_ns t.flush_instr nlines
      +. (t.lat.write_ns *. float_of_int dirtied));
    if observed t then emit t (Clflush { off; len })
  end

(* Validates every [(off, len)] range and keys each non-empty one in
   [t.spans.(n ..)] by its first line, above its last: sorting the keys
   sorts the spans by first line.  Returns the new span count. *)
let rec collect_spans t n = function
  | [] -> n
  | (off, len) :: rest ->
      check_range t off len;
      if len = 0 then collect_spans t n rest
      else begin
        if n = Array.length t.spans then t.spans <- grow t.spans n;
        t.spans.(n) <- ((off / line_size) lsl owner_bits) lor ((off + len - 1) / line_size);
        collect_spans t (n + 1) rest
      end

(* Sorts [a.(0)] .. [a.(n - 1)] ascending, in place while short. *)
let sort_prefix (a : int array) n =
  if n <= 64 then
    for i = 1 to n - 1 do
      let x = a.(i) in
      let j = ref (i - 1) in
      while !j >= 0 && a.(!j) > x do
        a.(!j + 1) <- a.(!j);
        decr j
      done;
      a.(!j + 1) <- x
    done
  else begin
    let sorted = Array.sub a 0 n in
    Array.sort Int.compare sorted;
    Array.blit sorted 0 a 0 n
  end

(* Scatter-gather flush: one back-to-back burst of per-line flushes over
   the distinct lines the byte ranges touch, in ascending order, so
   batched callers stop paying a separate serialized [clflush] call per
   line.  Each line is its own instruction — its own crash-countdown
   event and observer event — but the burst is charged with the
   pipelined batch cost.  The ranges are sorted by first line and swept
   once: a line shared by several ranges is issued the first time only.
   Per-line events are built only for a listener that can tell one line
   from the next: an armed crash countdown or an attached observer.
   Otherwise the burst counts its events at once and queues each span
   as one run ([flush_span]).  The counters are bumped once, after the
   whole burst, so a countdown firing inside it counts none of it. *)
let flush_ranges t ranges =
  let n = collect_spans t 0 ranges in
  sort_prefix t.spans n;
  let emits = observed t in
  let per_line = emits || Option.is_some t.countdown in
  let next = ref 0 and issued = ref 0 and dirtied = ref 0 in
  for i = 0 to n - 1 do
    let key = t.spans.(i) in
    let first = max (key lsr owner_bits) !next and last = key land (max_lines - 1) in
    if per_line then
        for idx = first to last do
          event t;
          incr issued;
          if flush_line t idx then incr dirtied;
          if emits then emit t (Clflush { off = idx * line_size; len = line_size })
        done
      else if first <= last then begin
        issued := !issued + (last - first + 1);
        dirtied := !dirtied + flush_span t first last
      end;
    next := max !next (last + 1)
  done;
  if !issued > 0 then begin
    if not per_line then t.events <- t.events + !issued;
    Metrics.add t.ctr.c_clflush !issued;
    Metrics.add t.ctr.c_clflush_writebacks !dirtied;
    Clock.advance t.clock
      (Latency.flush_batch_ns t.flush_instr !issued
      +. (t.lat.write_ns *. float_of_int !dirtied))
  end

(* Retires exactly the lines flushed since the last fence, walking only
   [t.flushed]'s runs, newest first and each from its high line down —
   not every non-durable line, which includes every line stored but
   never flushed.  A retired line gives its slot back; a fence that
   retires every non-clean line instead forgets all slots at once, and
   every [trim_epochs]th such fence trims the chunks.  Slots keep their
   stamps, so the order lines are retired in cannot change the order
   [crash] draws in. *)
let sfence t =
  event t;
  Metrics.add t.ctr.c_sfence 1;
  Clock.advance t.clock t.lat.sfence_ns;
  (* Every flush-pending line is in [t.flushed], so this fence retires
     all [npending] of them. *)
  let persisted = t.npending in
  let all = persisted = t.live in
  for r = t.nflushed - 1 downto 0 do
    for idx = t.flushed.((2 * r) + 1) downto t.flushed.(2 * r) do
      (* Skips a line re-dirtied by a later store, one already retired
         through a newer run, and one the flush found not dirty. *)
      let w = word t idx in
      if w land state_mask = pending then begin
        set_word t idx clean;
        bump_wear t idx;
        if not all then give_back t (slot_of w)
      end
    done
  done;
  t.nflushed <- 0;
  t.npending <- 0;
  if persisted > 0 then begin
    Metrics.add t.ctr.c_lines_persisted persisted;
    t.live <- t.live - persisted;
    if all then begin
      (* A commit's small epochs follow its large one, so trimming to
         the epoch just emptied would reallocate the large one's chunks
         every commit; a window keeps them while they are in use and
         still drops a one-off large epoch's. *)
      t.peak <- max t.peak t.next;
      t.emptied <- t.emptied + 1;
      if t.emptied = trim_epochs then trim t t.peak;
      t.next <- 0;
      t.nfree <- 0
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
let unfenced_lines t = List.sort Int.compare (List.map (owner t) (owned_slots t))

(* The unfenced lines whose loss changes the medium, ascending: a line
   whose volatile content equals its slot's pre-image is unaffected by
   the crash outcome. *)
let torn_lines t =
  let cur = Bytes.create line_size in
  List.sort Int.compare
    (List.filter_map
       (fun s ->
         let idx = owner t s in
         blit_pre t s cur 0;
         if Bytes.equal cur (Bytes.sub t.media (idx * line_size) line_size) then None else Some idx)
       (owned_slots t))

(* Empties the volatile line layer: every line is clean again, and the
   emulated table is back to its initial bucket count.  Every non-clean
   line owns a slot below [next], so cleaning each slot's last owner
   cleans them all. *)
let clear_lines t =
  for s = 0 to t.next - 1 do
    set_word t (owner t s) clean
  done;
  t.next <- 0;
  t.nfree <- 0;
  t.live <- 0;
  t.npending <- 0;
  t.nbuckets <- initial_buckets;
  t.nflushed <- 0;
  trim t 0

(* The owned slots as [(line, slot)] pairs, in the reverse of the order a
   stdlib [Hashtbl.create 4096] would fold them in had it seen one [add]
   per line leaving clean and one [remove] per retirement.  Such a table
   holds each bucket's keys newest first, and neither a removal nor a
   resize reorders the rest, so a fresh table with the same bucket count,
   fed only the owned slots oldest stamp first, folds in the same
   order. *)
let fold_order t =
  let h = Hashtbl.create t.nbuckets in
  List.iter
    (fun s -> Hashtbl.add h (owner t s) s)
    (List.sort (fun a b -> Int.compare (stamp t a) (stamp t b)) (owned_slots t));
  Hashtbl.fold (fun idx s acc -> (idx, s) :: acc) h []

(* Resolve a crash with an explicit survival verdict per unfenced line
   ([survive idx] = the line's newest content reached the medium), asked
   in [fold_order].  Leaves the device quiescent. *)
let crash_select t ~survive =
  List.iter
    (fun (idx, s) -> if survive idx then bump_wear t idx else blit_pre t s t.media (idx * line_size))
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
  snap_wear : Bytes.t;
}

(* Capture / reinstate the full device state (medium + volatile line
   layer), so the checker can re-enter the same pre-crash state once per
   survival subset without replaying the workload.  [restore] gives the
   lines slots in the snapshot's order and disarms any crash countdown;
   simulated time and metrics are left untouched. *)
let snapshot t =
  {
    snap_media = Bytes.copy t.media;
    snap_lines =
      List.map
        (fun (idx, s) ->
          let pre = Bytes.create line_size in
          blit_pre t s pre 0;
          (idx, pre, word t idx land state_mask = pending))
        (fold_order t);
    snap_wear = Bytes.copy t.wear;
  }

let restore t s =
  if Bytes.length s.snap_media <> Bytes.length t.media then
    invalid_arg "Pmem.restore: snapshot from a different-sized device";
  Bytes.blit s.snap_media 0 t.media 0 (Bytes.length t.media);
  clear_lines t;
  List.iter
    (fun (idx, pre, is_pending) ->
      take_slot t idx (if is_pending then pending else dirty) pre 0;
      if is_pending then t.npending <- t.npending + 1)
    s.snap_lines;
  (* The first pending line in the snapshot ends on top of the stack. *)
  List.iter
    (fun (idx, _, is_pending) -> if is_pending then push_flushed t idx idx)
    (List.rev s.snap_lines);
  Bytes.blit s.snap_wear 0 t.wear 0 (Bytes.length t.wear);
  t.countdown <- None

(* Digest of the whole durable medium, for comparing media images. *)
let media_digest t = Digest.bytes t.media

let lines_digest t lines =
  let buf = Bytes.create (List.length lines * line_size) in
  List.iteri (fun i idx -> Bytes.blit t.media (idx * line_size) buf (i * line_size) line_size) lines;
  Digest.bytes buf

let set_crash_countdown t c =
  (match c with
  | Some k when k < 1 -> invalid_arg "Pmem.set_crash_countdown: k must be >= 1"
  | _ -> ());
  t.countdown <- c

let event_count t = t.events
let dirty_line_count t = t.live

let is_dirty t ~off =
  off >= 0 && off < Bytes.length t.media && word t (off / line_size) land state_mask <> clean

(* Folds [f] over the wear of lines [first, last]. *)
let fold_wear t first last f =
  let acc = ref 0 in
  for i = first to last do
    acc := f !acc (wear t i)
  done;
  !acc

let last_line t = (Bytes.length t.media / line_size) - 1
let wear_total t = fold_wear t 0 (last_line t) ( + )
let wear_max t = fold_wear t 0 (last_line t) Int.max

let wear_max_in t ~off ~len =
  check_range t off len;
  fold_wear t (off / line_size) ((off + len - 1) / line_size) Int.max

let wear_sum_in t ~off ~len =
  check_range t off len;
  fold_wear t (off / line_size) ((off + len - 1) / line_size) ( + )
