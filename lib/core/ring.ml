module Pmem = Tinca_pmem.Pmem

exception Corrupt of string

type t = {
  pmem : Pmem.t;
  layout : Layout.t;
  (* DRAM mirrors of the persistent pointers, kept in sync. *)
  mutable head : int;
  mutable tail : int;
  (* Peak in-flight occupancy since attach/format (volatile stat). *)
  mutable hwm : int;
  (* Slots reserved by sealed transactions and not yet covered by a
     [publish]: the volatile capacity claim of the pending batch. *)
  mutable reserved : int;
}

(* A pointer word beyond OCaml's int range reads as -1, which the
   bounds check before any scan rejects. *)
let read_word pmem ~off =
  let v = Pmem.read_u64 pmem ~off in
  if Int64.compare v 0L < 0 || Int64.compare v (Int64.of_int max_int) > 0 then -1
  else Int64.to_int v

let attach ~pmem ~layout =
  let head = read_word pmem ~off:layout.Layout.head_off in
  let tail = read_word pmem ~off:layout.Layout.tail_off in
  { pmem; layout; head; tail; hwm = head - tail; reserved = 0 }

let slots t = t.layout.Layout.ring_slots
let head t = t.head
let tail t = t.tail
let in_flight t = t.head - t.tail
let reserved t = t.reserved
let high_water t = t.hwm

let bump_hwm t = if in_flight t > t.hwm then t.hwm <- in_flight t

let write_ptr t ~off v =
  Pmem.atomic_write8_int t.pmem ~off v;
  Pmem.persist t.pmem ~off ~len:8

let record t blkno =
  if in_flight t >= slots t then invalid_arg "Ring.record: ring buffer full";
  Pmem.set_site t.pmem "ring.record";
  let slot_off = Layout.ring_slot_off t.layout t.head in
  Pmem.atomic_write8_int t.pmem ~off:slot_off blkno;
  Pmem.persist t.pmem ~off:slot_off ~len:8;
  t.head <- t.head + 1;
  write_ptr t ~off:t.layout.Layout.head_off t.head;
  bump_hwm t

(* Batched variant of [record]: store one slot per block starting at
   Head, flush each dirtied slot line once and fence.  The slots are
   durable but Head still excludes them, so they are invisible to
   [pending_blknos] and to recovery until [publish].  Eight slots share a
   64 B line, so an n-block batch dirties ceil(n/8) lines instead of
   paying n separate persists. *)
let record_batch t blknos =
  match blknos with
  | [] -> ()
  | blknos ->
      if in_flight t + List.length blknos > slots t then
        invalid_arg "Ring.record_batch: ring buffer full";
      Pmem.set_site t.pmem "ring.record";
      let ranges =
        List.mapi
          (fun i blkno ->
            let off = Layout.ring_slot_off t.layout (t.head + i) in
            Pmem.atomic_write8_int t.pmem ~off blkno;
            (off, 8))
          blknos
      in
      Pmem.flush_ranges t.pmem ranges;
      Pmem.sfence t.pmem

(* Sealed transactions reserve their slots volatilely; the slots are
   stored only when the batch drains. *)
let reserve t n =
  if n < 0 || in_flight t + t.reserved + n > slots t then invalid_arg "Ring.reserve: ring buffer full";
  t.reserved <- t.reserved + n

let release t n =
  if n < 0 || n > t.reserved then invalid_arg "Ring.release: bad slot count";
  t.reserved <- t.reserved - n

(* Advance Head over [n] slots stored by [record_batch] with a single
   persist, making them part of the in-flight range and releasing their
   reservation.  The slots were fenced durable by [record_batch], so the
   paper's ordering — entry and slot durable strictly before Head covers
   them — holds for the whole batch at the cost of one fence. *)
let publish t n =
  if n < 0 || in_flight t + n > slots t then invalid_arg "Ring.publish: bad slot count";
  if n > 0 then begin
    Pmem.set_site t.pmem "ring.record";
    t.head <- t.head + n;
    t.reserved <- max 0 (t.reserved - n);
    write_ptr t ~off:t.layout.Layout.head_off t.head;
    bump_hwm t
  end

let commit_point t =
  Pmem.set_site t.pmem "ring.commit_point";
  t.tail <- t.head;
  write_ptr t ~off:t.layout.Layout.tail_off t.tail

let rewind_head t =
  Pmem.set_site t.pmem "ring.rewind";
  t.head <- t.tail;
  t.reserved <- 0;
  write_ptr t ~off:t.layout.Layout.head_off t.head

(* Head and Tail come from media: bound them before the scan allocates
   one list cell per slot in between.  [Tail, Head) is at most two runs
   of adjacent slots (to the ring's end, then from its start), and each
   run is read in one piece, so a 64 B line of eight slots is charged
   once. *)
let pending_blknos t =
  if not (0 <= t.tail && t.tail <= t.head && t.head <= t.tail + slots t) then
    raise
      (Corrupt
         (Printf.sprintf "Tinca.Ring: Head %d and Tail %d are not 0 <= Tail <= Head <= Tail + %d"
            t.head t.tail (slots t)));
  let n = in_flight t in
  let first = t.tail mod slots t in
  let run = min n (slots t - first) in
  let read c count = Pmem.read t.pmem ~off:(Layout.ring_slot_off t.layout c) ~len:(count * 8) in
  let a = read t.tail run and b = read (t.tail + run) (n - run) in
  List.init n (fun k ->
      let v = if k < run then Bytes.get_int64_le a (k * 8) else Bytes.get_int64_le b ((k - run) * 8) in
      if Int64.compare v 0L < 0 || Int64.compare v (Int64.of_int max_int) > 0 then
        raise (Corrupt (Printf.sprintf "Tinca.Ring: slot %d holds %Ld, not a block number" (t.tail + k) v));
      Int64.to_int v)

let reload t =
  t.head <- read_word t.pmem ~off:t.layout.Layout.head_off;
  t.tail <- read_word t.pmem ~off:t.layout.Layout.tail_off;
  t.reserved <- 0

let format t =
  Pmem.set_site t.pmem "ring.format";
  t.head <- 0;
  t.tail <- 0;
  t.hwm <- 0;
  t.reserved <- 0;
  write_ptr t ~off:t.layout.Layout.head_off 0;
  write_ptr t ~off:t.layout.Layout.tail_off 0
