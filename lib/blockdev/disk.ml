open Tinca_sim

type t = {
  clock : Clock.t;
  metrics : Metrics.t;
  c_reads : Metrics.counter;
  c_writes : Metrics.counter;
  c_seq_writes : Metrics.counter;
  (* writes and sequential writes of each cleaner pass *)
  c_bg : Metrics.counter * Metrics.counter;
  c_idle : Metrics.counter * Metrics.counter;
  lat : Latency.disk;
  nblocks : int;
  block_size : int;
  store : (int, bytes) Hashtbl.t;
  mutable head : int; (* last accessed block, for HDD seek distance *)
  mutable busy_until : float; (* device queue: when the last queued access completes *)
  mutable reads : int;
  mutable writes : int;
}

let create ~clock ~metrics ~kind ~nblocks ~block_size =
  if nblocks <= 0 || block_size <= 0 then invalid_arg "Disk.create: bad geometry";
  {
    clock;
    metrics;
    c_reads = Metrics.counter metrics "disk.reads";
    c_writes = Metrics.counter metrics "disk.writes";
    c_seq_writes = Metrics.counter metrics "disk.seq_writes";
    c_bg = (Metrics.counter metrics "disk.bg_writes", Metrics.counter metrics "disk.bg_seq_writes");
    c_idle =
      (Metrics.counter metrics "disk.idle_writes", Metrics.counter metrics "disk.idle_seq_writes");
    lat = Latency.disk_of_kind kind;
    nblocks;
    block_size;
    store = Hashtbl.create 4096;
    head = 0;
    busy_until = 0.0;
    reads = 0;
    writes = 0;
  }

let kind t = t.lat.Latency.kind
let block_size t = t.block_size
let nblocks t = t.nblocks

let check t blkno =
  if blkno < 0 || blkno >= t.nblocks then
    invalid_arg (Printf.sprintf "Disk: block %d out of range [0, %d)" blkno t.nblocks)

(* Positioning cost: nothing when the access is sequential; otherwise for
   an HDD a distance-scaled seek plus average half-rotation folded into
   [seek_ns]; SSDs have no positioning cost beyond the per-block figure.
   Pure: the caller moves the head once the access is issued. *)
let position_cost t blkno =
  let sequential = blkno = t.head + 1 || blkno = t.head in
  let cost =
    match t.lat.Latency.kind with
    | Latency.Ssd -> 0.0
    | Latency.Hdd ->
        if sequential then 0.0
        else
          let dist = float_of_int (abs (blkno - t.head)) /. float_of_int t.nblocks in
          t.lat.Latency.seek_ns *. (0.25 +. (0.75 *. sqrt dist))
  in
  (cost, sequential)

(* Device time of a write of [blkno] issued now, and whether it is
   sequential. *)
let write_cost t blkno =
  let pos_cost, sequential = position_cost t blkno in
  let xfer = if sequential then t.lat.Latency.seq_block_ns else t.lat.Latency.write_block_ns in
  (pos_cost +. xfer, sequential)

(* One device access issued now, occupying the device for [cost].
   Background (cleaner) writes queue behind everything issued before
   them and only reserve device time; the backlog they leave is
   recorded.  A foreground caller waits for its access to complete.  On
   an HDD it also waits for the queue (FIFO: a seek cannot be
   suspended).  An SSD suspends queued background programs for it (NAND
   program suspend), so it is served as on an idle device and the
   queued work finishes [cost] later. *)
let access t ~background cost =
  let now = Clock.now_ns t.clock in
  t.busy_until <- Float.max now t.busy_until +. cost;
  if background then Metrics.observe t.metrics "disk.bg_backlog_ns" (t.busy_until -. now)
  else
    Clock.advance_to t.clock
      (match t.lat.Latency.kind with Latency.Ssd -> now +. cost | Latency.Hdd -> t.busy_until)

let background_pending t = t.busy_until > Clock.now_ns t.clock

let read_block t blkno =
  check t blkno;
  let pos_cost, sequential = position_cost t blkno in
  t.head <- blkno;
  let xfer =
    if sequential then t.lat.Latency.seq_block_ns else t.lat.Latency.read_block_ns
  in
  access t ~background:false (pos_cost +. xfer);
  t.reads <- t.reads + 1;
  Metrics.add t.c_reads 1;
  match Hashtbl.find_opt t.store blkno with
  | Some b -> Bytes.copy b
  | None -> Bytes.make t.block_size '\000'

let store_write ?pass t blkno data ~sequential =
  t.writes <- t.writes + 1;
  Metrics.add t.c_writes 1;
  if sequential then Metrics.add t.c_seq_writes 1;
  Option.iter
    (fun (writes, seq) ->
      Metrics.add writes 1;
      if sequential then Metrics.add seq 1)
    pass;
  Hashtbl.replace t.store blkno (Bytes.copy data)

let check_size t data what =
  if Bytes.length data <> t.block_size then invalid_arg (what ^ ": wrong block size")

let write_block ?(background = false) t blkno data =
  check t blkno;
  check_size t data "Disk.write_block";
  let cost, sequential = write_cost t blkno in
  t.head <- blkno;
  access t ~background cost;
  store_write ?pass:(if background then Some t.c_bg else None) t blkno data ~sequential

(* Background write-back in idle time that has already passed (foreground
   I/O pre-empts it, as NAND program suspend lets reads do): the write
   occupies [busy_until, + cost] — the start of the gap — and happens
   only when its data existed by then and the whole write ends by now.
   [busy_until] then stays at or before now, so a later foreground
   access starts exactly when it would have.  The head moves as for any
   write, so a run of idle writes to consecutive blocks is sequential.
   SSD only: an HDD cannot suspend a seek, so it has no idle writes. *)
let write_idle t ~not_before blkno data =
  check t blkno;
  let cost, sequential = write_cost t blkno in
  let finish = t.busy_until +. cost in
  if t.lat.Latency.kind <> Latency.Ssd || not_before > t.busy_until
     || finish > Clock.now_ns t.clock
  then false
  else begin
    let data = data () in
    check_size t data "Disk.write_idle";
    t.head <- blkno;
    t.busy_until <- finish;
    store_write ~pass:t.c_idle t blkno data ~sequential;
    true
  end

(* An SSD has no positioning cost, so a random write is the dearest
   write the gap must fit. *)
let idle_fits t =
  t.lat.Latency.kind = Latency.Ssd
  && Clock.now_ns t.clock -. t.busy_until >= t.lat.Latency.write_block_ns

let written_blocks t = Hashtbl.length t.store
let reads t = t.reads
let writes t = t.writes
