(* Regression tests for the commit-path bugs flushed out by the
   crash-space checker, plus a budgeted run of the checker itself.

   Each test pins a specific fix and fails on the pre-fix code:
   - a rejected (too-large) commit must be terminal: the handle moves to
     Finished (so [abort] refuses it) and the cache is untouched, rather
     than being left stuck in Committing;
   - mid-commit revocation must restore the pre-transaction modified
     bit, not leave a clean block marked dirty (which schedules a
     spurious disk write-back at the next flush);
   - a corrupt superblock must fail recovery with a clean diagnostic,
     never [Division_by_zero] out of the layout arithmetic;
   - flushing an already-persisted (clean) cache line must charge only
     the instruction latency, not a medium write-back. *)

module Cache = Tinca_core.Cache
module Pmem = Tinca_pmem.Pmem
module Disk = Tinca_blockdev.Disk
module Check = Tinca_checker.Crash_check
open Tinca_sim

type env = { pmem : Pmem.t; disk : Disk.t; clock : Clock.t; metrics : Metrics.t }

let mk_env ?(pmem_bytes = 160 * 1024) ?(nblocks = 64) () =
  let clock = Clock.create () in
  let metrics = Metrics.create () in
  let pmem = Pmem.create ~clock ~metrics ~tech:Latency.Pcm ~size:pmem_bytes () in
  let disk = Disk.create ~clock ~metrics ~kind:Latency.Ssd ~nblocks ~block_size:4096 in
  { pmem; disk; clock; metrics }

let mk_cache ?(ring_slots = 64) env =
  Cache.format
    ~config:{ Cache.default_config with ring_slots }
    ~pmem:env.pmem ~disk:env.disk ~clock:env.clock ~metrics:env.metrics

(* A commit rejected by admission control must be terminal and leave the
   cache exactly as before: the handle is Finished (abort refuses it),
   nothing was cached, and the cache still commits normal transactions. *)
let test_too_large_rejection_is_terminal () =
  let env = mk_env () in
  let cache = mk_cache env in
  let capacity = Cache.free_blocks cache in
  let h = Cache.Txn.init cache in
  for blk = 0 to capacity + 9 do
    Cache.Txn.add h blk (Bytes.make 4096 'x')
  done;
  Alcotest.check_raises "oversized commit rejected" Cache.Transaction_too_large (fun () ->
      Cache.Txn.commit h);
  Alcotest.(check bool) "rejected handle is finished (abort refuses it)" true
    (try
       Cache.Txn.abort h;
       false
     with Invalid_argument _ -> true);
  Alcotest.(check int) "nothing was cached" 0 (Cache.cached_blocks cache);
  Alcotest.(check int) "no NVM blocks consumed" capacity (Cache.free_blocks cache);
  Cache.check_invariants cache;
  (* The cache must not be stuck mid-commit: a normal commit still works. *)
  Cache.write_direct cache 1 (Bytes.make 4096 'y');
  Alcotest.(check (option bytes)) "subsequent commit lands"
    (Some (Bytes.make 4096 'y'))
    (Cache.peek cache 1);
  Cache.check_invariants cache

(* Revoking a COW write hit on a clean cached block must restore the
   clean modified bit: the block's content rolls back AND no spurious
   disk write-back is scheduled for it.  The block is made a persisted
   clean block (committed, then written back): a read fill has no entry
   and is not a COW write hit. *)
let test_revocation_restores_clean_bit () =
  let env = mk_env () in
  let cache = mk_cache env in
  Cache.write_direct cache 7 (Bytes.make 4096 'a');
  Cache.flush_all cache;
  (* Injected mid-commit failure after the block's COW step, then the
     production revocation path. *)
  let h = Cache.Txn.init cache in
  Cache.Txn.add h 7 (Bytes.make 4096 'b');
  Cache.Txn.commit_prefix h 1;
  Cache.Txn.abort h;
  Cache.check_invariants cache;
  Alcotest.(check (option bytes)) "content rolled back"
    (Some (Bytes.make 4096 'a'))
    (Cache.peek cache 7);
  let writes_before = Disk.writes env.disk in
  Cache.flush_all cache;
  Alcotest.(check int) "no spurious write-back of the clean block" writes_before
    (Disk.writes env.disk)

(* A write to a read-filled block (cached, no entry) is a write miss:
   revoking it drops the block, whose pre-image is the disk copy, and
   writes nothing to disk. *)
let test_revocation_uncaches_fill () =
  let env = mk_env () in
  let cache = mk_cache env in
  Disk.write_block env.disk 7 (Bytes.make 4096 'a');
  ignore (Cache.read cache 7);
  Alcotest.(check bool) "fill cached" true (Cache.contains cache 7);
  let writes_before = Disk.writes env.disk in
  let h = Cache.Txn.init cache in
  Cache.Txn.add h 7 (Bytes.make 4096 'b');
  Cache.Txn.commit_prefix h 1;
  Cache.Txn.abort h;
  Cache.check_invariants cache;
  Alcotest.(check bool) "revoked fill is uncached" false (Cache.contains cache 7);
  Alcotest.(check bytes) "read returns the disk bytes" (Bytes.make 4096 'a') (Cache.read cache 7);
  Cache.flush_all cache;
  Alcotest.(check int) "no disk write" writes_before (Disk.writes env.disk)

(* A dirty pre-state must stay dirty through revocation: the revoked
   block's committed-but-unflushed data still needs its write-back. *)
let test_revocation_keeps_dirty_bit () =
  let env = mk_env () in
  let cache = mk_cache env in
  Cache.write_direct cache 3 (Bytes.make 4096 'a');
  let h = Cache.Txn.init cache in
  Cache.Txn.add h 3 (Bytes.make 4096 'b');
  Cache.Txn.commit_prefix h 1;
  Cache.Txn.abort h;
  Cache.check_invariants cache;
  let writes_before = Disk.writes env.disk in
  Cache.flush_all cache;
  Alcotest.(check int) "committed data still written back" (writes_before + 1)
    (Disk.writes env.disk);
  Alcotest.(check bytes) "disk carries the committed version" (Bytes.make 4096 'a')
    (Disk.read_block env.disk 3)

(* A power failure inside recovery must not lose a committed version.
   Block 3 is committed, then rewritten by a transaction that reached
   the ring (commit_prefix) when power fails, so recovery revokes the
   rewrite.  Recovery is crashed at each of its pmem events in turn
   (all unflushed lines lost); the next recovery must still serve the
   committed version. *)
let test_crash_inside_recovery () =
  let env = mk_env () in
  let cache = mk_cache env in
  let committed = Bytes.make 4096 'a' in
  Cache.write_direct cache 3 committed;
  let h = Cache.Txn.init cache in
  Cache.Txn.add h 3 (Bytes.make 4096 'b');
  Cache.Txn.commit_prefix h 1;
  Pmem.crash ~survival:0.0 env.pmem;
  let crashed = Pmem.snapshot env.pmem in
  let recover () =
    Cache.recover ~pmem:env.pmem ~disk:env.disk ~clock:env.clock ~metrics:env.metrics ()
  in
  let n0 = Pmem.event_count env.pmem in
  Alcotest.(check (option bytes)) "one recovery" (Some committed) (Cache.peek (recover ()) 3);
  let span = Pmem.event_count env.pmem - n0 in
  Alcotest.(check bool) "recovery makes pmem events" true (span > 0);
  for k = 1 to span do
    Pmem.restore env.pmem crashed;
    Pmem.set_crash_countdown env.pmem (Some k);
    (match recover () with
    | _ -> Alcotest.failf "countdown %d did not fire within recovery's %d events" k span
    | exception Pmem.Crash_point -> ());
    Pmem.crash ~survival:0.0 env.pmem;
    let r = recover () in
    Cache.check_invariants r;
    match Cache.peek r 3 with
    | Some d when Bytes.equal d committed -> ()
    | got ->
        let got =
          match got with None -> "from disk" | Some d -> Printf.sprintf "%C" (Bytes.get d 0)
        in
        Alcotest.failf "recovery crashed at event %d of %d: block 3 then reads %s" k span got
  done

let contains_substring msg fragment =
  let n = String.length msg and m = String.length fragment in
  let rec at i = i + m <= n && (String.sub msg i m = fragment || at (i + 1)) in
  at 0

let recover_fails_with env fragment =
  match
    Cache.recover ~pmem:env.pmem ~disk:env.disk ~clock:env.clock ~metrics:env.metrics ()
  with
  | exception Cache.Corrupt msg ->
      Alcotest.(check bool)
        (Printf.sprintf "diagnostic %S mentions %S" msg fragment)
        true (contains_substring msg fragment)
  | exception e ->
      Alcotest.failf "expected a typed Cache.Corrupt, got %s" (Printexc.to_string e)
  | _ -> Alcotest.fail "recovery accepted corrupt media"

(* Zeroed geometry in an otherwise valid superblock must surface as a
   clean "corrupt superblock" failure, not Division_by_zero out of
   Layout.compute's alignment arithmetic. *)
let test_corrupt_superblock_block_size () =
  let env = mk_env () in
  let cache = mk_cache env in
  Cache.write_direct cache 1 (Bytes.make 4096 'x');
  (* Zero the stored block_size (u32 at offset 8). *)
  Pmem.write env.pmem ~off:8 (Bytes.make 4 '\000');
  Pmem.persist env.pmem ~off:0 ~len:64;
  recover_fails_with env "corrupt superblock"

(* Geometry that cannot fit the device (huge ring) must also fail
   cleanly, before any layout arithmetic runs off the device's end. *)
let test_corrupt_superblock_geometry () =
  let env = mk_env () in
  let cache = mk_cache env in
  Cache.write_direct cache 1 (Bytes.make 4096 'x');
  (* Stored ring_slots (u32 at offset 12) := 2^24 slots = 128 MB ring. *)
  let b = Bytes.make 4 '\000' in
  Bytes.set b 3 '\001';
  Pmem.write env.pmem ~off:12 b;
  Pmem.persist env.pmem ~off:0 ~len:64;
  recover_fails_with env "corrupt superblock"

(* One flipped bit in bytes 4-7 of the persistent Head word used to send
   recovery's ring scan over billions of slots until the process ran out
   of memory; the pointers are now bounded first. *)
let test_head_bit_flip_is_corrupt () =
  for byte = 4 to 7 do
    for bit = 0 to 7 do
      let env = mk_env () in
      let cache = mk_cache env in
      for i = 1 to 3 do
        Cache.write_direct cache i (Bytes.make 4096 'h')
      done;
      let off = (Cache.layout cache).Tinca_core.Layout.head_off + byte in
      let b = Pmem.read env.pmem ~off ~len:1 in
      Bytes.set b 0 (Char.chr (Char.code (Bytes.get b 0) lxor (1 lsl bit)));
      Pmem.write env.pmem ~off b;
      Pmem.persist env.pmem ~off ~len:1;
      recover_fails_with env "Head"
    done
  done

(* The slot and decoded entry of cached block [blkno]. *)
let entry_of env cache blkno =
  let layout = Cache.layout cache in
  let rec find i =
    if i >= layout.Tinca_core.Layout.nblocks then Alcotest.failf "no entry for block %d" blkno
    else
      let off = Tinca_core.Layout.entry_off layout i in
      let e = Tinca_core.Entry.decode (Pmem.read env.pmem ~off ~len:Tinca_core.Entry.size) in
      if e.Tinca_core.Entry.valid && e.Tinca_core.Entry.disk_blkno = blkno then (off, e) else find (i + 1)
  in
  find 0

(* Overwrite the u32 at [off] durably. *)
let poke_u32 env ~off v =
  let b = Bytes.create 4 in
  Tinca_util.Codec.set_u32 b 0 v;
  Pmem.write env.pmem ~off b;
  Pmem.persist env.pmem ~off ~len:4

(* Recovery through the facade on mutated media: [Error] or [Ok], never
   an exception; [`Error] demands the typed corruption result. *)
let facade_recover env ~expect what =
  match Tinca.recover ~pmem:env.pmem ~disk:env.disk ~clock:env.clock ~metrics:env.metrics with
  | Error (Tinca.Unformatted _) -> ()
  | Error e -> Alcotest.failf "%s: unexpected error %s" what (Tinca.error_message e)
  | Ok _ when expect = `Any -> ()
  | Ok _ -> Alcotest.failf "%s: recovery accepted corrupt media" what
  | exception e -> Alcotest.failf "%s: recovery raised %s" what (Printexc.to_string e)

(* A committed buffer-role entry (blocks 1-3), then an in-flight COW
   entry of block 7 in log role with a previous version.  [f] gets the
   fresh media, the cache and both entries' offsets and decodings. *)
let with_entry_media f =
  let env = mk_env () in
  let cache = mk_cache env in
  for i = 1 to 3 do
    Cache.write_direct cache i (Bytes.make 4096 'c')
  done;
  Cache.write_direct cache 7 (Bytes.make 4096 'a');
  let h = Cache.Txn.init cache in
  Cache.Txn.add h 7 (Bytes.make 4096 'b');
  Cache.Txn.commit_prefix h 1;
  let committed = entry_of env cache 2 and in_flight = entry_of env cache 7 in
  f env cache ~committed ~in_flight

(* A flipped bit in an entry's frame fields used to reach the frame
   cache's free monitors and raise Invalid_argument ("index out of
   range", "mark_used: already used"); recovery now bounds every frame
   number, refuses a frame claimed twice and returns the typed error. *)
let test_entry_frame_flips_are_corrupt () =
  let module E = Tinca_core.Entry in
  let nblocks =
    with_entry_media (fun _ cache ~committed:_ ~in_flight:(_, e) ->
        Alcotest.(check bool) "in-flight entry is log role" true (e.E.role = E.Log);
        Alcotest.(check bool) "in-flight entry has a previous version" true (e.E.prev <> None);
        (Cache.layout cache).Tinca_core.Layout.nblocks)
  in
  (* Bits at or above the frame count's top bit always leave the range. *)
  let rec width n = if n = 0 then 0 else 1 + width (n lsr 1) in
  for bit = 0 to 31 do
    let flip field ~entry ~expect =
      with_entry_media (fun env _ ~committed ~in_flight ->
          let off, e = if entry = `Committed then committed else in_flight in
          let field_off, v =
            match field with
            | `Cur -> (12, e.E.cur)
            | `Prev -> (8, match e.E.prev with Some p -> p | None -> E.fresh)
          in
          poke_u32 env ~off:(off + field_off) (v lxor (1 lsl bit));
          facade_recover env ~expect (Printf.sprintf "bit %d" bit))
    in
    let expect = if bit >= width nblocks then `Error else `Any in
    flip `Cur ~entry:`Committed ~expect;
    flip `Cur ~entry:`In_flight ~expect;
    flip `Prev ~entry:`In_flight ~expect;
    (* A committed entry's previous version is stale and never read. *)
    flip `Prev ~entry:`Committed ~expect:`Any
  done;
  (* In-range frames claimed twice: two entries on one frame, and an
     in-flight entry whose previous version is its current one. *)
  with_entry_media (fun env _ ~committed:(off, _) ~in_flight:(_, e) ->
      poke_u32 env ~off:(off + 12) e.E.cur;
      facade_recover env ~expect:`Error "two entries on one frame");
  with_entry_media (fun env _ ~committed:_ ~in_flight:(off, e) ->
      poke_u32 env ~off:(off + 8) e.E.cur;
      facade_recover env ~expect:`Error "prev = cur")

(* Paging's epoch word beyond the int range used to escape as
   Pmem.read_u64_int's Invalid_argument.  Every bit of the word is
   flipped in turn: none may raise, and the top two must be typed. *)
let test_paging_epoch_flips_are_corrupt () =
  let module Paging = Tinca_core.Paging in
  let module Shard = Tinca_core.Shard in
  for bit = 0 to 63 do
    let env = mk_env ~pmem_bytes:(256 * 1024) () in
    let pg =
      Shard.format ~nshards:1 ~config:(Shard.Paging Paging.default_config) ~pmem:env.pmem
        ~disk:env.disk ~clock:env.clock ~metrics:env.metrics
    in
    for i = 1 to 3 do
      Shard.write_direct pg i (Bytes.make 4096 'p')
    done;
    let off = (List.hd (Shard.page_layouts pg)).Paging.r_epoch_off in
    let w = Pmem.read_u64 env.pmem ~off in
    let b = Bytes.create 8 in
    Bytes.set_int64_le b 0 (Int64.logxor w (Int64.shift_left 1L bit));
    Pmem.write env.pmem ~off b;
    Pmem.persist env.pmem ~off ~len:8;
    facade_recover env ~expect:(if bit >= 62 then `Error else `Any) (Printf.sprintf "epoch bit %d" bit)
  done

(* Flip [bit] of the u64 at [off], durably. *)
let flip_u64 env ~off bit =
  let b = Bytes.create 8 in
  Bytes.set_int64_le b 0 (Int64.logxor (Pmem.read_u64 env.pmem ~off) (Int64.shift_left 1L bit));
  Pmem.write env.pmem ~off b;
  Pmem.persist env.pmem ~off ~len:8

(* The words sharded recovery reads before it trusts anything: the
   directory's seal word (offset 64 under both engines) and, under
   logging with a durable seal, the Head and Tail words that
   roll-forward reads for every shard the seal names.  Every bit of each
   is flipped in turn at N = 2 and N = 4: recovery returns [Ok] or
   [Error] and never raises, and a flip that leaves a word outside the
   int range, names a shard that does not exist or moves a pointer by
   2^32 or more is typed corruption. *)
let test_sharded_recovery_word_flips () =
  let seal_off = 64 in
  List.iter
    (fun (scheme, nshards) ->
      let env = mk_env ~pmem_bytes:(512 * 1024) () in
      let config =
        match Tinca.Config.of_args ~scheme ~shards:nshards ~ring_slots:64 () with
        | Ok c -> c
        | Error m -> Alcotest.fail m
      in
      let tc =
        Tinca.ok_exn
          (Tinca.format ~config ~pmem:env.pmem ~disk:env.disk ~clock:env.clock
             ~metrics:env.metrics)
      in
      let h = Tinca.init_txn tc in
      for blk = 0 to 7 do
        Tinca.ok_exn (Tinca.write h blk (Bytes.make 4096 'w'))
      done;
      Tinca.ok_exn (Tinca.commit h);
      let pointers =
        if scheme = "paging" then []
        else begin
          (* A durable seal naming every shard, as after a crash between
             the seal and its retirement, so recovery rolls forward. *)
          let b = Bytes.create 8 in
          Bytes.set_int64_le b 0 (Int64.of_int ((((1 lsl nshards) - 1) lsl 32) lor 1));
          Pmem.write env.pmem ~off:seal_off b;
          Pmem.persist env.pmem ~off:seal_off ~len:8;
          List.concat_map
            (fun l -> [ ("Head", l.Tinca_core.Layout.head_off); ("Tail", l.Tinca_core.Layout.tail_off) ])
            (Tinca.layouts tc)
        end
      in
      let image = Pmem.snapshot env.pmem in
      let flip what ~off ~error_from =
        for bit = 0 to 63 do
          Pmem.restore env.pmem image;
          flip_u64 env ~off bit;
          facade_recover env
            ~expect:(if bit >= error_from then `Error else `Any)
            (Printf.sprintf "%s N=%d: %s bit %d" scheme nshards what bit)
        done
      in
      flip "seal" ~off:seal_off ~error_from:(32 + nshards);
      List.iter (fun (what, off) -> flip what ~off ~error_from:32) pointers)
    [ ("logging", 2); ("logging", 4); ("paging", 2); ("paging", 4) ]

(* A facade over [scheme] at [nshards] with ten one-block commits, and
   the image after them. *)
let committed_media ~scheme ~nshards ~blocks =
  let env = mk_env ~pmem_bytes:(256 * 1024) () in
  let config =
    match Tinca.Config.of_args ~scheme ~shards:nshards ~ring_slots:64 () with
    | Ok c -> c
    | Error m -> Alcotest.fail m
  in
  let tc =
    Tinca.ok_exn
      (Tinca.format ~config ~pmem:env.pmem ~disk:env.disk ~clock:env.clock ~metrics:env.metrics)
  in
  for blk = 1 to blocks do
    Tinca.ok_exn (Tinca.write_direct tc blk (Bytes.make 4096 (Char.chr (0x40 + blk))))
  done;
  (env, tc, Pmem.snapshot env.pmem)

(* Paging's geometry words — the superblock's block size, frame count
   and flight-slot count, and the directory's shard count — used to
   reach the layout arithmetic unchecked and escape as Invalid_argument
   ("region too small", "block_size must be a positive multiple of
   64").  Every bit of them is flipped in turn, at N = 1 and at N = 2
   (shard 0's superblock): recovery returns [Ok] or a typed
   [Unformatted], never raises. *)
let test_paging_geometry_flips_are_typed () =
  List.iter
    (fun (nshards, words) ->
      let env, _, image = committed_media ~scheme:"paging" ~nshards ~blocks:10 in
      let typed = ref 0 in
      List.iter
        (fun (what, off, bits) ->
          for bit = 0 to bits - 1 do
            Pmem.restore env.pmem image;
            flip_u64 env ~off bit;
            match
              Tinca.recover ~pmem:env.pmem ~disk:env.disk ~clock:env.clock ~metrics:env.metrics
            with
            | Error (Tinca.Unformatted _) -> incr typed
            | Error e -> Alcotest.failf "N=%d %s bit %d: %s" nshards what bit (Tinca.error_message e)
            | Ok _ -> ()
            | exception e ->
                Alcotest.failf "N=%d %s bit %d: recovery raised %s" nshards what bit
                  (Printexc.to_string e)
          done)
        words;
      Alcotest.(check bool) (Printf.sprintf "N=%d: flips are refused" nshards) true (!typed > 0))
    [
      (1, [ ("block size + frame count", 8, 64); ("flight slots", 16, 32) ]);
      ( 2,
        [
          ("shard count", 8, 32);
          ("shard 0 block size + frame count", 136, 64);
          ("shard 0 flight slots", 144, 32);
        ] );
    ]

(* A paging table slot names its new frame in bytes 4-6 and its old
   frame in bytes 1-3.  A flipped bit that names a frame another slot
   already holds used to pass the table scan and raise Invalid_argument
   ("Free_monitor.mark_used: already used") when the frame cache claimed
   it, after roll-forward had written.  Every bit of both fields of
   every valid slot is flipped in turn, at N = 1 and N = 2: recovery
   returns a typed [Unformatted], or [Ok] with a clean audit and a
   write-back ([Tinca.sync]) that does not raise. *)
let test_paging_frame_flips_are_typed () =
  List.iter
    (fun nshards ->
      let env, tc, image = committed_media ~scheme:"paging" ~nshards ~blocks:10 in
      let slots =
        List.concat_map
          (fun (l : Tinca_core.Paging.region_layout) ->
            List.filter
              (fun off -> Char.code (Bytes.get (Pmem.read env.pmem ~off ~len:1) 0) land 1 = 1)
              (List.init (l.r_table_bytes / 16) (fun i -> l.r_table_off + (i * 16))))
          (Tinca.page_layouts tc)
      in
      Alcotest.(check bool) (Printf.sprintf "N=%d: valid slots" nshards) true (slots <> []);
      let typed = ref 0 in
      List.iter
        (fun off ->
          for bit = 8 to 55 do
            Pmem.restore env.pmem image;
            flip_u64 env ~off bit;
            let what = Printf.sprintf "N=%d slot @%d bit %d" nshards off bit in
            match
              Tinca.recover ~pmem:env.pmem ~disk:env.disk ~clock:env.clock ~metrics:env.metrics
            with
            | Error (Tinca.Unformatted _) -> incr typed
            | Error e -> Alcotest.failf "%s: %s" what (Tinca.error_message e)
            | Ok tc -> (
                match
                  Tinca.check_invariants tc;
                  Tinca.sync tc
                with
                | () -> ()
                | exception e -> Alcotest.failf "%s: audit or write-back raised %s" what (Printexc.to_string e))
            | exception e -> Alcotest.failf "%s: recovery raised %s" what (Printexc.to_string e)
          done)
        slots;
      Alcotest.(check bool) (Printf.sprintf "N=%d: flips are refused" nshards) true (!typed > 0))
    [ 1; 2 ]

(* Logging's entries name their disk block in bytes 1-7.  A flipped bit
   there used to recover [Ok] and raise Invalid_argument ("Disk: block
   ... out of range") at the first write-back.  Every bit of those bytes
   of every valid entry is flipped in turn: recovery returns a typed
   [Unformatted], or [Ok] with a write-back ([Tinca.sync]) that does not
   raise. *)
let test_entry_blkno_flips_are_typed () =
  let env, tc, image = committed_media ~scheme:"logging" ~nshards:1 ~blocks:16 in
  let layout = List.hd (Tinca.layouts tc) in
  let entries =
    List.filter
      (fun i ->
        let off = Tinca_core.Layout.entry_off layout i in
        (Tinca_core.Entry.decode (Pmem.read env.pmem ~off ~len:Tinca_core.Entry.size))
          .Tinca_core.Entry.valid)
      (List.init layout.Tinca_core.Layout.nblocks Fun.id)
  in
  Alcotest.(check int) "valid entries" 16 (List.length entries);
  let typed = ref 0 in
  List.iter
    (fun i ->
      let off = Tinca_core.Layout.entry_off layout i in
      for bit = 8 to 63 do
        Pmem.restore env.pmem image;
        flip_u64 env ~off bit;
        match
          Tinca.recover ~pmem:env.pmem ~disk:env.disk ~clock:env.clock ~metrics:env.metrics
        with
        | Error (Tinca.Unformatted _) -> incr typed
        | Error e -> Alcotest.failf "entry %d bit %d: %s" i bit (Tinca.error_message e)
        | Ok tc -> (
            match Tinca.sync tc with
            | () -> ()
            | exception e ->
                Alcotest.failf "entry %d bit %d: write-back raised %s" i bit (Printexc.to_string e))
        | exception e ->
            Alcotest.failf "entry %d bit %d: recovery raised %s" i bit (Printexc.to_string e)
      done)
    entries;
  Alcotest.(check bool) "flips beyond the disk are refused" true (!typed >= 16 * 48)

let test_unformatted_media () =
  let env = mk_env () in
  recover_fails_with env "unformatted"

(* Recovery reads each line of its table scan once.  On a freshly
   formatted device the ring range is empty, so recovery reads its
   header lines (superblock, Head and Tail for a logging cache;
   superblock and epoch word for a paging region) plus the table,
   charged as whole lines of four 16 B entries. *)
let lines_of bytes = (bytes + 63) / 64

let read_lines_during env f =
  let before = Metrics.get env.metrics "pmem.read_lines" in
  ignore (f ());
  Metrics.get env.metrics "pmem.read_lines" - before

let test_logging_recovery_reads_each_line_once () =
  let env = mk_env () in
  let cache = mk_cache env in
  let layout = Cache.layout cache in
  let table = lines_of (layout.Tinca_core.Layout.nblocks * Tinca_core.Entry.size) in
  let header = 3 in
  Alcotest.(check int) "header + table lines" (header + table)
    (read_lines_during env (fun () ->
         Cache.recover ~pmem:env.pmem ~disk:env.disk ~clock:env.clock ~metrics:env.metrics ()))

(* One region's recovery: its superblock, its epoch word and each table
   line once (the media sniff belongs to Shard.recover). *)
let test_paging_recovery_reads_each_line_once () =
  let module Paging = Tinca_core.Paging in
  let env = mk_env () in
  let span = Pmem.size env.pmem in
  let pg =
    Paging.create ~id:0 ~base:0 ~span ~config:Paging.default_config ~pmem:env.pmem ~disk:env.disk
      ~clock:env.clock ~metrics:env.metrics
  in
  let ranges = Paging.format pg in
  Pmem.flush_ranges env.pmem ranges;
  Pmem.sfence env.pmem;
  let table = lines_of (Paging.layout pg).Paging.r_table_bytes in
  let header = 2 in
  Alcotest.(check int) "header + table lines" (header + table)
    (read_lines_during env (fun () ->
         let r =
           Paging.attach ~id:0 ~base:0 ~span ~pmem:env.pmem ~disk:env.disk ~clock:env.clock
             ~metrics:env.metrics ()
         in
         Paging.recover r ~owns:(fun _ -> true) ~roll_forward:false))

(* clflush of an already-persisted line: the instruction is issued (and
   counted) but starts no medium write-back, so it must be cheaper than
   flushing a dirty line and must not bump the write-back counter. *)
let test_clean_clflush_charges_no_writeback () =
  let env = mk_env () in
  Pmem.write env.pmem ~off:0 (Bytes.make 64 'x');
  let t0 = Clock.now_ns env.clock in
  Pmem.persist env.pmem ~off:0 ~len:64;
  let dirty_cost = Clock.now_ns env.clock -. t0 in
  let flushes = Metrics.get env.metrics "pmem.clflush" in
  let writebacks = Metrics.get env.metrics "pmem.clflush_writebacks" in
  let t1 = Clock.now_ns env.clock in
  Pmem.persist env.pmem ~off:0 ~len:64 (* the line is clean now *);
  let clean_cost = Clock.now_ns env.clock -. t1 in
  Alcotest.(check int) "flush still issued" (flushes + 1)
    (Metrics.get env.metrics "pmem.clflush");
  Alcotest.(check int) "no write-back started" writebacks
    (Metrics.get env.metrics "pmem.clflush_writebacks");
  Alcotest.(check bool)
    (Printf.sprintf "clean flush (%.0f ns) cheaper than dirty flush (%.0f ns)" clean_cost
       dirty_cost)
    true (clean_cost < dirty_cost)

(* Budgeted run of the exhaustive crash-space checker: every crash point
   of a 2-commit workload, every survival subset of the torn lines up to
   the cap.  The full 6-commit sweep is `make check-crash`. *)
let test_crash_space_quick () =
  let cfg = { Check.default_config with Check.ncommits = 2; Check.masks = Check.Capped 48 } in
  let r = Check.explore cfg in
  Alcotest.(check bool) "workload produced events" true (r.Check.span > 0);
  Alcotest.(check int) "every crash point explored" r.Check.span r.Check.crash_points;
  Alcotest.(check bool) "multiple post-crash states per crash point" true
    (r.Check.states_checked > r.Check.crash_points);
  (match r.Check.violations with
  | [] -> ()
  | v :: _ ->
      Alcotest.failf "crash-space violation (of %d): %a" (List.length r.Check.violations)
        Check.pp_violation v);
  Alcotest.(check int) "no violations" 0 (List.length r.Check.violations)

(* The lockstep refinement harness's headline sensitivity guarantee,
   pinned as a regression: skipping the cross-shard seal (the bug class
   the seal exists to prevent) is invisible to a crash-free run but
   must be caught by spec refinement over the crash space at N=2, on
   the known 4-command minimal reproducer.  A clean run of the same
   sequence must stay clean (no false positive). *)
let test_skip_seal_caught_by_refinement () =
  let module L = Tinca_checker.Lockstep in
  let module Check = Tinca_checker.Crash_check in
  let g = { L.default_geometry with L.nshards = 2 } in
  let cmds = [| L.Begin; L.Write (34, 86); L.Write (23, 108); L.Commit |] in
  (match L.run ~mutate:L.Skip_seal g cmds with
  | Ok _ -> ()
  | Error d ->
      Alcotest.failf "seal skip visible without a crash: %s"
        (Format.asprintf "%a" L.pp_divergence d));
  let clean = L.crash_refine ~cap:16 g cmds in
  Alcotest.(check int) "unmutated run refines the spec" 0
    (List.length clean.Check.violations);
  let mutated = L.crash_refine ~mutate:L.Skip_seal ~cap:16 g cmds in
  Alcotest.(check bool) "skipped seal caught as a refinement violation" true
    (mutated.Check.violations <> [])

(* A sweep whose first crash point lies past the workload's span used to
   explore 0 crash points and still pass (and the CLI printed "coverage:
   exhaustive").  Both drivers must now refuse it as misconfiguration. *)
let test_sweep_past_span_rejected () =
  let module FCheck = Tinca_checker.Flight_check in
  let rejects name driver cfg =
    match Check.explore ?driver { cfg with Check.first_event = 100_000 } with
    | r -> Alcotest.failf "%s: sweep past the span passed after %d crash points" name r.Check.crash_points
    | exception Invalid_argument _ -> ()
  in
  rejects "default driver" None { Check.default_config with Check.ncommits = 1 };
  let cfg = FCheck.default_config in
  rejects "flight driver" (Some (fst (FCheck.driver cfg))) cfg

(* Exact reports of small sweeps: a change to what any sweep explores
   must show here.  The default and lockstep spans count 5 events fewer
   per read fill than when a fill persisted its data and entry (1 store
   instead of store, flush, fence, entry write, flush, fence): 1 fill in
   the default workload, 7 in the lockstep sequence. *)
let check_counts name r ~span ~points ~states ~deduped ~capped ~torn =
  let pin what = Alcotest.(check int) (Printf.sprintf "%s: %s" name what) in
  pin "span" span r.Check.span;
  pin "crash points" points r.Check.crash_points;
  pin "states checked" states r.Check.states_checked;
  pin "states deduped" deduped r.Check.states_deduped;
  pin "capped points" capped r.Check.capped_points;
  pin "max torn lines" torn r.Check.max_torn_lines;
  pin "violations" 0 (List.length r.Check.violations)

let test_default_sweep_counts_pinned () =
  let r =
    Check.explore
      { Check.default_config with Check.ncommits = 2; masks = Check.Capped 8; stride = 7 }
  in
  check_counts "default driver" r ~span:367 ~points:53 ~states:385 ~deduped:0 ~capped:47 ~torn:194

let test_flight_sweep_counts_pinned () =
  let module FCheck = Tinca_checker.Flight_check in
  let cfg = { FCheck.default_config with Check.stride = 23 } in
  let driver, counts = FCheck.driver cfg in
  let r = Check.explore ~driver cfg in
  check_counts "flight driver" r ~span:877 ~points:39 ~states:145 ~deduped:3 ~capped:35 ~torn:455;
  Alcotest.(check int) "dossiers built" 123 counts.FCheck.dossiers_built;
  Alcotest.(check int) "records replayed" 739 counts.FCheck.records_replayed

(* Fills, evictions under read pressure, then writes to filled blocks,
   judged by the prefix oracle at every crash point. *)
let test_read_miss_sweep_counts_pinned () =
  let cfg = Check.read_miss_config in
  let r = Check.explore ~driver:(Check.read_miss_driver cfg) cfg in
  check_counts "read-miss driver" r ~span:539 ~points:539 ~states:2153 ~deduped:0 ~capped:538
    ~torn:834

(* Blocks a crash-free run of [driver] cleaned, split into the pressure
   pass's (each one queued background write, so one backlog sample) and
   the idle pass's. *)
let cleaned_by_pass driver cfg =
  let env = Check.run_crash_free driver cfg in
  let m = env.Check.metrics in
  let pressure =
    match Metrics.hist m "disk.bg_backlog_ns" with Some h -> Tinca_sim.Hist.count h | None -> 0
  in
  (pressure, Metrics.get m "tinca.cleaned" - pressure)

(* Both cleaner passes fire in the driver's crash-free run, and the
   sweep over it is pinned like the others. *)
let test_cleaner_sweep_counts_pinned () =
  let cfg = Check.read_miss_config in
  let driver = Check.cleaner_driver cfg in
  let pressure, idle = cleaned_by_pass driver cfg in
  Alcotest.(check int) "blocks cleaned by the pressure pass" 13 pressure;
  Alcotest.(check int) "blocks cleaned by the idle pass" 8 idle;
  let r = Check.explore ~driver cfg in
  check_counts "cleaner driver" r ~span:1624 ~points:1624 ~states:6426 ~deduped:0 ~capped:1595
    ~torn:834

(* The same with a sealed transaction standing in a group window while
   a read runs the cleaner. *)
let test_group_cleaner_sweep_counts_pinned () =
  let cfg = Check.read_miss_config in
  let driver = Check.group_cleaner_driver cfg in
  let pressure, idle = cleaned_by_pass driver cfg in
  Alcotest.(check int) "blocks cleaned by the pressure pass" 0 pressure;
  Alcotest.(check int) "blocks cleaned by the idle pass" 5 idle;
  let r = Check.explore ~driver cfg in
  check_counts "group cleaner driver" r ~span:712 ~points:712 ~states:2778 ~deduped:0 ~capped:683
    ~torn:833

(* A block rewritten a line at a time: the second commit keeps the
   replaced frame as a spare, the third COWs into it and stores only the
   two changed lines, and every version reads back whole.  The shadow
   audit in [check_invariants] passes, and fails once a line no commit
   changed is corrupted in every data frame.  A crash drops the spares:
   recovery serves the last commit from the entry table alone. *)
let test_partial_writes () =
  let env = mk_env () in
  let cache = mk_cache env in
  let edit v line c =
    let v = Bytes.copy v in
    Bytes.fill v (line * 64) 64 c;
    v
  in
  let v0 = Bytes.make 4096 'a' in
  let v1 = edit v0 5 'b' in
  let v2 = edit v1 9 'c' in
  let stored f =
    let n0 = Metrics.get env.metrics "pmem.store_lines" in
    f ();
    Metrics.get env.metrics "pmem.store_lines" - n0
  in
  Cache.write_direct cache 3 v0;
  let whole = stored (fun () -> Cache.write_direct cache 3 v1) in
  Alcotest.(check int) "one spare" 1 (Cache.stats cache).Cache.spares;
  let partial = stored (fun () -> Cache.write_direct cache 3 v2) in
  Alcotest.(check int) "lines skipped" 62 (Metrics.get env.metrics "cache.cow_lines_skipped");
  Alcotest.(check int) "lines stored: 62 fewer than a whole block" 62 (whole - partial);
  Alcotest.(check (option bytes)) "reads the new version" (Some v2) (Cache.peek cache 3);
  Cache.check_invariants cache;
  let snap = Pmem.snapshot env.pmem in
  let l = Cache.layout cache in
  for f = 0 to l.Tinca_core.Layout.nblocks - 1 do
    Pmem.write env.pmem ~off:(l.Tinca_core.Layout.data_off + (f * 4096) + (30 * 64)) (Bytes.make 1 'z')
  done;
  Alcotest.(check bool) "a corrupted frame fails the audit" true
    (try
       Cache.check_invariants cache;
       false
     with Cache.Invariant_violation _ -> true);
  Pmem.restore env.pmem snap;
  Cache.check_invariants cache;
  Pmem.crash env.pmem;
  let r = Cache.recover ~pmem:env.pmem ~disk:env.disk ~clock:env.clock ~metrics:env.metrics () in
  Alcotest.(check (option bytes)) "recovered version" (Some v2) (Cache.peek r 3);
  Alcotest.(check int) "no spare after recovery" 0 (Cache.stats r).Cache.spares;
  Cache.check_invariants r

(* Partial COW writes: the crash-free run writes into spares (lines
   skipped), and the per-block sweep, which also covers a mid-commit
   abort, is pinned like the others. *)
let test_partial_sweep_counts_pinned () =
  let cfg = { Check.read_miss_config with Check.scheme = Tinca.Config.Logging Tinca.Per_block } in
  let driver = Check.partial_driver cfg in
  let env = Check.run_crash_free driver cfg in
  Alcotest.(check int) "lines skipped" 250 (Metrics.get env.Check.metrics "cache.cow_lines_skipped");
  let r = Check.explore ~driver cfg in
  check_counts "partial-write driver" r ~span:222 ~points:222 ~states:505 ~deduped:0 ~capped:58
    ~torn:768

let test_crash_refine_counts_pinned () =
  let module L = Tinca_checker.Lockstep in
  let g = { L.default_geometry with L.nshards = 2 } in
  let r = L.crash_refine ~cap:16 ~stride:3 g (L.gen ~seed:2 ~len:14 ~universe:g.L.universe) in
  check_counts "lockstep driver" r ~span:167 ~points:56 ~states:739 ~deduped:0 ~capped:45 ~torn:65

let suite =
  [
    ( "core.commit_path_fixes",
      [
        Alcotest.test_case "too-large rejection is terminal" `Quick
          test_too_large_rejection_is_terminal;
        Alcotest.test_case "revocation restores clean bit" `Quick
          test_revocation_restores_clean_bit;
        Alcotest.test_case "revocation uncaches a read fill" `Quick test_revocation_uncaches_fill;
        Alcotest.test_case "revocation keeps dirty bit" `Quick test_revocation_keeps_dirty_bit;
        Alcotest.test_case "crash inside recovery keeps the committed version" `Quick
          test_crash_inside_recovery;
        Alcotest.test_case "partial writes into a spare frame" `Quick test_partial_writes;
        Alcotest.test_case "corrupt superblock: zero block size" `Quick
          test_corrupt_superblock_block_size;
        Alcotest.test_case "corrupt superblock: oversized ring" `Quick
          test_corrupt_superblock_geometry;
        Alcotest.test_case "unformatted media" `Quick test_unformatted_media;
        Alcotest.test_case "Head bit flip is typed corruption" `Quick
          test_head_bit_flip_is_corrupt;
        Alcotest.test_case "entry frame flips are typed corruption" `Quick
          test_entry_frame_flips_are_corrupt;
        Alcotest.test_case "paging epoch flips are typed corruption" `Quick
          test_paging_epoch_flips_are_corrupt;
        Alcotest.test_case "sharded recovery word flips are typed" `Quick
          test_sharded_recovery_word_flips;
        Alcotest.test_case "paging geometry flips are typed" `Quick
          test_paging_geometry_flips_are_typed;
        Alcotest.test_case "entry block-number flips are typed" `Quick
          test_entry_blkno_flips_are_typed;
        Alcotest.test_case "paging frame flips are typed" `Quick test_paging_frame_flips_are_typed;
        Alcotest.test_case "logging recovery reads each line once" `Quick
          test_logging_recovery_reads_each_line_once;
        Alcotest.test_case "paging recovery reads each line once" `Quick
          test_paging_recovery_reads_each_line_once;
        Alcotest.test_case "clean clflush charges no write-back" `Quick
          test_clean_clflush_charges_no_writeback;
      ] );
    ( "check.crash_space",
      [ Alcotest.test_case "budgeted exhaustive sweep" `Quick test_crash_space_quick ] );
    ( "check.refinement_regressions",
      [
        Alcotest.test_case "skipped seal caught by spec refinement" `Quick
          test_skip_seal_caught_by_refinement;
      ] );
    ( "check.exploration_pins",
      [
        Alcotest.test_case "sweep past the span is rejected" `Quick test_sweep_past_span_rejected;
        Alcotest.test_case "default driver counts pinned" `Quick test_default_sweep_counts_pinned;
        Alcotest.test_case "flight driver counts pinned" `Quick test_flight_sweep_counts_pinned;
        Alcotest.test_case "crash refinement counts pinned" `Quick test_crash_refine_counts_pinned;
        Alcotest.test_case "read-miss driver counts pinned" `Quick
          test_read_miss_sweep_counts_pinned;
        Alcotest.test_case "cleaner driver counts pinned" `Quick test_cleaner_sweep_counts_pinned;
        Alcotest.test_case "group cleaner driver counts pinned" `Quick
          test_group_cleaner_sweep_counts_pinned;
        Alcotest.test_case "partial-write driver counts pinned" `Quick
          test_partial_sweep_counts_pinned;
      ] );
  ]
