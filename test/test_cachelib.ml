(* Tests for the LRU list and free-block monitor, including model-based
   property tests against reference implementations. *)
module Lru = Tinca_cachelib.Lru
module Fm = Tinca_cachelib.Free_monitor

let test_lru_order () =
  let t = Lru.create () in
  let _a = Lru.push_mru t "a" in
  let _b = Lru.push_mru t "b" in
  let _c = Lru.push_mru t "c" in
  Alcotest.(check (list string)) "lru first" [ "a"; "b"; "c" ] (Lru.to_list_lru_first t)

let test_lru_touch () =
  let t = Lru.create () in
  let a = Lru.push_mru t "a" in
  let _b = Lru.push_mru t "b" in
  Lru.touch t a;
  Alcotest.(check (list string)) "a promoted" [ "b"; "a" ] (Lru.to_list_lru_first t)

let test_lru_remove () =
  let t = Lru.create () in
  let _a = Lru.push_mru t "a" in
  let b = Lru.push_mru t "b" in
  let _c = Lru.push_mru t "c" in
  Lru.remove t b;
  Alcotest.(check (list string)) "b gone" [ "a"; "c" ] (Lru.to_list_lru_first t);
  Alcotest.(check int) "length" 2 (Lru.length t);
  Alcotest.(check bool) "double remove rejected" true
    (try
       Lru.remove t b;
       false
     with Invalid_argument _ -> true)

let test_lru_endpoints () =
  let t = Lru.create () in
  Alcotest.(check bool) "empty lru" true (Lru.lru t = None);
  let a = Lru.push_mru t 1 in
  let c = Lru.push_mru t 3 in
  Alcotest.(check int) "lru end" 1 (Lru.value (Option.get (Lru.lru t)));
  Alcotest.(check int) "mru end" 3 (Lru.value (Option.get (Lru.mru t)));
  ignore a;
  ignore c

let test_lru_find_from_lru () =
  let t = Lru.create () in
  let _ = Lru.push_mru t 1 in
  let _ = Lru.push_mru t 2 in
  let _ = Lru.push_mru t 3 in
  let found = Lru.find_from_lru t ~f:(fun v -> v mod 2 = 0) in
  Alcotest.(check int) "first even from LRU" 2 (Lru.value (Option.get found));
  Alcotest.(check bool) "no match" true (Lru.find_from_lru t ~f:(fun v -> v > 9) = None)

let test_lru_touch_singleton () =
  let t = Lru.create () in
  let a = Lru.push_mru t "a" in
  Lru.touch t a;
  Alcotest.(check (list string)) "unchanged" [ "a" ] (Lru.to_list_lru_first t)

(* Touching the MRU node is a no-op: order and length unchanged, and no
   unlink/relink (which allocates fresh [Some] cells) on the hot path.
   The budget of 8 words absorbs the boxed float of [Gc.minor_words]. *)
let test_lru_touch_mru () =
  let t = Lru.create () in
  let _a = Lru.push_mru t "a" in
  let _b = Lru.push_mru t "b" in
  let c = Lru.push_mru t "c" in
  let before = Gc.minor_words () in
  for _ = 1 to 1000 do
    Lru.touch t c
  done;
  let allocated = Gc.minor_words () -. before in
  Alcotest.(check (list string)) "order unchanged" [ "a"; "b"; "c" ] (Lru.to_list_lru_first t);
  Alcotest.(check int) "length unchanged" 3 (Lru.length t);
  Alcotest.(check bool)
    (Printf.sprintf "1000 MRU touches allocate %.0f words" allocated)
    true (allocated <= 8.0)

(* Model-based property: a random sequence of push/touch/remove agrees
   with a naive list model. *)
let prop_lru_model =
  QCheck.Test.make ~name:"lru agrees with list model" ~count:200
    QCheck.(list (int_bound 2))
    (fun ops ->
      let t = Lru.create () in
      let nodes = Hashtbl.create 16 in
      let model = ref [] (* lru-first *) in
      let next = ref 0 in
      List.iter
        (fun op ->
          match op with
          | 0 ->
              (* push fresh value *)
              let v = !next in
              incr next;
              Hashtbl.replace nodes v (Lru.push_mru t v);
              model := !model @ [ v ]
          | 1 -> (
              (* touch the current LRU-end element if any *)
              match !model with
              | [] -> ()
              | v :: rest ->
                  Lru.touch t (Hashtbl.find nodes v);
                  model := rest @ [ v ])
          | _ -> (
              (* remove the current MRU-end element if any *)
              match List.rev !model with
              | [] -> ()
              | v :: rest_rev ->
                  Lru.remove t (Hashtbl.find nodes v);
                  Hashtbl.remove nodes v;
                  model := List.rev rest_rev))
        ops;
      Lru.to_list_lru_first t = !model)

let test_fm_alloc_all () =
  let fm = Fm.create ~n:4 () in
  let seen = Hashtbl.create 4 in
  for _ = 1 to 4 do
    match Fm.alloc fm with
    | Some i -> Hashtbl.replace seen i ()
    | None -> Alcotest.fail "premature exhaustion"
  done;
  Alcotest.(check int) "all distinct" 4 (Hashtbl.length seen);
  Alcotest.(check bool) "exhausted" true (Fm.alloc fm = None);
  Alcotest.(check int) "free count" 0 (Fm.free_count fm)

let test_fm_free_realloc () =
  let fm = Fm.create ~n:2 () in
  let a = Option.get (Fm.alloc fm) in
  let _b = Option.get (Fm.alloc fm) in
  Fm.free fm a;
  Alcotest.(check int) "one free" 1 (Fm.free_count fm);
  Alcotest.(check int) "realloc returns freed" a (Option.get (Fm.alloc fm))

let test_fm_double_free_rejected () =
  let fm = Fm.create ~n:2 () in
  let a = Option.get (Fm.alloc fm) in
  Fm.free fm a;
  Alcotest.(check bool) "double free rejected" true
    (try
       Fm.free fm a;
       false
     with Invalid_argument _ -> true)

let test_fm_mark_used () =
  let fm = Fm.create ~n:3 () in
  Fm.mark_used fm 1;
  Alcotest.(check bool) "1 is used" false (Fm.is_free fm 1);
  (* Allocate the remaining two; index 1 must never be handed out. *)
  let a = Option.get (Fm.alloc fm) in
  let b = Option.get (Fm.alloc fm) in
  Alcotest.(check bool) "stale entry skipped" true (a <> 1 && b <> 1);
  Alcotest.(check bool) "exhausted" true (Fm.alloc fm = None);
  Alcotest.(check bool) "mark_used twice rejected" true
    (try
       Fm.mark_used fm 1;
       false
     with Invalid_argument _ -> true)

(* Model-based property: alloc/free/mark_used sequences maintain the
   free-set exactly. *)
let prop_fm_model =
  QCheck.Test.make ~name:"free monitor agrees with set model" ~count:200
    QCheck.(pair (int_range 1 16) (list (pair (int_bound 2) (int_bound 15))))
    (fun (n, ops) ->
      let n = max 1 n in
      let fm = Fm.create ~n () in
      let free = Array.make n true in
      let nfree = ref n in
      let ok = ref true in
      List.iter
        (fun (op, arg) ->
          let i = arg mod n in
          match op with
          | 0 -> (
              match Fm.alloc fm with
              | Some j ->
                  if not free.(j) then ok := false;
                  free.(j) <- false;
                  decr nfree
              | None -> if !nfree <> 0 then ok := false)
          | 1 -> if not free.(i) then begin
                Fm.free fm i;
                free.(i) <- true;
                incr nfree
              end
          | _ -> if free.(i) then begin
                Fm.mark_used fm i;
                free.(i) <- false;
                decr nfree
              end)
        ops;
      !ok && Fm.free_count fm = !nfree
      && Array.to_list free
         = List.init n (fun i -> Fm.is_free fm i))

let suite =
  let q = QCheck_alcotest.to_alcotest in
  [
    ( "cachelib.lru",
      [
        Alcotest.test_case "insertion order" `Quick test_lru_order;
        Alcotest.test_case "touch promotes" `Quick test_lru_touch;
        Alcotest.test_case "remove unlinks" `Quick test_lru_remove;
        Alcotest.test_case "endpoints" `Quick test_lru_endpoints;
        Alcotest.test_case "find_from_lru" `Quick test_lru_find_from_lru;
        Alcotest.test_case "touch singleton" `Quick test_lru_touch_singleton;
        Alcotest.test_case "touch MRU is a no-op" `Quick test_lru_touch_mru;
        q prop_lru_model;
      ] );
    ( "cachelib.free_monitor",
      [
        Alcotest.test_case "alloc all distinct" `Quick test_fm_alloc_all;
        Alcotest.test_case "free then realloc" `Quick test_fm_free_realloc;
        Alcotest.test_case "double free rejected" `Quick test_fm_double_free_rejected;
        Alcotest.test_case "mark_used honoured" `Quick test_fm_mark_used;
        q prop_fm_model;
      ] );
  ]

(* --- allocation policies (wear leveling) --- *)

let test_fifo_rotates () =
  let fm = Fm.create ~policy:Fm.Fifo ~n:8 () in
  (* alloc/free cycles must walk the whole pool before reuse. *)
  let seen = Hashtbl.create 8 in
  for _ = 1 to 8 do
    let i = Option.get (Fm.alloc fm) in
    Hashtbl.replace seen i ();
    Fm.free fm i
  done;
  Alcotest.(check int) "all 8 indices visited" 8 (Hashtbl.length seen)

let test_fifo_rebuild_preserves_age_order () =
  (* A lazy-deletion ring rebuild must preserve oldest-freed-first order
     (wear-leveling rotation survives recovery rebuilds) instead of the
     old re-sort-ascending behaviour.  This trace fills the ring so the
     last [free] triggers the rebuild. *)
  let fm = Fm.create ~policy:Fm.Fifo ~n:3 () in
  Fm.mark_used fm 1;
  Alcotest.(check (option int)) "fifo pops oldest" (Some 0) (Fm.alloc fm);
  Alcotest.(check (option int)) "stale entry for 1 skipped" (Some 2) (Fm.alloc fm);
  Fm.free fm 2;
  Fm.free fm 0;
  Fm.free fm 1;
  (* Age order is now 2, 0, 1.  Stale-ing 0's entry and re-freeing it
     finds the ring full, which forces the rebuild; 0 moves to the
     youngest position, 2 and 1 keep their relative age. *)
  Fm.mark_used fm 0;
  Fm.free fm 0;
  let a = Fm.alloc fm in
  let b = Fm.alloc fm in
  let c = Fm.alloc fm in
  Alcotest.(check (list (option int)))
    "post-rebuild order is oldest-freed-first, not ascending"
    [ Some 2; Some 1; Some 0 ] [ a; b; c ]

let test_fifo_order_without_staleness () =
  (* With no mark_used interference, Fifo is exactly a FIFO queue even
     across the rebuilds that long free/alloc traffic provokes. *)
  let n = 5 in
  let fm = Fm.create ~policy:Fm.Fifo ~n () in
  let q = Queue.create () in
  for i = 0 to n - 1 do
    Queue.push i q
  done;
  let rng = Random.State.make [| 42 |] in
  for _ = 1 to 500 do
    if Random.State.bool rng && Queue.length q > 0 then begin
      let expect = Queue.pop q in
      Alcotest.(check (option int)) "fifo pops oldest-freed" (Some expect) (Fm.alloc fm)
    end
    else if Queue.length q < n then begin
      (* Free the longest-allocated index (any used one works; pick the
         smallest not in the queue for determinism). *)
      let in_q = Array.make n false in
      Queue.iter (fun i -> in_q.(i) <- true) q;
      let rec first i = if in_q.(i) then first (i + 1) else i in
      let i = first 0 in
      Fm.free fm i;
      Queue.push i q
    end
  done

let test_lifo_reuses () =
  let fm = Fm.create ~policy:Fm.Lifo ~n:8 () in
  let first = Option.get (Fm.alloc fm) in
  Fm.free fm first;
  Alcotest.(check int) "hot reuse" first (Option.get (Fm.alloc fm))

let prop_fifo_model =
  QCheck.Test.make ~name:"fifo free monitor agrees with set model" ~count:200
    QCheck.(pair (int_range 1 16) (list (pair (int_bound 2) (int_bound 15))))
    (fun (n, ops) ->
      let n = max 1 n in
      let fm = Fm.create ~policy:Fm.Fifo ~n () in
      let free = Array.make n true in
      let nfree = ref n in
      let ok = ref true in
      List.iter
        (fun (op, arg) ->
          let i = arg mod n in
          match op with
          | 0 -> (
              match Fm.alloc fm with
              | Some j ->
                  if not free.(j) then ok := false;
                  free.(j) <- false;
                  decr nfree
              | None -> if !nfree <> 0 then ok := false)
          | 1 ->
              if not free.(i) then begin
                Fm.free fm i;
                free.(i) <- true;
                incr nfree
              end
          | _ ->
              if free.(i) then begin
                Fm.mark_used fm i;
                free.(i) <- false;
                decr nfree
              end)
        ops;
      !ok && Fm.free_count fm = !nfree
      && Array.to_list free = List.init n (fun i -> Fm.is_free fm i))

let test_cache_fifo_policy_spreads_wear () =
  (* Hammer the same logical block; FIFO allocation must spread the COW
     versions over the NVM while LIFO concentrates them. *)
  let module Cache = Tinca_core.Cache in
  let module Pmem = Tinca_pmem.Pmem in
  let module Disk = Tinca_blockdev.Disk in
  let open Tinca_sim in
  let wear policy =
    let clock = Clock.create () in
    let metrics = Metrics.create () in
    let pmem = Pmem.create ~clock ~metrics ~tech:Latency.Pcm ~size:(512 * 1024) () in
    let disk = Disk.create ~clock ~metrics ~kind:Latency.Ssd ~nblocks:256 ~block_size:4096 in
    let config = { Cache.default_config with ring_slots = 64; alloc_policy = policy } in
    let cache = Cache.format ~config ~pmem ~disk ~clock ~metrics in
    for i = 0 to 400 do
      Cache.write_direct cache 1 (Bytes.make 4096 (Char.chr (i mod 256)))
    done;
    (* Wear of the data region only: ring/pointer lines are hot under
       both policies. *)
    let layout = Cache.layout cache in
    Pmem.wear_max_in pmem ~off:layout.Tinca_core.Layout.data_off
      ~len:(layout.Tinca_core.Layout.nblocks * 4096)
  in
  Alcotest.(check bool) "fifo wears less per line" true (wear Fm.Fifo < wear Fm.Lifo / 4)

let policy_suite =
  let q = QCheck_alcotest.to_alcotest in
  [
    ( "cachelib.alloc_policy",
      [
        Alcotest.test_case "fifo rotates" `Quick test_fifo_rotates;
        Alcotest.test_case "fifo rebuild preserves age order" `Quick
          test_fifo_rebuild_preserves_age_order;
        Alcotest.test_case "fifo is a queue without staleness" `Quick
          test_fifo_order_without_staleness;
        Alcotest.test_case "lifo reuses" `Quick test_lifo_reuses;
        q prop_fifo_model;
        Alcotest.test_case "cache fifo spreads wear" `Quick test_cache_fifo_policy_spreads_wear;
      ] );
  ]

(* --- the frame cache shared by both commit engines --- *)

module Fc = Tinca_cachelib.Frame_cache

(* Reference model: cached blocks in LRU-first order, plus the free
   frame and slot counts.  Victim selection is evaluated on the list:
   the first unpinned clean block from the LRU end, else the first
   unpinned dirty one; the slot loop applies the same rule to the
   blocks that hold a slot.  A block may hold a spare frame and a
   shadow: room is made by reclaiming the first unpinned spare holder's
   spare before any block is evicted, an evicted block frees its spare
   too, and a shadow is kept while its block holds a spare or was
   written by the latest drain. *)
type mblock = {
  k : int;
  pinned : bool;
  has_slot : bool;
  dirty : bool;
  spare : bool;
  shadow : bool;
}

type model = {
  mutable lru : mblock list;
  mutable free_frames : int;  (* the free pool, spares apart *)
  mutable free_slots : int;
  mutable victims : int list;  (* newest first *)
  mutable latest : int option;  (* the block the latest drain wrote *)
}

let model_victim ?(slot = false) m =
  let candidate e = (not e.pinned) && ((not slot) || e.has_slot) in
  match List.find_opt (fun e -> candidate e && not e.dirty) m.lru with
  | Some _ as v -> v
  | None -> List.find_opt candidate m.lru

let model_evict ?slot m =
  match model_victim ?slot m with
  | None -> false
  | Some v ->
      m.lru <- List.filter (fun e -> e.k <> v.k) m.lru;
      m.free_frames <- m.free_frames + (if v.spare then 2 else 1);
      if v.has_slot then m.free_slots <- m.free_slots + 1;
      m.victims <- v.k :: m.victims;
      true

let model_update m k f = m.lru <- List.map (fun e -> if e.k = k then f e else e) m.lru

let model_reclaim m =
  match List.find_opt (fun e -> e.spare && not e.pinned) m.lru with
  | None -> false
  | Some v ->
      model_update m v.k (fun e -> { e with spare = false; shadow = m.latest = Some e.k });
      m.free_frames <- m.free_frames + 1;
      true

let model_make_room m ~frames ~slots =
  let ok = ref true in
  while !ok && m.free_frames < frames do
    ok := model_reclaim m || model_evict m
  done;
  while !ok && m.free_slots < slots do
    ok := model_evict ~slot:true m
  done;
  !ok && m.free_frames >= frames && m.free_slots >= slots

let model_touch m k =
  let touched, rest = List.partition (fun e -> e.k = k) m.lru in
  m.lru <- rest @ touched

(* A committed write of [blk], as an engine drives one: pin the block,
   plan the COW (its spare is the target, else a fresh frame after
   making room), retire the drain.  [partial] changes one of the
   block's two lines, else both.  [false] when no frame could be had. *)
let write_version fc hooks (blk : unit Fc.block) ~partial =
  let old = match blk.Fc.shadow with Some s -> s | None -> Bytes.make 128 '\000' in
  let data = Bytes.copy old in
  Bytes.set data 0 (Char.chr ((Char.code (Bytes.get old 0) + 1) land 255));
  if not partial then Bytes.set data 64 (Char.chr ((Char.code (Bytes.get old 64) + 1) land 255));
  let was_pinned = blk.Fc.pinned in
  Fc.set_pinned blk true;
  let plan = Fc.plan_write fc (Some blk) data in
  let frame =
    if plan.Fc.target >= 0 then Some plan.Fc.target
    else if Fc.make_room fc hooks ~frames:1 ~slots:0 then Fc.alloc_frame fc
    else None
  in
  (match frame with
  | Some f ->
      Fc.new_drain fc;
      let prev = blk.Fc.frame in
      Fc.set_frame blk f;
      Fc.retire_version fc blk ~prev ~mask:plan.Fc.mask data
  | None -> ());
  Fc.set_pinned blk was_pinned;
  frame <> None

let model_write m e ~partial =
  let keep_spare = partial && e.shadow in
  model_update m e.k (fun e -> { e with pinned = true });
  let ok =
    e.spare
    || model_make_room m ~frames:1 ~slots:0
       && begin
            m.free_frames <- m.free_frames - 1;
            true
          end
  in
  model_update m e.k (fun x -> { x with pinned = e.pinned });
  if ok then begin
    (* The previous drain's blocks keep a shadow only with a spare. *)
    m.lru <- List.map (fun x -> if x.spare then x else { x with shadow = false }) m.lru;
    if not keep_spare then m.free_frames <- m.free_frames + 1;
    model_update m e.k (fun x -> { x with spare = keep_spare; shadow = true });
    m.latest <- Some e.k;
    model_touch m e.k
  end;
  ok

(* Random insert / touch / pin / unpin / read / dirty / make_room /
   partial or full write sequences over a small cache, checked after
   every step against the model: the same victims in the same order,
   the hook run exactly once per victim, the same spare holders and
   shadows, frames and slots conserved (free + referenced + spares =
   capacity), and the structural audit clean. *)
let prop_frame_cache_model =
  QCheck.Test.make ~name:"frame cache agrees with list model" ~count:300
    QCheck.(triple (int_range 1 8) (int_range 1 8) (list (pair (int_bound 8) (int_bound 11))))
    (fun (nframes, nslots, ops) ->
      let fc = Fc.create ~frames:nframes ~slots:nslots ~index_size:16 () in
      let hooked = ref [] in
      let hooks = { Fc.evict = (fun b -> hooked := b.Fc.key :: !hooked) } in
      let m = { lru = []; free_frames = nframes; free_slots = nslots; victims = []; latest = None } in
      let next_key = ref 0 in
      let pick arg = match m.lru with [] -> None | l -> Some (List.nth l (arg mod List.length l)) in
      let block k = Option.get (Fc.find fc k) in
      let step (op, arg) =
        match op with
        | 0 ->
            (* insert a fresh block, with a slot when [arg] is odd *)
            let want_slot = arg land 1 = 1 in
            let slots = if want_slot then 1 else 0 in
            let ok = Fc.make_room fc hooks ~frames:1 ~slots in
            if ok <> model_make_room m ~frames:1 ~slots then failwith "make_room verdict differs";
            if ok then begin
              let frame = Option.get (Fc.alloc_frame fc) in
              let slot = if want_slot then Option.get (Fc.alloc_slot fc) else -1 in
              let k = !next_key in
              let dirty = arg land 2 = 2 in
              incr next_key;
              ignore (Fc.insert fc ~key:k ~frame ~slot ~dirty ~pinned:false ());
              m.lru <-
                m.lru @ [ { k; pinned = false; has_slot = want_slot; dirty; spare = false; shadow = false } ];
              m.free_frames <- m.free_frames - 1;
              if want_slot then m.free_slots <- m.free_slots - 1
            end
        | 1 -> (
            match pick arg with
            | None -> ()
            | Some e ->
                Fc.touch fc (block e.k);
                model_touch m e.k)
        | 2 | 3 -> (
            match pick arg with
            | None -> ()
            | Some e ->
                let v = op = 2 in
                Fc.set_pinned (block e.k) v;
                model_update m e.k (fun e -> { e with pinned = v }))
        | 4 -> (
            match pick arg with
            | None -> ignore (Fc.lookup_read fc (-1))
            | Some e ->
                ignore (Fc.lookup_read fc e.k);
                model_touch m e.k)
        | 5 -> (
            (* dirty or clean a block in place, as a commit or the
               cleaner does *)
            match pick arg with
            | None -> ()
            | Some e ->
                let v = arg land 2 = 2 in
                Fc.set_dirty fc (block e.k) v;
                model_update m e.k (fun e -> { e with dirty = v }))
        | 7 | 8 -> (
            match pick arg with
            | None -> ()
            | Some e ->
                let partial = op = 7 in
                if write_version fc hooks (block e.k) ~partial <> model_write m e ~partial then
                  failwith "write verdict differs")
        | _ ->
            let frames = arg mod 4 and slots = arg / 4 in
            if Fc.make_room fc hooks ~frames ~slots <> model_make_room m ~frames ~slots then
              failwith "make_room verdict differs"
      in
      let check () =
        let keys = ref [] in
        Fc.iter_lru (fun b -> keys := b.Fc.key :: !keys) fc;
        let referenced_frames = Fc.length fc in
        let referenced_slots = Fc.fold (fun b n -> if b.Fc.slot >= 0 then n + 1 else n) fc 0 in
        let spares = List.length (List.filter (fun e -> e.spare) m.lru) in
        let state b = (b.Fc.spare >= 0, b.Fc.shadow <> None) in
        List.rev !keys = List.map (fun e -> e.k) m.lru
        && List.for_all (fun e -> state (block e.k) = (e.spare, e.shadow)) m.lru
        && Fc.spare_count fc = spares
        && !hooked = m.victims
        && Fc.evictions fc = List.length m.victims
        && Option.map (fun b -> b.Fc.key) (Fc.victim fc)
           = Option.map (fun e -> e.k) (model_victim m)
        && Fc.free_frames fc + referenced_frames = nframes
        && Fc.free_slots fc + referenced_slots = nslots
        && Fc.free_frames fc = m.free_frames + spares
        && Fc.free_slots fc = m.free_slots
        && Fc.dirty_count fc = List.length (List.filter (fun e -> e.dirty) m.lru)
        && Fc.audit fc = Ok ()
      in
      List.for_all
        (fun op ->
          step op;
          check ())
        ops)

(* One block of four 64 B lines over a frame store: a first commit
   leaves a shadow, the second (one line changed) a spare, and the third
   (another line) COWs into the spare, storing only the two lines of the
   masks' union.  The version audit passes, and fails once a line of the
   spare outside its mask, or of the current frame, is corrupted. *)
let test_audit_versions () =
  let fc = Fc.create ~frames:4 ~slots:4 ~index_size:4 () in
  let store = Array.init 4 (fun _ -> Bytes.make 256 '\000') in
  let stored = ref 0 in
  let b = Fc.insert fc ~key:1 ~frame:(Option.get (Fc.alloc_frame fc)) ~slot:(-1) ~dirty:false ~pinned:false () in
  let commit data =
    let plan = Fc.plan_write fc (Some b) data in
    let f = if plan.Fc.target >= 0 then plan.Fc.target else Option.get (Fc.alloc_frame fc) in
    List.iter
      (fun (pos, len) ->
        Bytes.blit data pos store.(f) pos len;
        stored := !stored + (len / 64))
      (Fc.runs plan ~block_size:256);
    Fc.new_drain fc;
    let prev = b.Fc.frame in
    Fc.set_frame b f;
    Fc.retire_version fc b ~prev ~mask:plan.Fc.mask data
  in
  let edit v line c =
    let v = Bytes.copy v in
    Bytes.fill v (line * 64) 64 c;
    v
  in
  let v1 = Bytes.make 256 'a' in
  let v2 = edit v1 0 'b' in
  let v3 = edit v2 2 'c' in
  commit v1;
  commit v2;
  Alcotest.(check int) "the replaced frame is a spare" 1 (Fc.spare_count fc);
  Alcotest.(check int64) "with the changed line" 1L b.Fc.spare_mask;
  stored := 0;
  commit v3;
  Alcotest.(check int) "the spare took only the union's lines" 2 !stored;
  Alcotest.(check bytes) "current frame holds the new version" v3 store.(b.Fc.frame);
  Alcotest.(check int64) "the new spare's mask" 4L b.Fc.spare_mask;
  let audit () =
    Fc.audit_versions fc ~read:(fun f -> Bytes.copy store.(f)) ~committed:(fun b -> b.Fc.frame)
  in
  Alcotest.(check bool) "audit passes" true (audit () = Ok ());
  let corrupt f line =
    let saved = Bytes.copy store.(f) in
    Bytes.set store.(f) (line * 64) 'z';
    let r = audit () in
    store.(f) <- saved;
    Result.is_error r
  in
  Alcotest.(check bool) "spare line outside the mask" true (corrupt b.Fc.spare 3);
  Alcotest.(check bool) "spare line inside the mask is allowed" false (corrupt b.Fc.spare 2);
  Alcotest.(check bool) "current frame" true (corrupt b.Fc.frame 1)

(* Three blocks, LRU first: a dirty block, a clean one behind it and a
   pinned clean one.  The clean unpinned block goes first; with it gone
   and the other clean block pinned, the dirty block does; then none is
   left. *)
let test_victim_clean_first () =
  let fc = Fc.create ~frames:3 ~slots:3 ~index_size:4 () in
  let insert key ~dirty ~pinned =
    let frame = Option.get (Fc.alloc_frame fc) and slot = Option.get (Fc.alloc_slot fc) in
    ignore (Fc.insert fc ~key ~frame ~slot ~dirty ~pinned ())
  in
  insert 1 ~dirty:true ~pinned:false;
  insert 2 ~dirty:false ~pinned:false;
  insert 3 ~dirty:false ~pinned:true;
  let victim () = Option.map (fun b -> b.Fc.key) (Fc.victim fc) in
  Alcotest.(check (option int)) "clean block behind a dirty one" (Some 2) (victim ());
  let hooked = ref [] in
  let hooks = { Fc.evict = (fun b -> hooked := (b.Fc.key, b.Fc.dirty) :: !hooked) } in
  Alcotest.(check bool) "room for one" true (Fc.make_room fc hooks ~frames:1 ~slots:1);
  Alcotest.(check (option int)) "only the dirty block is left" (Some 1) (victim ());
  Alcotest.(check bool) "room for two" true (Fc.make_room fc hooks ~frames:2 ~slots:2);
  Alcotest.(check (list (pair int bool))) "clean victim first, then the dirty one"
    [ (1, true); (2, false) ] !hooked;
  Alcotest.(check (option int)) "the pinned block is never a victim" None (victim ());
  Alcotest.(check bool) "no room for three" false (Fc.make_room fc hooks ~frames:3 ~slots:0);
  Alcotest.(check bool) "audit clean" true (Fc.audit fc = Ok ())

let audit_error fc =
  match Fc.audit fc with Ok () -> Alcotest.fail "audit passed a corrupt cache" | Error m -> m

let mentions msg sub =
  let n = String.length sub in
  let rec go i = i + n <= String.length msg && (String.sub msg i n = sub || go (i + 1)) in
  go 0

let test_audit_free_and_referenced () =
  let fc = Fc.create ~frames:4 ~slots:4 ~index_size:4 () in
  let frame = Option.get (Fc.alloc_frame fc) in
  ignore (Fc.insert fc ~key:7 ~frame ~slot:(-1) ~dirty:false ~pinned:false ());
  Alcotest.(check bool) "clean before" true (Fc.audit fc = Ok ());
  Fc.free_frame fc frame;
  let msg = audit_error fc in
  Alcotest.(check bool) ("names the frame: " ^ msg) true (mentions msg "both free and referenced")

let test_audit_lru_index_mismatch () =
  let fc = Fc.create ~frames:4 ~slots:4 ~index_size:4 () in
  let insert () =
    let frame = Option.get (Fc.alloc_frame fc) in
    ignore (Fc.insert fc ~key:3 ~frame ~slot:(-1) ~dirty:false ~pinned:false ())
  in
  insert ();
  (* A second block under the same key replaces the index entry but
     leaves both on the LRU. *)
  insert ();
  let msg = audit_error fc in
  Alcotest.(check bool) ("names the sizes: " ^ msg) true (mentions msg "LRU length 2 <> index size 1")

let test_audit_dirty_recount () =
  let fc = Fc.create ~frames:2 ~slots:2 ~index_size:4 () in
  let frame = Option.get (Fc.alloc_frame fc) in
  let b = Fc.insert fc ~key:1 ~frame ~slot:(-1) ~dirty:true ~pinned:false () in
  Alcotest.(check int) "dirty counted" 1 (Fc.dirty_count fc);
  Fc.set_dirty fc b false;
  Alcotest.(check int) "dirty uncounted" 0 (Fc.dirty_count fc);
  Alcotest.(check bool) "clean" true (Fc.audit fc = Ok ());
  Fc.remove fc b;
  Alcotest.(check int) "frame returned" 2 (Fc.free_frames fc);
  Alcotest.(check bool) "empty and clean" true (Fc.audit fc = Ok ())

(* --- the cleaner's clustering --- *)

module Disk = Tinca_blockdev.Disk
module Latency = Tinca_sim.Latency

let ssd = Latency.disk_of_kind Latency.Ssd

(* A cache of [frames] frames holding [blocks] (key, dirty, pinned) in
   LRU-first order, over an idle SSD; [clean] runs the cleaner and
   returns the keys it wrote, in write order. *)
let cleaner_env ~frames blocks =
  let clock = Tinca_sim.Clock.create () and metrics = Tinca_sim.Metrics.create () in
  let disk = Disk.create ~clock ~metrics ~kind:Latency.Ssd ~nblocks:1024 ~block_size:4096 in
  let fc = Fc.create ~frames ~slots:frames ~index_size:64 () in
  List.iter
    (fun (key, dirty, pinned) ->
      let frame = Option.get (Fc.alloc_frame fc) in
      ignore (Fc.insert fc ~key ~frame ~slot:(-1) ~dirty ~pinned ()))
    blocks;
  let clean ~after_commit =
    let written = ref [] in
    let c =
      {
        Fc.disk;
        dma_read = (fun _ -> Bytes.make 4096 'c');
        cleaned = (fun bs -> written := List.map (fun b -> b.Fc.key) bs);
        deferred = Tinca_sim.Metrics.counter metrics "cache.bg_deferred";
      }
    in
    ignore (Fc.clean fc c ~after_commit);
    !written
  in
  (fc, clock, metrics, clean)

let is_dirty fc key = (Option.get (Fc.find fc key)).Fc.dirty

(* 15 of 20 frames dirty is above the 70 % mark (14), so the pressure
   batch cleans down to 3/4 of it (10): five blocks.  The LRU-most
   victim 10 brings its unpinned neighbours 11 and 12, from the MRU end,
   but not the pinned 9; then victims 20 and 30 fill the budget, and the
   batch goes out in key order with 11 and 12 sequential. *)
let test_pressure_takes_neighbours () =
  let dirty k = (k, true, false) in
  let fc, _, metrics, clean =
    cleaner_env ~frames:20
      ([ dirty 10; dirty 20; dirty 30; dirty 40; dirty 50 ]
      @ List.init 7 (fun i -> dirty (200 + (2 * i)))
      @ [ (9, true, true); dirty 11; dirty 12 ])
  in
  Alcotest.(check (list int)) "batch in key order" [ 10; 11; 12; 20; 30 ] (clean ~after_commit:true);
  Alcotest.(check bool) "pinned neighbour left dirty" true (is_dirty fc 9);
  Alcotest.(check bool) "victims past the budget left dirty" true (is_dirty fc 40);
  Alcotest.(check int) "background writes" 5 (Tinca_sim.Metrics.get metrics "disk.bg_writes");
  Alcotest.(check int) "the run's tail is sequential" 2
    (Tinca_sim.Metrics.get metrics "disk.bg_seq_writes");
  Alcotest.(check bool) "audit clean" true (Fc.audit fc = Ok ())

(* An idle gap of three random and two sequential writes holds five
   writes only if the run after 20 (21, 22: up to the pinned 23) goes at
   the sequential rate.  The walk then takes 70 and 24. *)
let test_idle_run_is_sequential () =
  let dirty k = (k, true, false) in
  let fc, clock, metrics, clean =
    cleaner_env ~frames:8 [ dirty 20; dirty 70; dirty 21; dirty 22; (23, true, true); dirty 24 ]
  in
  Tinca_sim.Clock.advance clock
    ((3.0 *. ssd.Latency.write_block_ns) +. (2.0 *. ssd.Latency.seq_block_ns));
  Alcotest.(check (list int)) "run in ascending keys, then the walk" [ 20; 21; 22; 70; 24 ]
    (clean ~after_commit:false);
  Alcotest.(check int) "idle writes" 5 (Tinca_sim.Metrics.get metrics "disk.idle_writes");
  Alcotest.(check int) "sequential idle writes" 2 (Tinca_sim.Metrics.get metrics "disk.idle_seq_writes");
  Alcotest.(check bool) "pinned block left dirty" true (is_dirty fc 23);
  Alcotest.(check bool) "audit clean" true (Fc.audit fc = Ok ())

let frame_cache_suite =
  [
    ( "cachelib.frame_cache",
      [
        QCheck_alcotest.to_alcotest prop_frame_cache_model;
        Alcotest.test_case "version audit: shadows and spares" `Quick test_audit_versions;
        Alcotest.test_case "victim: clean first, pinned never" `Quick test_victim_clean_first;
        Alcotest.test_case "audit: frame free and referenced" `Quick test_audit_free_and_referenced;
        Alcotest.test_case "audit: LRU/index size mismatch" `Quick test_audit_lru_index_mismatch;
        Alcotest.test_case "dirty count and remove" `Quick test_audit_dirty_recount;
        Alcotest.test_case "pressure batch takes dirty neighbours" `Quick
          test_pressure_takes_neighbours;
        Alcotest.test_case "idle run is sequential" `Quick test_idle_run_is_sequential;
      ] );
  ]
