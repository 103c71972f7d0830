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
