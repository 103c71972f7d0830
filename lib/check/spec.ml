(* Pure executable model of the transactional cache: a block -> bytes
   map plus an in-flight transaction buffer.  See spec.mli for the
   obligations; Lockstep drives this and the real Tinca facade in
   lockstep and fails on the first observable difference. *)

module M = Map.Make (Int)

type t = {
  nblocks : int;
  block_size : int;
  committed : bytes M.t;
  sealed : bytes M.t list;
      (* write-sets acknowledged by commit_async but not yet drained by
         the group committer, oldest first.  Reads see them (they are
         applied volatilely); a crash may drop the whole queue. *)
}

type txn = { writes : bytes M.t; is_live : bool }

let create ~nblocks ~block_size =
  if nblocks <= 0 || block_size <= 0 then invalid_arg "Spec.create";
  { nblocks; block_size; committed = M.empty; sealed = [] }

let nblocks t = t.nblocks
let block_size t = t.block_size

let zeros t = Bytes.make t.block_size '\000'

let apply committed writes = M.union (fun _blk staged _old -> Some staged) writes committed

(* The image reads observe: committed overlaid by every sealed
   write-set, oldest first (so the newest seal wins). *)
let visible t = List.fold_left apply t.committed t.sealed

let block t blk =
  match M.find_opt blk (visible t) with
  | Some data -> Bytes.copy data
  | None -> zeros t

let in_range t blk = blk >= 0 && blk < t.nblocks

let read t blk =
  if in_range t blk then Ok (block t blk) else Error (Tinca.Block_out_of_range blk)

let init_txn _t = { writes = M.empty; is_live = true }

let live txn = txn.is_live

(* Validation order mirrors the facade: liveness, then size, then range. *)
let write t txn blk data =
  if not txn.is_live then Error Tinca.Txn_not_running
  else if Bytes.length data <> t.block_size then
    Error (Tinca.Wrong_block_size { expected = t.block_size; got = Bytes.length data })
  else if not (in_range t blk) then Error (Tinca.Block_out_of_range blk)
  else Ok { txn with writes = M.add blk (Bytes.copy data) txn.writes }

let read_in t txn blk =
  if not txn.is_live then Error Tinca.Txn_not_running
  else if not (in_range t blk) then Error (Tinca.Block_out_of_range blk)
  else
    match M.find_opt blk txn.writes with
    | Some data -> Ok (Bytes.copy data)
    | None -> Ok (block t blk)

let sealed_count t = List.length t.sealed

(* Fold the oldest sealed write-sets into the committed map, keeping the
   newest [keep] still sealed — the model of a group-committer drain
   (which always drains the whole standing batch, so the executor
   reconciles [keep] with the real [Tinca.group_pending]). *)
let flush_sealed ?(keep = 0) t =
  if keep < 0 || keep > List.length t.sealed then invalid_arg "Spec.flush_sealed";
  let ndrain = List.length t.sealed - keep in
  let rec drain committed sealed n =
    match sealed with
    | ws :: rest when n > 0 -> drain (apply committed ws) rest (n - 1)
    | _ -> (committed, sealed)
  in
  let committed, sealed = drain t.committed t.sealed ndrain in
  { t with committed; sealed }

(* A crash drops every sealed-unacked write-set: nothing of the standing
   batch was fenced durable. *)
let drop_sealed t = { t with sealed = [] }

(* [seal] = Tinca.commit_async under a nonzero window: the write-set is
   acknowledged and becomes visible at once, but its durability is
   deferred to a later drain. *)
let seal t txn =
  if not txn.is_live then Error Tinca.Txn_not_running
  else
    Ok
      ( { t with sealed = t.sealed @ [ txn.writes ] },
        { writes = M.empty; is_live = false } )

(* [commit] = the synchronous path (window 0, or commit_async + await):
   the facade drains the standing batch before the transaction itself
   becomes durable, so the whole sealed queue folds in first. *)
let commit t txn =
  if not txn.is_live then Error Tinca.Txn_not_running
  else
    let t = flush_sealed t in
    Ok
      ( { t with committed = apply t.committed txn.writes },
        { writes = M.empty; is_live = false } )

let abort t txn =
  if not txn.is_live then Error Tinca.Txn_not_running
  else Ok (t, { writes = M.empty; is_live = false })

let reject _txn = { writes = M.empty; is_live = false }

(* [write_direct] commits synchronously through the ring, so it too
   drains the standing batch first. *)
let write_direct t blk data =
  if Bytes.length data <> t.block_size then
    Error (Tinca.Wrong_block_size { expected = t.block_size; got = Bytes.length data })
  else if not (in_range t blk) then Error (Tinca.Block_out_of_range blk)
  else
    let t = flush_sealed t in
    Ok { t with committed = M.add blk (Bytes.copy data) t.committed }

let pending txn = M.bindings txn.writes

(* Structural equality up to the zero-block default: a block explicitly
   written to zeros equals an absent one.  Compares the {e visible}
   image — two states with different sealed-queue factorizations of the
   same content are equal. *)
let equal a b =
  a.nblocks = b.nblocks && a.block_size = b.block_size
  &&
  let rec all blk =
    blk >= a.nblocks || (Bytes.equal (block a blk) (block b blk) && all (blk + 1))
  in
  all 0
