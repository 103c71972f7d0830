(* One counter's cell.  A cell outlives [reset], which zeroes it and
   takes it out of the listing, so a handle resolved before a reset
   keeps counting into the registry.  A cell is listed once it has been
   bumped, even by 0, so resolving a handle alone lists nothing. *)
type counter = { mutable n : int; mutable live : bool }

type t = {
  counters : (string, counter) Hashtbl.t;
  hists : (string, Hist.t) Hashtbl.t;
}

let create () = { counters = Hashtbl.create 64; hists = Hashtbl.create 16 }

let counter t name =
  match Hashtbl.find_opt t.counters name with
  | Some c -> c
  | None ->
      let c = { n = 0; live = false } in
      Hashtbl.add t.counters name c;
      c

let add c by =
  c.n <- c.n + by;
  c.live <- true

let incr t name ~by = add (counter t name) by
let value c = c.n

(* An unlisted cell holds 0. *)
let get t name = match Hashtbl.find_opt t.counters name with Some c -> c.n | None -> 0

let to_list t =
  Hashtbl.fold (fun k c acc -> if c.live then (k, c.n) :: acc else acc) t.counters []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

(* A snapshot is a hashtable copy of the counters, so [since] is one
   O(1) lookup and [diff] is O(current counters) — not the O(n*m)
   association-list scans the first implementation paid on every
   normalized-per-op metric of the harness. *)
type snapshot = (string, int) Hashtbl.t

let snapshot t : snapshot =
  let s = Hashtbl.create (Hashtbl.length t.counters) in
  Hashtbl.iter (fun k c -> if c.live then Hashtbl.replace s k c.n) t.counters;
  s

let diff t (snap : snapshot) =
  to_list t
  |> List.filter_map (fun (k, v) ->
         let before = match Hashtbl.find_opt snap k with Some x -> x | None -> 0 in
         if v - before <> 0 then Some (k, v - before) else None)

let since t (snap : snapshot) name =
  let before = match Hashtbl.find_opt snap name with Some x -> x | None -> 0 in
  get t name - before

(* --- latency histograms (observability layer) -------------------------- *)

(* Like a counter cell, a histogram outlives [reset], which empties it;
   an empty histogram is unlisted. *)
let histogram t name =
  match Hashtbl.find_opt t.hists name with
  | Some h -> h
  | None ->
      let h = Hist.create () in
      Hashtbl.add t.hists name h;
      h

let observe t name v = Hist.add (histogram t name) v

let hist t name =
  match Hashtbl.find_opt t.hists name with Some h when Hist.count h > 0 -> Some h | _ -> None

let hists t =
  Hashtbl.fold (fun k h acc -> if Hist.count h > 0 then (k, h) :: acc else acc) t.hists []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let reset t =
  Hashtbl.iter
    (fun _ c ->
      c.n <- 0;
      c.live <- false)
    t.counters;
  Hashtbl.iter (fun _ h -> Hist.reset h) t.hists

let pp ppf t =
  List.iter (fun (k, v) -> Format.fprintf ppf "%s = %d@." k v) (to_list t);
  List.iter (fun (k, h) -> Format.fprintf ppf "%s : %a@." k Hist.pp h) (hists t)

(* --- naming convention -------------------------------------------------- *)

(* Counter and histogram names are dotted paths: at least two segments,
   each starting with a lowercase letter followed by [a-z0-9_]
   ("pmem.clflush", "tinca.commit.blocks", "lat.pwrite").  Enforced by
   the test suite over every registry a workload run populates, not by
   [incr] itself (tests legitimately use throwaway local names). *)
let valid_name name =
  let seg_ok s =
    String.length s > 0
    && (match s.[0] with 'a' .. 'z' -> true | _ -> false)
    && String.for_all (function 'a' .. 'z' | '0' .. '9' | '_' -> true | _ -> false) s
  in
  let segs = String.split_on_char '.' name in
  List.length segs >= 2 && List.for_all seg_ok segs
