(* Timing of calls into the layers, taken on the benchmark's side of each
   boundary.  Nothing here advances the simulated clock, so a traced run
   and an untraced run of the same inputs simulate the same time.

   Every measured call may feed end-to-end latency samples; a traced run
   also keeps, per call name, the simulated and host time spent inside
   and the part not covered by nested calls (self time), opens a span of
   the same name in [Tinca_obs.Trace], and sums the simulated time that
   passes between top-level calls (it must be zero: every simulated
   nanosecond is spent in some layer). *)

module Clock = Tinca_sim.Clock
module Trace = Tinca_obs.Trace

let wall_ns () = Int64.to_float (Monotonic_clock.now ())

(* A growable unboxed float array: per-op samples without per-sample
   allocation inside the timed loop. *)
module Samples = struct
  type t = { mutable data : float array; mutable len : int }

  let create () = { data = Array.make 1024 0.0; len = 0 }

  let add s v =
    if s.len = Array.length s.data then begin
      let d = Array.make (2 * s.len) 0.0 in
      Array.blit s.data 0 d 0 s.len;
      s.data <- d
    end;
    s.data.(s.len) <- v;
    s.len <- s.len + 1

  let to_list s = Array.to_list (Array.sub s.data 0 s.len)
  let length s = s.len
end

type acc = {
  mutable calls : int;
  mutable sim_ns : float;
  mutable wall_ns : float;
  mutable self_sim_ns : float;
  mutable self_wall_ns : float;
}

type frame = { mutable child_sim : float; mutable child_wall : float }

type t = {
  clock : Clock.t;
  traced : bool;
  mutable measuring : bool;
  accs : (string, acc) Hashtbl.t;
  mutable stack : frame list;  (** innermost first *)
  mutable last_top_end : float;
  mutable gap_sim_ns : float;
  mutable top_wall_ns : float;
}

let create ~traced clock =
  {
    clock;
    traced;
    measuring = false;
    accs = Hashtbl.create 32;
    stack = [];
    last_top_end = 0.0;
    gap_sim_ns = 0.0;
    top_wall_ns = 0.0;
  }

let start p =
  p.measuring <- true;
  p.last_top_end <- Clock.now_ns p.clock

let stop p =
  p.gap_sim_ns <- p.gap_sim_ns +. (Clock.now_ns p.clock -. p.last_top_end);
  p.measuring <- false

let acc p name =
  match Hashtbl.find_opt p.accs name with
  | Some a -> a
  | None ->
      let a = { calls = 0; sim_ns = 0.0; wall_ns = 0.0; self_sim_ns = 0.0; self_wall_ns = 0.0 } in
      Hashtbl.replace p.accs name a;
      a

let find p name = Hashtbl.find_opt p.accs name

let account p name fr ~s0 ~s1 ~w0 ~w1 =
  let ds = s1 -. s0 and dw = w1 -. w0 in
  let a = acc p name in
  a.calls <- a.calls + 1;
  a.sim_ns <- a.sim_ns +. ds;
  a.wall_ns <- a.wall_ns +. dw;
  a.self_sim_ns <- a.self_sim_ns +. (ds -. fr.child_sim);
  a.self_wall_ns <- a.self_wall_ns +. (dw -. fr.child_wall);
  match p.stack with
  | parent :: _ ->
      parent.child_sim <- parent.child_sim +. ds;
      parent.child_wall <- parent.child_wall +. dw
  | [] ->
      p.last_top_end <- s1;
      p.top_wall_ns <- p.top_wall_ns +. dw

let traced_call p name f =
  let s0 = Clock.now_ns p.clock in
  if p.stack = [] then p.gap_sim_ns <- p.gap_sim_ns +. (s0 -. p.last_top_end);
  let fr = { child_sim = 0.0; child_wall = 0.0 } in
  p.stack <- fr :: p.stack;
  Trace.begin_span ~clock:p.clock name;
  let w0 = wall_ns () in
  let finish () =
    let w1 = wall_ns () in
    let s1 = Clock.now_ns p.clock in
    Trace.end_span name;
    p.stack <- List.tl p.stack;
    account p name fr ~s0 ~s1 ~w0 ~w1
  in
  match f () with
  | r ->
      finish ();
      r
  | exception e ->
      finish ();
      raise e

(* [call p ?sim ?wall name f] runs [f], the benchmark's call into a
   layer.  While measuring, its simulated and host durations go to the
   [sim] / [wall] sample sets when given; in a traced run it is also
   accounted under [name]. *)
let call p ?sim ?wall name f =
  if not p.measuring then f ()
  else if p.traced then begin
    let s0 = Clock.now_ns p.clock and w0 = wall_ns () in
    let r = traced_call p name f in
    Option.iter (fun s -> Samples.add s (Clock.now_ns p.clock -. s0)) sim;
    Option.iter (fun s -> Samples.add s (wall_ns () -. w0)) wall;
    r
  end
  else
    match (sim, wall) with
    | None, None -> f ()
    | _ ->
        let s0 = Clock.now_ns p.clock and w0 = wall_ns () in
        let r = f () in
        let w1 = wall_ns () in
        Option.iter (fun s -> Samples.add s (Clock.now_ns p.clock -. s0)) sim;
        Option.iter (fun s -> Samples.add s (w1 -. w0)) wall;
        r
