(* The shared "sample named signals once per cycle" core.

   Every instrument that rides on a simulator — statistics, schedule
   capture, protocol monitors — needs the same loop: read a set of
   named signals after each cycle settles and hand the values to some
   per-instrument state machine.  A [Sampler.t] owns that loop: it
   registers a single [Sim.on_cycle] observer, refreshes every watched
   signal's value, optionally appends it to a per-signal history, and
   then invokes the registered listeners in order.  [Workload.Stats],
   [Workload.Schedule], [Melastic.Profile] and [Monitor] are all
   clients of this module rather than hand-rolled peek loops.

   Each watched name is resolved to a [Sim.port] once, at watch time,
   into a slot the client keeps: the per-cycle refresh is a loop over
   an array of ports, with no name building, no hashing and — for
   signals of width <= [Bits.max_int_width], read as ints — no
   allocation. *)

type slot = {
  port : Sim.port;
  width : int;
  narrow : bool; (* width <= Bits.max_int_width: value kept as an int *)
  mutable cur_int : int;
  mutable cur_bits : Bits.t; (* the stored value, wide slots only *)
  mutable recording : bool;
  mutable hist_int : int list; (* newest first; narrow, when recording *)
  mutable hist_bits : Bits.t list; (* newest first; wide, when recording *)
}

type t = {
  sim : Sim.t;
  tbl : (string, slot) Hashtbl.t; (* watch-time lookup only *)
  mutable slots : slot array; (* watch order; the first [n] are live *)
  mutable n : int;
  mutable listeners : (t -> unit) array; (* registration order *)
  mutable cycle : int;
}

let sim t = t.sim

let refresh s =
  if s.narrow then begin
    let v = Sim.read_int s.port in
    s.cur_int <- v;
    if s.recording then s.hist_int <- v :: s.hist_int
  end
  else begin
    let v = Sim.read s.port in
    s.cur_bits <- v;
    if s.recording then s.hist_bits <- v :: s.hist_bits
  end

let watch t name =
  match Hashtbl.find_opt t.tbl name with
  | Some s -> s
  | None ->
    (* Resolving here makes a typo'd name fail at attach time (with the
       backend's near-miss diagnostics), not mid-run. *)
    let port = Sim.signal_port t.sim name in
    let width = Sim.port_width port in
    let s =
      { port; width; narrow = width <= Bits.max_int_width; cur_int = 0;
        cur_bits = Bits.zero 1; recording = false; hist_int = [];
        hist_bits = [] }
    in
    refresh s;
    Hashtbl.replace t.tbl name s;
    if t.n = Array.length t.slots then
      t.slots <- Array.append t.slots (Array.make (max 4 t.n) s);
    t.slots.(t.n) <- s;
    t.n <- t.n + 1;
    s

let record t name =
  let s = watch t name in
  s.recording <- true;
  s

let on_sample t f = t.listeners <- Array.append t.listeners [| f |]

let attach ?(signals = []) sim =
  let t =
    { sim; tbl = Hashtbl.create 16; slots = [||]; n = 0; listeners = [||];
      cycle = 0 }
  in
  Sim.on_cycle sim (fun sim ->
      t.cycle <- Sim.cycle_no sim;
      for i = 0 to t.n - 1 do
        refresh (Array.unsafe_get t.slots i)
      done;
      Array.iter (fun f -> f t) t.listeners);
  List.iter (fun name -> ignore (watch t name)) signals;
  t

let cycle t = t.cycle

let width s = s.width
let is_narrow s = s.narrow

let value_int s = if s.narrow then s.cur_int else Bits.to_int s.cur_bits

let value s =
  if s.narrow then Bits.of_int ~width:s.width s.cur_int else s.cur_bits

let find t name =
  match Hashtbl.find_opt t.tbl name with
  | Some s -> s
  | None -> invalid_arg ("Sampler: unwatched signal " ^ name)

let series t name =
  let s = find t name in
  if s.narrow then List.rev_map (Bits.of_int ~width:s.width) s.hist_int
  else List.rev s.hist_bits

let series_int t name =
  let s = find t name in
  if s.narrow then List.rev s.hist_int else List.rev_map Bits.to_int s.hist_bits
