(* The serving workloads: one Serve.Host over one replica, driven by
   the benchmark open loop in simulated time.

   Each request is admitted at exactly its due cycle (the benchmark
   steps the host one cycle at a time and admits whatever is due
   before the step), so generator lateness is zero by construction;
   latency runs from the due cycle to the completion event.  A pass
   generates the requests, builds the replica and host (set-up),
   serves until every request resolved (the timed part), then
   finishes the host and checks every result against the reference
   model (untimed). *)

open Pb_util

type ('job, 'res) workload = {
  label : string;
  make : monitor:bool -> ('job, 'res) Serve.Backend_intf.replica;
      (** elaborates the design and calls [Sim.create] *)
  gen : rate:float -> cycles:int -> (int * 'job) array;
      (** due cycle and job, sorted by due cycle; a pure function of
          the seed, rate and length *)
  rate : float;  (** the workload's offered load, jobs/cycle *)
  cycles : int;  (** arrival window of one pass *)
  monitor : bool;  (** the workload's own monitor setting *)
  expected : 'job -> slot:int -> 'res;  (** reference result *)
  show : 'res -> string;
  mangle : 'res -> 'res;  (** a wrong result, for the self-test *)
  p99_limit : int;  (** latency limit of the sustained-rate sweep *)
}

(* Per-layer accumulators of one traced pass. *)
type accs = {
  host : Pb_trace.acc;  (** [Host.step], replica closures included *)
  step : Pb_trace.acc;
  start : Pb_trace.acc;
  completions : Pb_trace.acc;
}

let new_accs () =
  { host = Pb_trace.acc (); step = Pb_trace.acc (); start = Pb_trace.acc ();
    completions = Pb_trace.acc () }

(* A copy of the public replica record whose closures report into [a]. *)
let wrap_replica a (r : ('j, 'r) Serve.Backend_intf.replica) =
  { r with
    Serve.Backend_intf.step = (fun () -> Pb_trace.time a.step r.step);
    start = (fun ~slot job -> Pb_trace.time a.start (fun () -> r.start ~slot job));
    completions = (fun () -> Pb_trace.time a.completions r.completions) }

(* Self-test hook: the [k]-th completion (from 1) comes back wrong. *)
let corrupt_replica ~k ~mangle (r : ('j, 'r) Serve.Backend_intf.replica) =
  let seen = ref 0 in
  { r with
    Serve.Backend_intf.completions =
      (fun () ->
        List.map
          (fun (slot, res) ->
            incr seen;
            if !seen = k then (slot, mangle res) else (slot, res))
          (r.completions ())) }

type pass = {
  setup_s : float;
  run_s : float;  (** host time of the timed part *)
  speed : float;
      (** median reference time while the timed part ran
          ([ref_nominal] unless the pass was [timed]) *)
  words : float;  (** minor words allocated in the timed part *)
  cycles : int;  (** simulated cycles stepped *)
  offered : int;
  completed : int;
  shed : int;
  lost : int;  (** unresolved at the cycle cap *)
  wrong : int;  (** completed with a result unequal to the reference *)
  latencies : int array;  (** completed requests, sorted *)
  drain : int;  (** cycles from the last due cycle to the last resolution *)
  fingerprint : string;
  violations : int;
  occupancy : float;
  queue_depth_p99 : int;
  accs : accs option;
}

(* Nearest-rank percentile of a sorted sample. *)
let percentile a p =
  let n = Array.length a in
  if n = 0 then 0
  else a.(max 0 (min (n - 1) (int_of_float (Float.ceil (p *. float_of_int n)) - 1)))

let run_pass ?(traced = false) ?(timed = false) ?corrupt ?(capacity = 64)
    ?monitor ?rate ?cycles w =
  let monitor = Option.value monitor ~default:w.monitor in
  let rate = Option.value rate ~default:w.rate in
  let cycles = Option.value cycles ~default:w.cycles in
  Gc.compact ();
  Pb_jit.before_setup ();
  let accs = if traced then Some (new_accs ()) else None in
  let t0 = now () in
  let reqs = Pb_trace.span "Trace.generate" (fun () -> w.gen ~rate ~cycles) in
  let replica =
    Pb_trace.span "Sim.create"
      ~args:[ ("via", w.label ^ "_backend.make") ]
      (fun () -> w.make ~monitor)
  in
  Pb_jit.check (w.label ^ " replica");
  let replica =
    match accs with Some a -> wrap_replica a replica | None -> replica
  in
  let replica =
    match corrupt with
    | Some k -> corrupt_replica ~k ~mangle:w.mangle replica
    | None -> replica
  in
  let host =
    Pb_trace.span "Host.create" (fun () ->
        Serve.Host.create
          ~classes:[ { Serve.Host.default_class with capacity } ]
          replica)
  in
  let t1 = now () in
  let n = Array.length reqs in
  let results = Array.make n None in
  let t_admit = if traced then Array.make n 0. else [||] in
  let resolved = ref 0 and shed = ref 0 in
  let next = ref 0 and last_resolution = ref 0 in
  let last_due = if n = 0 then 0 else fst reqs.(n - 1) in
  let cap = last_due + 200_000 in
  let step =
    match accs with
    | Some a -> fun () -> Pb_trace.time a.host (fun () -> Serve.Host.step host)
    | None -> fun () -> Serve.Host.step host
  in
  let resolve c =
    incr resolved;
    last_resolution := c
  in
  let w0 = Gc.minor_words () in
  let serve () =
    Pb_trace.span "serve" (fun () ->
      while !resolved < n && Serve.Host.cycle_no host < cap do
        let c = Serve.Host.cycle_no host in
        while !next < n && fst reqs.(!next) <= c do
          let id = !next in
          let arrival, job = reqs.(id) in
          if traced then t_admit.(id) <- now ();
          if not (Serve.Host.admit host ~id ~arrival job) then begin
            incr shed;
            resolve c
          end;
          incr next
        done;
        List.iter
          (fun ev ->
            let c = Serve.Host.cycle_no host in
            match ev with
            | Serve.Host.Completed { id; result; latency; slot } ->
                results.(id) <- Some (slot, result, latency);
                if traced then
                  Pb_trace.request ~job:id ~t0:t_admit.(id) ~t1:(now ())
                    ~args:
                      [ ("due_cycle", string_of_int (fst reqs.(id)));
                        ("latency_cycles", string_of_int latency);
                        ("slot", string_of_int slot) ];
                resolve c
            | Serve.Host.Timed_out _ -> resolve c
            | Serve.Host.Shed _ ->
                incr shed;
                resolve c)
          (step ())
      done)
  in
  let run_s, speed =
    if timed then
      let (), t = Pb_util.timed serve in
      (t.raw_s, t.speed)
    else begin
      serve ();
      (now () -. t1, ref_nominal)
    end
  in
  let words = Gc.minor_words () -. w0 in
  let cycles_run = Serve.Host.cycle_no host in
  (* Violations are read only after [finish]: the monitors finalize
     there, and read mid-run they would report in-flight tokens. *)
  Serve.Host.finish host;
  let violations = Serve.Host.violations host in
  let m = Serve.Host.metrics host in
  let qd =
    Melastic.Profile.gauge_hist (Serve.Host.profile host) "queue_depth"
  in
  let fp = Buffer.create (n * 48) in
  let wrong = ref 0 and lats = ref [] and completed = ref 0 in
  Array.iteri
    (fun id r ->
      match r with
      | Some (slot, res, lat) ->
          incr completed;
          lats := lat :: !lats;
          if res <> w.expected (snd reqs.(id)) ~slot then incr wrong;
          Printf.bprintf fp "%d:%d:%d:%s;" id slot lat (w.show res)
      | None -> Printf.bprintf fp "%d:-;" id)
    results;
  let latencies = Array.of_list !lats in
  Array.sort compare latencies;
  { setup_s = t1 -. t0;
    run_s;
    speed;
    words;
    cycles = cycles_run;
    offered = n;
    completed = !completed;
    shed = !shed;
    lost = n - !resolved;
    wrong = !wrong;
    latencies;
    drain = max 0 (!last_resolution - last_due);
    fingerprint = Digest.to_hex (Digest.string (Buffer.contents fp));
    violations;
    occupancy =
      (if m.Serve.Host.m_steps = 0 then 0.
       else
         float_of_int m.Serve.Host.m_busy_slot_cycles
         /. float_of_int (m.Serve.Host.m_steps * replica.Serve.Backend_intf.slots));
    queue_depth_p99 = Melastic.Histogram.percentile qd 0.99;
    accs }

(* Jobs per cycle with the queue never empty: every request due at
   cycle 0 and a queue deep enough to hold them all.  Returns the pass
   too, for the output checks. *)
let saturation w ~jobs =
  let reqs = w.gen ~rate:w.rate ~cycles:w.cycles in
  let jobs = min jobs (Array.length reqs) in
  let w0 =
    { w with gen = (fun ~rate:_ ~cycles:_ -> Array.init jobs (fun i -> (0, snd reqs.(i)))) }
  in
  let p = run_pass ~capacity:(jobs + 1) ~monitor:false w0 in
  (float_of_int p.completed /. float_of_int (max 1 p.cycles), p)

(* The highest rate of a fixed ladder (fractions of [sat]) that keeps
   p99 latency under the workload's limit with no backlog growth: no
   request shed or lost, and the queue drains within the limit after
   the last arrival.  Deterministic: every point is simulated time.
   Returns the passes too, for the output checks. *)
let sustained_rate w ~sat ~cycles =
  let ladder = [ 0.5; 0.6; 0.7; 0.8; 0.9; 1.0; 1.1; 1.2 ] in
  let passes =
    List.map
      (fun f -> (f *. sat, run_pass ~monitor:false ~rate:(f *. sat) ~cycles w))
      ladder
  in
  let ok p =
    p.shed = 0 && p.lost = 0
    && percentile p.latencies 0.99 <= w.p99_limit
    && p.drain <= w.p99_limit
  in
  ( List.fold_left (fun best (r, p) -> if ok p then r else best) 0. passes,
    List.map snd passes )

(* ---- the two designs ---- *)

let unique_model = { Fleet.Trace.default_model with hot_fraction = 0.0 }

let trace_arrivals ~model ~seed ~rate ~cycles =
  Fleet.Trace.generate ~model ~seed
    ~phases:[ Fleet.Trace.Steady { cycles; rate } ]
    ()

(* Saturation of one 8-thread MD5 host on the unique Pareto-sized
   payloads of [unique_model], measured with [saturation] at seed 1
   (jobs/cycle). *)
let md5_saturation = 0.1162

let md5 ~seed ~cycles : (string, string) workload =
  { label = "md5";
    make = (fun ~monitor -> Serve.Md5_backend.make ~monitor ~slots:8 () 0);
    gen =
      (fun ~rate ~cycles ->
        Array.map
          (fun r -> (r.Fleet.Trace.arrival, r.Fleet.Trace.payload))
          (trace_arrivals ~model:unique_model ~seed ~rate ~cycles));
    rate = 0.8 *. md5_saturation;
    cycles;
    monitor = false;
    expected = (fun payload ~slot:_ -> Md5.Md5_ref.digest payload);
    show = Fun.id;
    mangle = (fun d -> if d.[0] = '0' then "1" ^ String.sub d 1 31 else "0" ^ String.sub d 1 31);
    p99_limit = 1000 }

(* CPU jobs: loop programs with a seeded mix of shapes and trip
   counts.  [r15] holds the slot's data-memory base
   ([Cpu_backend.dmem_base_reg]). *)
let cpu_job rng =
  let trips = 1 + Random.State.int rng 12 in
  let acc0 = Random.State.int rng 1000 in
  let source =
    if Random.State.bool rng then
      Printf.sprintf
        "li r1, %d\nloop: add r2, r2, r1\naddi r1, r1, -1\nbne r1, r0, loop\nhalt"
        trips
    else
      Printf.sprintf
        "li r1, %d\nloop: sw r1, 0(r15)\nlw r3, 0(r15)\nadd r2, r2, r3\n\
         addi r1, r1, -1\nbne r1, r0, loop\nhalt"
        trips
  in
  { Serve.Cpu_backend.source; args = [ (2, acc0) ] }

let cpu_slots = 4
let cpu_mem = 1024

(* The register file [Cpu.Iss] computes for [job] run in [slot]'s
   memory regions, set up as [Cpu_backend.start] sets them up. *)
let cpu_reference (job : Serve.Cpu_backend.job) ~slot =
  let iregion = cpu_mem / cpu_slots and dregion = cpu_mem / cpu_slots in
  let base = slot * iregion in
  let imem = Array.make cpu_mem 0 in
  List.iteri
    (fun k w -> imem.(base + k) <- w land 0xffffffff)
    (Cpu.Asm.assemble_words ~origin:base job.Serve.Cpu_backend.source);
  let iss =
    Cpu.Iss.create ~imem ~dmem_size:cpu_mem ~threads:1 ~start_pcs:[| base |]
  in
  let th = iss.Cpu.Iss.threads.(0) in
  th.Cpu.Iss.regs.(Serve.Cpu_backend.dmem_base_reg) <- slot * dregion;
  List.iter (fun (r, v) -> th.Cpu.Iss.regs.(r) <- v) job.Serve.Cpu_backend.args;
  if not (Cpu.Iss.run ~max_steps:100_000 iss) then [||]
  else
    Array.init Cpu.Isa.num_regs (fun r ->
        if r = 0 then 0 else Cpu.Iss.reg_value iss ~thread:0 ~reg:r)

(* Saturation of one 4-thread CPU host on [cpu_job]'s mix (jobs/cycle),
   measured with [saturation] at seed 1. *)
let cpu_saturation = 0.01555

let cpu ~seed ~cycles : (Serve.Cpu_backend.job, Serve.Cpu_backend.result) workload =
  { label = "cpu";
    make =
      (fun ~monitor ->
        Serve.Cpu_backend.make ~monitor ~slots:cpu_slots ~imem_size:cpu_mem
          ~dmem_size:cpu_mem () 0);
    gen =
      (fun ~rate ~cycles ->
        let rng = Random.State.make [| 0xc0de; seed |] in
        Array.map
          (fun r -> (r.Fleet.Trace.arrival, cpu_job rng))
          (trace_arrivals ~model:unique_model ~seed ~rate ~cycles));
    rate = 0.6 *. cpu_saturation;
    cycles;
    monitor = true;
    expected = cpu_reference;
    show = (fun regs -> String.concat "," (Array.to_list (Array.map string_of_int regs)));
    mangle = (fun regs -> Array.mapi (fun i v -> if i = 2 then v + 1 else v) regs);
    p99_limit = 2000 }
