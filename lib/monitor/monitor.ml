(* Attachable runtime checkers for the MT-elastic protocol invariants.

   The paper's correctness argument rests on a handful of invariants
   that are otherwise implicit in the component implementations: at
   most one valid(i) per cycle on a multithreaded channel (Section
   III), per-thread persistence/stability of a stalled transfer, token
   conservation and per-thread FIFO order through MEB pipelines
   (Section IV — the reduced MEB is only correct if no thread ever
   loses or duplicates a word), global progress, and barrier liveness
   (Section V).  A [Monitor.t] rides on any simulator backend through
   a [Melastic.Profile] attached to the shared [Hw.Sampler] per-cycle
   loop: every channel a checker watches is registered with the
   profile, so the same pass that feeds the invariant checks also
   accumulates the channel's activity/stall/backpressure statistics
   ([Monitor.profile]).  Checkers read the [Mt_channel.probe]/
   [source]/[sink] export points (<name>_valid/_ready/_fire/_data)
   plus the barrier's named state probes; each violated invariant
   produces a structured report (checker, cycle, channel, thread,
   expected/actual) instead of a silent wrong answer.

   Every existing workload becomes a correctness test by attaching a
   monitor next to its driver — see [bench/exp_check.ml] and
   [test/test_monitor.ml]. *)

type violation = {
  checker : string;
  cycle : int;
  channel : string;
  thread : int option;
  expected : string;
  actual : string;
}

type t = {
  sampler : Hw.Sampler.t;
  profile : Melastic.Profile.t;
  max_reports : int; (* per checker instance; the rest are counted *)
  mutable violations : violation list; (* newest first *)
  mutable suppressed : int;
  mutable finalizers : (unit -> unit) list;
  mutable finalized : bool;
}

let create ?(max_reports = 10) sim =
  let sampler = Hw.Sampler.attach sim in
  { sampler;
    profile = Melastic.Profile.attach sampler;
    max_reports;
    violations = [];
    suppressed = 0;
    finalizers = [];
    finalized = false }

let sampler t = t.sampler
let profile t = t.profile

(* Each checker instance gets its own budget counter so one noisy
   checker cannot silence the others. *)
let reporter t =
  let count = ref 0 in
  fun ~checker ~cycle ~channel ?thread ~expected ~actual () ->
    incr count;
    if !count <= t.max_reports then
      t.violations <-
        { checker; cycle; channel; thread; expected; actual } :: t.violations
    else t.suppressed <- t.suppressed + 1

(* Every checker resolves its signals to sampler slots at attach time,
   so its per-cycle listener is bit tests on ints: no name building, no
   table lookup, no allocation.  Report strings (and the vectors they
   print) are only built on the violation path. *)
let slot t name = Hw.Sampler.watch t.sampler name

(* Threads [0, n) as a bit mask. *)
let thread_mask n = if n <= 0 then 0 else (1 lsl n) - 1

(* A data word as last sampled, kept without allocating: the int of a
   narrow slot, the stored vector of a wide one. *)
type word = {
  w_slot : Hw.Sampler.slot;
  mutable w_int : int;
  mutable w_bits : Bits.t;
}

let word s = { w_slot = s; w_int = 0; w_bits = Bits.zero 1 }

let save w =
  if Hw.Sampler.is_narrow w.w_slot then w.w_int <- Hw.Sampler.value_int w.w_slot
  else w.w_bits <- Hw.Sampler.value w.w_slot

let unchanged w =
  if Hw.Sampler.is_narrow w.w_slot then w.w_int = Hw.Sampler.value_int w.w_slot
  else Bits.equal w.w_bits (Hw.Sampler.value w.w_slot)

let saved w =
  if Hw.Sampler.is_narrow w.w_slot then
    Bits.of_int ~width:(Hw.Sampler.width w.w_slot) w.w_int
  else w.w_bits

(* ---- (a) one-hot valid ---- *)

(* Section III: the channel carries one data word, so at most one
   thread may assert valid in any cycle.  The checker shares the
   channel watch (and thus the per-cycle value refresh) with the
   profile — attaching a monitor also yields activity statistics. *)
let check_one_hot t ~name ~threads =
  Melastic.Profile.watch_channel t.profile ~name ~threads;
  let valid = slot t (Melastic.Names.valid name) in
  let mask = thread_mask threads in
  let report = reporter t in
  Melastic.Profile.on_sample t.profile (fun _ ->
      if Bits.popcount_int (Hw.Sampler.value_int valid land mask) > 1 then
        report ~checker:"one-hot" ~cycle:(Hw.Sampler.cycle t.sampler) ~channel:name
          ~expected:"at most one valid(i) asserted"
          ~actual:("valid = 0b" ^ Bits.to_binary_string (Hw.Sampler.value valid))
          ())

(* ---- (b) persistence / data stability under stall ---- *)

(* Baseline elastic persistence: valid(i) high and ready(i) low means
   the same thread must re-offer the same word next cycle.  On a
   multithreaded channel behind a Valid_only arbiter the grant may
   legally rotate to another waiting thread instead, so the default
   (relaxed) rule is: the stalled thread either persists with stable
   data or cedes the channel to some other valid thread.  [strict]
   restores the single-thread rule (no retraction at all); [gated]
   drops the cede requirement for channels whose valid is further
   masked downstream of the arbiter (a barrier phase, a branch
   condition): rotation onto a masked thread legally leaves the
   channel with no valid at all, so only re-offer data stability is
   checkable. *)
let check_stability ?(strict = false) ?(gated = false) t ~name ~threads =
  Melastic.Profile.watch_channel ~data:true t.profile ~name ~threads;
  let valid = slot t (Melastic.Names.valid name) in
  let ready = slot t (Melastic.Names.ready name) in
  let data = word (slot t (Melastic.Names.data name)) in
  let mask = thread_mask threads in
  let report = reporter t in
  let sampled = ref false in
  let prev_valid = ref 0 and prev_ready = ref 0 in
  Melastic.Profile.on_sample t.profile (fun _ ->
      let v = Hw.Sampler.value_int valid in
      (* Threads stalled last cycle. *)
      let stalled = !prev_valid land lnot !prev_ready land mask in
      if !sampled && stalled <> 0 then begin
        let cycle = Hw.Sampler.cycle t.sampler in
        for i = 0 to threads - 1 do
          if stalled land (1 lsl i) <> 0 then
            if v land (1 lsl i) <> 0 then begin
              if not (unchanged data) then
                report ~checker:"stability" ~cycle ~channel:name ~thread:i
                  ~expected:("stable data 0x" ^ Bits.to_hex_string (saved data))
                  ~actual:
                    ("data changed to 0x"
                    ^ Bits.to_hex_string (Hw.Sampler.value data.w_slot))
                  ()
            end
            else if strict then
              report ~checker:"stability" ~cycle ~channel:name ~thread:i
                ~expected:"valid(i) persists until ready(i)"
                ~actual:"valid retracted while stalled" ()
            else if (not gated) && v = 0 then
              report ~checker:"stability" ~cycle ~channel:name ~thread:i
                ~expected:"stalled valid persists or another thread is granted"
                ~actual:"all valids dropped with the token still untransferred"
                ()
        done
      end;
      sampled := true;
      prev_valid := v;
      prev_ready := Hw.Sampler.value_int ready;
      save data)

(* ---- (c) per-thread token conservation scoreboard ---- *)

(* Watches a producer probe [src] and a consumer probe [snk]: every
   token firing at [src] must fire at [snk] exactly once, per thread,
   in order, optionally transformed by [transform] (the circuit's
   reference function — identity for plain buffer pipelines, the RFC
   1321 compression for MD5, ...).  [max_in_flight] cross-checks the
   outstanding-token count against the slot capacity of the buffers
   between the probes (see [Meb.capacity]).  Without [compare_data]
   the scoreboard only counts: source data is neither read nor
   transformed. *)
let check_conservation ?transform ?(compare_data = true) ?max_in_flight
    ?(expect_drained = false) t ~src ~snk ~threads =
  let transform = match transform with Some f -> f | None -> fun b -> b in
  Melastic.Profile.watch_channel ~data:true t.profile ~name:src ~threads;
  Melastic.Profile.watch_channel ~data:true t.profile ~name:snk ~threads;
  let src_fire = slot t (Melastic.Names.fire src) in
  let src_data = slot t (Melastic.Names.data src) in
  let snk_fire = slot t (Melastic.Names.fire snk) in
  let snk_data = slot t (Melastic.Names.data snk) in
  let report = reporter t in
  let channel = src ^ "->" ^ snk in
  let queues = Array.init threads (fun _ -> Queue.create ()) in
  let outstanding = ref 0 in
  let over_bound = ref false in
  let uncompared = Bits.zero 1 in
  Melastic.Profile.on_sample t.profile (fun _ ->
      let cycle = Hw.Sampler.cycle t.sampler in
      let sf = Hw.Sampler.value_int src_fire in
      if sf <> 0 then begin
        let sd = if compare_data then Hw.Sampler.value src_data else uncompared in
        for i = 0 to threads - 1 do
          if sf land (1 lsl i) <> 0 then begin
            Queue.add (if compare_data then transform sd else uncompared) queues.(i);
            incr outstanding
          end
        done
      end;
      let kf = Hw.Sampler.value_int snk_fire in
      if kf <> 0 then begin
        let kd = if compare_data then Hw.Sampler.value snk_data else uncompared in
        for i = 0 to threads - 1 do
          if kf land (1 lsl i) <> 0 then
            if Queue.is_empty queues.(i) then
              report ~checker:"conservation" ~cycle ~channel ~thread:i
                ~expected:"every sink token matches an outstanding source token"
                ~actual:"token delivered with an empty scoreboard (duplication)"
                ()
            else begin
              let expected = Queue.pop queues.(i) in
              decr outstanding;
              if compare_data && not (Bits.equal kd expected) then
                report ~checker:"conservation" ~cycle ~channel ~thread:i
                  ~expected:("0x" ^ Bits.to_hex_string expected ^ " (FIFO order)")
                  ~actual:("0x" ^ Bits.to_hex_string kd)
                  ()
            end
        done
      end;
      match max_in_flight with
      | Some bound ->
        if !outstanding > bound then begin
          (* Report once per excursion above the bound, not per cycle. *)
          if not !over_bound then
            report ~checker:"conservation" ~cycle ~channel
              ~expected:
                (Printf.sprintf "at most %d tokens in flight (buffer capacity)"
                   bound)
              ~actual:(Printf.sprintf "%d outstanding" !outstanding)
              ();
          over_bound := true
        end
        else over_bound := false
      | None -> ());
  t.finalizers <-
    (fun () ->
      if expect_drained then
        Array.iteri
          (fun i q ->
            if not (Queue.is_empty q) then
              report ~checker:"conservation"
                ~cycle:(Hw.Sampler.cycle t.sampler) ~channel ~thread:i
                ~expected:"all injected tokens delivered (drained run)"
                ~actual:
                  (Printf.sprintf "%d token(s) lost in flight" (Queue.length q))
                ())
          queues)
    :: t.finalizers

(* ---- (d) deadlock / starvation watchdog ---- *)

(* No transfer on any watched channel for [timeout] cycles while
   [pending] reports outstanding work is a deadlock; a single thread
   making no transfer for [starvation_timeout] cycles while
   [thread_pending] holds is starvation (the fairness the per-thread
   handshakes are supposed to provide, Section III.A). *)
let check_watchdog ?(timeout = 1000) ?starvation_timeout ?thread_pending
    ?(pending = fun () -> true) t ~channels ~threads =
  List.iter
    (fun name -> Melastic.Profile.watch_channel t.profile ~name ~threads)
    channels;
  let fires =
    Array.of_list
      (List.map (fun name -> slot t (Melastic.Names.fire name)) channels)
  in
  let report = reporter t in
  let channel = String.concat "," channels in
  let last_any = ref (-1) in
  let last_thread = Array.make threads (-1) in
  Melastic.Profile.on_sample t.profile (fun _ ->
      let cycle = Hw.Sampler.cycle t.sampler in
      for k = 0 to Array.length fires - 1 do
        let v = Hw.Sampler.value_int fires.(k) in
        if v <> 0 then begin
          last_any := cycle;
          for i = 0 to threads - 1 do
            if v land (1 lsl i) <> 0 then last_thread.(i) <- cycle
          done
        end
      done;
      if cycle - !last_any >= timeout && pending () then begin
        report ~checker:"watchdog" ~cycle ~channel
          ~expected:
            (Printf.sprintf "a transfer within %d cycles while work is pending"
               timeout)
          ~actual:
            (Printf.sprintf "no transfer since cycle %d" (max 0 !last_any))
          ();
        last_any := cycle (* re-arm *)
      end;
      match (starvation_timeout, thread_pending) with
      | Some st, Some tp ->
        for i = 0 to threads - 1 do
          if cycle - last_thread.(i) >= st && tp i then begin
            report ~checker:"watchdog" ~cycle ~channel ~thread:i
              ~expected:
                (Printf.sprintf
                   "thread transfers within %d cycles while it has work" st)
              ~actual:
                (Printf.sprintf "starved since cycle %d" (max 0 last_thread.(i)))
              ();
            last_thread.(i) <- cycle
          end
        done
      | _ -> ())

(* ---- (e) barrier liveness ---- *)

(* Every participant entering WAIT must be released (see its FSM leave
   WAIT) once all participants have arrived; a thread parked in WAIT
   for [timeout] cycles means the episode can never complete
   (Section V / Fig. 8). *)
let check_barrier ?(timeout = 1000) ?participants t ~name ~threads =
  let participates =
    match participants with None -> Array.make threads true | Some p -> p
  in
  let states =
    Array.mapi
      (fun i p -> if p then Some (slot t (Melastic.Names.state name i)) else None)
      participates
  in
  let report = reporter t in
  let entered = Array.make threads (-1) in
  Hw.Sampler.on_sample t.sampler (fun smp ->
      let cycle = Hw.Sampler.cycle smp in
      for i = 0 to threads - 1 do
        match states.(i) with
        | Some st ->
          if Hw.Sampler.value_int st = Melastic.Barrier.state_wait then begin
            if entered.(i) < 0 then entered.(i) <- cycle
            else if cycle - entered.(i) >= timeout then begin
              report ~checker:"barrier" ~cycle ~channel:name ~thread:i
                ~expected:
                  (Printf.sprintf "release (go flip) within %d cycles of WAIT"
                     timeout)
                ~actual:
                  (Printf.sprintf "in WAIT since cycle %d" entered.(i))
                ();
              entered.(i) <- cycle (* re-arm *)
            end
          end
          else entered.(i) <- -1
        | None -> ()
      done)

(* ---- results ---- *)

let finalize t =
  if not t.finalized then begin
    t.finalized <- true;
    List.iter (fun f -> f ()) (List.rev t.finalizers)
  end

let violations t =
  finalize t;
  List.rev t.violations

let violation_count t =
  finalize t;
  List.length t.violations + t.suppressed

let ok t = violation_count t = 0

let exit_code t = if ok t then 0 else 1

let pp_violation fmt v =
  Format.fprintf fmt "[%s] cycle %d, channel %s%s: expected %s; got %s"
    v.checker v.cycle v.channel
    (match v.thread with
     | Some i -> Printf.sprintf ", thread %d" i
     | None -> "")
    v.expected v.actual

let summary t =
  finalize t;
  let buf = Buffer.create 256 in
  let n = violation_count t in
  Buffer.add_string buf
    (if n = 0 then "monitor: all invariants held\n"
     else Printf.sprintf "monitor: %d violation(s)%s\n" n
         (if t.suppressed > 0 then
            Printf.sprintf " (%d suppressed)" t.suppressed
          else ""));
  List.iter
    (fun v -> Buffer.add_string buf (Format.asprintf "  %a@." pp_violation v))
    (violations t);
  Buffer.contents buf
