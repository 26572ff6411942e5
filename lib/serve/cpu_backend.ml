(* CPU serving backend: each thread slot of the MT-elastic processor
   is an execution context the host launches, harvests and — on
   deadline — kills and relaunches, through the pipeline's serve
   interface (restart/kill/restart_pc, see Mt_pipeline).

   Slot lifecycle:

     Free --start--> Launching --restart pulse--> Running
       ^                                             |
       |<------- halted (completion harvested) ------|
       |<-- Draining <---- kill pulse (cancel) ------|
                 (waits for the in-flight instruction)

   The restart host contract (only pulse while halted and not busy) is
   honoured by construction: Free follows either a halt or a drained
   kill, and restart pulses are serialized one per cycle because
   restart_pc is a single shared port. *)

type job = { source : string; args : (int * int) list }
type result = int array

let dmem_base_reg = Cpu.Isa.num_regs - 1

type slot_state = Free | Launching | Running | Draining

let make_monitored ?(kind = Melastic.Meb.Reduced) ?(monitor = false)
    ?(slots = 4) ?(imem_size = 1024) ?(dmem_size = 1024) () _index :
    (job, result) Engine.replica * Monitor.t option =
  let config =
    { (Cpu.Mt_pipeline.default_config ~threads:slots) with
      Cpu.Mt_pipeline.kind;
      imem_size;
      dmem_size }
  in
  let circuit, t = Cpu.Mt_pipeline.circuit ~probes:monitor ~serve:true config in
  let sim = Hw.Sim.create circuit in
  let mon =
    if not monitor then None
    else begin
      let m = Monitor.create sim in
      let chans = [ "cpu_fetch"; "cpu_mem"; "cpu_wb" ] in
      List.iter (fun n -> Monitor.check_one_hot m ~name:n ~threads:slots) chans;
      List.iter (fun n -> Monitor.check_stability m ~name:n ~threads:slots) chans;
      (* Instructions are the tokens: every fetch of a thread retires
         exactly once, in order, whatever the slot churn. *)
      Monitor.check_conservation m ~src:"cpu_fetch" ~snk:"cpu_wb" ~threads:slots
        ~compare_data:false;
      Some m
    end
  in
  let iregion = imem_size / slots in
  let dregion = dmem_size / slots in
  if iregion < 2 || dregion < 1 then
    invalid_arg "Cpu_backend.make: memory regions too small for slot count";
  let state = Array.make slots Free in
  let kill_pending = Array.make slots false in
  let pending_restart : (int * int) Queue.t = Queue.create () in
  let pulsing = ref None in
  let completions = ref [] in
  let restart = Hw.Sim.input_port sim "restart" in
  let kill = Hw.Sim.input_port sim "kill" in
  let restart_pc = Hw.Sim.input_port sim "restart_pc" in
  let halted_vec = Hw.Sim.signal_port sim "halted_vec" in
  let busy_vec = Hw.Sim.signal_port sim "busy_vec" in
  let imem = Hw.Sim.mem_port sim t.Cpu.Mt_pipeline.imem in
  let regfile = Hw.Sim.mem_port sim t.Cpu.Mt_pipeline.regfile in
  let dmem = Hw.Sim.mem_port sim t.Cpu.Mt_pipeline.dmem in
  let step () =
    (* Drop last cycle's pulses before raising this cycle's.  Port
       writes only dirty the circuit on a change, so the idle case
       costs no settle. *)
    Hw.Sim.write_int restart 0;
    Hw.Sim.write_int kill 0;
    let kill_mask = ref 0 in
    for i = 0 to slots - 1 do
      if kill_pending.(i) then begin
        kill_pending.(i) <- false;
        kill_mask := !kill_mask lor (1 lsl i)
      end
    done;
    if !kill_mask <> 0 then Hw.Sim.write_int kill !kill_mask;
    (* One restart per cycle (restart_pc is shared), and only once the
       thread is halted with no instruction in flight. *)
    (match Queue.peek_opt pending_restart with
     | Some (slot, base)
       when Hw.Sim.read_int halted_vec land (1 lsl slot) <> 0
            && Hw.Sim.read_int busy_vec land (1 lsl slot) = 0 ->
       ignore (Queue.pop pending_restart);
       Hw.Sim.write_int restart (1 lsl slot);
       Hw.Sim.write_int restart_pc base;
       pulsing := Some slot
     | _ -> ());
    Hw.Sim.cycle sim;
    (match !pulsing with
     | Some slot ->
       state.(slot) <- Running;
       pulsing := None
     | None -> ());
    let halted = Hw.Sim.read_int halted_vec in
    let busy = Hw.Sim.read_int busy_vec in
    for i = 0 to slots - 1 do
      match state.(i) with
      | Running when halted land (1 lsl i) <> 0 ->
        let base = i * Cpu.Isa.num_regs in
        let regs =
          Array.init Cpu.Isa.num_regs (fun r ->
              if r = 0 then 0 else Hw.Sim.mem_get_int regfile (base + r))
        in
        completions := (i, regs) :: !completions;
        state.(i) <- Free
      | Draining when busy land (1 lsl i) = 0 -> state.(i) <- Free
      | _ -> ()
    done
  in
  ( { Engine.slots;
    slot_free = (fun i -> state.(i) = Free);
    start =
      (fun ~slot job ->
        if state.(slot) <> Free then invalid_arg "Cpu_backend.start: slot not free";
        let base = slot * iregion in
        let words = Cpu.Asm.assemble_words ~origin:base job.source in
        if List.length words > iregion then
          invalid_arg "Cpu_backend.start: program overflows the slot's imem region";
        List.iteri
          (fun k w -> Hw.Sim.mem_set_int imem (base + k) (w land 0xffffffff))
          words;
        (* Fresh architectural state: zeroed registers (determinism
           across slot reuse and replica routing), the dmem-base
           convention register, then the job's arguments. *)
        let dbase = slot * dregion in
        for r = 1 to Cpu.Isa.num_regs - 1 do
          let v =
            if r = dmem_base_reg then dbase
            else 0
          in
          let v = match List.assoc_opt r job.args with Some a -> a | None -> v in
          (* Two's complement, as the 32-bit register holds it. *)
          Hw.Sim.mem_set_int regfile
            ((slot * Cpu.Isa.num_regs) + r)
            (v land 0xffffffff)
        done;
        Hw.Sim.mem_fill_int dmem ~pos:dbase ~len:dregion 0;
        state.(slot) <- Launching;
        Queue.add (slot, base) pending_restart);
    cancel =
      (fun ~slot ->
        match state.(slot) with
        | Launching ->
          (* Not yet pulsed: just forget the queued restart. *)
          let keep = Queue.create () in
          Queue.iter (fun (s, b) -> if s <> slot then Queue.add (s, b) keep) pending_restart;
          Queue.clear pending_restart;
          Queue.transfer keep pending_restart;
          state.(slot) <- Free
        | Running ->
          kill_pending.(slot) <- true;
          state.(slot) <- Draining
        | Draining | Free -> ());
    step;
    completions =
      (fun () ->
        let l = List.rev !completions in
        completions := [];
        l);
    cycle_no = (fun () -> Hw.Sim.cycle_no sim);
    finish =
      (fun () ->
        (* Kill leftovers and drain them so the conservation checker's
           per-thread scoreboards end balanced. *)
        Array.iteri
          (fun i s ->
            match s with
            | Running ->
              kill_pending.(i) <- true;
              state.(i) <- Draining
            | Launching | Draining | Free -> ())
          state;
        let guard = ref 0 in
        while Array.exists (fun s -> s = Draining) state && !guard < 10_000 do
          step ();
          incr guard
        done;
        match mon with Some m -> Monitor.finalize m | None -> ());
    violations =
      (fun () -> match mon with Some m -> Monitor.violation_count m | None -> 0) },
    mon )

let make ?kind ?monitor ?slots ?imem_size ?dmem_size () index =
  fst (make_monitored ?kind ?monitor ?slots ?imem_size ?dmem_size () index)

let monitored_probes = [ "cpu_fetch"; "cpu_mem"; "cpu_wb" ]

(* The same backend packed as a first-class module, for
   [Engine.create_b] and for composition inside [Noc_backend]. *)
let backend ?kind ?monitor ?slots ?imem_size ?dmem_size () :
    (job, result) Backend_intf.t =
  (module struct
    type nonrec job = job
    type nonrec result = result

    let name = "cpu"
    let probes = monitored_probes

    let make_replica index =
      make ?kind ?monitor ?slots ?imem_size ?dmem_size () index
  end)
