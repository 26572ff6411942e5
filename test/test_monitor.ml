(* Runtime protocol monitors: every checker stays green on correct
   workloads (MD5, the MT processor, a barrier graph — on both
   simulator backends), and each negative fixture trips exactly the
   checker it targets. *)

module S = Hw.Signal
module Mc = Melastic.Mt_channel
module D = Synth.Dataflow

let backends = [ Hw.Sim.Interp; Hw.Sim.Compiled; Hw.Sim.Jit ]

(* Distinct checker classes among a monitor's reports. *)
let checker_classes m =
  List.sort_uniq compare
    (List.map (fun v -> v.Monitor.checker) (Monitor.violations m))

let check_clean tag m =
  if not (Monitor.ok m) then
    Alcotest.failf "%s:\n%s" tag (Monitor.summary m)

let check_only tag checker m =
  Alcotest.(check bool) (tag ^ ": violations found") true
    (Monitor.violation_count m > 0);
  Alcotest.(check (list string)) (tag ^ ": only " ^ checker) [ checker ]
    (checker_classes m)

(* ---- positive: real workloads stay green on both backends ---- *)

let md5_clean ?optimize () =
  List.iter
    (fun backend ->
      let threads = 3 in
      let circuit =
        Md5.Md5_circuit.circuit ~kind:Melastic.Meb.Reduced ~probes:true
          ~threads ()
      in
      let sim = Hw.Sim.create ~backend ?optimize circuit in
      let m = Monitor.create sim in
      List.iter (fun n -> Monitor.check_one_hot m ~name:n ~threads)
        [ "msg"; "digest"; "md5_dp"; "md5_bar_in" ];
      Monitor.check_stability ~strict:true m ~name:"msg" ~threads;
      Monitor.check_stability m ~name:"md5_dp" ~threads;
      Monitor.check_stability m ~name:"md5_bar_in" ~threads;
      Monitor.check_stability ~gated:true m ~name:"digest" ~threads;
      Monitor.check_conservation m ~src:"msg" ~snk:"digest" ~threads
        ~transform:Md5.Md5_circuit.reference_digest
        ~max_in_flight:(2 * threads) ~expect_drained:true;
      Monitor.check_barrier m ~name:"md5_barrier" ~threads;
      Monitor.check_watchdog m ~channels:[ "msg"; "digest" ] ~threads;
      let d =
        Workload.Mt_driver.create sim ~src:"msg" ~snk:"digest" ~threads
          ~width:Md5.Md5_circuit.input_width
      in
      let st = Random.State.make [| 5; 7 |] in
      let iv = Md5.Md5_ref.state_to_bits Md5.Md5_ref.iv in
      for t = 0 to threads - 1 do
        Workload.Mt_driver.push d ~thread:t
          (Md5.Md5_circuit.input_bits
             ~block:(Bits.random st ~width:Md5.Md5_circuit.block_width)
             ~iv)
      done;
      Alcotest.(check bool) "drained" true
        (Workload.Mt_driver.run_until_drained d ~limit:5000);
      check_clean ("md5 " ^ Hw.Sim.backend_to_string backend) m)
    backends

let test_md5_clean () = md5_clean ()

(* Every monitor attaches to probes by name ([md5_dp], [msg], …), so
   this doubles as the name-preservation regression for the optimizer:
   if [Transform.optimize] dropped or renamed a probe, monitor
   creation (or its samplers) would fail on both backends here. *)
let test_md5_clean_optimized () = md5_clean ~optimize:true ()

let test_cpu_clean () =
  List.iter
    (fun backend ->
      let threads = 2 in
      let config =
        { (Cpu.Mt_pipeline.default_config ~threads) with
          Cpu.Mt_pipeline.imem_size = 64;
          dmem_size = 64;
          exe_latency = Melastic.Mt_varlat.Random { max_latency = 2; seed = 3 } }
      in
      let circuit, t = Cpu.Mt_pipeline.circuit ~probes:true config in
      let sim = Hw.Sim.create ~backend circuit in
      let m = Monitor.create sim in
      let chans = [ "cpu_fetch"; "cpu_mem"; "cpu_wb" ] in
      List.iter (fun n -> Monitor.check_one_hot m ~name:n ~threads) chans;
      List.iter (fun n -> Monitor.check_stability m ~name:n ~threads) chans;
      Monitor.check_conservation m ~src:"cpu_fetch" ~snk:"cpu_wb" ~threads
        ~compare_data:false ~max_in_flight:threads ~expect_drained:true;
      Monitor.check_watchdog ~timeout:200 m ~channels:chans ~threads
        ~pending:(fun () -> not (Hw.Sim.peek_bool sim "halted_all"));
      let program =
        "addi r1, r0, 5\n\
         loop: addi r1, r1, -1\n\
         sw r1, 0(r1)\n\
         bne r1, r0, loop\n\
         halt\n"
      in
      Cpu.Mt_pipeline.load_program sim t (Cpu.Asm.assemble_words program);
      Hw.Sim.settle sim;
      (match Cpu.Mt_pipeline.run_until_halted sim ~limit:5000 with
       | Some _ -> ()
       | None -> Alcotest.fail "cpu did not halt");
      check_clean ("cpu " ^ Hw.Sim.backend_to_string backend) m)
    backends

(* Barrier workload: all participants arrive and are released, every
   episode. *)
let barrier_graph ~threads =
  let g = D.create ~threads () in
  let x = D.input g ~name:"x" ~width:16 in
  (* ids in construction order: input=0, buffer=1, barrier=2. *)
  let x = D.buffer g x in
  let y = D.barrier g ~name:"bar" x in
  let y = D.buffer g y in
  D.output g ~name:"y" y;
  g

let test_barrier_clean () =
  List.iter
    (fun backend ->
      let threads = 3 in
      let sim = Hw.Sim.create ~backend (D.circuit (barrier_graph ~threads)) in
      let m = Monitor.create sim in
      List.iter (fun n -> Monitor.check_one_hot m ~name:n ~threads) [ "x"; "y" ];
      Monitor.check_conservation m ~src:"x" ~snk:"y" ~threads
        ~expect_drained:true;
      Monitor.check_barrier ~timeout:100 m ~name:"bar_n2" ~threads;
      Monitor.check_watchdog ~timeout:100 m ~channels:[ "x"; "y" ] ~threads;
      let d =
        Workload.Mt_driver.create sim ~src:"x" ~snk:"y" ~threads ~width:16
      in
      for t = 0 to threads - 1 do
        for i = 1 to 4 do Workload.Mt_driver.push_int d ~thread:t i done
      done;
      Alcotest.(check bool) "drained" true
        (Workload.Mt_driver.run_until_drained d ~limit:1000);
      check_clean ("barrier " ^ Hw.Sim.backend_to_string backend) m)
    backends

(* ---- negative: each fixture trips exactly its checker ---- *)

(* (a) two valids asserted at once. *)
let test_trip_one_hot () =
  let b = S.Builder.create () in
  ignore (S.output b "rogue_valid" (S.of_int b ~width:2 3));
  ignore (S.output b "rogue_ready" (S.of_int b ~width:2 0));
  ignore (S.output b "rogue_data" (S.of_int b ~width:8 0x42));
  let sim = Hw.Sim.create (Hw.Circuit.create b) in
  let m = Monitor.create sim in
  Monitor.check_one_hot m ~name:"rogue" ~threads:2;
  Monitor.check_stability m ~name:"rogue" ~threads:2;
  Hw.Sim.cycles sim 5;
  check_only "one-hot" "one-hot" m;
  (match Monitor.violations m with
   | v :: _ ->
     Alcotest.(check string) "channel" "rogue" v.Monitor.channel;
     Alcotest.(check int) "first at cycle 0" 0 v.Monitor.cycle
   | [] -> Alcotest.fail "no violation")

(* (b) data mutates under a stall. *)
let test_trip_stability_data () =
  let b = S.Builder.create () in
  ignore (S.output b "u_valid" (S.of_int b ~width:1 1));
  ignore (S.output b "u_ready" (S.of_int b ~width:1 0));
  ignore
    (S.output b "u_data"
       (S.reg_fb b ~width:8 (fun q -> S.add b q (S.of_int b ~width:8 1))));
  let sim = Hw.Sim.create (Hw.Circuit.create b) in
  let m = Monitor.create sim in
  Monitor.check_one_hot m ~name:"u" ~threads:1;
  Monitor.check_stability m ~name:"u" ~threads:1;
  Hw.Sim.cycles sim 5;
  check_only "stability/data" "stability" m

(* (b) strict: valid retracted before the transfer. *)
let test_trip_stability_retraction () =
  let b = S.Builder.create () in
  let toggling = S.reg_fb b ~init:(Bits.of_int ~width:1 1) ~width:1 (fun q -> S.lnot b q) in
  ignore (S.output b "u_valid" toggling);
  ignore (S.output b "u_ready" (S.of_int b ~width:1 0));
  ignore (S.output b "u_data" (S.of_int b ~width:8 0x42));
  let sim = Hw.Sim.create (Hw.Circuit.create b) in
  let m = Monitor.create sim in
  Monitor.check_one_hot m ~name:"u" ~threads:1;
  Monitor.check_stability ~strict:true m ~name:"u" ~threads:1;
  Hw.Sim.cycles sim 6;
  check_only "stability/retraction" "stability" m

(* (c) a deliberately broken 1-slot buffer: its input is always ready,
   so under backpressure an arriving token silently overwrites the
   occupied slot — exactly the loss the conservation scoreboard must
   catch. *)
let broken_one_slot_buffer b (ch : Mc.t) =
  let threads = Mc.threads ch in
  let width = Mc.width ch in
  let any_in = Mc.any_valid b ch in
  Array.iter (fun r -> S.assign r (S.vdd b)) ch.Mc.readys;
  let out = Mc.wires b ~threads ~width in
  let out_fire = Mc.any_transfer b out in
  let occupied =
    S.reg_fb b ~width:1 (fun q ->
        S.mux2 b any_in (S.vdd b) (S.mux2 b out_fire (S.gnd b) q))
  in
  let tid = S.reg b ~enable:any_in (Mc.active_thread b ch) in
  let data = S.reg b ~enable:any_in ch.Mc.data in
  Array.iteri
    (fun i v ->
      S.assign v (S.land_ b (S.bit b occupied 0) (S.eq_const b tid i)))
    out.Mc.valids;
  S.assign out.Mc.data data;
  out

let test_trip_conservation_loss () =
  let threads = 2 and width = 16 in
  let b = S.Builder.create () in
  let src = Mc.source b ~name:"src" ~threads ~width in
  let out = broken_one_slot_buffer b src in
  Mc.sink b ~name:"snk" out;
  let sim = Hw.Sim.create (Hw.Circuit.create b) in
  let m = Monitor.create sim in
  List.iter (fun n -> Monitor.check_one_hot m ~name:n ~threads)
    [ "src"; "snk" ];
  Monitor.check_conservation m ~src:"src" ~snk:"snk" ~threads
    ~expect_drained:true;
  let d = Workload.Mt_driver.create sim ~src:"src" ~snk:"snk" ~threads ~width in
  for t = 0 to threads - 1 do
    for i = 1 to 5 do
      Workload.Mt_driver.push_int d ~thread:t ((100 * t) + i)
    done
  done;
  (* Accept only every third cycle: tokens pile up and get clobbered. *)
  Workload.Mt_driver.set_sink_ready d (fun c _ -> c mod 3 = 0);
  Workload.Mt_driver.run d 100;
  check_only "conservation/loss" "conservation" m

(* (c) duplication: a firing sink with no matching source token. *)
let test_trip_conservation_duplication () =
  let b = S.Builder.create () in
  ignore (S.output b "src_fire" (S.of_int b ~width:1 0));
  ignore (S.output b "src_data" (S.of_int b ~width:8 0));
  ignore (S.output b "snk_fire" (S.of_int b ~width:1 1));
  ignore (S.output b "snk_data" (S.of_int b ~width:8 7));
  let sim = Hw.Sim.create (Hw.Circuit.create b) in
  let m = Monitor.create sim in
  Monitor.check_conservation m ~src:"src" ~snk:"snk" ~threads:1;
  Hw.Sim.cycles sim 3;
  check_only "conservation/duplication" "conservation" m

(* (d) sink never ready with work pending. *)
let test_trip_watchdog () =
  let threads = 2 and width = 16 in
  let b = S.Builder.create () in
  let src = Mc.source b ~name:"src" ~threads ~width in
  let meb = Melastic.Meb.create ~name:"MEB" ~kind:Melastic.Meb.Full b src in
  Mc.sink b ~name:"snk" meb.Melastic.Meb.out;
  let sim = Hw.Sim.create (Hw.Circuit.create b) in
  let m = Monitor.create sim in
  List.iter (fun n -> Monitor.check_one_hot m ~name:n ~threads)
    [ "src"; "snk" ];
  Monitor.check_watchdog ~timeout:50 ~starvation_timeout:50
    ~thread_pending:(fun _ -> true) m ~channels:[ "snk" ] ~threads;
  let d = Workload.Mt_driver.create sim ~src:"src" ~snk:"snk" ~threads ~width in
  Workload.Mt_driver.push_int d ~thread:0 1;
  Workload.Mt_driver.push_int d ~thread:1 2;
  Workload.Mt_driver.set_sink_ready d (fun _ _ -> false);
  Workload.Mt_driver.run d 150;
  check_only "watchdog" "watchdog" m

(* (e) one participant never shows up: the others park in WAIT. *)
let test_trip_barrier () =
  let threads = 3 in
  let sim = Hw.Sim.create (D.circuit (barrier_graph ~threads)) in
  let m = Monitor.create sim in
  List.iter (fun n -> Monitor.check_one_hot m ~name:n ~threads) [ "x"; "y" ];
  Monitor.check_barrier ~timeout:60 m ~name:"bar_n2" ~threads;
  let d = Workload.Mt_driver.create sim ~src:"x" ~snk:"y" ~threads ~width:16 in
  Workload.Mt_driver.push_int d ~thread:0 1;
  Workload.Mt_driver.push_int d ~thread:1 2;
  (* thread 2 never arrives *)
  Workload.Mt_driver.run d 200;
  check_only "barrier" "barrier" m;
  let stuck =
    List.filter_map (fun v -> v.Monitor.thread) (Monitor.violations m)
    |> List.sort_uniq compare
  in
  Alcotest.(check (list int)) "threads 0 and 1 parked in WAIT" [ 0; 1 ] stuck

(* Report budget: a noisy checker is capped per instance and the
   overflow is still counted. *)
let test_report_budget () =
  let b = S.Builder.create () in
  ignore (S.output b "rogue_valid" (S.of_int b ~width:2 3));
  let sim = Hw.Sim.create (Hw.Circuit.create b) in
  let m = Monitor.create ~max_reports:4 sim in
  Monitor.check_one_hot m ~name:"rogue" ~threads:2;
  Hw.Sim.cycles sim 10;
  Alcotest.(check int) "detailed reports capped" 4
    (List.length (Monitor.violations m));
  Alcotest.(check int) "all occurrences counted" 10 (Monitor.violation_count m);
  Alcotest.(check int) "exit code" 1 (Monitor.exit_code m)

(* ---- pinned reports and channel statistics ----

   The exact [Monitor.summary] and [Profile.to_json] of two runs, as
   produced before the checkers and the profile moved from by-name
   sampling to resolved ports: any change to a report string or a
   channel statistic fails here, on every backend. *)

(* The broken 1-slot buffer again, under stability and conservation
   checkers: thread 0 offers more tokens than thread 1, so same-thread
   overwrites change a stalled word (stability) besides losing and
   reordering tokens (conservation). *)
let pinned_fault_summary = {|monitor: 8 violation(s)
  [conservation] cycle 1, channel src->snk: expected at most 1 tokens in flight (buffer capacity); got 2 outstanding
  [conservation] cycle 3, channel src->snk, thread 0: expected 0x0001 (FIFO order); got 0x0002
  [stability] cycle 6, channel snk, thread 0: expected stable data 0x0003; got data changed to 0x0004
  [conservation] cycle 6, channel src->snk, thread 0: expected 0x0002 (FIFO order); got 0x0004
  [stability] cycle 8, channel snk, thread 0: expected stable data 0x0005; got data changed to 0x0006
  [conservation] cycle 9, channel src->snk, thread 0: expected 0x0003 (FIFO order); got 0x0006
  [conservation] cycle 99, channel src->snk, thread 0: expected all injected tokens delivered (drained run); got 3 token(s) lost in flight
  [conservation] cycle 99, channel src->snk, thread 1: expected all injected tokens delivered (drained run); got 2 token(s) lost in flight
|}

let pinned_fault_profile = {|{
  "cycles": 100,
  "channels": [
    {"name":"src","threads":2,"fires":8,"fires_per_thread":[6,2],"active_cycles":8,"stall_cycles":0,"backpressure_cycles":0,"idle_cycles":92,"occupancy":null},
    {"name":"snk","threads":2,"fires":3,"fires_per_thread":[3,0],"active_cycles":3,"stall_cycles":6,"backpressure_cycles":6,"idle_cycles":91,"occupancy":null}
  ],
  "gauges": [
  ]
}
|}

let test_pinned_fault_report () =
  List.iter
    (fun backend ->
      let tag = "fault " ^ Hw.Sim.backend_to_string backend in
      let threads = 2 and width = 16 in
      let b = S.Builder.create () in
      let src = Mc.source b ~name:"src" ~threads ~width in
      let out = broken_one_slot_buffer b src in
      Mc.sink b ~name:"snk" out;
      let sim = Hw.Sim.create ~backend (Hw.Circuit.create b) in
      let m = Monitor.create sim in
      List.iter (fun n -> Monitor.check_one_hot m ~name:n ~threads) [ "src"; "snk" ];
      List.iter (fun n -> Monitor.check_stability m ~name:n ~threads) [ "src"; "snk" ];
      Monitor.check_conservation m ~src:"src" ~snk:"snk" ~threads ~max_in_flight:1
        ~expect_drained:true;
      let d = Workload.Mt_driver.create sim ~src:"src" ~snk:"snk" ~threads ~width in
      for t = 0 to threads - 1 do
        for i = 1 to (if t = 0 then 6 else 2) do
          Workload.Mt_driver.push_int d ~thread:t ((100 * t) + i)
        done
      done;
      Workload.Mt_driver.set_sink_ready d (fun c _ -> c mod 3 = 0);
      Workload.Mt_driver.run d 100;
      Alcotest.(check string) (tag ^ ": summary") pinned_fault_summary
        (Monitor.summary m);
      Alcotest.(check string) (tag ^ ": profile") pinned_fault_profile
        (Melastic.Profile.to_json (Monitor.profile m)))
    backends

(* A short monitored CPU serving run through [Serve.Host]: two slots,
   a runaway job killed at its deadline, restarts and slot reuse. *)
let pinned_cpu_events = {|timeout 1 tries 1
done 0 lat 154 slot 0 r1 0 r2 0
done 2 lat 182 slot 0 r1 42 r2 0
done 3 lat 354 slot 1 r1 0 r2 28
|}

let pinned_cpu_summary = {|monitor: all invariants held
|}

let pinned_cpu_profile = {|{
  "cycles": 400,
  "channels": [
    {"name":"cpu_fetch","threads":2,"fires":59,"fires_per_thread":[20,39],"active_cycles":59,"stall_cycles":0,"backpressure_cycles":0,"idle_cycles":341,"occupancy":null},
    {"name":"cpu_mem","threads":2,"fires":59,"fires_per_thread":[20,39],"active_cycles":59,"stall_cycles":0,"backpressure_cycles":0,"idle_cycles":341,"occupancy":null},
    {"name":"cpu_wb","threads":2,"fires":59,"fires_per_thread":[20,39],"active_cycles":59,"stall_cycles":0,"backpressure_cycles":0,"idle_cycles":341,"occupancy":null}
  ],
  "gauges": [
  ]
}
|}

let test_pinned_cpu_serve () =
  let saved = !Hw.Sim.default_backend in
  Fun.protect
    ~finally:(fun () -> Hw.Sim.default_backend := saved)
    (fun () ->
      List.iter
        (fun backend ->
          let tag = "cpu serve " ^ Hw.Sim.backend_to_string backend in
          Hw.Sim.default_backend := backend;
          let replica, mon =
            Serve.Cpu_backend.make_monitored ~monitor:true ~slots:2 ~imem_size:64
              ~dmem_size:64 () 0
          in
          let host = Serve.Host.create replica in
          let job source args = { Serve.Cpu_backend.source; args } in
          List.iteri
            (fun id (j, deadline) ->
              ignore (Serve.Host.admit ?deadline host ~id ~arrival:0 j))
            [ (job "addi r1, r0, 5\nloop: addi r1, r1, -1\nsw r1, 0(r15)\nbne r1, r0, loop\nhalt" [], None);
              (job "loop: j loop" [], Some 150);
              (job "li r1, 41\naddi r1, r1, 1\nhalt" [], None);
              (job "loop: add r2, r2, r1\naddi r1, r1, -1\nbne r1, r0, loop\nhalt"
                 [ (1, 7) ], None) ];
          let events = Buffer.create 64 in
          for _ = 1 to 400 do
            List.iter
              (function
                | Serve.Host.Completed { id; latency; slot; result } ->
                  Printf.bprintf events "done %d lat %d slot %d r1 %d r2 %d\n" id
                    latency slot result.(1) result.(2)
                | Serve.Host.Timed_out { id; tries } ->
                  Printf.bprintf events "timeout %d tries %d\n" id tries
                | Serve.Host.Shed { id; at } -> Printf.bprintf events "shed %d at %d\n" id at)
              (Serve.Host.step host)
          done;
          Serve.Host.finish host;
          let m = Option.get mon in
          Alcotest.(check string) (tag ^ ": events") pinned_cpu_events
            (Buffer.contents events);
          Alcotest.(check string) (tag ^ ": summary") pinned_cpu_summary
            (Monitor.summary m);
          Alcotest.(check string) (tag ^ ": profile") pinned_cpu_profile
            (Melastic.Profile.to_json (Monitor.profile m)))
        backends)

let suite =
  ( "monitor",
    [ Alcotest.test_case "md5 clean (both backends)" `Quick test_md5_clean;
      Alcotest.test_case "md5 clean on optimized netlist (both backends)"
        `Quick test_md5_clean_optimized;
      Alcotest.test_case "cpu clean (both backends)" `Quick test_cpu_clean;
      Alcotest.test_case "barrier clean (both backends)" `Quick
        test_barrier_clean;
      Alcotest.test_case "trip: one-hot" `Quick test_trip_one_hot;
      Alcotest.test_case "trip: stability (data)" `Quick
        test_trip_stability_data;
      Alcotest.test_case "trip: stability (retraction)" `Quick
        test_trip_stability_retraction;
      Alcotest.test_case "trip: conservation (broken 1-slot buffer)" `Quick
        test_trip_conservation_loss;
      Alcotest.test_case "trip: conservation (duplication)" `Quick
        test_trip_conservation_duplication;
      Alcotest.test_case "trip: watchdog" `Quick test_trip_watchdog;
      Alcotest.test_case "trip: barrier liveness" `Quick test_trip_barrier;
      Alcotest.test_case "report budget" `Quick test_report_budget;
      Alcotest.test_case "pinned: injected-fault report and profile" `Quick
        test_pinned_fault_report;
      Alcotest.test_case "pinned: monitored cpu serve run" `Quick
        test_pinned_cpu_serve ] )
