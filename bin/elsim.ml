(* elsim — command-line driver for the multithreaded elastic systems
   library.

     elsim asm FILE            assemble to hex words
     elsim run FILE            assemble and run on the elastic pipeline
     elsim md5 MSG...          hash messages on the MT elastic MD5 circuit
     elsim serve MSG...        serve messages via the continuous-batching engine
     elsim fleet               serve a trace on a simulated fleet of elastic hosts
     elsim report              area/Fmax report for the Table I designs
     elsim profile WORKLOAD    run a canned workload, dump the channel profile as JSON
     elsim vcd FILE            dump a VCD of the Fig. 5 stall scenario *)

open Cmdliner

let kind_conv =
  let parse = function
    | "full" -> Ok Melastic.Meb.Full
    | "reduced" -> Ok Melastic.Meb.Reduced
    | s -> Error (`Msg (Printf.sprintf "unknown MEB kind %S (full|reduced)" s))
  in
  Arg.conv (parse, fun fmt k -> Format.pp_print_string fmt (Melastic.Meb.kind_to_string k))

let kind_arg =
  Arg.(value & opt kind_conv Melastic.Meb.Reduced
       & info [ "kind" ] ~docv:"KIND" ~doc:"MEB kind: full or reduced.")

let threads_arg =
  Arg.(value & opt int 8 & info [ "threads" ] ~docv:"N" ~doc:"Number of threads.")

(* Simulator backend, straight from the registry: names, aliases and
   the per-backend doc lines all come from Hw.Sim, so a backend added
   there shows up here without edits. *)
let backend_conv =
  let parse s =
    match Hw.Sim.backend_of_string s with
    | b -> Ok b
    | exception Invalid_argument msg -> Error (`Msg msg)
  in
  Arg.conv
    (parse, fun fmt b -> Format.pp_print_string fmt (Hw.Sim.backend_to_string b))

let backend_arg =
  let doc =
    Printf.sprintf "Simulator backend (%s). %s"
      (String.concat "|" (Hw.Sim.backend_names ()))
      (String.concat " "
         (List.map
            (fun b ->
              Printf.sprintf "%s: %s." (Hw.Sim.backend_to_string b)
                (Hw.Sim.backend_doc b))
            (Hw.Sim.all_backends ())))
  in
  Arg.(value & opt (some backend_conv) None
       & info [ "backend" ] ~docv:"BACKEND" ~doc)

let set_backend = Option.iter (fun b -> Hw.Sim.default_backend := b)

let read_file path =
  let ic = open_in path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

(* --- asm --- *)

let asm_cmd =
  let file = Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE") in
  let run file =
    match Cpu.Asm.assemble (read_file file) with
    | words, _ ->
      List.iteri (fun i w -> Printf.printf "%04x: %08x\n" i w) words;
      `Ok ()
    | exception Cpu.Asm.Error msg ->
      Printf.eprintf "assembly error: %s\n" msg;
      `Error (false, msg)
  in
  Cmd.v (Cmd.info "asm" ~doc:"Assemble a program and print the words.")
    Term.(ret (const run $ file))

(* --- run --- *)

let run_cmd =
  let file = Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE") in
  let limit =
    Arg.(value & opt int 100000 & info [ "limit" ] ~docv:"CYCLES" ~doc:"Cycle budget.")
  in
  let run backend file threads kind limit =
    set_backend backend;
    match Cpu.Asm.assemble_words (read_file file) with
    | exception Cpu.Asm.Error msg ->
      Printf.eprintf "assembly error: %s\n" msg;
      `Error (false, msg)
    | words ->
      let config =
        { (Cpu.Mt_pipeline.default_config ~threads) with Cpu.Mt_pipeline.kind }
      in
      let circuit, t = Cpu.Mt_pipeline.circuit config in
      let sim = Hw.Sim.create circuit in
      Cpu.Mt_pipeline.load_program sim t words;
      Hw.Sim.settle sim;
      (match Cpu.Mt_pipeline.run_until_halted sim ~limit with
       | None ->
         Printf.printf "did not halt within %d cycles\n" limit;
         `Ok ()
       | Some cycles ->
         Printf.printf "halted after %d cycles, %d instructions retired\n" cycles
           (Hw.Sim.peek_int sim "retired_total");
         for th = 0 to threads - 1 do
           Printf.printf "thread %d:" th;
           for r = 1 to Cpu.Isa.num_regs - 1 do
             let v = Cpu.Mt_pipeline.read_reg sim t ~thread:th ~reg:r in
             if v <> 0 then Printf.printf " r%d=%d" r v
           done;
           print_newline ()
         done;
         `Ok ())
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Assemble and run a program on the MT elastic pipeline.")
    Term.(ret (const run $ backend_arg $ file $ threads_arg $ kind_arg $ limit))

(* --- md5 --- *)

let md5_cmd =
  let msgs = Arg.(non_empty & pos_all string [] & info [] ~docv:"MSG") in
  let run backend kind msgs =
    set_backend backend;
    let threads = List.length msgs in
    let sim = Hw.Sim.create (Md5.Md5_circuit.circuit ~kind ~threads ()) in
    let digests = Md5.Md5_host.hash_messages sim msgs in
    List.iter2 (fun m dgst -> Printf.printf "%s  %S\n" dgst m) msgs digests;
    `Ok ()
  in
  Cmd.v
    (Cmd.info "md5" ~doc:"Hash messages (any length) on the MT elastic MD5 circuit.")
    Term.(ret (const run $ backend_arg $ kind_arg $ msgs))

(* --- serve --- *)

let serve_cmd =
  let msgs = Arg.(non_empty & pos_all string [] & info [] ~docv:"MSG") in
  let slots =
    Arg.(value & opt int 8
         & info [ "slots" ] ~docv:"S" ~doc:"Thread slots per replica.")
  in
  let replicas =
    Arg.(value & opt int 1
         & info [ "replicas" ] ~docv:"R" ~doc:"Simulator replicas (sharded by job id).")
  in
  let domains =
    Arg.(value & opt (some int) None
         & info [ "domains" ] ~docv:"D" ~doc:"Domains to fan replicas over (default: cores).")
  in
  let rate =
    Arg.(value & opt float 0.1
         & info [ "rate" ] ~docv:"R" ~doc:"Poisson arrival rate, jobs/cycle.")
  in
  let deadline =
    Arg.(value & opt (some int) None
         & info [ "deadline" ] ~docv:"CYCLES" ~doc:"Per-job deadline in cycles.")
  in
  let monitor =
    Arg.(value & flag
         & info [ "monitor" ] ~doc:"Attach the runtime protocol monitors.")
  in
  let seed =
    Arg.(value & opt int 1 & info [ "seed" ] ~docv:"N" ~doc:"Arrival-process seed.")
  in
  let run backend kind msgs slots replicas domains rate deadline monitor seed =
    set_backend backend;
    let t =
      Serve.Engine.create ~replicas
        ~make_replica:(Serve.Md5_backend.make ~kind ~monitor ~slots ())
        ()
    in
    let rng = Random.State.make [| seed |] in
    let arrivals =
      Serve.Engine.Load.poisson ~rng ~rate ~count:(List.length msgs)
    in
    List.iteri
      (fun i m -> ignore (Serve.Engine.submit ~arrival:arrivals.(i) ?deadline t m))
      msgs;
    let report = Serve.Engine.run ?domains t in
    List.iteri
      (fun i m ->
        match Serve.Engine.outcome t i with
        | Serve.Engine.Completed { result; latency; replica; slot } ->
          Printf.printf "%s  %S  (latency %d cyc, replica %d slot %d)\n" result
            m latency replica slot
        | Serve.Engine.Shed { at } -> Printf.printf "SHED @%d  %S\n" at m
        | Serve.Engine.Timed_out { tries } ->
          Printf.printf "TIMEOUT after %d tries  %S\n" tries m
        | Serve.Engine.Failed why -> Printf.printf "FAILED (%s)  %S\n" why m
        | Serve.Engine.Pending -> Printf.printf "PENDING  %S\n" m)
      msgs;
    print_string (Serve.Engine.summary report);
    if Serve.Engine.violations report > 0 then `Error (false, "protocol violations")
    else `Ok ()
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Serve messages through the continuous-batching MD5 request server.")
    Term.(ret
            (const run $ backend_arg $ kind_arg $ msgs $ slots $ replicas
             $ domains $ rate $ deadline $ monitor $ seed))

(* --- fleet --- *)

let fleet_cmd =
  let preset =
    let names = List.map fst Fleet.Trace.presets in
    let doc =
      Printf.sprintf "Trace preset (%s). %s"
        (String.concat "|" names)
        (String.concat " "
           (List.map
              (fun (n, d) -> Printf.sprintf "%s: %s." n d)
              Fleet.Trace.presets))
    in
    Arg.(value & opt (some (enum (List.map (fun n -> (n, n)) names))) None
         & info [ "preset" ] ~docv:"NAME" ~doc)
  in
  let trace_file =
    Arg.(value & opt (some file) None
         & info [ "trace" ] ~docv:"FILE"
             ~doc:"Trace file ('arrival payload [class]' per line); \
                   overrides $(b,--preset).")
  in
  let hosts =
    Arg.(value & opt int 4 & info [ "hosts" ] ~docv:"N" ~doc:"Fleet size.")
  in
  let slots =
    Arg.(value & opt int 8
         & info [ "slots" ] ~docv:"S" ~doc:"Thread slots per host.")
  in
  let scale =
    Arg.(value & opt float 1.0
         & info [ "scale" ] ~docv:"X" ~doc:"Preset rate multiplier.")
  in
  let seed =
    Arg.(value & opt int 1
         & info [ "seed" ] ~docv:"N" ~doc:"Trace and kqueue seed.")
  in
  let kq_segments =
    Arg.(value & opt int 64
         & info [ "kq-segments" ] ~docv:"N" ~doc:"Relaxed-queue segments.")
  in
  let kq_k =
    Arg.(value & opt int 4
         & info [ "kq-k" ] ~docv:"K"
             ~doc:"Relaxed-queue segment width (relaxation bound K-1).")
  in
  let no_dedup =
    Arg.(value & flag
         & info [ "no-dedup" ] ~doc:"Disable the result cache and coalescing.")
  in
  let no_steal =
    Arg.(value & flag & info [ "no-steal" ] ~doc:"Disable work stealing.")
  in
  let monitor =
    Arg.(value & flag
         & info [ "monitor" ] ~doc:"Attach the runtime protocol monitors.")
  in
  let run backend kind preset trace_file hosts slots scale seed kq_segments
      kq_k no_dedup no_steal monitor =
    set_backend backend;
    let config =
      { Fleet.Frontend.default_config with
        n_hosts = hosts;
        kq_segments;
        kq_k;
        seed;
        dedup = not no_dedup;
        stealing = not no_steal }
    in
    let serve trace =
      let t =
        Fleet.Frontend.create ~config
          ~make_host:(Serve.Md5_backend.make ~kind ~monitor ~slots ())
          ~key:Fun.id ()
      in
      Fleet.Frontend.submit_trace t trace;
      let s = Fleet.Frontend.run t in
      print_string (Fleet.Frontend.summary s);
      if Fleet.Frontend.violations s > 0 then
        `Error (false, "fleet violations (kqueue relaxation or protocol monitors)")
      else `Ok ()
    in
    match trace_file with
    | None ->
      let name = Option.value preset ~default:"steady" in
      serve (Fleet.Trace.generate ~seed ~phases:(Fleet.Trace.preset ~scale name) ())
    | Some path ->
      (* A malformed line or a class the fleet lacks is a one-line
         error naming path:line, not an escaped exception. *)
      (match
         Fleet.Trace.of_file ~classes:(List.length config.Fleet.Frontend.classes)
           path
       with
       | trace -> serve trace
       | exception Failure msg -> `Error (false, msg))
  in
  Cmd.v
    (Cmd.info "fleet"
       ~doc:"Serve a trace on a simulated fleet of elastic MD5 hosts \
             (consistent-hash routing, result dedup, relaxed k-queues, \
             work stealing).")
    Term.(ret
            (const run $ backend_arg $ kind_arg $ preset $ trace_file $ hosts
             $ slots $ scale $ seed $ kq_segments $ kq_k $ no_dedup $ no_steal
             $ monitor))

(* --- report --- *)

let report_cmd =
  let run threads =
    let rows =
      List.concat_map
        (fun kind ->
          let md5 =
            Fpga.Report.of_circuit
              ~label:(Printf.sprintf "MD5 %s %dT" (Melastic.Meb.kind_to_string kind) threads)
              (Md5.Md5_circuit.circuit ~kind ~threads ())
          in
          let cpu =
            let config =
              { (Cpu.Mt_pipeline.default_config ~threads) with Cpu.Mt_pipeline.kind }
            in
            Fpga.Report.of_circuit
              ~label:(Printf.sprintf "CPU %s %dT" (Melastic.Meb.kind_to_string kind) threads)
              (fst (Cpu.Mt_pipeline.circuit config))
          in
          [ md5; cpu ])
        [ Melastic.Meb.Full; Melastic.Meb.Reduced ]
    in
    Fpga.Report.pp_table Format.std_formatter rows
  in
  Cmd.v
    (Cmd.info "report" ~doc:"Area / Fmax report for the Table I designs.")
    Term.(const run $ threads_arg)

(* --- profile: canned workloads dumped as channel-profile JSON --- *)

let profile_md5 ~kind ~threads =
  let circuit = Md5.Md5_circuit.circuit ~kind ~probes:true ~threads () in
  let sim = Hw.Sim.create circuit in
  let profile = Melastic.Profile.attach (Hw.Sampler.attach sim) in
  List.iter
    (fun n -> Melastic.Profile.watch_channel profile ~name:n ~threads)
    [ "msg"; "digest"; "md5_dp"; "md5_bar_in" ];
  List.iter
    (fun (s : Melastic.Placement.site) ->
      Melastic.Profile.watch_channel ~occupancy:true profile
        ~name:s.Melastic.Placement.s_name ~threads)
    Md5.Md5_circuit.retime_sites;
  let d =
    Workload.Mt_driver.create sim ~src:"msg" ~snk:"digest" ~threads
      ~width:Md5.Md5_circuit.input_width
  in
  let iv = Md5.Md5_ref.state_to_bits Md5.Md5_ref.iv in
  for t = 0 to threads - 1 do
    for k = 0 to 2 do
      let msg = Printf.sprintf "profile t%d block %d" t k in
      Workload.Mt_driver.push d ~thread:t
        (Md5.Md5_circuit.input_bits
           ~block:(Md5.Md5_ref.block_to_bits (Md5.Md5_ref.single_block_words msg))
           ~iv)
    done
  done;
  ignore (Workload.Mt_driver.run_until_drained d ~limit:100_000);
  profile

let profile_cpu ~kind ~threads =
  let config =
    { (Cpu.Mt_pipeline.default_config ~threads) with
      Cpu.Mt_pipeline.kind;
      imem_size = 64;
      dmem_size = 64 }
  in
  let circuit, t = Cpu.Mt_pipeline.circuit ~probes:true config in
  let sim = Hw.Sim.create circuit in
  let profile = Melastic.Profile.attach (Hw.Sampler.attach sim) in
  List.iter
    (fun n -> Melastic.Profile.watch_channel profile ~name:n ~threads)
    [ "cpu_fetch"; "cpu_mem"; "cpu_wb" ];
  List.iter
    (fun (s : Melastic.Placement.site) ->
      Melastic.Profile.watch_channel ~occupancy:true profile
        ~name:s.Melastic.Placement.s_name ~threads)
    Cpu.Mt_pipeline.retime_sites;
  let program =
    "addi r1, r0, 16\n\
     loop: addi r1, r1, -1\n\
     sw r1, 0(r1)\n\
     lw r2, 0(r1)\n\
     add r3, r3, r2\n\
     bne r1, r0, loop\n\
     halt\n"
  in
  Cpu.Mt_pipeline.load_program sim t (Cpu.Asm.assemble_words program);
  Hw.Sim.settle sim;
  ignore (Cpu.Mt_pipeline.run_until_halted sim ~limit:100_000);
  profile

let profile_dataflow ~kind ~threads =
  let g = Synth.Dataflow.create ~kind ~threads () in
  let x = Synth.Dataflow.input g ~name:"x" ~width:16 in
  let x = Synth.Dataflow.buffer g x in
  let y = Synth.Dataflow.barrier g ~name:"bar" x in
  let y = Synth.Dataflow.buffer g y in
  Synth.Dataflow.output g ~name:"y" y;
  let sim = Hw.Sim.create (Synth.Dataflow.circuit g) in
  let profile = Melastic.Profile.attach (Hw.Sampler.attach sim) in
  List.iter
    (fun n -> Melastic.Profile.watch_channel profile ~name:n ~threads)
    [ "x"; "y" ];
  let d = Workload.Mt_driver.create sim ~src:"x" ~snk:"y" ~threads ~width:16 in
  for t = 0 to threads - 1 do
    for i = 1 to 16 do Workload.Mt_driver.push_int d ~thread:t i done
  done;
  ignore (Workload.Mt_driver.run_until_drained d ~limit:10_000);
  profile

let profile_noc ~kind =
  let t = Noc.Driver.create ~kind ~monitor:true (Noc.Star { leaves = 4 }) in
  let n = Noc.Driver.terminals t in
  for src = 0 to n - 1 do
    for dst = 0 to n - 1 do
      if src <> dst then Noc.Driver.inject t ~src ~dst ((src * 16) + dst)
    done
  done;
  Noc.Driver.finish t;
  Option.get (Noc.Driver.profile t)

let profile_cmd =
  let workload =
    Arg.(required
         & pos 0
             (some (enum
                      [ ("md5", `Md5); ("cpu", `Cpu); ("dataflow", `Dataflow);
                        ("noc", `Noc) ]))
             None
         & info [] ~docv:"WORKLOAD"
             ~doc:"Canned workload to profile: md5, cpu, dataflow or noc.")
  in
  let out =
    Arg.(value & opt (some string) None
         & info [ "o"; "output" ] ~docv:"FILE"
             ~doc:"Write the profile JSON to FILE (default: stdout).")
  in
  let run backend kind threads workload out =
    set_backend backend;
    let profile =
      match workload with
      | `Md5 -> profile_md5 ~kind ~threads
      | `Cpu -> profile_cpu ~kind ~threads
      | `Dataflow -> profile_dataflow ~kind ~threads
      | `Noc -> profile_noc ~kind (* 4-leaf star; per-link channels *)
    in
    (match out with
     | Some path ->
       Melastic.Profile.save profile path;
       Printf.printf "wrote %s (%d cycles, %d channels)\n" path
         (Melastic.Profile.cycles profile)
         (List.length (Melastic.Profile.channel_names profile))
     | None -> print_endline (Melastic.Profile.to_json profile));
    `Ok ()
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:"Run a canned workload and dump its per-channel profile \
             (fires, stalls, backpressure, occupancy histograms) as JSON.")
    Term.(ret (const run $ backend_arg $ kind_arg $ threads_arg $ workload $ out))

(* --- vcd --- *)

let vcd_cmd =
  let out = Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE") in
  let run backend kind out =
    set_backend backend;
    let module S = Hw.Signal in
    let module Mc = Melastic.Mt_channel in
    let b = S.Builder.create () in
    let threads = 2 and width = 32 in
    let src = Mc.source b ~name:"src" ~threads ~width in
    let m0 = Melastic.Meb.create ~name:"meb0" ~kind b src in
    let mid = Mc.probe b ~name:"mid" m0.Melastic.Meb.out in
    let m1 = Melastic.Meb.create ~name:"meb1" ~kind b mid in
    Mc.sink b ~name:"snk" m1.Melastic.Meb.out;
    let circuit = Hw.Circuit.create b in
    let sim = Hw.Sim.create circuit in
    let signals =
      List.filter_map
        (fun n ->
          match Hw.Circuit.find_named circuit n with
          | s -> Some (n, s)
          | exception Invalid_argument _ -> None)
        [ "src_valid"; "src_ready"; "src_data"; "mid_valid"; "mid_ready";
          "mid_data"; "snk_valid"; "snk_fire" ]
    in
    let vcd = Hw.Vcd.attach sim ~path:out ~signals in
    let d = Workload.Mt_driver.create sim ~src:"src" ~snk:"snk" ~threads ~width in
    for t = 0 to 1 do
      for i = 0 to 19 do
        Workload.Mt_driver.push_int d ~thread:t ((t * 256) + i)
      done
    done;
    Workload.Mt_driver.set_sink_ready d (fun c t -> t = 0 || c < 6 || c > 20);
    Workload.Mt_driver.run d 60;
    Hw.Vcd.close vcd;
    Printf.printf "wrote %s (%d cycles of the Fig. 5 stall scenario)\n" out 60
  in
  Cmd.v
    (Cmd.info "vcd" ~doc:"Dump a VCD waveform of the Fig. 5 stall scenario.")
    Term.(const run $ backend_arg $ kind_arg $ out)

(* --- tb: DUT + self-checking testbench from a recorded run --- *)

let tb_cmd =
  let dut = Arg.(required & pos 0 (some string) None & info [] ~docv:"DUT.v") in
  let tbf = Arg.(required & pos 1 (some string) None & info [] ~docv:"TB.v") in
  let run backend kind dut tbf =
    set_backend backend;
    (* Record the Fig. 5 stall scenario and emit DUT + testbench. *)
    let module S = Hw.Signal in
    let module Mc = Melastic.Mt_channel in
    let b = S.Builder.create () in
    let threads = 2 and width = 32 in
    let src = Mc.source b ~name:"src" ~threads ~width in
    let m0 = Melastic.Meb.create ~name:"meb0" ~kind b src in
    let m1 = Melastic.Meb.create ~name:"meb1" ~kind b m0.Melastic.Meb.out in
    Mc.sink b ~name:"snk" m1.Melastic.Meb.out;
    let circuit = Hw.Circuit.create b in
    let sim = Hw.Sim.create circuit in
    let tb = Hw.Verilog_tb.attach sim ~outputs:[ "snk_valid"; "snk_fire"; "src_ready" ] in
    let d = Workload.Mt_driver.create sim ~src:"src" ~snk:"snk" ~threads ~width in
    for t = 0 to 1 do
      for i = 0 to 9 do Workload.Mt_driver.push_int d ~thread:t ((t * 256) + i) done
    done;
    Workload.Mt_driver.set_sink_ready d (fun c t -> t = 0 || c < 4 || c > 14);
    Workload.Mt_driver.run d 40;
    Hw.Verilog_tb.write_with_dut ~module_name:"meb_pipeline" tb ~dut_path:dut
      ~tb_path:tbf;
    Printf.printf "wrote %s and %s (40 recorded cycles); run with:\n" dut tbf;
    Printf.printf "  iverilog -o tb %s %s && ./tb\n" dut tbf
  in
  Cmd.v
    (Cmd.info "tb"
       ~doc:"Emit a DUT and self-checking testbench from a recorded simulation.")
    Term.(const run $ backend_arg $ kind_arg $ dut $ tbf)

(* --- verilog --- *)

let verilog_cmd =
  let design =
    Arg.(required & pos 0 (some (enum [ ("md5", `Md5); ("cpu", `Cpu) ])) None
         & info [] ~docv:"DESIGN" ~doc:"md5 or cpu")
  in
  let out = Arg.(required & pos 1 (some string) None & info [] ~docv:"FILE") in
  let run design kind threads out =
    let circuit =
      match design with
      | `Md5 -> Md5.Md5_circuit.circuit ~kind ~threads ()
      | `Cpu ->
        let config =
          { (Cpu.Mt_pipeline.default_config ~threads) with Cpu.Mt_pipeline.kind }
        in
        fst (Cpu.Mt_pipeline.circuit config)
    in
    Hw.Verilog.write ~module_name:"top" circuit ~path:out;
    Printf.printf "wrote %s (%d netlist nodes)\n" out (Hw.Circuit.node_count circuit)
  in
  Cmd.v
    (Cmd.info "verilog" ~doc:"Emit synthesizable Verilog for a Table I design.")
    Term.(const run $ design $ kind_arg $ threads_arg $ out)

let () =
  let default = Term.(ret (const (`Help (`Pager, None)))) in
  exit
    (Cmd.eval
       (Cmd.group ~default
          (Cmd.info "elsim" ~version:"1.0.0"
             ~doc:"Multithreaded elastic systems: simulator and tools.")
          [ asm_cmd; run_cmd; md5_cmd; serve_cmd; fleet_cmd; report_cmd;
            profile_cmd; vcd_cmd; verilog_cmd; tb_cmd ]))
