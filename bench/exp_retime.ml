(* Profile-guided retiming gate (the `retime` subcommand).

   One full trip over the telemetry spine: run the two paper designs
   (MD5 loop, CPU 5-stage pipeline) at 8 threads under their protocol
   monitors with a uniform full-MEB placement, capture the per-site
   occupancy profile through [Melastic.Profile], let [Synth.Retime]
   size every declared buffer site against the observed peaks, then
   re-run and re-map the retimed placements.

   Gates (non-zero exit with a FAIL diagnostic when any fails):
   - the profiled placement beats the uniform one on
     throughput-per-LE for BOTH designs;
   - zero monitor violations on every run (uniform and retimed);
   - the retimed MD5 netlist is interp-vs-compiled equivalent
     (identical digests and cycle counts);
   - Table-I no-drift: for every untouched (design, kind) config an
     explicit uniform placement maps to exactly the LEs/FFs/Fmax of
     the placement-free build.

   Writes BENCH_retime.json. *)

let threads = 8

type run = {
  r_tokens : int;  (* units of work completed *)
  r_cycles : int;
  r_violations : int;
  r_outputs : Bits.t list list;  (* per-thread output streams *)
}

let throughput r =
  if r.r_cycles = 0 then 0.0
  else float_of_int r.r_tokens /. float_of_int r.r_cycles

(* ---------------- MD5 arm ---------------- *)

let standard_iv = Md5.Md5_ref.state_to_bits Md5.Md5_ref.iv

let md5_input msg =
  Md5.Md5_circuit.input_bits
    ~block:(Md5.Md5_ref.block_to_bits (Md5.Md5_ref.single_block_words msg))
    ~iv:standard_iv

(* Monitored single-block-per-message run; [watch_sites] additionally
   folds the declared buffer sites' occupancy histograms into the
   monitor's profile (the input to the retiming decision). *)
let md5_run ?backend ?placement ?(watch_sites = false) ~kind ~blocks () =
  let circuit =
    Md5.Md5_circuit.circuit ~kind ?placement ~probes:true ~threads ()
  in
  let sim = Hw.Sim.create ?backend circuit in
  let m = Monitor.create sim in
  List.iter
    (fun n -> Monitor.check_one_hot m ~name:n ~threads)
    [ "msg"; "digest"; "md5_dp"; "md5_bar_in" ];
  Monitor.check_stability ~strict:true m ~name:"msg" ~threads;
  List.iter
    (fun n -> Monitor.check_stability m ~name:n ~threads)
    [ "md5_dp"; "md5_bar_in" ];
  Monitor.check_stability ~gated:true m ~name:"digest" ~threads;
  Monitor.check_conservation m ~src:"msg" ~snk:"digest" ~threads
    ~transform:Md5.Md5_circuit.reference_digest ~expect_drained:true;
  Monitor.check_barrier m ~name:"md5_barrier" ~threads;
  let profile = Monitor.profile m in
  if watch_sites then
    List.iter
      (fun (s : Melastic.Placement.site) ->
        Melastic.Profile.watch_channel ~occupancy:true profile
          ~name:s.Melastic.Placement.s_name ~threads)
      Md5.Md5_circuit.retime_sites;
  let d =
    Workload.Mt_driver.create sim ~src:"msg" ~snk:"digest" ~threads
      ~width:Md5.Md5_circuit.input_width
  in
  for t = 0 to threads - 1 do
    for k = 0 to blocks - 1 do
      Workload.Mt_driver.push d ~thread:t
        (md5_input (Printf.sprintf "retime t%d block %d" t k))
    done
  done;
  if not (Workload.Mt_driver.run_until_drained d ~limit:100_000) then begin
    Printf.eprintf "FAIL retime: md5 run did not drain\n%!";
    exit 1
  end;
  Monitor.finalize m;
  ( profile,
    { r_tokens = threads * blocks;
      r_cycles = Hw.Sim.cycle_no sim;
      r_violations = Monitor.violation_count m;
      r_outputs =
        List.init threads (fun t -> Workload.Mt_driver.output_sequence d ~thread:t)
    } )

let md5_area ?placement ~kind () =
  let c = Md5.Md5_circuit.circuit ~kind ?placement ~threads () in
  let c, _ = Hw.Transform.optimize c in
  Fpga.Report.of_circuit
    ~label:
      (Printf.sprintf "MD5 %s%s" (Melastic.Meb.kind_to_string kind)
         (match placement with None -> "" | Some _ -> " retimed"))
    c

(* ---------------- CPU arm ---------------- *)

let cpu_program iters =
  Printf.sprintf
    "addi r1, r0, %d\n\
     loop: addi r1, r1, -1\n\
     sw r1, 0(r1)\n\
     lw r2, 0(r1)\n\
     add r3, r3, r2\n\
     bne r1, r0, loop\n\
     halt\n"
    iters

let cpu_config ?placement ~kind () =
  { (Cpu.Mt_pipeline.default_config ~threads) with
    Cpu.Mt_pipeline.kind;
    imem_size = 64;
    dmem_size = 64;
    placement }

let cpu_run ?backend ?placement ?(watch_sites = false) ~kind ~iters () =
  let circuit, t =
    Cpu.Mt_pipeline.circuit ~probes:true (cpu_config ?placement ~kind ())
  in
  let sim = Hw.Sim.create ?backend circuit in
  let m = Monitor.create sim in
  let chans = [ "cpu_fetch"; "cpu_mem"; "cpu_wb" ] in
  List.iter (fun n -> Monitor.check_one_hot m ~name:n ~threads) chans;
  List.iter (fun n -> Monitor.check_stability m ~name:n ~threads) chans;
  Monitor.check_conservation m ~src:"cpu_fetch" ~snk:"cpu_wb" ~threads
    ~compare_data:false ~max_in_flight:threads ~expect_drained:true;
  Monitor.check_watchdog ~timeout:1000 m ~channels:chans ~threads
    ~pending:(fun () -> not (Hw.Sim.peek_bool sim "halted_all"));
  let profile = Monitor.profile m in
  if watch_sites then
    List.iter
      (fun (s : Melastic.Placement.site) ->
        Melastic.Profile.watch_channel ~occupancy:true profile
          ~name:s.Melastic.Placement.s_name ~threads)
      Cpu.Mt_pipeline.retime_sites;
  Cpu.Mt_pipeline.load_program sim t (Cpu.Asm.assemble_words (cpu_program iters));
  Hw.Sim.settle sim;
  let cycles =
    match Cpu.Mt_pipeline.run_until_halted sim ~limit:200_000 with
    | Some c -> c
    | None ->
      Printf.eprintf "FAIL retime: cpu run did not halt\n%!";
      exit 1
  in
  let retired = Hw.Sim.peek_int sim "retired_total" in
  Monitor.finalize m;
  ( profile,
    { r_tokens = retired;
      r_cycles = cycles;
      r_violations = Monitor.violation_count m;
      r_outputs = [] } )

let cpu_area ?placement ~kind () =
  let c, _ = Cpu.Mt_pipeline.circuit (cpu_config ?placement ~kind ()) in
  let c, _ = Hw.Transform.optimize c in
  Fpga.Report.of_circuit
    ~label:
      (Printf.sprintf "CPU %s%s" (Melastic.Meb.kind_to_string kind)
         (match placement with None -> "" | Some _ -> " retimed"))
    c

(* ---------------- Gates ---------------- *)

type arm = {
  a_design : string;
  a_decisions : Synth.Retime.decision list;
  a_uniform : run;
  a_retimed : run;
  a_uniform_area : Fpga.Report.row;
  a_retimed_area : Fpga.Report.row;
}

let tpl r (row : Fpga.Report.row) =
  Synth.Retime.throughput_per_le ~throughput:(throughput r) ~les:row.Fpga.Report.les

let print_arm a =
  Printf.printf "--- %s ---\n%s\n" a.a_design
    (Synth.Retime.decisions_to_string a.a_decisions);
  let line label r (row : Fpga.Report.row) =
    Printf.printf
      "%-9s %5d tokens / %6d cyc = %.4f tok/cyc | %5d LEs %5d FFs | \
       %.3e tok/cyc/LE%s\n"
      label r.r_tokens r.r_cycles (throughput r) row.Fpga.Report.les
      row.Fpga.Report.ffs (tpl r row)
      (if r.r_violations > 0 then
         Printf.sprintf "  [%d VIOLATIONS]" r.r_violations
       else "")
  in
  line "uniform" a.a_uniform a.a_uniform_area;
  line "profiled" a.a_retimed a.a_retimed_area;
  Printf.printf "throughput-per-LE gain: %+.1f%%\n%!"
    (100.0 *. ((tpl a.a_retimed a.a_retimed_area /. tpl a.a_uniform a.a_uniform_area) -. 1.0))

let arm_json a =
  let open Melastic.Json in
  let dec d =
    Obj
      [ ("site", String d.Synth.Retime.d_site); ("peak", Int d.Synth.Retime.d_peak);
        ("profiled", Bool d.Synth.Retime.d_profiled);
        ("cfg", String (Melastic.Placement.cfg_to_string d.Synth.Retime.d_cfg));
        ("capacity", Int d.Synth.Retime.d_capacity) ]
  in
  let run_j r (row : Fpga.Report.row) =
    Obj
      [ ("tokens", Int r.r_tokens); ("cycles", Int r.r_cycles);
        ("violations", Int r.r_violations); ("les", Int row.Fpga.Report.les);
        ("ffs", Int row.Fpga.Report.ffs); ("throughput_per_le", Float (tpl r row)) ]
  in
  Obj
    [ ("design", String a.a_design); ("decisions", List (List.map dec a.a_decisions));
      ("uniform", run_j a.a_uniform a.a_uniform_area);
      ("retimed", run_j a.a_retimed a.a_retimed_area) ]

(* Table-I no-drift: an explicit uniform placement must elaborate to
   the exact netlist the placement-free path produced. *)
let drift_pairs () =
  List.concat_map
    (fun kind ->
      let p = Melastic.Placement.uniform kind in
      [ (Printf.sprintf "MD5 %s" (Melastic.Meb.kind_to_string kind),
         md5_area ~kind (), md5_area ~placement:p ~kind ());
        (Printf.sprintf "CPU %s" (Melastic.Meb.kind_to_string kind),
         cpu_area ~kind (), cpu_area ~placement:p ~kind ()) ])
    [ Melastic.Meb.Full; Melastic.Meb.Reduced ]

let run ?(quick = false) ?domains () =
  ignore domains;
  Printf.printf "=== retime: profile-guided buffer placement at %d threads%s ===\n%!"
    threads
    (if quick then " (quick)" else "");
  let blocks = if quick then 2 else 4 in
  let iters = if quick then 8 else 32 in
  let uniform_kind = Melastic.Meb.Full in
  (* MD5: profile under the uniform placement, retime, re-run. *)
  let md5_profile, md5_uniform =
    md5_run ~watch_sites:true ~kind:uniform_kind ~blocks ()
  in
  let md5_placement, md5_decisions =
    Synth.Retime.decide ~profile:md5_profile ~threads Md5.Md5_circuit.retime_sites
  in
  let _, md5_retimed =
    md5_run ~placement:md5_placement ~kind:uniform_kind ~blocks ()
  in
  let md5_arm =
    { a_design = "md5";
      a_decisions = md5_decisions;
      a_uniform = md5_uniform;
      a_retimed = md5_retimed;
      a_uniform_area = md5_area ~kind:uniform_kind ();
      a_retimed_area = md5_area ~placement:md5_placement ~kind:uniform_kind () }
  in
  print_arm md5_arm;
  (* CPU: same trip over the five pipeline sites. *)
  let cpu_profile, cpu_uniform =
    cpu_run ~watch_sites:true ~kind:uniform_kind ~iters ()
  in
  let cpu_placement, cpu_decisions =
    Synth.Retime.decide ~profile:cpu_profile ~threads Cpu.Mt_pipeline.retime_sites
  in
  let _, cpu_retimed =
    cpu_run ~placement:cpu_placement ~kind:uniform_kind ~iters ()
  in
  let cpu_arm =
    { a_design = "cpu";
      a_decisions = cpu_decisions;
      a_uniform = cpu_uniform;
      a_retimed = cpu_retimed;
      a_uniform_area = cpu_area ~kind:uniform_kind ();
      a_retimed_area = cpu_area ~placement:cpu_placement ~kind:uniform_kind () }
  in
  print_arm cpu_arm;
  (* Interp-vs-compiled equivalence on the retimed MD5 netlist. *)
  let _, eq_interp =
    md5_run ~backend:Hw.Sim.Interp ~placement:md5_placement ~kind:uniform_kind
      ~blocks ()
  in
  let _, eq_compiled =
    md5_run ~backend:Hw.Sim.Compiled ~placement:md5_placement ~kind:uniform_kind
      ~blocks ()
  in
  let equivalent =
    eq_interp.r_cycles = eq_compiled.r_cycles
    && List.for_all2 (List.equal Bits.equal) eq_interp.r_outputs
         eq_compiled.r_outputs
  in
  Printf.printf "retimed md5 interp-vs-compiled: %s (%d vs %d cycles)\n%!"
    (if equivalent then "equivalent" else "MISMATCH")
    eq_interp.r_cycles eq_compiled.r_cycles;
  (* Table-I no-drift on the untouched configs. *)
  let drift =
    List.filter_map
      (fun (label, (base : Fpga.Report.row), (placed : Fpga.Report.row)) ->
        if
          base.Fpga.Report.les = placed.Fpga.Report.les
          && base.Fpga.Report.ffs = placed.Fpga.Report.ffs
          && base.Fpga.Report.fmax_mhz = placed.Fpga.Report.fmax_mhz
        then None
        else
          Some
            (Printf.sprintf "%s: %d/%d LEs %d/%d FFs" label
               base.Fpga.Report.les placed.Fpga.Report.les base.Fpga.Report.ffs
               placed.Fpga.Report.ffs))
      (drift_pairs ())
  in
  Printf.printf "table1 no-drift: %s\n%!"
    (if drift = [] then "clean (4 configs)"
     else String.concat "; " drift);
  let violations =
    List.fold_left
      (fun acc a -> acc + a.a_uniform.r_violations + a.a_retimed.r_violations)
      (eq_interp.r_violations + eq_compiled.r_violations)
      [ md5_arm; cpu_arm ]
  in
  let improved a = tpl a.a_retimed a.a_retimed_area > tpl a.a_uniform a.a_uniform_area in
  Bench_json.write ~experiment:"retime" ~quick ~backend:true "BENCH_retime.json"
    Melastic.Json.
      [ ("threads", Int threads);
        ("arms", List [ arm_json md5_arm; arm_json cpu_arm ]);
        ("interp_vs_compiled_equivalent", Bool equivalent);
        ("table1_drift", List (List.map (fun d -> String d) drift));
        ("violations", Int violations) ];
  if
    violations > 0 || (not equivalent) || drift <> []
    || not (improved md5_arm && improved cpu_arm)
  then begin
    Printf.eprintf
      "FAIL retime: md5_gain=%b cpu_gain=%b violations=%d (expected 0) \
       equivalent=%b drift=[%s]\n\
       %!"
      (improved md5_arm) (improved cpu_arm) violations equivalent
      (String.concat "; " drift);
    exit 1
  end
