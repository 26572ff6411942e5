(* Tests for the FPGA technology model: LE mapping, FF packing, and
   static timing analysis on hand-checkable netlists. *)

module S = Hw.Signal

let cost_of build =
  let b = S.Builder.create () in
  build b;
  Fpga.Tech.circuit_cost (Hw.Circuit.create b)

let test_wiring_is_free () =
  let c =
    cost_of (fun b ->
        let x = S.input b "x" 8 in
        let y = S.concat_msb b [ S.select b x ~hi:7 ~lo:4; S.select b x ~hi:3 ~lo:0 ] in
        ignore (S.output b "y" (S.lnot b y)))
  in
  Alcotest.(check int) "no LUTs" 0 c.Fpga.Tech.luts;
  Alcotest.(check int) "no FFs" 0 c.Fpga.Tech.ffs

let test_gate_costs () =
  let c =
    cost_of (fun b ->
        let x = S.input b "x" 8 and y = S.input b "y" 8 in
        ignore (S.output b "o" (S.land_ b x y)))
  in
  Alcotest.(check int) "8-bit and = 8 LUTs" 8 c.Fpga.Tech.luts;
  let c =
    cost_of (fun b ->
        let x = S.input b "x" 16 and y = S.input b "y" 16 in
        ignore (S.output b "o" (S.add b x y)))
  in
  Alcotest.(check int) "16-bit add = 16 LUTs" 16 c.Fpga.Tech.luts

let test_mux_costs () =
  let mux_cost k w =
    (cost_of (fun b ->
         let sel = S.input b "sel" (max 1 (S.clog2 k)) in
         let cases = List.init k (fun i -> S.input b (Printf.sprintf "c%d" i) w) in
         ignore (S.output b "o" (S.mux b sel cases))))
      .Fpga.Tech.luts
  in
  Alcotest.(check int) "2:1 x 8" 8 (mux_cost 2 8);
  Alcotest.(check int) "4:1 x 8" 16 (mux_cost 4 8);
  (* A mux of constants is a function of the selector only. *)
  let c =
    cost_of (fun b ->
        let sel = S.input b "sel" 2 in
        let cases = List.init 4 (fun i -> S.of_int b ~width:8 (i * 3)) in
        ignore (S.output b "o" (S.mux b sel cases)))
  in
  Alcotest.(check int) "constant 4:1 x 8 = 8 LUTs" 8 c.Fpga.Tech.luts

let test_ff_packing () =
  (* reg fed by a fanout-1 LUT packs; reg fed by wiring does not. *)
  let packed =
    cost_of (fun b ->
        let x = S.input b "x" 8 and y = S.input b "y" 8 in
        ignore (S.output b "q" (S.reg b (S.land_ b x y))))
  in
  Alcotest.(check int) "packed FFs" 8 packed.Fpga.Tech.packed_ffs;
  Alcotest.(check int) "LEs = LUTs" 8 (Fpga.Tech.les packed);
  let unpacked =
    cost_of (fun b ->
        let x = S.input b "x" 8 in
        ignore (S.output b "q" (S.reg b x)))
  in
  Alcotest.(check int) "unpacked FFs" 0 unpacked.Fpga.Tech.packed_ffs;
  Alcotest.(check int) "LEs = FFs" 8 (Fpga.Tech.les unpacked);
  (* Fanout 2 prevents packing. *)
  let shared =
    cost_of (fun b ->
        let x = S.input b "x" 8 and y = S.input b "y" 8 in
        let s = S.land_ b x y in
        ignore (S.output b "q" (S.reg b s));
        ignore (S.output b "o" s))
  in
  Alcotest.(check int) "shared LUT does not pack" 0 shared.Fpga.Tech.packed_ffs

let test_memory_and_dsp_excluded () =
  let c =
    cost_of (fun b ->
        let mem = S.Memory.create b ~name:"m" ~size:16 ~width:8 () in
        let a = S.input b "a" 4 in
        let x = S.input b "x" 8 and y = S.input b "y" 8 in
        ignore (S.output b "r" (S.Memory.read_async b mem ~addr:a));
        ignore (S.output b "p" (S.mul b x y)))
  in
  Alcotest.(check int) "bram counted" 1 c.Fpga.Tech.brams;
  Alcotest.(check int) "dsp counted" 1 c.Fpga.Tech.dsps;
  Alcotest.(check int) "neither in LEs" 0 (Fpga.Tech.les c)

let test_capacity_matches_ff_count () =
  (* A full MEB has 2S slots of payload FFs + control; a reduced MEB
     has S+1; with a 32-bit payload the FF difference must be at least
     (S-1)*32. *)
  let ffs kind =
    let b = S.Builder.create () in
    let src = Melastic.Mt_channel.source b ~name:"src" ~threads:4 ~width:32 in
    let m = Melastic.Meb.create ~kind b src in
    Melastic.Mt_channel.sink b ~name:"snk" m.Melastic.Meb.out;
    (Fpga.Tech.circuit_cost (Hw.Circuit.create b)).Fpga.Tech.ffs
  in
  let diff = ffs Melastic.Meb.Full - ffs Melastic.Meb.Reduced in
  (* (2S - (S+1)) * 32 payload FFs, minus a little control slack (the
     reduced MEB adds the shared-slot FSM). *)
  Alcotest.(check bool)
    (Printf.sprintf "FF diff %d ~ (S-1)*width" diff)
    true
    (diff >= (3 * 32) - 8 && diff <= 3 * 32)

let test_timing_monotone () =
  (* A deeper adder chain has a longer critical path. *)
  let crit depth =
    let b = S.Builder.create () in
    let x = S.input b "x" 16 in
    let rec chain i acc = if i = 0 then acc else chain (i - 1) (S.add b acc x) in
    ignore (S.output b "q" (S.reg b (chain depth x)));
    (Fpga.Timing.analyze (Hw.Circuit.create b)).Fpga.Timing.critical_path_ns
  in
  let c1 = crit 1 and c4 = crit 4 and c8 = crit 8 in
  Alcotest.(check bool) (Printf.sprintf "1 < 4 (%f < %f)" c1 c4) true (c1 < c4);
  Alcotest.(check bool) (Printf.sprintf "4 < 8 (%f < %f)" c4 c8) true (c4 < c8)

let test_timing_registers_cut_paths () =
  (* Inserting a register mid-chain halves the register-to-register
     critical path (roughly). *)
  let crit ~cut =
    let b = S.Builder.create () in
    let x = S.input b "x" 16 in
    let rec chain i acc = if i = 0 then acc else chain (i - 1) (S.add b acc x) in
    let half = chain 4 x in
    let half = if cut then S.reg b half else half in
    ignore (S.output b "q" (S.reg b (chain 4 half)));
    (Fpga.Timing.analyze (Hw.Circuit.create b)).Fpga.Timing.critical_path_ns
  in
  let no_cut = crit ~cut:false and with_cut = crit ~cut:true in
  Alcotest.(check bool)
    (Printf.sprintf "cut shortens path (%f < %f)" with_cut no_cut)
    true
    (with_cut < no_cut *. 0.7)

let test_timing_critical_path_report () =
  let b = S.Builder.create () in
  let x = S.input b "x" 8 in
  ignore (S.output b "q" (S.reg b (S.add b x x)));
  let r = Fpga.Timing.analyze (Hw.Circuit.create b) in
  Alcotest.(check bool) "has a path" true (List.length r.Fpga.Timing.critical_nodes > 0);
  Alcotest.(check bool) "fmax positive" true (r.Fpga.Timing.fmax_mhz > 0.0);
  Alcotest.(check bool) "route factor > 1" true (r.Fpga.Timing.route_factor > 1.0)

(* Property: adding logic never decreases area. *)
let prop_area_monotone =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:50 ~name:"area grows with gate count"
       (QCheck.make ~print:string_of_int QCheck.Gen.(int_range 1 10))
       (fun n ->
         let les k =
           let b = S.Builder.create () in
           let x = S.input b "x" 8 in
           let rec chain i acc =
             if i = 0 then acc else chain (i - 1) (S.lxor_ b acc x)
           in
           ignore (S.output b "q" (chain k x));
           Fpga.Tech.les (Fpga.Tech.circuit_cost (Hw.Circuit.create b))
         in
         les (n + 1) >= les n))

(* Table I pinned: the rows [bench/main.exe table1] prints, rebuilt
   the way it builds them (elaborate, [Transform.optimize], map), with
   every column asserted.  A simulator-side change must leave the
   paper's area table exactly as it is; in particular the CPU's ALU
   product stays one [Mul] node, one DSP. *)
let table1_rows () =
  let report label c =
    Fpga.Report.of_circuit ~label (fst (Hw.Transform.optimize c))
  in
  let md5 kind =
    report
      (Printf.sprintf "MD5 %s 8T" (Melastic.Meb.kind_to_string kind))
      (Md5.Md5_circuit.circuit ~kind ~threads:8 ())
  in
  let cpu kind =
    report
      (Printf.sprintf "CPU %s 8T" (Melastic.Meb.kind_to_string kind))
      (fst
         (Cpu.Mt_pipeline.circuit
            { (Cpu.Mt_pipeline.default_config ~threads:8) with
              Cpu.Mt_pipeline.kind }))
  in
  let s1 label build =
    let b = S.Builder.create () in
    let src = Elastic.Channel.source b ~name:"src" ~width:32 in
    Elastic.Channel.sink b ~name:"snk" (build b src);
    report label (Hw.Circuit.create b)
  in
  [ md5 Melastic.Meb.Full; md5 Melastic.Meb.Reduced; cpu Melastic.Meb.Full;
    cpu Melastic.Meb.Reduced;
    s1 "EB S=1 (frozen)" (fun b src -> (Golden.Eb.create b src).Golden.Eb.out);
    s1 "MEB red 1T" (fun b src ->
        Elastic.Channel.of_mt
          (Melastic.Meb_reduced.create ~name:"eb"
             ~policy:Melastic.Policy.Valid_only b (Elastic.Channel.to_mt src))
            .Melastic.Meb_reduced.out) ]

let test_table1_pinned () =
  (* label, LEs, LUTs, FFs, BRAM, DSP, Fmax (MHz, as printed) *)
  let pinned =
    [ ("MD5 full 8T", 17504, 15400, 4269, 2, 0, "13.5");
      ("MD5 reduced 8T", 15682, 15412, 2435, 2, 0, "13.6");
      ("CPU full 8T", 12138, 8919, 6491, 4, 1, "64.4");
      ("CPU reduced 8T", 9662, 8949, 3985, 4, 1, "58.6");
      ("EB S=1 (frozen)", 87, 55, 66, 0, 0, "581.7");
      ("MEB red 1T", 89, 57, 66, 0, 0, "515.0") ]
  in
  List.iter2
    (fun (label, les, luts, ffs, brams, dsps, fmax) (r : Fpga.Report.row) ->
      let chk what want got = Alcotest.(check int) (label ^ " " ^ what) want got in
      Alcotest.(check string) "row" label r.Fpga.Report.label;
      chk "LEs" les r.Fpga.Report.les;
      chk "LUTs" luts r.Fpga.Report.luts;
      chk "FFs" ffs r.Fpga.Report.ffs;
      chk "BRAM" brams r.Fpga.Report.brams;
      chk "DSP" dsps r.Fpga.Report.dsps;
      Alcotest.(check string) (label ^ " Fmax") fmax
        (Printf.sprintf "%.1f" r.Fpga.Report.fmax_mhz))
    pinned (table1_rows ())

let suite =
  ( "fpga",
    [ Alcotest.test_case "wiring free" `Quick test_wiring_is_free;
      Alcotest.test_case "gate costs" `Quick test_gate_costs;
      Alcotest.test_case "mux costs" `Quick test_mux_costs;
      Alcotest.test_case "FF packing" `Quick test_ff_packing;
      Alcotest.test_case "memory/dsp excluded" `Quick test_memory_and_dsp_excluded;
      Alcotest.test_case "MEB capacity in FFs" `Quick test_capacity_matches_ff_count;
      Alcotest.test_case "timing monotone" `Quick test_timing_monotone;
      Alcotest.test_case "registers cut paths" `Quick test_timing_registers_cut_paths;
      Alcotest.test_case "critical path report" `Quick test_timing_critical_path_report;
      prop_area_monotone;
      Alcotest.test_case "table1 pinned" `Quick test_table1_pinned ] )
