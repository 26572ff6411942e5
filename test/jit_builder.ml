(* One JIT kernel builder, as a process of its own.  Creates a JIT
   simulator of a fixed small netlist (narrow and wide registers, a
   multiplier, a memory, a mux), drives it for CYCLES cycles in
   lockstep with the interpreter under seeded stimulus, and prints the
   build mode, the netlist hash and every output of every cycle.  Exits
   1 on the first mismatch with the interpreter.

   Usage: jit_builder.exe CYCLES

   The concurrent-builder test in test_sim_backends.ml starts two
   copies at once against one fresh ELASTIC_JIT_CACHE. *)

module S = Hw.Signal

let circuit () =
  let b = S.Builder.create () in
  let x = S.input b "x" 16 and y = S.input b "y" 80 in
  let acc =
    S.reg_fb b ~width:32 (fun q ->
        S.add b q (S.mul b x (S.select b q ~hi:15 ~lo:0)))
  in
  let wide = S.reg_fb b ~width:80 (fun q -> S.lxor_ b (S.rotl b q 7) y) in
  let mem = S.Memory.create b ~name:"m" ~size:8 ~width:16 () in
  S.Memory.write b mem ~we:(S.select b x ~hi:0 ~lo:0)
    ~addr:(S.select b x ~hi:3 ~lo:1) ~data:(S.select b acc ~hi:15 ~lo:0);
  let rd = S.Memory.read_async b mem ~addr:(S.select b y ~hi:2 ~lo:0) in
  ignore (S.output b "acc" acc);
  ignore (S.output b "wide" wide);
  ignore
    (S.output b "pick"
       (S.mux b (S.select b x ~hi:1 ~lo:0)
          [ rd; S.select b acc ~hi:31 ~lo:16; x ]));
  Hw.Circuit.create b

let () =
  let cycles = int_of_string Sys.argv.(1) in
  let circuit = circuit () in
  let sj = Hw.Sim.create ~backend:Hw.Sim.Jit circuit in
  let si = Hw.Sim.create ~backend:Hw.Sim.Interp circuit in
  let b = Option.get (Hw.Sim_jit.last_build ()) in
  (match b.Hw.Sim_jit.bmode with
   | Hw.Sim_jit.Native -> print_endline "mode native"
   | Hw.Sim_jit.Fallback r -> print_endline ("mode fallback: " ^ r));
  print_endline ("hash " ^ b.Hw.Sim_jit.hash);
  let st = Random.State.make [| 0x5eed |] in
  for c = 1 to cycles do
    List.iter
      (fun (name, w) ->
        let v = Bits.random st ~width:w in
        Hw.Sim.poke sj name v;
        Hw.Sim.poke si name v)
      [ ("x", 16); ("y", 80) ];
    Hw.Sim.cycle sj;
    Hw.Sim.cycle si;
    List.iter
      (fun (name, _) ->
        let vj = Hw.Sim.peek sj name in
        if not (Bits.equal vj (Hw.Sim.peek si name)) then begin
          Printf.eprintf "cycle %d: output %s differs from the interpreter\n" c
            name;
          exit 1
        end;
        Printf.printf "%d %s %s\n" c name (Bits.to_hex_string vj))
      circuit.Hw.Circuit.outputs
  done
