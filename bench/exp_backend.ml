(* Backend comparison: check that the compiled simulator is
   bit-identical to the interpreter on the table-1 MD5 kernel, then
   time both and report cycles/second and the speedup.  Results go to
   stdout and BENCH_backend.json. *)

let kernel_name = "md5 reduced 8T"

let make_sim backend =
  let sim =
    Hw.Sim.create ~backend
      (Md5.Md5_circuit.circuit ~kind:Melastic.Meb.Reduced ~threads:8 ())
  in
  Hw.Sim.poke_int sim "digest_ready" 255;
  sim

(* Drive both backends with identical pseudo-random stimulus on every
   primary input and require every output to match after each settle
   and each cycle. *)
let check_equivalence ~cycles =
  let si = make_sim Hw.Sim.Interp and sc = make_sim Hw.Sim.Compiled in
  let circuit = Hw.Sim.circuit si in
  let inputs =
    Hashtbl.fold
      (fun name (s : Hw.Signal.t) acc -> (name, s.Hw.Signal.width) :: acc)
      circuit.Hw.Circuit.inputs []
  in
  let st = Random.State.make [| 0x5eed |] in
  let ok = ref true in
  for _ = 1 to cycles do
    List.iter
      (fun (name, w) ->
        let v = Bits.random st ~width:w in
        Hw.Sim.poke si name v;
        Hw.Sim.poke sc name v)
      inputs;
    Hw.Sim.cycle si;
    Hw.Sim.cycle sc;
    List.iter
      (fun (name, _) ->
        if not (Bits.equal (Hw.Sim.peek si name) (Hw.Sim.peek sc name)) then begin
          ok := false;
          Printf.printf "MISMATCH at cycle %d on %S\n" (Hw.Sim.cycle_no si) name
        end)
      circuit.Hw.Circuit.outputs
  done;
  !ok

(* Run cycles in batches until [min_seconds] of wall time has
   accumulated; return simulated cycles per second. *)
let time_backend backend ~min_seconds =
  let sim = make_sim backend in
  Hw.Sim.poke_int sim "msg_valid" 255;
  Hw.Sim.cycles sim 100 (* warm-up *);
  let batch = 200 in
  let cycles = ref 0 in
  let t0 = Sys.time () in
  while Sys.time () -. t0 < min_seconds do
    Hw.Sim.cycles sim batch;
    cycles := !cycles + batch
  done;
  float_of_int !cycles /. (Sys.time () -. t0)

let run () =
  print_endline "=== backend-compare: interpreter vs compiled simulator ===";
  Printf.printf "kernel: %s\n%!" kernel_name;
  let eq_cycles = 300 in
  let equivalent = check_equivalence ~cycles:eq_cycles in
  Printf.printf "equivalence over %d random-stimulus cycles: %s\n%!" eq_cycles
    (if equivalent then "ok" else "FAILED");
  let interp = time_backend Hw.Sim.Interp ~min_seconds:1.0 in
  let compiled = time_backend Hw.Sim.Compiled ~min_seconds:1.0 in
  let speedup = compiled /. interp in
  Printf.printf "interp:   %10.0f cycles/s\n" interp;
  Printf.printf "compiled: %10.0f cycles/s\n" compiled;
  Printf.printf "speedup:  %9.2fx\n%!" speedup;
  Bench_json.write ~experiment:"backend-compare" "BENCH_backend.json"
    Melastic.Json.
      [ ("kernel", String kernel_name); ("equivalence_cycles", Int eq_cycles);
        ("equivalent", Bool equivalent); ("interp_cycles_per_sec", Float interp);
        ("compiled_cycles_per_sec", Float compiled); ("speedup", Float speedup) ];
  if not equivalent then begin
    Printf.eprintf
      "FAIL backend-compare: kernel=%S backends=interp,compiled cycles=%d \
       expected=bit-identical outputs got=mismatches (see MISMATCH lines \
       above)\n\
       %!"
      kernel_name eq_cycles;
    exit 1
  end
