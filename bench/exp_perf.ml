(* Simulation-performance tracker (the `perf` subcommand): measures
   cycles/second of every simulation configuration — one mode per
   registered backend plus the optimizer variant —
   on the two real kernels (MD5 reduced-MEB 8T and the MT processor),
   reports per-mode construction latency (for the JIT: codegen,
   compile and load, and which cache layer supplied the kernel),
   verifies a kernel x backend equivalence matrix against the
   interpreter under random stimulus, measures cold-vs-warm JIT kernel
   cache behaviour, and measures the wall-clock scaling of a
   [Parallel]-fanned sweep at 1 vs N domains.  Results go to stdout
   and BENCH_sim_perf.json so the perf trajectory is tracked across
   PRs.

   All timings use wall clock ([Unix.gettimeofday]), not CPU time:
   CPU time would count every domain of the parallel sweep and make
   the scaling invisible. *)

let wall () = Unix.gettimeofday ()

type mode = {
  mlabel : string;
  backend : Hw.Sim.backend;
  optimize : bool;
}

(* Derived from the backend registry, so a newly registered backend
   shows up in the perf table (and the JSON) without touching this
   file.  The compiled backend gets an extra optimizer-on mode, because
   that delta is a ratio the tracker exists to watch. *)
let modes () =
  List.concat_map
    (fun backend ->
      let name = Hw.Sim.backend_to_string backend in
      let m ?(suffix = "") ?(optimize = false) () =
        { mlabel = name ^ suffix; backend; optimize }
      in
      match backend with
      | Hw.Sim.Interp -> [ m () ]
      | Hw.Sim.Compiled -> [ m (); m ~suffix:"_optimize" ~optimize:true () ]
      | Hw.Sim.Jit -> [ m ~optimize:true () ])
    (Hw.Sim.all_backends ())

(* Construct one mode's simulator, timing the construction (for the
   JIT this is where codegen + ocamlopt + Dynlink happen) and
   capturing the JIT build statistics when applicable. *)
let create_timed make mode =
  let t0 = wall () in
  let sim = make mode in
  let create_seconds = wall () -. t0 in
  let build =
    if mode.backend = Hw.Sim.Jit then Hw.Sim_jit.last_build () else None
  in
  (sim, create_seconds, build)

(* ---- kernel free-run timing ---- *)

let md5_sim { backend; optimize; _ } =
  let sim =
    Hw.Sim.create ~backend ~optimize
      (Md5.Md5_circuit.circuit ~kind:Melastic.Meb.Reduced ~threads:8 ())
  in
  (* Saturate the pipeline: all threads offering blocks, sink always
     ready, so every cycle exercises the full datapath. *)
  Hw.Sim.poke_int sim "msg_valid" 255;
  Hw.Sim.poke_int sim "digest_ready" 255;
  sim

let cpu_sim { backend; optimize; _ } =
  let config = Cpu.Mt_pipeline.default_config ~threads:4 in
  let circuit, t = Cpu.Mt_pipeline.circuit config in
  let sim = Hw.Sim.create ~backend ~optimize circuit in
  (* A loop that never halts, so the pipeline stays busy for the whole
     measurement window. *)
  let program =
    Cpu.Asm.assemble_words
      "addi r1, r0, 1\nloop: add r2, r2, r1\nsw r2, 0(r1)\nlw r3, 0(r1)\n\
       bne r3, r0, loop\nhalt\n"
  in
  Cpu.Mt_pipeline.load_program sim t program;
  sim

type timed = {
  tmode : mode;
  cps : float;
  create_seconds : float;
  build : Hw.Sim_jit.build_stats option;
}

(* Time every mode of one kernel, interleaved: each measurement round
   runs one short window per mode, and each mode reports its best
   window.  Two deliberate choices for noisy shared machines:
   - the best window (not the mean) is the minimum-time estimator —
     preemption and other machine noise only ever slow a window down,
     so the fastest window is the closest observation of the
     simulator's true speed;
   - interleaving means a slow phase of the machine degrades some
     window of EVERY mode rather than the whole measurement of one,
     so the cross-mode ratios are not skewed either way. *)
let time_modes make ~min_seconds =
  let sims =
    List.map
      (fun mode ->
        let sim, create_seconds, build = create_timed make mode in
        Hw.Sim.cycles sim 100 (* warm-up *);
        (mode, sim, create_seconds, build, ref 0.0))
      (modes ())
  in
  (* Collect the garbage of construction and warm-up, so every mode is
     timed on a clean heap (the interpreter allocates heavily; its
     debt must not land on the compiled windows). *)
  Gc.full_major ();
  let batch = 200 in
  let windows = 8 in
  let window_seconds = min_seconds /. float_of_int windows in
  for _ = 1 to windows do
    List.iter
      (fun (_, sim, _, _, best) ->
        let cycles = ref 0 in
        let t0 = wall () in
        while wall () -. t0 < window_seconds do
          Hw.Sim.cycles sim batch;
          cycles := !cycles + batch
        done;
        let cps = float_of_int !cycles /. (wall () -. t0) in
        if cps > !best then best := cps)
      sims
  done;
  List.map
    (fun (tmode, _, create_seconds, build, best) ->
      { tmode; cps = !best; create_seconds; build })
    sims

(* ---- equivalence matrix: each fast backend vs the interpreter ---- *)

(* The four real kernels: the MD5 datapath, the MT processor, a
   barrier dataflow graph, and a NoC router (crossbar + link MEBs).
   Each entry builds a ready-to-run simulator for a given backend;
   extra watch names are probes that must survive the optimizer. *)
let eq_kernels () =
  let cpu_config =
    { (Cpu.Mt_pipeline.default_config ~threads:4) with
      Cpu.Mt_pipeline.imem_size = 64; dmem_size = 32 }
  in
  let cpu_program =
    Cpu.Asm.assemble_words
      "addi r1, r0, 1\nloop: add r2, r2, r1\nsw r2, 0(r1)\nlw r3, 0(r1)\n\
       bne r3, r0, loop\nhalt\n"
  in
  [ ( "md5_reduced_8t",
      (fun ~backend ~optimize ->
        Hw.Sim.create ~backend ~optimize
          (Md5.Md5_circuit.circuit ~kind:Melastic.Meb.Reduced ~probes:true
             ~threads:8 ())),
      (* Probes as well as outputs: name preservation through the
         optimizer is part of what is being verified. *)
      [ "round_counter"; "sync_ok" ] );
    ( "cpu_4t",
      (fun ~backend ~optimize ->
        let circuit, t = Cpu.Mt_pipeline.circuit cpu_config in
        let sim = Hw.Sim.create ~backend ~optimize circuit in
        Cpu.Mt_pipeline.load_program sim t cpu_program;
        sim),
      [] );
    ( "barrier_3t",
      (fun ~backend ~optimize ->
        let module D = Synth.Dataflow in
        let g = D.create ~threads:3 () in
        let x = D.input g ~name:"x" ~width:16 in
        let x = D.buffer g x in
        let y = D.barrier g ~name:"bar" x in
        let y = D.buffer g y in
        D.output g ~name:"y" y;
        Hw.Sim.create ~backend ~optimize (D.circuit g)),
      [] );
    ( "noc_router_2x2",
      (fun ~backend ~optimize ->
        let _idx, circuit =
          Noc.router_circuit ~payload_width:16
            (Noc.plan (Noc.Mesh { x = 2; y = 2 }))
        in
        Hw.Sim.create ~backend ~optimize circuit),
      [] ) ]

let eq_backends = [ ("compiled_optimize", Hw.Sim.Compiled); ("jit", Hw.Sim.Jit) ]

(* Drive the candidate and a fresh interpreter in lockstep under
   identical random input traffic, comparing every output (plus the
   extra probes) after every cycle. *)
let lockstep_ok ~cycles ~seed ~kname ~blabel make extra_watch backend =
  let si = make ~backend:Hw.Sim.Interp ~optimize:false in
  let sx = make ~backend ~optimize:true in
  let circuit = Hw.Sim.circuit si in
  let inputs =
    Hashtbl.fold
      (fun name (s : Hw.Signal.t) acc -> (name, s.Hw.Signal.width) :: acc)
      circuit.Hw.Circuit.inputs []
  in
  let watched = List.map fst circuit.Hw.Circuit.outputs @ extra_watch in
  let st = Random.State.make [| seed |] in
  let ok = ref true in
  for _ = 1 to cycles do
    List.iter
      (fun (name, w) ->
        let v = Bits.random st ~width:w in
        Hw.Sim.poke si name v;
        Hw.Sim.poke sx name v)
      inputs;
    Hw.Sim.cycle si;
    Hw.Sim.cycle sx;
    List.iter
      (fun name ->
        if not (Bits.equal (Hw.Sim.peek si name) (Hw.Sim.peek sx name))
        then begin
          ok := false;
          Printf.printf "MISMATCH %s/%s at cycle %d on %S\n" kname blabel
            (Hw.Sim.cycle_no si) name
        end)
      watched
  done;
  !ok

let check_equivalence ~cycles =
  List.concat_map
    (fun (kname, make, extra_watch) ->
      List.map
        (fun (blabel, backend) ->
          let ok =
            lockstep_ok ~cycles ~seed:0x0b5e55ed ~kname ~blabel make
              extra_watch backend
          in
          Printf.printf "equivalence %-16s %-18s vs interp over %d cycles: %s\n%!"
            kname blabel cycles
            (if ok then "ok" else "FAILED");
          (kname, blabel, ok))
        eq_backends)
    (eq_kernels ())

(* ---- parallel sweep scaling ---- *)

(* One sweep point: an MD5 hashing run with per-index stimulus — the
   same shape of independent work the check/table sweeps fan out. *)
let sweep_point ~seed index =
  let st = Parallel.rng ~seed index in
  let threads = 4 in
  let sim =
    Hw.Sim.create ~backend:Hw.Sim.Compiled
      (Md5.Md5_circuit.circuit ~kind:Melastic.Meb.Reduced ~threads ())
  in
  let d =
    Workload.Mt_driver.create sim ~src:"msg" ~snk:"digest" ~threads
      ~width:Md5.Md5_circuit.input_width
  in
  let iv = Md5.Md5_ref.state_to_bits Md5.Md5_ref.iv in
  for t = 0 to threads - 1 do
    let block = Bits.random st ~width:Md5.Md5_circuit.block_width in
    Workload.Mt_driver.push d ~thread:t (Md5.Md5_circuit.input_bits ~block ~iv)
  done;
  ignore (Workload.Mt_driver.run_until_drained d ~limit:20000);
  Hw.Sim.cycle_no sim

let time_sweep ~tasks ~domains ~seed =
  let t0 = wall () in
  let cycles = Parallel.map ~domains (sweep_point ~seed) tasks in
  (wall () -. t0, Array.fold_left ( + ) 0 cycles)

(* ---- JSON fragments ---- *)

let json_opt_string =
  Option.fold ~none:Melastic.Json.Null ~some:(fun s -> Melastic.Json.String s)

let build_json (b : Hw.Sim_jit.build_stats) =
  let mode_s, reason =
    match b.Hw.Sim_jit.bmode with
    | Hw.Sim_jit.Native -> ("native", None)
    | Hw.Sim_jit.Fallback r -> ("fallback", Some r)
  in
  Melastic.Json.(
    Obj
      [ ("mode", String mode_s); ("fallback_reason", json_opt_string reason);
        ("hash", String b.hash); ("process_cache_hit", Bool b.process_cache_hit);
        ("disk_cache_hit", Bool b.disk_cache_hit); ("codegen_seconds", Float b.codegen_seconds);
        ("compile_seconds", Float b.compile_seconds); ("load_seconds", Float b.load_seconds);
        ("emitted_nodes", Int b.emitted_nodes); ("closure_nodes", Int b.closure_nodes);
        ("inlined_nodes", Int b.inlined_nodes) ])

let mode_json t =
  Melastic.Json.(
    Obj
      ([ ("cycles_per_sec", Float t.cps); ("create_seconds", Float t.create_seconds) ]
      @ Option.to_list (Option.map (fun b -> ("build", build_json b)) t.build)))

(* ---- top level ---- *)

let cps_of l name = (List.find (fun t -> t.tmode.mlabel = name) l).cps

let build_of l name =
  (List.find (fun t -> t.tmode.mlabel = name) l).build

let run ?(quick = false) ?domains ?(clear_cache = false)
    ?(expect_warm = false) () =
  Printf.printf
    "=== perf: simulation cycles/sec + JIT cache + parallel sweep scaling%s ===\n%!"
    (if quick then " (quick)" else "");
  if clear_cache then begin
    Hw.Sim_jit.clear_disk_cache ();
    Printf.printf "cleared JIT kernel cache (%s)\n%!" (Hw.Sim_jit.cache_dir ())
  end;
  Hw.Sim_jit.reset_cache_counters ();
  let min_seconds = if quick then 0.15 else 1.0 in
  let eq_cycles = if quick then 100 else 300 in
  let sweep_tasks = if quick then 4 else 8 in
  let cores = Parallel.recommended_domains () in
  let domains = match domains with Some d -> max 1 d | None -> cores in
  let time kernel make =
    List.map
      (fun t ->
        Printf.printf "%-16s %-18s %10.0f cycles/s   (create %6.3fs)\n%!"
          kernel t.tmode.mlabel t.cps t.create_seconds;
        (match t.build with
        | Some b ->
          let mode_s, reason =
            match b.Hw.Sim_jit.bmode with
            | Hw.Sim_jit.Native -> ("native", "")
            | Hw.Sim_jit.Fallback r -> ("fallback", " (" ^ r ^ ")")
          in
          Printf.printf
            "  %-14s kernel: %s%s hash=%s codegen=%.3fs compile=%.3fs \
             load=%.3fs emitted=%d closures=%d inlined=%d cache=%s\n%!"
            t.tmode.mlabel mode_s reason
            (String.sub b.Hw.Sim_jit.hash 0 12)
            b.Hw.Sim_jit.codegen_seconds b.Hw.Sim_jit.compile_seconds
            b.Hw.Sim_jit.load_seconds b.Hw.Sim_jit.emitted_nodes
            b.Hw.Sim_jit.closure_nodes b.Hw.Sim_jit.inlined_nodes
            (if b.Hw.Sim_jit.process_cache_hit then "process"
             else if b.Hw.Sim_jit.disk_cache_hit then "disk"
             else "miss")
        | None -> ());
        t)
      (time_modes make ~min_seconds)
  in
  let md5 = time "md5-reduced-8t" md5_sim in
  let cpu = time "cpu-4t" cpu_sim in
  let ratio l a b = cps_of l a /. cps_of l b in
  List.iter
    (fun (kernel, l) ->
      Printf.printf
        "%s: optimize %.2fx, compiled/interp %.2fx, jit/compiled_optimize \
         %.2fx\n%!"
        kernel
        (ratio l "compiled_optimize" "compiled")
        (ratio l "compiled" "interp")
        (ratio l "jit" "compiled_optimize"))
    [ ("md5-reduced-8t", md5); ("cpu-4t", cpu) ];
  (* Equivalence matrix: every fast backend against the interpreter on
     every kernel, random traffic, bit-exact or the run fails. *)
  let matrix = check_equivalence ~cycles:eq_cycles in
  let equivalent = List.for_all (fun (_, _, ok) -> ok) matrix in
  (* Cold-vs-warm kernel cache: the counters so far cover every JIT
     create above (cold when this invocation compiled, disk hits when
     a previous invocation's cache supplied the kernel); then drop the
     process cache and re-create the bench kernels, which must all
     come back from disk. *)
  let first_hits, first_misses = Hw.Sim_jit.cache_counters () in
  Hw.Sim_jit.clear_process_cache ();
  Hw.Sim_jit.reset_cache_counters ();
  let jit_mode =
    { mlabel = "jit"; backend = Hw.Sim.Jit; optimize = true }
  in
  let warm_creates =
    List.map
      (fun (label, make) ->
        let _sim, s, _ = create_timed make jit_mode in
        (label, s))
      [ ("md5_reduced_8t", md5_sim); ("cpu_4t", cpu_sim) ]
  in
  let warm_hits, warm_misses = Hw.Sim_jit.cache_counters () in
  let jit_native =
    match build_of md5 "jit" with
    | Some { Hw.Sim_jit.bmode = Hw.Sim_jit.Native; _ } -> true
    | _ -> false
  in
  let warm_all_hits = jit_native && warm_misses = 0 && warm_hits > 0 in
  Printf.printf
    "jit cache: first run %d disk hits / %d misses; warm re-create %d hits / \
     %d misses (%s)\n%!"
    first_hits first_misses warm_hits warm_misses
    (String.concat ", "
       (List.map (fun (l, s) -> Printf.sprintf "%s %.3fs" l s) warm_creates));
  (* Headline gate: the native JIT must clear 1M cycles/sec on the MD5
     kernel.  A build without a native kernel runs the compiled
     closures; it reports its mode and reason and does not meet the
     headline. *)
  let jit_cps = cps_of md5 "jit" in
  let fallback_reason =
    match build_of md5 "jit" with
    | Some { Hw.Sim_jit.bmode = Hw.Sim_jit.Fallback r; _ } -> Some r
    | _ -> None
  in
  let headline_met = jit_native && jit_cps >= 1_000_000.0 in
  Printf.printf "headline: md5_reduced_8t jit (%s) %.0f cycles/s — %s\n%!"
    (match fallback_reason with
     | None -> "native"
     | Some r -> "fallback: " ^ r)
    jit_cps
    (if headline_met then "target met" else "BELOW TARGET");
  let seed = 0x51eed in
  (* A 1-vs-N scaling comparison is meaningless when only one core is
     available (both runs execute serially and the "speedup" is timer
     noise), but the sequential sweep time still is: always measure it,
     and keep "skipped" as a flag on the degraded path. *)
  let sequential = cores <= 1 && domains <= 1 in
  let sweep =
    if sequential then begin
      Printf.printf "sweep: single core, timing sequential run only\n%!";
      let t1, _ = time_sweep ~tasks:sweep_tasks ~domains:1 ~seed in
      Printf.printf "sweep (%d MD5 points): %.2fs at 1 domain\n%!" sweep_tasks
        t1;
      (t1, t1)
    end
    else begin
      let t1, c1 = time_sweep ~tasks:sweep_tasks ~domains:1 ~seed in
      let tn, cn = time_sweep ~tasks:sweep_tasks ~domains ~seed in
      assert (c1 = cn) (* deterministic: same total cycles either way *);
      Printf.printf
        "sweep (%d MD5 points): %.2fs at 1 domain, %.2fs at %d domains (%.2fx, %d cores available)\n%!"
        sweep_tasks t1 tn domains (t1 /. tn) cores;
      (t1, tn)
    end
  in
  let kernel_json l =
    Melastic.Json.(
      Obj
        [ ("modes", Obj (List.map (fun t -> (t.tmode.mlabel, mode_json t)) l));
          ("optimize_speedup", Float (ratio l "compiled_optimize" "compiled"));
          ("compiled_speedup_over_interp", Float (ratio l "compiled" "interp"));
          ( "jit_speedup_over_compiled_optimize",
            Float (ratio l "jit" "compiled_optimize") ) ])
  in
  let t1, tn = sweep in
  Bench_json.write ~experiment:"sim-perf" ~quick "BENCH_sim_perf.json"
    Melastic.Json.
      [ ("kernels", Obj [ ("md5_reduced_8t", kernel_json md5); ("cpu_4t", kernel_json cpu) ]);
        ( "headline",
          Obj
            [ ("kernel", String "md5_reduced_8t");
              ("jit_mode", String (if jit_native then "native" else "fallback"));
              ("fallback_reason", json_opt_string fallback_reason);
              ("jit_cycles_per_sec", Float jit_cps); ("target", String "1000000 cycles/sec");
              ("met", Bool headline_met) ] );
        ( "equivalence",
          Obj
            [ ("cycles", Int eq_cycles); ("ok", Bool equivalent);
              ( "matrix",
                List
                  (List.map
                     (fun (kname, blabel, ok) ->
                       Obj
                         [ ("kernel", String kname); ("backend", String blabel); ("ok", Bool ok) ])
                     matrix) ) ] );
        ( "jit_cache",
          Obj
            [ ( "first_run",
                Obj [ ("disk_hits", Int first_hits); ("disk_misses", Int first_misses) ] );
              ( "warm_rerun",
                Obj
                  [ ("disk_hits", Int warm_hits); ("disk_misses", Int warm_misses);
                    ("create_seconds", Obj (List.map (fun (l, s) -> (l, Float s)) warm_creates));
                    ("all_hits", Bool warm_all_hits) ] ) ] );
        ( "sweep",
          Obj
            ((if sequential then [ ("skipped", String "single core") ] else [])
            @ [ ("tasks", Int sweep_tasks); ("seconds_at_1_domain", Float t1);
                ("seconds_at_n_domains", Float tn); ("domains", Int domains);
                ("speedup", Float (t1 /. tn)); ("cores_available", Int cores) ]) ) ];
  if not equivalent then begin
    Printf.eprintf
      "FAIL perf: equivalence matrix has mismatching cells (see MISMATCH \
       lines above): %s\n\
       %!"
      (String.concat ", "
         (List.filter_map
            (fun (k, b, ok) -> if ok then None else Some (k ^ "/" ^ b))
            matrix));
    exit 1
  end;
  if expect_warm && (first_misses > 0 || not jit_native) then begin
    Printf.eprintf
      "FAIL perf --expect-warm: expected every JIT kernel to load from the \
       disk cache, got %d hits / %d misses (mode %s)\n\
       %!"
      first_hits first_misses
      (if jit_native then "native" else "fallback");
    exit 1
  end
