(* Probes of the hw layer on its own: Sim.create, the free-running and
   stepped kernel, settle, by-name poke/peek and snapshot/restore, all
   on the JIT backend with a warm kernel cache, plus one cold build
   into a throwaway cache directory. *)

open Pb_util

(* The circuit the MD5 serving replica elaborates with monitors off. *)
let md5_circuit () = Md5.Md5_circuit.circuit ~kind:Melastic.Meb.Reduced ~threads:8 ()

let cpu_design () = Cpu.Mt_pipeline.circuit (Cpu.Mt_pipeline.default_config ~threads:4)

(* A NoC router node (input MEBs, branches, fair merges) — the kind of
   small control netlist the model checker restores and steps. *)
let router_circuit () =
  snd (Noc.router_circuit ~payload_width:8 (Noc.plan (Noc.Star { leaves = 2 })))

let create circuit = Hw.Sim.create ~backend:Hw.Sim.Jit circuit

(* All threads offering blocks and the sink always ready: every cycle
   exercises the whole datapath. *)
let md5_sim () =
  let sim = create (md5_circuit ()) in
  Hw.Sim.poke_int sim "msg_valid" 255;
  Hw.Sim.poke_int sim "digest_ready" 255;
  sim

(* A loop that never halts, so the pipeline stays busy. *)
let cpu_sim () =
  let circuit, t = cpu_design () in
  let sim = create circuit in
  Cpu.Mt_pipeline.load_program sim t
    (Cpu.Asm.assemble_words
       "addi r1, r0, 1\nloop: add r2, r2, r1\nsw r2, 0(r1)\nlw r3, 0(r1)\n\
        bne r3, r0, loop\nhalt\n");
  sim

let router_sim () = Hw.Sim.create ~backend:Hw.Sim.Jit ~optimize:false (router_circuit ())

let prime () = List.iter (fun f -> ignore (f ())) [ md5_sim; cpu_sim; router_sim ]

(* Median over [windows] of [reps] calls of [f] per window: seconds
   per call and minor words per call. *)
let per_call ?(windows = 5) ~reps f =
  let secs = ref [] and words = ref [] in
  for _ = 1 to windows do
    let w0 = Gc.minor_words () in
    let t0 = now () in
    for _ = 1 to reps do
      f ()
    done;
    let dt = now () -. t0 in
    secs := (dt /. float_of_int reps) :: !secs;
    words := ((Gc.minor_words () -. w0) /. float_of_int reps) :: !words
  done;
  (median !secs, median !words)

let create_s circuit =
  let c = circuit () in
  median
    (List.init 5 (fun _ ->
         Pb_jit.before_setup ();
         let t0 = now () in
         ignore (Sys.opaque_identity (create c));
         let dt = now () -. t0 in
         Pb_jit.check "hw.create";
         dt))

(* Codegen, compile and load of the MD5 kernel into a throwaway cache
   directory.  Must run before this process links the MD5 kernel: a
   native unit links once per process, so a later build would only
   reuse it. *)
let jit_build_cold_s () =
  let keep = Hw.Sim_jit.cache_dir () in
  let dir = Filename.concat out_dir (Printf.sprintf "cold-jit-%d" (Unix.getpid ())) in
  mkdir_p dir;
  Hw.Sim_jit.set_cache_dir dir;
  Hw.Sim_jit.clear_process_cache ();
  let c = md5_circuit () in
  let t0 = now () in
  ignore (Sys.opaque_identity (create c));
  let dt = now () -. t0 in
  let built =
    match Hw.Sim_jit.last_build () with
    | Some b ->
        b.Hw.Sim_jit.bmode = Hw.Sim_jit.Native
        && not (b.Hw.Sim_jit.process_cache_hit || b.Hw.Sim_jit.disk_cache_hit)
    | None -> false
  in
  Hw.Sim_jit.set_cache_dir keep;
  rm_rf dir;
  if built then dt
  else begin
    Pb_jit.note "hw.jit_build_cold_s: the MD5 kernel was not built cold";
    0.
  end

type probes = {
  create_md5_s : float;
  create_cpu_s : float;
  freerun_md5 : float;  (** cycles/s *)
  freerun_cpu : float;
  step_md5 : float;  (** cycles/s *)
  step_cpu : float;
  step_md5_words : float;  (** per cycle *)
  step_cpu_words : float;
  settle_ns : float;
  poke_peek_ns : float;
  snapshot_restore_ns : float;
}

let batch = 1000

let probe () =
  let md5 = md5_sim () and cpu = cpu_sim () and router = router_sim () in
  let cycles_per_s sim ~f =
    let s, w = per_call ~reps:40 (fun () -> f sim) in
    (float_of_int batch /. s, w /. float_of_int batch)
  in
  let free sim = Hw.Sim.cycles sim batch in
  let stepped sim =
    for _ = 1 to batch do
      Hw.Sim.cycle sim
    done
  in
  let freerun_md5, _ = cycles_per_s md5 ~f:free in
  let freerun_cpu, _ = cycles_per_s cpu ~f:free in
  let step_md5, step_md5_words = cycles_per_s md5 ~f:stepped in
  let step_cpu, step_cpu_words = cycles_per_s cpu ~f:stepped in
  (* As the MD5 serving driver issues them: names built per call. *)
  let flip = ref 0 in
  let settle_s, _ =
    per_call ~reps:20_000 (fun () ->
        flip := 255 - !flip;
        Hw.Sim.poke_int md5 "msg_valid" !flip;
        Hw.Sim.settle md5)
  in
  let valid = Bits.of_int ~width:8 1 in
  let poke_peek_s, _ =
    per_call ~reps:20_000 (fun () ->
        Hw.Sim.poke md5 (Melastic.Names.valid "msg") valid;
        ignore (Sys.opaque_identity (Hw.Sim.peek md5 (Melastic.Names.ready "msg"))))
  in
  Hw.Sim.cycles router 7;
  let snap_s, _ =
    per_call ~reps:20_000 (fun () ->
        let s = Hw.Sim.snapshot router in
        Hw.Sim.restore router s)
  in
  { create_md5_s = create_s md5_circuit;
    create_cpu_s = create_s (fun () -> fst (cpu_design ()));
    freerun_md5;
    freerun_cpu;
    step_md5;
    step_cpu;
    step_md5_words;
    step_cpu_words;
    settle_ns = settle_s *. 1e9;
    poke_peek_ns = poke_peek_s *. 1e9;
    snapshot_restore_ns = snap_s *. 1e9 }
