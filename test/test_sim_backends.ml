(* Cross-backend equivalence: the compiled backend (Sim_compiled) and
   the native-JIT backend (Sim_jit) must be bit-identical, cycle for
   cycle, to the reference interpreter (Sim_interp) — on randomized
   circuits covering every node kind in both the unboxed-int and wide
   (Bits.t) value domains, and on the real tier-1 workloads (MD5
   datapath, multithreaded CPU). *)

module S = Hw.Signal

let both circuit =
  ( Hw.Sim.create ~backend:Hw.Sim.Interp circuit,
    Hw.Sim.create ~backend:Hw.Sim.Compiled circuit )

(* Compare every output of two simulators of the same circuit. *)
let check_outputs tag si sc =
  List.iter
    (fun (name, _) ->
      let vi = Hw.Sim.peek si name and vc = Hw.Sim.peek sc name in
      if not (Bits.equal vi vc) then
        Alcotest.failf "%s: output %S differs: interp=%s compiled=%s" tag name
          (Bits.to_string vi) (Bits.to_string vc))
    (Hw.Sim.circuit si).Hw.Circuit.outputs

(* Drive both simulators with identical random input values for
   [cycles] cycles, checking all outputs after every settle and every
   cycle (so both combinational and committed state must agree). *)
let drive_lockstep ?(cycles = 30) st si sc =
  let inputs =
    Hashtbl.fold
      (fun name (s : S.t) acc -> (name, s.S.width) :: acc)
      (Hw.Sim.circuit si).Hw.Circuit.inputs []
  in
  for c = 1 to cycles do
    let values =
      List.map
        (fun (name, w) ->
          let v = Bits.random st ~width:w in
          Hw.Sim.poke si name v;
          Hw.Sim.poke sc name v;
          (name, v))
        inputs
    in
    Hw.Sim.settle si;
    Hw.Sim.settle sc;
    check_outputs (Printf.sprintf "settle %d" c) si sc;
    Hw.Sim.cycle si;
    Hw.Sim.cycle sc;
    check_outputs (Printf.sprintf "cycle %d" c) si sc;
    (* Re-poking unchanged values leaves the circuit clean (only a
       changed input dirties it), so the settle below is skipped; the
       skipped state must still be the settled one. *)
    List.iter
      (fun (name, v) ->
        Hw.Sim.poke si name v;
        Hw.Sim.poke sc name v)
      values;
    Hw.Sim.settle si;
    Hw.Sim.settle sc;
    check_outputs (Printf.sprintf "re-poke %d" c) si sc
  done

(* Random feed-forward circuit generator.  Widths span 1..96 so both
   the int fast path (<= Bits.max_int_width) and the wide Bits.t path
   are exercised, including mixed-width nodes (int node over wide
   operands and vice versa). *)
let random_width st = 1 + Random.State.int st 96

let random_circuit st =
  let b = S.Builder.create () in
  let n_inputs = 3 + Random.State.int st 3 in
  let pool = ref [] in
  let push s = if S.width s <= 160 then pool := s :: !pool in
  for i = 0 to n_inputs - 1 do
    push (S.input b (Printf.sprintf "in%d" i) (random_width st))
  done;
  (* A couple of constants, including boundary widths around the
     int/wide split. *)
  List.iter
    (fun w -> push (S.const b (Bits.random st ~width:w)))
    [ 1; Bits.max_int_width; Bits.max_int_width + 1; random_width st ];
  let pick () = List.nth !pool (Random.State.int st (List.length !pool)) in
  let pick_resized w = S.uresize b (pick ()) w in
  (* A register with feedback, so state depends on history. *)
  push
    (S.reg_fb b ~width:(random_width st) (fun q ->
         S.add b q (pick_resized (S.width q))));
  for _ = 1 to 50 do
    match Random.State.int st 13 with
    | 0 -> push (S.lnot b (pick ()))
    | 1 | 2 ->
      let x = pick () in
      let w = S.width x in
      let y = pick_resized w in
      let op =
        match Random.State.int st 6 with
        | 0 -> S.land_
        | 1 -> S.lor_
        | 2 -> S.lxor_
        | 3 -> S.add
        | 4 -> S.sub
        | _ -> S.lxor_
      in
      push (op b x y)
    | 3 ->
      let x = pick () in
      (* [mul] takes equal widths and doubles; keep products bounded. *)
      if S.width x <= 75 then push (S.mul b x (pick_resized (S.width x)))
    | 4 ->
      let x = pick () in
      let y = pick_resized (S.width x) in
      let cmp =
        match Random.State.int st 3 with 0 -> S.eq | 1 -> S.ult | _ -> S.slt
      in
      push (cmp b x y)
    | 5 ->
      (* Mux with fewer cases than the selector can address, so
         out-of-range selects exercise clamp-to-last-case. *)
      let sel = pick () in
      (* The builder's case-count check computes [1 lsl sel.width],
         which overflows for very wide selectors; keep them modest. *)
      let sel = if S.width sel > 16 then S.select b sel ~hi:15 ~lo:0 else sel in
      let n = 2 + Random.State.int st 3 in
      let max_cases = if S.width sel >= 3 then n else 1 lsl S.width sel in
      let n = min n max_cases in
      let w = random_width st in
      push (S.mux b sel (List.init n (fun _ -> pick_resized w)))
    | 6 ->
      let n = 1 + Random.State.int st 3 in
      let parts = List.init n (fun _ -> pick ()) in
      if List.fold_left (fun a s -> a + S.width s) 0 parts <= 160 then
        push (S.concat_msb b parts)
    | 7 ->
      let x = pick () in
      let w = S.width x in
      let lo = Random.State.int st w in
      let hi = lo + Random.State.int st (w - lo) in
      push (S.select b x ~hi ~lo)
    | 8 ->
      let d = pick () in
      let enable =
        if Random.State.int st 2 = 0 then Some (pick_resized 1) else None
      in
      let clear =
        if Random.State.int st 3 = 0 then Some (pick_resized 1) else None
      in
      push
        (S.reg b ?enable ?clear
           ~clear_to:(Bits.random st ~width:(S.width d))
           ~init:(Bits.random st ~width:(S.width d))
           d)
    | 9 -> push (S.const b (Bits.random st ~width:(random_width st)))
    | 10 ->
      let x = pick () in
      let k = Random.State.int st (S.width x) in
      push ((if Random.State.int st 2 = 0 then S.rotl else S.rotr) b x k)
    | 11 -> push (S.sresize b (pick ()) (random_width st))
    | _ ->
      let x = pick () in
      push (S.srl_dyn b x (pick_resized (max 1 (S.clog2 (S.width x + 1)))))
  done;
  (* One memory with two write ports; narrow address space so writes
     collide (port priority) and some addresses are out of range. *)
  let mw = random_width st in
  let mem = S.Memory.create b ~name:"m" ~size:6 ~width:mw () in
  for _ = 1 to 2 do
    S.Memory.write b mem ~we:(pick_resized 1) ~addr:(pick_resized 3)
      ~data:(pick_resized mw)
  done;
  push (S.Memory.read_async b mem ~addr:(pick_resized 3));
  push (S.Memory.read_sync b mem ~enable:(pick_resized 1) ~addr:(pick_resized 3) ());
  (* Expose a sample of the pool (always including the most recently
     created nodes, which transitively reference the rest). *)
  List.iteri
    (fun i s -> ignore (S.output b (Printf.sprintf "o%d" i) s))
    (List.filteri (fun i _ -> i < 12) !pool);
  Hw.Circuit.create b

let test_random_circuits () =
  let st = Random.State.make [| 0xbeef |] in
  for _ = 1 to 25 do
    let circuit = random_circuit st in
    let si, sc = both circuit in
    drive_lockstep st si sc
  done

let test_reset_equivalence () =
  (* After reset, both backends must match a freshly created pair —
     including inputs returning to zero. *)
  let st = Random.State.make [| 0xf00d |] in
  for _ = 1 to 5 do
    let circuit = random_circuit st in
    let si, sc = both circuit in
    drive_lockstep ~cycles:10 st si sc;
    Hw.Sim.reset si;
    Hw.Sim.reset sc;
    check_outputs "after reset" si sc;
    let fi, fc = both circuit in
    Hw.Sim.settle fi;
    Hw.Sim.settle fc;
    check_outputs "reset interp = fresh interp" si fi;
    check_outputs "reset compiled = fresh compiled" sc fc;
    (* And the reset pair must track a fresh pair cycle-for-cycle
       under identical stimulus. *)
    let st2 = Random.State.copy st in
    drive_lockstep ~cycles:10 st si sc;
    drive_lockstep ~cycles:10 st2 fi fc;
    check_outputs "replay interp" si fi;
    check_outputs "replay compiled" sc fc
  done

(* Directed: mux out-of-range clamping on the compiled backend, for an
   int-width and a wide-width mux. *)
let test_mux_clamp_compiled () =
  List.iter
    (fun w ->
      let b = S.Builder.create () in
      let sel = S.input b "sel" 4 in
      let cases = List.map (fun n -> S.of_int b ~width:w n) [ 10; 20; 30 ] in
      ignore (S.output b "out" (S.mux b sel cases));
      let sim = Hw.Sim.create ~backend:Hw.Sim.Compiled (Hw.Circuit.create b) in
      let expect sel_v out_v =
        Hw.Sim.poke_int sim "sel" sel_v;
        Hw.Sim.settle sim;
        Alcotest.(check int)
          (Printf.sprintf "w=%d sel=%d" w sel_v)
          out_v
          (Bits.to_int (Hw.Sim.peek sim "out"))
      in
      expect 0 10;
      expect 1 20;
      expect 2 30;
      expect 3 30;
      expect 15 30)
    [ 8; 80 ]

(* Directed: when two write ports hit the same address in the same
   cycle, the last-added port wins — on both backends, for int-width
   and wide memories. *)
let test_mem_port_priority_compiled () =
  List.iter
    (fun w ->
      List.iter
        (fun backend ->
          let b = S.Builder.create () in
          let mem = S.Memory.create b ~name:"m" ~size:4 ~width:w () in
          let vdd = S.vdd b and addr = S.of_int b ~width:2 1 in
          S.Memory.write b mem ~we:vdd ~addr ~data:(S.of_int b ~width:w 11);
          S.Memory.write b mem ~we:vdd ~addr ~data:(S.of_int b ~width:w 22);
          ignore (S.output b "r" (S.Memory.read_async b mem ~addr));
          let sim = Hw.Sim.create ~backend (Hw.Circuit.create b) in
          Hw.Sim.cycle sim;
          Alcotest.(check int)
            (Printf.sprintf "%s w=%d last port wins"
               (Hw.Sim.backend_to_string backend)
               w)
            22
            (Bits.to_int (Hw.Sim.peek sim "r")))
        [ Hw.Sim.Interp; Hw.Sim.Compiled; Hw.Sim.Jit ])
    [ 8; 70 ]

(* Wide datapath arithmetic spot-check on the compiled backend against
   the Bits model (128-bit operands — MD5 digest territory). *)
let test_wide_arith_compiled () =
  let b = S.Builder.create () in
  let x = S.input b "x" 128 and y = S.input b "y" 128 in
  ignore (S.output b "sum" (S.add b x y));
  ignore (S.output b "diff" (S.sub b x y));
  ignore (S.output b "xor" (S.lxor_ b x y));
  ignore (S.output b "ult" (S.ult b x y));
  ignore (S.output b "hi" (S.select b x ~hi:127 ~lo:64));
  let sim = Hw.Sim.create ~backend:Hw.Sim.Compiled (Hw.Circuit.create b) in
  let st = Random.State.make [| 42 |] in
  for _ = 1 to 50 do
    let xv = Bits.random st ~width:128 and yv = Bits.random st ~width:128 in
    Hw.Sim.poke sim "x" xv;
    Hw.Sim.poke sim "y" yv;
    Hw.Sim.settle sim;
    Alcotest.(check bool) "sum" true (Bits.equal (Bits.add xv yv) (Hw.Sim.peek sim "sum"));
    Alcotest.(check bool) "diff" true (Bits.equal (Bits.sub xv yv) (Hw.Sim.peek sim "diff"));
    Alcotest.(check bool) "xor" true (Bits.equal (Bits.logxor xv yv) (Hw.Sim.peek sim "xor"));
    Alcotest.(check bool) "ult" (Bits.ult xv yv) (Hw.Sim.peek_bool sim "ult");
    Alcotest.(check bool) "select" true
      (Bits.equal (Bits.select xv ~hi:127 ~lo:64) (Hw.Sim.peek sim "hi"))
  done

(* Run a real tier-1 workload on the compiled backend: the full MD5
   multithreaded datapath, checked against the RFC 1321 reference. *)
let test_md5_on_compiled () =
  let msgs = [ "abc"; "message digest"; String.make 70 'a' ] in
  let circuit =
    Md5.Md5_circuit.circuit ~kind:Melastic.Meb.Reduced
      ~threads:(List.length msgs) ()
  in
  let sim = Hw.Sim.create ~backend:Hw.Sim.Compiled circuit in
  Alcotest.(check string) "backend" "compiled" (Hw.Sim.backend_name sim);
  let digests = Md5.Md5_host.hash_messages ~limit:20000 sim msgs in
  List.iter2
    (fun msg got ->
      Alcotest.(check string)
        (Printf.sprintf "md5(%S) on compiled backend" msg)
        (Md5.Md5_ref.digest msg) got)
    msgs digests

(* And the multithreaded CPU: run the same program on both backends
   and compare cycle counts and final architectural state. *)
let test_cpu_on_compiled () =
  let threads = 2 in
  let program =
    "addi r1, r0, 1071\n\
     addi r2, r0, 462\n\
     loop: beq r1, r2, done\n\
     blt r1, r2, swap\n\
     sub r1, r1, r2\n\
     j loop\n\
     swap: sub r2, r2, r1\n\
     j loop\n\
     done: sw r1, 0(r0)\n\
     halt\n"
  in
  let words = Cpu.Asm.assemble_words program in
  let config =
    { (Cpu.Mt_pipeline.default_config ~threads) with
      Cpu.Mt_pipeline.imem_size = 64; dmem_size = 32 }
  in
  let run backend =
    let circuit, t = Cpu.Mt_pipeline.circuit config in
    let sim = Hw.Sim.create ~backend circuit in
    Cpu.Mt_pipeline.load_program sim t words;
    Hw.Sim.settle sim;
    let cycles = Cpu.Mt_pipeline.run_until_halted sim ~limit:30000 in
    Alcotest.(check bool)
      (Hw.Sim.backend_to_string backend ^ " halted")
      true (cycles <> None);
    let regs =
      List.init threads (fun th ->
          List.init 4 (fun r -> Cpu.Mt_pipeline.read_reg sim t ~thread:th ~reg:r))
    in
    let mem = List.init 4 (fun a -> Cpu.Mt_pipeline.read_dmem sim t a) in
    (regs, mem, cycles, Hw.Sim.peek_int sim "retired_total")
  in
  let ri = run Hw.Sim.Interp and rc = run Hw.Sim.Compiled in
  let pp_state (regs, mem, cycles, retired) =
    Printf.sprintf "regs=%s mem=%s cycles=%s retired=%d"
      (String.concat "|"
         (List.map (fun l -> String.concat "," (List.map string_of_int l)) regs))
      (String.concat "," (List.map string_of_int mem))
      (match cycles with Some c -> string_of_int c | None -> "-")
      retired
  in
  Alcotest.(check string) "cpu state matches" (pp_state ri) (pp_state rc);
  let _, _, _, retired = rc in
  Alcotest.(check bool) "instructions retired" true (retired > 0)

(* Optimizer equivalence on the real designs: co-simulate each tier-1
   workload (MD5 datapath, MT processor, a barrier graph)
   optimized-vs-unoptimized under random stimulus for several hundred
   cycles, on both backends.  Random circuits (above) cover node-kind
   corners; these cover the idioms the word-level rewrites target —
   arbiters, thermometer masks, priority grants, elastic control. *)
let test_optimizer_cosim_real_designs () =
  let cosim ?(cycles = 300) ~seed ?(prep = fun _ -> ()) make_circuit =
    List.iter
      (fun backend ->
        let circuit = make_circuit () in
        let plain = Hw.Sim.create ~backend ~optimize:false circuit in
        let opt = Hw.Sim.create ~backend ~optimize:true circuit in
        prep plain;
        prep opt;
        drive_lockstep ~cycles (Random.State.make [| seed |]) plain opt)
      [ Hw.Sim.Interp; Hw.Sim.Compiled ]
  in
  cosim ~seed:0x3d5 (fun () ->
      Md5.Md5_circuit.circuit ~kind:Melastic.Meb.Reduced ~threads:4 ());
  let cpu_config =
    { (Cpu.Mt_pipeline.default_config ~threads:2) with
      Cpu.Mt_pipeline.imem_size = 64; dmem_size = 32 }
  in
  let program =
    Cpu.Asm.assemble_words
      "addi r1, r0, 1\nloop: add r2, r2, r1\nsw r2, 0(r1)\nlw r3, 0(r1)\n\
       bne r3, r0, loop\nhalt\n"
  in
  let cpu_tag = ref None in
  cosim ~seed:0xc90
    ~prep:(fun sim ->
      Cpu.Mt_pipeline.load_program sim (Option.get !cpu_tag) program)
    (fun () ->
      let circuit, t = Cpu.Mt_pipeline.circuit cpu_config in
      cpu_tag := Some t;
      circuit);
  let module D = Synth.Dataflow in
  cosim ~cycles:400 ~seed:0xba2 (fun () ->
      let g = D.create ~threads:3 () in
      let x = D.input g ~name:"x" ~width:16 in
      let x = D.buffer g x in
      let y = D.barrier g ~name:"bar" x in
      let y = D.buffer g y in
      D.output g ~name:"y" y;
      D.circuit g)

(* Double-settle regression: with the dirty-flag gating, a repeated
   [settle] with nothing poked must be a no-op, and every
   state-changing boundary — [poke], [mem_write], [cycle], [reset] —
   must still invalidate the settled values.  Checked with directed
   expected values (not just cross-backend agreement, which a
   both-backends-stale bug would pass). *)
let test_settle_dirty_boundaries () =
  let b = S.Builder.create () in
  let x = S.input b "x" 8 in
  let count =
    S.reg_fb b ~width:8 (fun q -> S.add b q (S.of_int b ~width:8 3))
  in
  ignore (S.output b "sum" (S.add b x count));
  let mem = S.Memory.create b ~name:"m" ~size:4 ~width:8 () in
  S.Memory.write b mem ~we:(S.input b "we" 1)
    ~addr:(S.input b "waddr" 2) ~data:x;
  ignore
    (S.output b "r" (S.Memory.read_async b mem ~addr:(S.input b "raddr" 2)));
  let circuit = Hw.Circuit.create b in
  let si, sc = both circuit in
  let each f = f si; f sc in
  let expect tag name v =
    List.iter
      (fun sim ->
        Alcotest.(check int)
          (Printf.sprintf "%s: %s (%s)" tag name (Hw.Sim.backend_name sim))
          v (Hw.Sim.peek_int sim name))
      [ si; sc ]
  in
  each Hw.Sim.settle;
  expect "initial" "sum" 0;
  each Hw.Sim.settle (* no poke since the last settle: must change nothing *);
  expect "repeated settle" "sum" 0;
  (* The settle after a poke must NOT be skipped as redundant, even
     though the settle right before it ran with nothing dirty. *)
  each (fun s -> Hw.Sim.poke_int s "x" 7);
  each Hw.Sim.settle;
  expect "poke then settle" "sum" 7;
  each Hw.Sim.settle;
  expect "poke then repeated settle" "sum" 7;
  each Hw.Sim.cycle (* count := 3 *);
  expect "after cycle" "sum" 10;
  each Hw.Sim.settle;
  expect "cycle then settle" "sum" 10;
  (* mem_write must invalidate the settled combinational read cone. *)
  each (fun s -> Hw.Sim.poke_int s "raddr" 2);
  each Hw.Sim.settle;
  expect "read before mem_write" "r" 0;
  each (fun s -> Hw.Sim.mem_write s mem 2 (Bits.of_int ~width:8 99));
  each Hw.Sim.settle;
  expect "mem_write then settle" "r" 99;
  (* A committed write port lands too: we=1, waddr=2 overwrites. *)
  each (fun s ->
      Hw.Sim.poke_int s "we" 1;
      Hw.Sim.poke_int s "waddr" 2;
      Hw.Sim.poke_int s "x" 5;
      Hw.Sim.cycle s);
  expect "port write visible" "r" 5;
  expect "after second cycle" "sum" 11 (* count = 6, x = 5 *);
  each Hw.Sim.reset;
  expect "after reset" "sum" 0;
  expect "after reset (mem)" "r" 0;
  each Hw.Sim.settle;
  expect "reset then settle" "sum" 0;
  check_outputs "final cross-backend" si sc

(* Both backends must reject unknown peek/poke names with the shared
   structured error, including near-miss suggestions. *)
let test_unknown_signal () =
  let b = S.Builder.create () in
  let x = S.input b "enable" 1 in
  ignore (S.output b "counter" (S.reg_fb b ~enable:x ~width:8 (fun q -> S.add b q (S.of_int b ~width:8 1))));
  let circuit = Hw.Circuit.create b in
  List.iter
    (fun backend ->
      let sim = Hw.Sim.create ~backend circuit in
      let tag = Hw.Sim.backend_to_string backend in
      (try
         ignore (Hw.Sim.peek sim "countr");
         Alcotest.failf "%s: peek of unknown name succeeded" tag
       with Hw.Sim_intf.Unknown_signal { op; name; candidates; _ } ->
         Alcotest.(check string) (tag ^ " op") "peek" op;
         Alcotest.(check string) (tag ^ " name") "countr" name;
         Alcotest.(check bool) (tag ^ " suggests counter") true
           (List.mem "counter" candidates));
      (try
         Hw.Sim.poke sim "enabel" (Bits.of_int ~width:1 1);
         Alcotest.failf "%s: poke of unknown name succeeded" tag
       with Hw.Sim_intf.Unknown_signal { op; candidates; _ } ->
         Alcotest.(check string) (tag ^ " poke op") "poke" op;
         Alcotest.(check bool) (tag ^ " suggests enable") true
           (List.mem "enable" candidates));
      (* The registered printer renders the suggestions. *)
      (try ignore (Hw.Sim.peek_int sim "countr")
       with exn ->
         let msg = Printexc.to_string exn in
         let contains sub =
           let n = String.length sub in
           let rec go i =
             i + n <= String.length msg
             && (String.sub msg i n = sub || go (i + 1))
           in
           go 0
         in
         Alcotest.(check bool) (tag ^ " printable") true
           (contains "countr" && contains "counter")))
    [ Hw.Sim.Interp; Hw.Sim.Compiled; Hw.Sim.Jit ]

(* ---- resolved ports ---- *)

let all_backends = [ Hw.Sim.Interp; Hw.Sim.Compiled; Hw.Sim.Jit ]

(* Two simulators of one circuit, one driven and observed by name and
   one through ports, must agree cycle for cycle on every backend.
   Narrow inputs alternate between [write] and [write_int]; every
   output is compared as a vector and, when narrow, as an int. *)
let test_ports_lockstep () =
  let st = Random.State.make [| 0x9047 |] in
  for _ = 1 to 2 do
    let circuit = random_circuit st in
    List.iter
      (fun backend ->
        let tag = Hw.Sim.backend_to_string backend in
        let sn = Hw.Sim.create ~backend circuit in
        let sp = Hw.Sim.create ~backend circuit in
        let inputs =
          Hashtbl.fold
            (fun name (s : S.t) acc -> (name, s.S.width, Hw.Sim.input_port sp name) :: acc)
            (Hw.Sim.circuit sp).Hw.Circuit.inputs []
        in
        let outputs =
          List.map
            (fun (name, _) -> (name, Hw.Sim.signal_port sp name))
            (Hw.Sim.circuit sp).Hw.Circuit.outputs
        in
        let compare phase =
          List.iter
            (fun (name, port) ->
              let by_name = Hw.Sim.peek sn name in
              if not (Bits.equal by_name (Hw.Sim.read port)) then
                Alcotest.failf "%s %s: port read of %S differs" tag phase name;
              if Hw.Sim.port_width port <= Bits.max_int_width then
                Alcotest.(check int)
                  (Printf.sprintf "%s %s: read_int %s" tag phase name)
                  (Hw.Sim.peek_int sn name) (Hw.Sim.read_int port))
            outputs
        in
        for c = 1 to 12 do
          List.iter
            (fun (name, w, port) ->
              let v = Bits.random st ~width:w in
              Hw.Sim.poke sn name v;
              if w <= Bits.max_int_width && c mod 2 = 0 then
                Hw.Sim.write_int port (Bits.to_int v)
              else Hw.Sim.write port v)
            inputs;
          Hw.Sim.settle sn;
          Hw.Sim.settle sp;
          compare (Printf.sprintf "settle %d" c);
          Hw.Sim.cycle sn;
          Hw.Sim.cycle sp;
          compare (Printf.sprintf "cycle %d" c)
        done)
      all_backends
  done

(* Resolution fails at resolve time, with the shared structured error;
   writes check their target and width. *)
let test_port_errors () =
  let b = S.Builder.create () in
  let x = S.input b "enable" 1 in
  ignore (S.output b "counter" (S.reg_fb b ~enable:x ~width:8 (fun q -> S.add b q (S.of_int b ~width:8 1))));
  let circuit = Hw.Circuit.create b in
  List.iter
    (fun backend ->
      let sim = Hw.Sim.create ~backend circuit in
      let tag = Hw.Sim.backend_to_string backend in
      let expect_unknown what ~op ?suggests f =
        match f () with
        | _ -> Alcotest.failf "%s: %s of an unknown name succeeded" tag what
        | exception Hw.Sim_intf.Unknown_signal { op = op'; candidates; _ } ->
          Alcotest.(check string) (tag ^ " " ^ what ^ " op") op op';
          Option.iter
            (fun n ->
              Alcotest.(check bool) (tag ^ " " ^ what ^ " suggests " ^ n) true
                (List.mem n candidates))
            suggests
      in
      expect_unknown "signal_port" ~op:"signal_port" ~suggests:"counter" (fun () ->
          Hw.Sim.signal_port sim "countr");
      expect_unknown "input_port" ~op:"input_port" ~suggests:"enable" (fun () ->
          Hw.Sim.input_port sim "enabel");
      (* An output is not an input: resolving it as one fails too. *)
      expect_unknown "input_port of an output" ~op:"input_port" (fun () ->
          Hw.Sim.input_port sim "counter");
      let counter = Hw.Sim.signal_port sim "counter" in
      Alcotest.check_raises (tag ^ " write to a non-input")
        (Invalid_argument "Sim.write: counter is not a primary input") (fun () ->
          Hw.Sim.write_int counter 1);
      let enable = Hw.Sim.input_port sim "enable" in
      Alcotest.check_raises (tag ^ " width mismatch")
        (Invalid_argument "Sim.poke enable: width mismatch (2 vs 1)") (fun () ->
          Hw.Sim.write enable (Bits.of_int ~width:2 1));
      (* A signal port may name an input, and then it is writable. *)
      let enable' = Hw.Sim.signal_port sim "enable" in
      Hw.Sim.write_int enable' 1;
      Hw.Sim.cycle sim;
      Alcotest.(check int) (tag ^ " write through signal_port") 1
        (Hw.Sim.read_int counter);
      Alcotest.(check int) (tag ^ " port width") 8 (Hw.Sim.port_width counter);
      Alcotest.(check string) (tag ^ " port name") "counter" (Hw.Sim.port_name counter))
    all_backends

(* A port outlives [reset] and [restore], and under [~optimize:true]
   it resolves a name the optimizer kept only as an alias. *)
let test_port_lifetime () =
  let b = S.Builder.create () in
  let x = S.input b "x" 8 and y = S.input b "y" 8 in
  ignore S.(add b x y -- "s1");
  let s2 = S.(add b x y -- "s2") in
  let count = S.(reg_fb b ~width:8 (fun q -> add b q (of_int b ~width:8 1)) -- "count") in
  ignore (S.output b "o" (S.lxor_ b s2 count));
  let circuit = Hw.Circuit.create b in
  List.iter
    (fun (backend, optimize) ->
      let sim = Hw.Sim.create ~backend ~optimize circuit in
      let tag =
        Printf.sprintf "%s%s" (Hw.Sim.backend_to_string backend)
          (if optimize then "+opt" else "")
      in
      if optimize then begin
        (* The CSE merged the two adders: "s2" survives as an alias. *)
        let node = Hashtbl.find (Hw.Sim.circuit sim).Hw.Circuit.named "s2" in
        Alcotest.(check bool) (tag ^ ": s2 is an alias") true
          (node.S.name <> Some "s2" && List.mem "s2" node.S.aliases)
      end;
      let px = Hw.Sim.input_port sim "x" and py = Hw.Sim.input_port sim "y" in
      let ps2 = Hw.Sim.signal_port sim "s2" and pcount = Hw.Sim.signal_port sim "count" in
      let po = Hw.Sim.signal_port sim "o" in
      let check phase ~s2 ~count =
        Alcotest.(check int) (tag ^ " " ^ phase ^ ": s2") s2 (Hw.Sim.read_int ps2);
        Alcotest.(check int) (tag ^ " " ^ phase ^ ": count") count (Hw.Sim.read_int pcount);
        Alcotest.(check int) (tag ^ " " ^ phase ^ ": o") (s2 lxor count) (Hw.Sim.read_int po)
      in
      Hw.Sim.write_int px 3;
      Hw.Sim.write_int py 4;
      Hw.Sim.cycles sim 5;
      check "after 5 cycles" ~s2:7 ~count:5;
      let snap = Hw.Sim.snapshot sim in
      Hw.Sim.write_int px 10;
      Hw.Sim.cycles sim 3;
      check "after 3 more" ~s2:14 ~count:8;
      Hw.Sim.restore sim snap;
      Hw.Sim.settle sim;
      check "after restore" ~s2:14 ~count:5;
      Hw.Sim.reset sim;
      check "after reset" ~s2:0 ~count:0;
      Hw.Sim.write_int py 1;
      Hw.Sim.cycle sim;
      check "written after reset" ~s2:1 ~count:1)
    (List.concat_map (fun b -> [ (b, false); (b, true) ]) all_backends)

(* ---- native JIT backend ---- *)

(* Same randomized lockstep as the compiled backend, with the JIT as
   the device under test.  Fewer circuits than the compiled run: each
   distinct netlist is a real ocamlopt invocation on a cold cache
   (kernels are cached on disk afterwards). *)
let test_jit_random_circuits () =
  let st = Random.State.make [| 0x217 |] in
  for _ = 1 to 4 do
    let circuit = random_circuit st in
    let si = Hw.Sim.create ~backend:Hw.Sim.Interp circuit in
    let sj = Hw.Sim.create ~backend:Hw.Sim.Jit circuit in
    drive_lockstep ~cycles:20 st si sj
  done

(* Run [f] with every JIT build genuinely failing: the compiler is
   pointed at an empty include directory, where the generated kernel
   cannot find [Hw] or [Bits].  The interface fingerprint that is part
   of every cache key is computed lazily from the include directories,
   so a native build (the first circuit of the random lockstep above)
   forces it first and the empty directory cannot leak into later
   keys.  The failed builds write into a private cache directory. *)
let with_failing_jit_builds f =
  ignore
    (Hw.Sim.create ~backend:Hw.Sim.Jit
       (random_circuit (Random.State.make [| 0x217 |])));
  let saved = Hw.Sim_jit.cache_dir () in
  let cache = Filename.temp_dir "elastic_jit_test" "" in
  let includes = Filename.temp_dir "elastic_jit_noinc" "" in
  Hw.Sim_jit.set_cache_dir cache;
  Unix.putenv "ELASTIC_JIT_INCLUDES" includes;
  Fun.protect
    ~finally:(fun () ->
      Unix.putenv "ELASTIC_JIT_INCLUDES" "";
      Hw.Sim_jit.clear_disk_cache ();
      Hw.Sim_jit.set_cache_dir saved;
      Sys.rmdir includes)
    f

(* When no kernel can be built, the JIT instance keeps the compiled
   backend's own schedules: it must say so in [last_build] and still
   be bit-exact.  The netlists are ones no other test builds, so no
   kernel comes from the in-process table. *)
let test_jit_genuine_fallback () =
  with_failing_jit_builds (fun () ->
      let st = Random.State.make [| 0x3ab |] in
      for i = 1 to 4 do
        let circuit = random_circuit st in
        let sj = Hw.Sim.create ~backend:Hw.Sim.Jit circuit in
        let b = Option.get (Hw.Sim_jit.last_build ()) in
        let tag = Printf.sprintf "circuit %d" i in
        (match b.Hw.Sim_jit.bmode with
         | Hw.Sim_jit.Fallback reason ->
           Alcotest.(check bool)
             (Printf.sprintf "%s: fallback reason %S" tag reason)
             true
             (String.starts_with ~prefix:"compile failed" reason)
         | Hw.Sim_jit.Native ->
           Alcotest.failf "%s: kernel built against an empty include path" tag);
        Alcotest.(check int) (tag ^ ": no inlined nodes") 0
          b.Hw.Sim_jit.inlined_nodes;
        let si = Hw.Sim.create ~backend:Hw.Sim.Interp circuit in
        drive_lockstep ~cycles:20 st si sj
      done)

let md5_jit_circuit () =
  Md5.Md5_circuit.circuit ~kind:Melastic.Meb.Reduced ~probes:true ~threads:2 ()

(* End-to-end digest check on the JIT backend against RFC 1321. *)
let test_md5_on_jit () =
  let msgs = [ "abc"; "message digest" ] in
  let sim = Hw.Sim.create ~backend:Hw.Sim.Jit (md5_jit_circuit ()) in
  let digests = Md5.Md5_host.hash_messages ~limit:20000 sim msgs in
  List.iter2
    (fun msg got ->
      Alcotest.(check string)
        (Printf.sprintf "md5(%S) on jit backend" msg)
        (Md5.Md5_ref.digest msg) got)
    msgs digests

(* The batched free-run ([Hw.Sim.cycles] with no observers) must be
   bit-identical to stepping [cycle] in a loop — across the generated
   loop's internal chunk boundary (1024) — and must leave the instance
   consistent for further stepping. *)
let test_jit_cycles_batching () =
  let circuit = md5_jit_circuit () in
  let sj = Hw.Sim.create ~backend:Hw.Sim.Jit circuit in
  let sc = Hw.Sim.create ~backend:Hw.Sim.Compiled circuit in
  let compare_watch phase =
    List.iter
      (fun name ->
        Alcotest.(check bool)
          (Printf.sprintf "%s: probe %s" phase name)
          true
          (Bits.equal (Hw.Sim.peek sc name) (Hw.Sim.peek sj name)))
      [ "round_counter"; "sync_ok" ]
  in
  List.iter
    (fun s ->
      Hw.Sim.poke_int s "msg_valid" 3;
      Hw.Sim.poke_int s "digest_ready" 3)
    [ sj; sc ];
  Hw.Sim.cycles sj 1100;
  for _ = 1 to 1100 do Hw.Sim.cycle sc done;
  check_outputs "batched vs stepped" sc sj;
  compare_watch "batched";
  (* The instance must keep working after the batch. *)
  List.iter (fun s -> Hw.Sim.poke_int s "msg_valid" 0) [ sj; sc ];
  Hw.Sim.cycles sj 7;
  for _ = 1 to 7 do Hw.Sim.cycle sc done;
  check_outputs "post-batch stepping" sc sj;
  compare_watch "post-batch"

(* A corrupt disk-cache entry — a truncated kernel, or garbage behind
   an ELF magic number, each next to a well-formed digest file — must
   be rebuilt (or fall back), never loaded: dlopen of a truncated
   kernel would kill the process.  The rebuilt simulator matches the
   interpreter bit for bit.  Runs in a private cache directory on
   netlists no other test builds, so the entries are read from disk
   rather than from the in-process table. *)
let test_jit_cache_corruption () =
  let saved = Hw.Sim_jit.cache_dir () in
  let dir = Filename.temp_dir "elastic_jit_test" "" in
  Hw.Sim_jit.set_cache_dir dir;
  let read_file path = In_channel.with_open_bin path In_channel.input_all in
  let write_file path contents =
    Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc contents)
  in
  let build () = Option.get (Hw.Sim_jit.last_build ()) in
  Fun.protect
    ~finally:(fun () ->
      Hw.Sim_jit.clear_disk_cache ();
      Hw.Sim_jit.set_cache_dir saved)
    (fun () ->
      let st = Random.State.make [| 0xcace |] in
      (* A real kernel, to cut in half. *)
      ignore (Hw.Sim.create ~backend:Hw.Sim.Jit (random_circuit st));
      let donor_path = Hw.Sim_jit.kernel_path ~hash:(build ()).Hw.Sim_jit.hash in
      let donor = read_file donor_path in
      let donor_digest = read_file (donor_path ^ ".digest") in
      let corrupt tag contents =
        let circuit = random_circuit st in
        (* A build that genuinely fails yields the netlist hash
           without producing or loading a kernel. *)
        let hash =
          with_failing_jit_builds (fun () ->
              ignore (Hw.Sim.create ~backend:Hw.Sim.Jit circuit);
              (build ()).Hw.Sim_jit.hash)
        in
        let path = Hw.Sim_jit.kernel_path ~hash in
        Sys.mkdir (Filename.dirname path) 0o755;
        write_file path contents;
        write_file (path ^ ".digest") donor_digest;
        let sj = Hw.Sim.create ~backend:Hw.Sim.Jit circuit in
        let b = build () in
        Alcotest.(check bool) (tag ^ ": not served from the bad entry") false
          b.Hw.Sim_jit.disk_cache_hit;
        (match b.Hw.Sim_jit.bmode with
         | Hw.Sim_jit.Native ->
           Alcotest.(check bool) (tag ^ ": entry replaced by a rebuild") true
             (read_file path <> contents)
         | Hw.Sim_jit.Fallback _ -> ());
        let si = Hw.Sim.create ~backend:Hw.Sim.Interp circuit in
        drive_lockstep ~cycles:100 st si sj
      in
      corrupt "truncated" (String.sub donor 0 (String.length donor / 2));
      corrupt "garbage"
        ("\x7fELF" ^ String.init 4096 (fun _ -> Char.chr (Random.State.int st 256))))

(* Two processes building the same kernel at once into one fresh
   cache: both must come up native and agree bit for bit, and the
   entry they leave behind must be whole — a published kernel that
   passes its digest check and no staging directory.  The builders
   are the [jit_builder] helper started with [Unix.create_process_env]
   (forking a process that has run domains is unsafe). *)
let test_jit_concurrent_builders () =
  let saved = Hw.Sim_jit.cache_dir () in
  let cache = Filename.temp_dir "elastic_jit_test" "" in
  Hw.Sim_jit.set_cache_dir cache;
  let read_file path = In_channel.with_open_bin path In_channel.input_all in
  Fun.protect
    ~finally:(fun () ->
      Hw.Sim_jit.clear_disk_cache ();
      Hw.Sim_jit.set_cache_dir saved)
    (fun () ->
      let exe =
        Filename.concat (Filename.dirname Sys.executable_name) "jit_builder.exe"
      in
      let env =
        Array.append
          [| "ELASTIC_JIT_CACHE=" ^ cache |]
          (Array.of_list
             (List.filter
                (fun kv -> not (String.starts_with ~prefix:"ELASTIC_JIT_CACHE=" kv))
                (Array.to_list (Unix.environment ()))))
      in
      let start () =
        let out = Filename.temp_file "jit_builder" ".out" in
        let fd = Unix.openfile out [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o644 in
        let pid =
          Unix.create_process_env exe [| exe; "200" |] env Unix.stdin fd
            Unix.stderr
        in
        Unix.close fd;
        (pid, out)
      in
      let builders = [ start (); start () ] in
      let outputs =
        List.mapi
          (fun i (pid, out) ->
            let _, status = Unix.waitpid [] pid in
            let text = read_file out in
            Sys.remove out;
            Alcotest.(check bool)
              (Printf.sprintf "builder %d exits 0" i)
              true (status = Unix.WEXITED 0);
            Alcotest.(check bool)
              (Printf.sprintf "builder %d is native" i)
              true
              (String.starts_with ~prefix:"mode native\n" text);
            text)
          builders
      in
      let text = List.hd outputs in
      Alcotest.(check string) "builders agree bit for bit" text
        (List.nth outputs 1);
      let hash =
        match String.split_on_char '\n' text with
        | _ :: h :: _ when String.starts_with ~prefix:"hash " h ->
          String.sub h 5 (String.length h - 5)
        | _ -> Alcotest.fail "no hash line"
      in
      let cmxs = Hw.Sim_jit.kernel_path ~hash in
      Alcotest.(check string) "published kernel matches its digest"
        (Digest.to_hex (Digest.file cmxs))
        (String.trim (read_file (cmxs ^ ".digest")));
      Alcotest.(check (list string)) "no staging directory left" []
        (List.filter
           (String.starts_with ~prefix:"stage-")
           (Array.to_list (Sys.readdir (Filename.dirname cmxs)))))

(* ---- wide values: limb-literal codegen and word ports ---- *)

(* Wide feedback registers whose next values are concatenations of
   parts at odd offsets — inputs of odd widths, registers, selects
   whose [lo] is not a multiple of 32 and that reach the top limb —
   mixed with rotations (themselves a concat of two such selects).
   The concats and selects sit in the state cone, so the JIT's batched
   free-run evaluates them too. *)
let wide_limb_circuit st =
  let b = S.Builder.create () in
  let odd = [| 1; 5; 31; 33; 45; 62; 63; 70; 97; 131 |] in
  let ins =
    Array.init 3 (fun i ->
        S.input b (Printf.sprintf "in%d" i)
          odd.(Random.State.int st (Array.length odd)))
  in
  let widths = Array.init 4 (fun _ -> 63 + Random.State.int st 140) in
  let qs = Array.map (S.wire b) widths in
  let pool = Array.append ins qs in
  let rec parts acc need =
    if need <= 0 then acc
    else begin
      let x = pool.(Random.State.int st (Array.length pool)) in
      let xw = S.width x in
      let part =
        if xw > 1 && Random.State.bool st then
          S.select b x ~hi:(xw - 1) ~lo:(1 + Random.State.int st (xw - 1))
        else x
      in
      parts (part :: acc) (need - S.width part)
    end
  in
  let wide_of w =
    let cat = S.concat_msb b (parts [] w) in
    if S.width cat = w then cat
    else S.select b cat ~hi:(S.width cat - 1) ~lo:(S.width cat - w)
  in
  Array.iteri
    (fun i q ->
      let w = widths.(i) in
      let next = S.lxor_ b (wide_of w) (S.rotl b q (1 + (13 * i mod (w - 1)))) in
      let r = S.reg b ~init:(Bits.random st ~width:w) next in
      S.assign q r;
      ignore (S.output b (Printf.sprintf "q%d" i) r))
    qs;
  ignore (S.output b "c" (wide_of (100 + Random.State.int st 100)));
  Hw.Circuit.create b

(* The JIT's limb literals against the interpreter: stepped lockstep
   with fresh inputs every cycle, then a free-run across the batched
   loop's 1024-cycle chunk boundary with the inputs held. *)
let test_jit_wide_limb_lockstep () =
  let st = Random.State.make [| 0x11b5 |] in
  for k = 1 to 3 do
    let circuit = wide_limb_circuit st in
    let si = Hw.Sim.create ~backend:Hw.Sim.Interp circuit in
    let sj = Hw.Sim.create ~backend:Hw.Sim.Jit circuit in
    drive_lockstep ~cycles:20 st si sj;
    Hw.Sim.cycles sj 1100;
    for _ = 1 to 1100 do Hw.Sim.cycle si done;
    check_outputs (Printf.sprintf "circuit %d: free-run" k) si sj
  done

(* The word layout of one value, computed from the [Bits] API alone. *)
let words_of v =
  let w = Bits.width v in
  if w <= Bits.max_int_width then [| Bits.to_int v |]
  else
    Array.init
      ((w + Bits.limb_width - 1) / Bits.limb_width)
      (fun i ->
        let lo = i * Bits.limb_width in
        Bits.select_int v ~hi:(min (w - 1) (lo + Bits.limb_width - 1)) ~lo)

let word_widths = [ 1; 32; 62; 63; 128; 640 ]

(* One input per width, each feeding a register and a combinational
   inversion, so a changed input does work on the next settle. *)
let word_port_circuit () =
  let b = S.Builder.create () in
  List.iter
    (fun w ->
      let x = S.input b (Printf.sprintf "x%d" w) w in
      ignore (S.output b (Printf.sprintf "n%d" w) (S.lnot b x));
      ignore (S.output b (Printf.sprintf "r%d" w) (S.reg b x)))
    word_widths;
  Hw.Circuit.create b

let minor_words_of f =
  let w0 = Gc.minor_words () in
  f ();
  Gc.minor_words () -. w0

(* Minor words per cycle of [run n] as the slope between a 1000- and a
   3000-cycle run, so the fixed cost of one call (a free-run's closing
   settle) drops out. *)
let words_per_cycle run =
  let words n = minor_words_of (fun () -> run n) in
  (words 3000 -. words 1000) /. 2000.

(* read_words/write_words agree with read/write at every width on every
   backend; an unchanged rewrite allocates nothing and leaves the next
   settle free; bad slices and non-input targets raise. *)
let test_word_ports () =
  let st = Random.State.make [| 0x3047 |] in
  List.iter
    (fun backend ->
      let tag = Hw.Sim.backend_to_string backend in
      let sim = Hw.Sim.create ~backend (word_port_circuit ()) in
      let byname = Hw.Sim.create ~backend (word_port_circuit ()) in
      let ports =
        List.map
          (fun w ->
            ( w,
              Hw.Sim.input_port sim (Printf.sprintf "x%d" w),
              Hw.Sim.signal_port sim (Printf.sprintf "n%d" w),
              Hw.Sim.signal_port sim (Printf.sprintf "r%d" w) ))
          word_widths
      in
      let buf = Array.make 24 0 in
      for c = 1 to 6 do
        List.iter
          (fun (w, x, n, r) ->
            let t = Printf.sprintf "%s w=%d cycle %d" tag w c in
            let v = Bits.random st ~width:w in
            let words = words_of v in
            (* Through a non-zero offset, with a neighbour either side. *)
            Array.fill buf 0 (Array.length buf) (-1);
            Array.blit words 0 buf 2 (Array.length words);
            if c mod 2 = 0 then Hw.Sim.write_words x buf 2 else Hw.Sim.write x v;
            Hw.Sim.poke byname (Printf.sprintf "x%d" w) v;
            Hw.Sim.settle sim;
            Hw.Sim.settle byname;
            Alcotest.(check bool) (t ^ ": read after write") true
              (Bits.equal v (Hw.Sim.read x));
            List.iter
              (fun (p, nm) ->
                let want = Hw.Sim.peek byname nm in
                Hw.Sim.read_words p buf 1;
                Alcotest.(check (array int))
                  (t ^ ": read_words " ^ nm)
                  (words_of want)
                  (Array.sub buf 1 (Array.length words));
                Alcotest.(check int) (t ^ ": neighbour kept") (-1) buf.(0))
              [ (x, Printf.sprintf "x%d" w); (n, Printf.sprintf "n%d" w);
                (r, Printf.sprintf "r%d" w) ])
          ports;
        Hw.Sim.cycle sim;
        Hw.Sim.cycle byname
      done;
      (* Rewriting the current words is free, and so is the settle
         after it; a changed word dirties the circuit. *)
      Hw.Sim.settle sim;
      List.iter
        (fun (w, x, _, _) ->
          let t = Printf.sprintf "%s w=%d" tag w in
          Hw.Sim.read_words x buf 0;
          ignore (minor_words_of (fun () -> Hw.Sim.write_words x buf 0));
          Alcotest.(check (float 0.)) (t ^ ": unchanged rewrite allocates") 0.
            (minor_words_of (fun () -> Hw.Sim.write_words x buf 0));
          Alcotest.(check (float 0.)) (t ^ ": settle after it is free") 0.
            (minor_words_of (fun () -> Hw.Sim.settle sim));
          buf.(0) <- buf.(0) lxor 1;
          Hw.Sim.write_words x buf 0;
          Alcotest.(check bool) (t ^ ": a changed word costs a settle") true
            (minor_words_of (fun () -> Hw.Sim.settle sim) > 0.))
        ports;
      List.iter
        (fun (w, x, n, _) ->
          let k = Hw.Sim_intf.reg_words w in
          let bad what f =
            match f () with
            | () -> Alcotest.failf "%s w=%d: %s accepted" tag w what
            | exception Invalid_argument _ -> ()
          in
          bad "short read" (fun () -> Hw.Sim.read_words n (Array.make (k - 1) 0) 0);
          bad "short write" (fun () -> Hw.Sim.write_words x (Array.make (k + 1) 0) 2);
          bad "negative read" (fun () -> Hw.Sim.read_words n (Array.make k 0) (-1));
          bad "negative write" (fun () -> Hw.Sim.write_words x (Array.make k 0) (-1));
          let nm = Printf.sprintf "n%d" w in
          Alcotest.check_raises (tag ^ " write_words to a non-input")
            (Invalid_argument (Printf.sprintf "Sim.write: %s is not a primary input" nm))
            (fun () -> Hw.Sim.write_words n (Array.make k 0) 0))
        ports)
    all_backends

(* The stepped and the free-running JIT kernel of MD5 8T (all threads
   offering, sink ready) allocate at most 17 minor words per cycle:
   the two wide concatenations of the state cone, one vector each. *)
let test_jit_md5_cycle_words () =
  let sim =
    Hw.Sim.create ~backend:Hw.Sim.Jit
      (Md5.Md5_circuit.circuit ~kind:Melastic.Meb.Reduced ~threads:8 ())
  in
  Hw.Sim.poke_int sim "msg_valid" 255;
  Hw.Sim.poke_int sim "digest_ready" 255;
  Hw.Sim.cycles sim 200;
  let stepped = words_per_cycle (fun n -> for _ = 1 to n do Hw.Sim.cycle sim done) in
  let freerun = words_per_cycle (Hw.Sim.cycles sim) in
  Alcotest.(check bool)
    (Printf.sprintf "Sim.cycle: %.2f words/cycle <= 17" stepped)
    true (stepped <= 17.);
  Alcotest.(check bool)
    (Printf.sprintf "Sim.cycles: %.2f words/cycle <= 17" freerun)
    true (freerun <= 17.)

(* ---- wide multiplies read through selects ---- *)

(* Products of two int-path factors (widths 32-62, so the product is
   wide) read through narrow selects: [hi] = 61 and 62 with [lo] > 0,
   [lo] = 0, random ranges below 63, and ranges reaching bit 63 and
   the top that must keep the full product.  One product is also registered and one is
   named, so those stay materialized beside their fused selects.  The
   factors come from inputs and from narrow feedback registers, so the
   selects sit in both the input cone and the state cone (the JIT's
   stepped kernel and its batched free-run).  Returns the circuit and
   the products that only fused selects read. *)
let mul_select_circuit st =
  let b = S.Builder.create () in
  let w () = 32 + Random.State.int st 31 in
  let ins = Array.init 3 (fun i -> S.input b (Printf.sprintf "in%d" i) (w ())) in
  let fb = Array.init 3 (fun _ -> S.wire b (w ())) in
  let factor w =
    let pool = Array.append ins fb in
    S.uresize b pool.(Random.State.int st (Array.length pool)) w
  in
  let product () =
    let w = w () in
    S.mul b (factor w) (factor w)
  in
  (* Products only fused selects read get factors of their own, so the
     optimizer cannot merge them with a kept product. *)
  let own_product k =
    let w = w () in
    S.mul b
      (S.input b (Printf.sprintf "x%d" k) w)
      (S.input b (Printf.sprintf "y%d" k) w)
  in
  let only_fused = ref [] in
  let outs = ref [] in
  (* Each select is read raw, through an unsigned compare and as the
     low part of a concat: the last two see any bit a wrong mask or
     shift leaves above the select's width. *)
  let sel p ~hi ~lo =
    let x = S.select b p ~hi ~lo in
    let w = S.width x in
    outs :=
      x
      :: S.ult b x (S.uresize b ins.(1) w)
      :: S.concat_msb b [ S.select b ins.(2) ~hi:0 ~lo:0; x ]
      :: !outs
  in
  for k = 0 to 5 do
    let p = if k < 3 then product () else own_product k in
    let pw = S.width p in
    sel p ~hi:61 ~lo:(1 + Random.State.int st 30);
    sel p ~hi:62 ~lo:(1 + Random.State.int st 40);
    sel p ~hi:(Random.State.int st 62) ~lo:0;
    (match k with
     | 0 -> outs := S.reg b p :: !outs (* registered: materialized *)
     | 1 -> ignore (S.set_name p "named_product")
     | 2 ->
       (* Bit 63 and up: past what [*] keeps, so these stay unfused. *)
       sel p ~hi:63 ~lo:(2 + Random.State.int st 30);
       sel p ~hi:(pw - 1) ~lo:(pw - 40)
     | _ -> only_fused := p :: !only_fused)
  done;
  (* Narrow feedback: each register takes a fused select of a product
     of itself and an input, so the state cone multiplies too. *)
  Array.iter
    (fun q ->
      let qw = S.width q in
      let pw = max qw (S.width ins.(0)) in
      let p = S.mul b (S.uresize b q pw) (S.uresize b ins.(0) pw) in
      let next = S.uresize b (S.select b p ~hi:62 ~lo:1) qw in
      let r = S.reg b ~init:(Bits.random st ~width:qw) (S.add b next (S.uresize b ins.(1) qw)) in
      S.assign q r;
      outs := r :: !outs)
    fb;
  List.iteri (fun i o -> ignore (S.output b (Printf.sprintf "o%d" i) o)) !outs;
  (Hw.Circuit.create b, !only_fused)

let test_jit_mul_select_lockstep () =
  let st = Random.State.make [| 0x6d75 |] in
  for k = 1 to 4 do
    let circuit, only_fused = mul_select_circuit st in
    let si, sc = both circuit in
    drive_lockstep ~cycles:20 st si sc;
    let si = Hw.Sim.create ~backend:Hw.Sim.Interp circuit in
    let sj = Hw.Sim.create ~backend:Hw.Sim.Jit circuit in
    drive_lockstep ~cycles:20 st si sj;
    Hw.Sim.cycles sj 1100;
    for _ = 1 to 1100 do Hw.Sim.cycle si done;
    check_outputs (Printf.sprintf "circuit %d: free-run" k) si sj;
    (* The kept products read as in the interpreter; a product that
       only fused selects read is never computed, so the JIT refuses
       to peek it, as it does any register-allocated node. *)
    Alcotest.(check bool) (Printf.sprintf "circuit %d: named product" k) true
      (Bits.equal (Hw.Sim.peek si "named_product") (Hw.Sim.peek sj "named_product"));
    List.iter
      (fun p ->
        match Hw.Sim.peek_signal sj p with
        | _ -> Alcotest.failf "circuit %d: an only-fused product is materialized" k
        | exception Invalid_argument _ -> ())
      only_fused
  done

(* The stepped JIT kernel of the CPU 4T (a non-halting loop keeping
   every thread busy) allocates at most 23 minor words per cycle: the
   wide pipeline tokens, one fresh vector each, and no multiply.
   Measured like the MD5 ceiling above. *)
let test_jit_cpu_cycle_words () =
  let circuit, t = Cpu.Mt_pipeline.circuit (Cpu.Mt_pipeline.default_config ~threads:4) in
  let sim = Hw.Sim.create ~backend:Hw.Sim.Jit circuit in
  Cpu.Mt_pipeline.load_program sim t
    (Cpu.Asm.assemble_words
       "addi r1, r0, 1\nloop: add r2, r2, r1\nmul r4, r2, r2\nsw r2, 0(r1)\n\
        lw r3, 0(r1)\nbne r3, r0, loop\nhalt\n");
  Hw.Sim.cycles sim 200;
  let per_cycle = words_per_cycle (fun n -> for _ = 1 to n do Hw.Sim.cycle sim done) in
  Alcotest.(check bool)
    (Printf.sprintf "Sim.cycle: %.2f words/cycle <= 23" per_cycle)
    true (per_cycle <= 23.);
  Alcotest.(check bool) "the loop retires" true (Hw.Sim.peek_int sim "retired_total" > 1000)

(* ---- memory ports ---- *)

(* A narrow (32-bit) and a wide (100-bit) memory, each with a write
   port and an async read at an input address. *)
let mem_port_circuit () =
  let b = S.Builder.create () in
  let mem name width =
    let m = S.Memory.create b ~name ~size:8 ~width () in
    let a = S.input b (name ^ "_ra") 3 in
    S.Memory.write b m ~we:(S.input b (name ^ "_we") 1)
      ~addr:(S.input b (name ^ "_wa") 3) ~data:(S.input b (name ^ "_wd") width);
    ignore (S.output b (name ^ "_rd") (S.Memory.read_async b m ~addr:a));
    m
  in
  let n = mem "n" 32 in
  let w = mem "w" 100 in
  (Hw.Circuit.create b, n, w)

let test_mem_ports () =
  let st = Random.State.make [| 0x3e3 |] in
  List.iter
    (fun backend ->
      let tag = Hw.Sim.backend_to_string backend in
      let circuit, nm, wm = mem_port_circuit () in
      let sim = Hw.Sim.create ~backend circuit in
      let np = Hw.Sim.mem_port sim nm and wp = Hw.Sim.mem_port sim wm in
      (* Int and Bits access agree, both ways, with the by-handle API. *)
      for a = 0 to 7 do
        let v = Random.State.bits st in
        Hw.Sim.mem_set_int np a v;
        Alcotest.(check int) (tag ^ " int -> Bits") v (Bits.to_int (Hw.Sim.mem_get np a));
        Alcotest.(check int) (tag ^ " mem_read") v (Bits.to_int (Hw.Sim.mem_read sim nm a));
        let bv = Bits.random st ~width:32 in
        Hw.Sim.mem_set np a bv;
        Alcotest.(check int) (tag ^ " Bits -> int") (Bits.to_int bv) (Hw.Sim.mem_get_int np a);
        let wv = Bits.random st ~width:100 in
        Hw.Sim.mem_write sim wm a wv;
        Alcotest.(check bool) (tag ^ " wide roundtrip") true (Bits.equal wv (Hw.Sim.mem_get wp a))
      done;
      Hw.Sim.mem_set_int np 3 (0x1_2345_6789 lor (1 lsl 40));
      Alcotest.(check int) (tag ^ " truncated to the width") 0x2345_6789
        (Hw.Sim.mem_get_int np 3);
      Hw.Sim.mem_fill_int np ~pos:2 ~len:4 7;
      Alcotest.(check (list int)) (tag ^ " fill") [ 7; 7; 7; 7 ]
        (List.init 4 (fun i -> Hw.Sim.mem_get_int np (2 + i)));
      (* A port write is seen by the async read after a settle, also
         when the read address did not change; and across a reset. *)
      let visible what =
        Hw.Sim.poke_int sim "n_ra" 5;
        Hw.Sim.settle sim;
        Hw.Sim.mem_set_int np 5 0xabcd;
        Hw.Sim.settle sim;
        Alcotest.(check int) (tag ^ " async read sees the port write" ^ what) 0xabcd
          (Hw.Sim.peek_int sim "n_rd");
        let wv = Bits.random st ~width:100 in
        Hw.Sim.poke_int sim "w_ra" 6;
        Hw.Sim.settle sim;
        Hw.Sim.mem_set wp 6 wv;
        Hw.Sim.settle sim;
        Alcotest.(check bool) (tag ^ " wide async read" ^ what) true
          (Bits.equal wv (Hw.Sim.peek sim "w_rd"))
      in
      visible "";
      Hw.Sim.reset sim;
      Alcotest.(check int) (tag ^ " reset clears through the port") 0
        (Hw.Sim.mem_get_int np 5);
      visible " after reset";
      (* The circuit's own write port and the testbench port agree. *)
      Hw.Sim.poke_int sim "n_we" 1;
      Hw.Sim.poke_int sim "n_wa" 1;
      Hw.Sim.poke_int sim "n_wd" 4242;
      Hw.Sim.cycle sim;
      Alcotest.(check int) (tag ^ " circuit write seen by the port") 4242
        (Hw.Sim.mem_get_int np 1);
      let raises what f =
        match f () with
        | _ -> Alcotest.failf "%s: %s accepted" tag what
        | exception Invalid_argument _ -> ()
      in
      raises "read -1" (fun () -> Hw.Sim.mem_get_int np (-1));
      raises "read 8" (fun () -> Hw.Sim.mem_get np 8);
      raises "write 8" (fun () -> Hw.Sim.mem_set_int np 8 0);
      raises "Bits write -1" (fun () -> Hw.Sim.mem_set wp (-1) (Bits.zero 100));
      raises "negative value" (fun () -> Hw.Sim.mem_set_int np 0 (-1));
      raises "width mismatch" (fun () -> Hw.Sim.mem_set np 0 (Bits.zero 31));
      raises "fill past the end" (fun () -> Hw.Sim.mem_fill_int np ~pos:5 ~len:4 0);
      raises "fill negative length" (fun () -> Hw.Sim.mem_fill_int np ~pos:0 ~len:(-1) 0);
      raises "int read of a wide memory" (fun () -> Hw.Sim.mem_get_int wp 0);
      raises "int write of a wide memory" (fun () -> Hw.Sim.mem_set_int wp 0 1);
      raises "fill of a wide memory" (fun () -> Hw.Sim.mem_fill_int wp ~pos:0 ~len:1 0);
      let _, foreign, _ = mem_port_circuit () in
      raises "foreign memory" (fun () -> Hw.Sim.mem_port sim foreign))
    all_backends

let suite =
  ( "sim-backends",
    [ Alcotest.test_case "random circuits lockstep" `Quick test_random_circuits;
      Alcotest.test_case "unknown signal error (both)" `Quick
        test_unknown_signal;
      Alcotest.test_case "reset equivalence" `Quick test_reset_equivalence;
      Alcotest.test_case "mux clamp (compiled)" `Quick test_mux_clamp_compiled;
      Alcotest.test_case "memory port priority (both)" `Quick
        test_mem_port_priority_compiled;
      Alcotest.test_case "wide arithmetic (compiled)" `Quick test_wide_arith_compiled;
      Alcotest.test_case "md5 workload (compiled)" `Quick test_md5_on_compiled;
      Alcotest.test_case "cpu cosim interp vs compiled" `Quick test_cpu_on_compiled;
      Alcotest.test_case "optimizer cosim on real designs" `Quick
        test_optimizer_cosim_real_designs;
      Alcotest.test_case "settle dirty-flag boundaries (both)" `Quick
        test_settle_dirty_boundaries;
      Alcotest.test_case "ports agree with by-name access" `Quick
        test_ports_lockstep;
      Alcotest.test_case "port resolution and write errors" `Quick
        test_port_errors;
      Alcotest.test_case "ports across reset, restore and optimize" `Quick
        test_port_lifetime;
      Alcotest.test_case "jit random circuits lockstep" `Quick
        test_jit_random_circuits;
      Alcotest.test_case "jit genuine fallback lockstep" `Quick
        test_jit_genuine_fallback;
      Alcotest.test_case "md5 workload (jit)" `Quick test_md5_on_jit;
      Alcotest.test_case "jit wide limb literals lockstep" `Quick
        test_jit_wide_limb_lockstep;
      Alcotest.test_case "word ports agree with read/write" `Quick
        test_word_ports;
      Alcotest.test_case "jit md5 8T words per cycle" `Quick
        test_jit_md5_cycle_words;
      Alcotest.test_case "jit batched cycles vs stepping" `Quick
        test_jit_cycles_batching;
      Alcotest.test_case "jit cache rebuilds corrupt entries" `Quick
        test_jit_cache_corruption;
      Alcotest.test_case "jit concurrent builders, one cache" `Quick
        test_jit_concurrent_builders;
      Alcotest.test_case "jit wide multiply selects lockstep" `Quick
        test_jit_mul_select_lockstep;
      Alcotest.test_case "jit cpu 4T words per cycle" `Quick
        test_jit_cpu_cycle_words;
      Alcotest.test_case "memory ports agree (interp|compiled|jit)" `Quick
        test_mem_ports ] )
