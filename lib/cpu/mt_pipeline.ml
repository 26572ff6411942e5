(* The multithreaded pipelined elastic processor of Section V.B.

   Every pipeline register is an MEB that independently selects which
   thread to promote at each stage; each thread has a private program
   counter and register-file copy; instruction memory, data memory and
   the execution unit are variable-latency units (Mt_varlat).  A thread
   keeps one instruction in flight (scoreboard bit set at fetch,
   cleared at writeback), which is how the paper's fine-grained
   multithreading hides latencies without intra-thread hazards.

   Stage plan (5 MEBs, matching the paper's table):

     fetch-arb -> MEB0 -> IMEM^ -> MEB1 -> DECODE -> MEB2 -> EX^ ->
     MEB3 -> MEM^ -> MEB4 -> WB          [^ = variable latency]

   Token layouts (LSB-first fields):
     MEB0 : pc[14]
     MEB1 : pc[14] instr[32]
     MEB2 : pc[14] instr[32] a[32] bv[32]
     MEB3 : next_pc[14] instr[32] alu[32] store[32]
     MEB4 : next_pc[14] instr[32] result[32]

   The register file and the two memories are Memory nodes — block
   RAMs, excluded from the LE counts exactly as the paper excludes
   them from Table I. *)

module S = Hw.Signal
module Mc = Melastic.Mt_channel

type config = {
  threads : int;
  kind : Melastic.Meb.kind;
  imem_size : int;
  dmem_size : int;
  imem_latency : Melastic.Mt_varlat.latency;
  exe_latency : Melastic.Mt_varlat.latency;
  mem_latency : Melastic.Mt_varlat.latency;
  start_pcs : int array;
  placement : Melastic.Placement.t option;
}

let default_config ~threads =
  { threads;
    kind = Melastic.Meb.Reduced;
    imem_size = 1024;
    dmem_size = 1024;
    imem_latency = Melastic.Mt_varlat.Fixed 0;
    exe_latency = Melastic.Mt_varlat.Fixed 0;
    mem_latency = Melastic.Mt_varlat.Fixed 0;
    start_pcs = Array.make threads 0;
    placement = None }

(* The five pipeline-register sites of the stage plan.  Each needs at
   least one stage: MEB0's per-thread buffer state is the fetch
   arbiter's ready, and the others keep the variable-latency units
   decoupled.  Probes and the scoreboard/halt machinery are
   protocol-bearing, not sites. *)
let retime_sites =
  List.init 5 (fun i ->
      Melastic.Placement.site ~min_stages:1 (Printf.sprintf "meb%d" i))

type t = {
  config : config;
  imem : S.memory;
  dmem : S.memory;
  regfile : S.memory;
}

let pc_w = Isa.pc_width

let field b data ~hi ~lo = S.select b data ~hi ~lo

(* Opcode one-hot helpers over the 6-bit opcode field. *)
let is_op b op_field op = S.eq_const b op_field (Isa.opcode_value op)

let is_any b op_field ops =
  S.or_reduce b (List.map (is_op b op_field) ops)

let create ?(config_name = "cpu") ?(probes = false) ?(serve = false) b config =
  ignore config_name;
  let n = config.threads in
  let tw = max 1 (S.clog2 n) in
  (* Pipeline stages are Component stages: every pipeline register is
     an MEB, probes are probe_if taps, and the variable-latency units
     are wrapped operators — the stage plan above is then literally a
     [Component.pipe]. *)
  (* A pipeline-register site elaborates per the config's placement
     (kind + stage count; stage 0 keeps the site name).  Occupancy
     exports ride the probes flag, as in the MD5 loop. *)
  let meb name =
    let default = { Melastic.Placement.kind = config.kind; stages = 1 } in
    let cfg =
      match config.placement with
      | None -> default
      | Some p -> Melastic.Placement.find p ~name ~default
    in
    fun bb ch ->
      Melastic.Component.pipe bb
        (List.init (max 1 cfg.Melastic.Placement.stages) (fun k ->
             Melastic.Component.buffer
               ~name:(if k = 0 then name else Printf.sprintf "%s_s%d" name k)
               ~policy:Melastic.Policy.Ready_aware
               ~kind:cfg.Melastic.Placement.kind ~export_occupancy:probes ()))
        ch
  in
  let tap name = Melastic.Component.probe_if probes ~name in
  let imem =
    S.Memory.create b ~name:"imem" ~size:config.imem_size ~width:32 ()
  in
  let dmem =
    S.Memory.create b ~name:"dmem" ~size:config.dmem_size ~width:32 ()
  in
  let regfile =
    S.Memory.create b ~name:"regfile" ~size:(n * Isa.num_regs) ~width:32 ()
  in
  (* ---- Front end: per-thread PC + scoreboard, fetch arbiter ---- *)
  let busy = Array.init n (fun _ -> S.wire b 1) in
  let halted = Array.init n (fun _ -> S.wire b 1) in
  let pcs = Array.init n (fun _ -> S.wire b pc_w) in
  (* Host job-control interface (the serving engine's slot lifecycle).
     Absent by default so the Table I designs are unchanged.  [restart]
     re-launches a thread at [restart_pc] (host contract: only while
     the thread is halted and not busy — a racing writeback would
     otherwise overwrite the loaded PC); [kill] parks a thread halted
     so its slot can be reclaimed (any in-flight instruction drains
     normally first).  In serve mode every thread powers on halted:
     slots run only what the host launches. *)
  let restart_in, kill_in, restart_pc_in =
    if serve then
      ( S.input b "restart" n,
        S.input b "kill" n,
        S.input b "restart_pc" pc_w )
    else (S.zero b n, S.zero b n, S.zero b pc_w)
  in
  let restart_bit i = if serve then S.bit b restart_in i else S.gnd b in
  let kill_bit i = if serve then S.bit b kill_in i else S.gnd b in
  (* The fetch channel's readys come from MEB0's per-thread buffer
     state; a thread competes for fetch only when it is idle, running,
     and its MEB0 slot can take the token. *)
  let fetch_ch = Mc.wires b ~threads:n ~width:pc_w in
  let req =
    S.concat_msb b
      (List.rev
         (List.init n (fun i ->
              S.land_ b fetch_ch.Mc.readys.(i)
                (S.land_ b (S.lnot b busy.(i)) (S.lnot b halted.(i))))))
  in
  let advance = S.wire b 1 in
  let rr = Arbiter.round_robin b ~advance req in
  S.assign advance rr.Arbiter.any_grant;
  let grant = rr.Arbiter.grant in
  let fetch_fire = Array.init n (fun i -> S.bit b grant i) in
  let pc_mux = S.mux b rr.Arbiter.grant_index (Array.to_list pcs) in
  Array.iteri (fun i v -> S.assign v fetch_fire.(i)) fetch_ch.Mc.valids;
  S.assign fetch_ch.Mc.data pc_mux;
  (* ---- IMEM: variable-latency instruction fetch ---- *)
  let imem_stage =
    Melastic.Component.wrap
      (fun b ch ->
        Melastic.Mt_varlat.create ~name:"imem_vl" b ch
          ~latency:config.imem_latency
          ~f:(fun b pc ->
            let addr = S.uresize b pc (S.clog2 config.imem_size) in
            S.concat_msb b [ S.Memory.read_async b imem ~addr; pc ]))
      (fun v -> v.Melastic.Mt_varlat.out)
  in
  let d_in =
    Melastic.Component.pipe b
      [ tap "cpu_fetch"; meb "meb0"; imem_stage; meb "meb1" ]
      fetch_ch
  in
  (* ---- DECODE: field extraction + register-file read ---- *)
  let d_pc = field b d_in.Mc.data ~hi:(pc_w - 1) ~lo:0 in
  let d_instr = field b d_in.Mc.data ~hi:(pc_w + 31) ~lo:pc_w in
  let d_thread = S.uresize b (Mc.active_thread b d_in) tw in
  let rf_addr r = S.concat_msb b [ d_thread; r ] in
  let d_rs = field b d_instr ~hi:21 ~lo:18 in
  let d_rt = field b d_instr ~hi:17 ~lo:14 in
  let read_reg r =
    let v = S.Memory.read_async b regfile ~addr:(rf_addr r) in
    S.mux2 b (S.eq_const b r 0) (S.zero b 32) v
  in
  let d_a = read_reg d_rs in
  let d_bv = read_reg d_rt in
  let decode_out =
    { d_in with Mc.data = S.concat_msb b [ d_bv; d_a; d_instr; d_pc ] }
  in
  (* ---- EX: ALU, branch resolution, next-PC ---- *)
  let exe_stage =
    Melastic.Component.wrap
      (fun b ch ->
        Melastic.Mt_varlat.create ~name:"exe_vl" b ch
          ~latency:config.exe_latency
          ~f:(fun b data ->
        let pc = field b data ~hi:(pc_w - 1) ~lo:0 in
        let instr = field b data ~hi:(pc_w + 31) ~lo:pc_w in
        let a = field b data ~hi:(pc_w + 63) ~lo:(pc_w + 32) in
        let bv = field b data ~hi:(pc_w + 95) ~lo:(pc_w + 64) in
        let op = field b instr ~hi:31 ~lo:26 in
        let imm = field b instr ~hi:13 ~lo:0 in
        let imm_s = S.sresize b imm 32 in
        let imm_z = S.uresize b imm 32 in
        let uses_imm =
          is_any b op [ Isa.ADDI; Isa.ANDI; Isa.ORI; Isa.XORI; Isa.SLTI;
                        Isa.LW; Isa.SW ]
        in
        let zero_ext = is_any b op [ Isa.ANDI; Isa.ORI; Isa.XORI ] in
        let imm_ext = S.mux2 b zero_ext imm_z imm_s in
        let opb = S.mux2 b uses_imm imm_ext bv in
        let shamt = field b bv ~hi:4 ~lo:0 in
        let add = S.add b a opb in
        let sub = S.sub b a opb in
        let slt = S.uresize b (S.slt b a opb) 32 in
        let sltu = S.uresize b (S.ult b a opb) 32 in
        let mul = S.uresize b (S.mul b a bv) 32 in
        let link = S.uresize b (S.add b pc (S.of_int b ~width:pc_w 1)) 32 in
        let lui = S.sll b imm_z 18 in
        (* Result select: a chain over the opcode classes. *)
        let sel v code rest = S.mux2 b (is_op b op code) v rest in
        let alu =
          sel sub Isa.SUB
            (sel (S.land_ b a opb) Isa.AND
               (sel (S.land_ b a opb) Isa.ANDI
                  (sel (S.lor_ b a opb) Isa.OR
                     (sel (S.lor_ b a opb) Isa.ORI
                        (sel (S.lxor_ b a opb) Isa.XOR
                           (sel (S.lxor_ b a opb) Isa.XORI
                              (sel slt Isa.SLT
                                 (sel slt Isa.SLTI
                                    (sel sltu Isa.SLTU
                                       (sel (S.sll_dyn b a shamt) Isa.SLL
                                          (sel (S.srl_dyn b a shamt) Isa.SRL
                                             (sel (S.sra_dyn b a shamt) Isa.SRA
                                                (sel mul Isa.MUL
                                                   (sel lui Isa.LUI
                                                      (sel link Isa.JAL add)))))))))))))))
        in
        let eq = S.eq b a bv in
        let lt = S.slt b a bv in
        let taken =
          S.or_reduce b
            [ S.land_ b (is_op b op Isa.BEQ) eq;
              S.land_ b (is_op b op Isa.BNE) (S.lnot b eq);
              S.land_ b (is_op b op Isa.BLT) lt;
              S.land_ b (is_op b op Isa.BGE) (S.lnot b lt) ]
        in
        let pc_plus1 = S.add b pc (S.of_int b ~width:pc_w 1) in
        let branch_target = S.add b pc (S.uresize b imm pc_w) in
        let jump_target = S.uresize b imm pc_w in
        let next_pc =
          S.mux2 b (is_any b op [ Isa.J; Isa.JAL ]) jump_target
            (S.mux2 b (is_op b op Isa.JR)
               (S.uresize b a pc_w)
               (S.mux2 b taken branch_target pc_plus1))
        in
            S.concat_msb b [ bv; alu; instr; next_pc ]))
      (fun v -> v.Melastic.Mt_varlat.out)
  in
  (* ---- MEM: variable-latency data memory (protocol-checker tap
     between EX and MEM) ---- *)
  let mem_in =
    Melastic.Component.pipe b
      [ meb "meb2"; exe_stage; meb "meb3"; tap "cpu_mem" ]
      decode_out
  in
  let mem_op = field b mem_in.Mc.data ~hi:(pc_w + 31) ~lo:(pc_w + 26) in
  let mem_alu = field b mem_in.Mc.data ~hi:(pc_w + 63) ~lo:(pc_w + 32) in
  let mem_store = field b mem_in.Mc.data ~hi:(pc_w + 95) ~lo:(pc_w + 64) in
  let daddr_w = S.clog2 config.dmem_size in
  let mem_vl =
    Melastic.Mt_varlat.create ~name:"mem_vl" b mem_in ~latency:config.mem_latency
      ~f:(fun b data ->
        let next_pc = field b data ~hi:(pc_w - 1) ~lo:0 in
        let instr = field b data ~hi:(pc_w + 31) ~lo:pc_w in
        let op = field b instr ~hi:31 ~lo:26 in
        let alu = field b data ~hi:(pc_w + 63) ~lo:(pc_w + 32) in
        let load =
          S.Memory.read_async b dmem ~addr:(S.uresize b alu daddr_w)
        in
        let result = S.mux2 b (is_op b op Isa.LW) load alu in
        S.concat_msb b [ result; instr; next_pc ])
  in
  (* The store commits the cycle MEM accepts the token. *)
  S.Memory.write b dmem
    ~we:(S.land_ b mem_vl.Melastic.Mt_varlat.accept (is_op b mem_op Isa.SW))
    ~addr:(S.uresize b mem_alu daddr_w)
    ~data:mem_store;
  (* ---- WB: register write, PC update, scoreboard clear ---- *)
  let wb =
    Melastic.Component.pipe b
      [ meb "meb4"; tap "cpu_wb" ]
      mem_vl.Melastic.Mt_varlat.out
  in
  Array.iter (fun r -> S.assign r (S.vdd b)) wb.Mc.readys;
  let wb_any = Mc.any_valid b wb in
  let wb_thread = S.uresize b (Mc.active_thread b wb) tw in
  let wb_next_pc = field b wb.Mc.data ~hi:(pc_w - 1) ~lo:0 in
  let wb_instr = field b wb.Mc.data ~hi:(pc_w + 31) ~lo:pc_w in
  let wb_result = field b wb.Mc.data ~hi:(pc_w + 63) ~lo:(pc_w + 32) in
  let wb_op = field b wb_instr ~hi:31 ~lo:26 in
  let wb_rd = field b wb_instr ~hi:25 ~lo:22 in
  let writes =
    is_any b wb_op (List.filter Isa.writes_register Isa.all_opcodes)
  in
  S.Memory.write b regfile
    ~we:
      (S.land_ b wb_any
         (S.land_ b writes (S.lnot b (S.eq_const b wb_rd 0))))
    ~addr:(S.concat_msb b [ wb_thread; wb_rd ])
    ~data:wb_result;
  let is_halt = is_op b wb_op Isa.HALT in
  (* Per-thread architectural state. *)
  Array.iteri
    (fun i pc_wire ->
      let fire = wb.Mc.valids.(i) in
      let pc_reg =
        (* [restart] wins over a (host-forbidden) same-cycle writeback:
           its loaded PC is the slot's new program. *)
        S.reg b
          ~enable:
            (S.lor_ b (restart_bit i) (S.land_ b fire (S.lnot b is_halt)))
          ~init:(Bits.of_int ~width:pc_w config.start_pcs.(i))
          (S.mux2 b (restart_bit i) restart_pc_in wb_next_pc)
      in
      ignore (S.set_name pc_reg (Printf.sprintf "pc%d" i));
      S.assign pc_wire pc_reg;
      let busy_reg =
        S.reg_fb b ~width:1 (fun q ->
            S.mux2 b fetch_fire.(i) (S.vdd b) (S.mux2 b fire (S.gnd b) q))
      in
      ignore (S.set_name busy_reg (Printf.sprintf "busy%d" i));
      S.assign busy.(i) busy_reg;
      let halted_reg =
        (* restart clears, kill sets, a retiring HALT sets; in serve
           mode the power-on value is halted so unlaunched slots stay
           quiescent instead of executing imem garbage from PC 0. *)
        S.reg_fb b ~width:1
          ~init:(Bits.of_int ~width:1 (if serve then 1 else 0))
          (fun q ->
            S.mux2 b (restart_bit i) (S.gnd b)
              (S.lor_ b (kill_bit i)
                 (S.lor_ b q (S.land_ b fire is_halt))))
      in
      ignore (S.set_name halted_reg (Printf.sprintf "halted%d" i));
      S.assign halted.(i) halted_reg;
      let retired =
        S.reg_fb b ~width:32 (fun q ->
            S.mux2 b fire (S.add b q (S.of_int b ~width:32 1)) q)
      in
      ignore (S.output b (Printf.sprintf "retired%d" i) retired))
    pcs;
  ignore
    (S.output b "halted_all"
       (S.and_reduce b (Array.to_list halted)));
  ignore
    (S.output b "halted_vec"
       (S.concat_msb b (List.rev (Array.to_list halted))));
  if serve then
    ignore
      (S.output b "busy_vec"
         (S.concat_msb b (List.rev (Array.to_list busy))));
  let total_retired =
    S.reg_fb b ~width:32 (fun q ->
        S.mux2 b wb_any (S.add b q (S.of_int b ~width:32 1)) q)
  in
  ignore (S.output b "retired_total" total_retired);
  ignore (S.output b "wb_fire" (S.concat_msb b (List.rev (Array.to_list wb.Mc.valids))));
  { config; imem; dmem; regfile }

(* Elaborate a standalone processor circuit. *)
let circuit ?probes ?serve config =
  let b = S.Builder.create () in
  let t = create ?probes ?serve b config in
  (Hw.Circuit.create
     ~name:(Printf.sprintf "cpu_%s_%dt" (Melastic.Meb.kind_to_string config.kind)
              config.threads)
     b,
   t)

(* ---- Testbench helpers ---- *)

let load_program sim t words =
  let imem = Hw.Sim.mem_port sim t.imem in
  List.iteri (fun i w -> Hw.Sim.mem_set_int imem i (w land 0xffffffff)) words

let run_until_halted sim ~limit =
  let rec go n =
    if Hw.Sim.peek_bool sim "halted_all" then Some n
    else if n >= limit then None
    else begin
      Hw.Sim.cycle sim;
      go (n + 1)
    end
  in
  go 0

let read_reg sim t ~thread ~reg =
  Hw.Sim.mem_get_int (Hw.Sim.mem_port sim t.regfile) ((thread * Isa.num_regs) + reg)

let read_dmem sim t addr = Hw.Sim.mem_get_int (Hw.Sim.mem_port sim t.dmem) addr
