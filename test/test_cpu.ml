(* Processor tests: ISA encode/decode, assembler, ISS programs, and
   pipeline-vs-ISS co-simulation for both MEB kinds and random
   latencies. *)

module Isa = Cpu.Isa
module Asm = Cpu.Asm
module Iss = Cpu.Iss

let test_encode_decode_roundtrip () =
  let st = Random.State.make [| 7 |] in
  List.iter
    (fun op ->
      for _ = 1 to 20 do
        let i =
          Isa.make ~rd:(Random.State.int st 16) ~rs:(Random.State.int st 16)
            ~rt:(Random.State.int st 16)
            ~imm:(Random.State.int st (1 lsl 14) - (1 lsl 13))
            op
        in
        match Isa.decode (Isa.encode i) with
        | Some j -> Alcotest.(check bool) (Isa.to_string i) true (i = j)
        | None -> Alcotest.fail ("decode failed for " ^ Isa.to_string i)
      done)
    Isa.all_opcodes

let test_decode_illegal () =
  Alcotest.(check bool) "illegal opcode" true (Isa.decode (0x3e lsl 26) = None)

let test_asm_basic () =
  let words =
    Asm.assemble_words
      "  addi r1, r0, 5\n  addi r2, r0, 7\n  add r3, r1, r2\n  halt\n"
  in
  Alcotest.(check int) "4 instructions" 4 (List.length words);
  (match Isa.decode (List.nth words 2) with
   | Some i ->
     Alcotest.(check string) "add decodes" "add r3, r1, r2" (Isa.to_string i)
   | None -> Alcotest.fail "decode");
  (* li / mv pseudo-instructions. *)
  let words = Asm.assemble_words "li r1, 3\nmv r2, r1\nhalt\n" in
  Alcotest.(check int) "pseudos" 3 (List.length words)

let test_asm_labels_and_branches () =
  let program =
    "start: addi r1, r0, 3\n\
     loop:  addi r1, r1, -1\n\
     \       bne r1, r0, loop\n\
     \       j end\n\
     \       addi r2, r0, 99   ; skipped\n\
     end:   halt\n"
  in
  let words, labels = Asm.assemble program in
  Alcotest.(check int) "length" 6 (List.length words);
  Alcotest.(check (option int)) "loop label" (Some 1) (Hashtbl.find_opt labels "loop");
  (match Isa.decode (List.nth words 2) with
   | Some i ->
     Alcotest.(check int) "bne backward offset" (-1) (Isa.imm_signed i)
   | None -> Alcotest.fail "decode");
  (match Isa.decode (List.nth words 3) with
   | Some i -> Alcotest.(check int) "j absolute" 5 i.Isa.imm
   | None -> Alcotest.fail "decode")

let test_asm_errors () =
  let expect_error src =
    try
      ignore (Asm.assemble_words src);
      Alcotest.fail ("expected assembly error for: " ^ src)
    with Asm.Error _ -> ()
  in
  expect_error "bogus r1, r2\n";
  expect_error "add r1, r2\n";
  expect_error "addi r99, r0, 1\n";
  expect_error "j nowhere\n";
  expect_error "foo: foo: nop\n"

let run_iss program ~threads ~max_steps =
  let words = Asm.assemble_words program in
  let imem = Array.make 256 0 in
  List.iteri (fun i w -> imem.(i) <- w) words;
  let iss =
    Iss.create ~imem ~dmem_size:256 ~threads ~start_pcs:(Array.make threads 0)
  in
  let halted = Iss.run ~max_steps iss in
  (iss, halted)

let test_iss_arith () =
  let iss, halted =
    run_iss ~threads:1 ~max_steps:100
      "addi r1, r0, 6\naddi r2, r0, 7\nmul r3, r1, r2\nsub r4, r3, r1\nhalt\n"
  in
  Alcotest.(check bool) "halted" true halted;
  Alcotest.(check int) "r3 = 42" 42 (Iss.reg_value iss ~thread:0 ~reg:3);
  Alcotest.(check int) "r4 = 36" 36 (Iss.reg_value iss ~thread:0 ~reg:4)

let test_iss_fib () =
  let iss, halted =
    run_iss ~threads:1 ~max_steps:1000
      "addi r1, r0, 0\n\
       addi r2, r0, 1\n\
       addi r3, r0, 10\n\
       loop: add r4, r1, r2\n\
       mv r1, r2\n\
       mv r2, r4\n\
       addi r3, r3, -1\n\
       bne r3, r0, loop\n\
       halt\n"
  in
  Alcotest.(check bool) "halted" true halted;
  Alcotest.(check int) "fib(11) = 89" 89 (Iss.reg_value iss ~thread:0 ~reg:2)

let test_iss_memory () =
  let iss, halted =
    run_iss ~threads:1 ~max_steps:100
      "addi r1, r0, 10\n\
       addi r2, r0, 123\n\
       sw r2, 5(r1)\n\
       lw r3, 5(r1)\n\
       halt\n"
  in
  Alcotest.(check bool) "halted" true halted;
  Alcotest.(check int) "dmem[15]" 123 (Iss.dmem_value iss 15);
  Alcotest.(check int) "loaded" 123 (Iss.reg_value iss ~thread:0 ~reg:3)

let test_iss_jal_jr () =
  let iss, halted =
    run_iss ~threads:1 ~max_steps:100
      "jal r15, func\n\
       addi r2, r0, 1\n\
       halt\n\
       func: addi r1, r0, 77\n\
       jr r15\n"
  in
  Alcotest.(check bool) "halted" true halted;
  Alcotest.(check int) "callee ran" 77 (Iss.reg_value iss ~thread:0 ~reg:1);
  Alcotest.(check int) "returned" 1 (Iss.reg_value iss ~thread:0 ~reg:2)

let test_iss_r0_immutable () =
  let iss, _ = run_iss ~threads:1 ~max_steps:10 "addi r0, r0, 5\nhalt\n" in
  Alcotest.(check int) "r0 stays 0" 0 (Iss.reg_value iss ~thread:0 ~reg:0)

(* ---- Pipeline co-simulation ---- *)

(* Run [program] (same image for all threads; per-thread start PCs) on
   both the ISS and the elastic pipeline; compare architectural
   state. *)
let cosim ?(threads = 2) ?(kind = Melastic.Meb.Reduced)
    ?(imem_latency = Melastic.Mt_varlat.Fixed 0)
    ?(exe_latency = Melastic.Mt_varlat.Fixed 0)
    ?(mem_latency = Melastic.Mt_varlat.Fixed 0) ?start_pcs ~limit program =
  let words = Asm.assemble_words program in
  let start_pcs = match start_pcs with Some p -> p | None -> Array.make threads 0 in
  let config =
    { (Cpu.Mt_pipeline.default_config ~threads) with
      Cpu.Mt_pipeline.kind; imem_latency; exe_latency; mem_latency; start_pcs;
      imem_size = 256; dmem_size = 256 }
  in
  let circuit, t = Cpu.Mt_pipeline.circuit config in
  let sim = Hw.Sim.create circuit in
  Cpu.Mt_pipeline.load_program sim t words;
  Hw.Sim.settle sim;
  let cycles = Cpu.Mt_pipeline.run_until_halted sim ~limit in
  let imem = Array.make 256 0 in
  List.iteri (fun i w -> imem.(i) <- w) words;
  let iss = Iss.create ~imem ~dmem_size:256 ~threads ~start_pcs in
  let iss_ok = Iss.run ~max_steps:100_000 iss in
  (sim, t, iss, cycles, iss_ok)

let check_arch_state sim t iss ~threads =
  for th = 0 to threads - 1 do
    for r = 1 to Isa.num_regs - 1 do
      Alcotest.(check int)
        (Printf.sprintf "thread %d r%d" th r)
        (Iss.reg_value iss ~thread:th ~reg:r)
        (Cpu.Mt_pipeline.read_reg sim t ~thread:th ~reg:r)
    done
  done;
  for a = 0 to 255 do
    Alcotest.(check int) (Printf.sprintf "dmem[%d]" a) (Iss.dmem_value iss a)
      (Cpu.Mt_pipeline.read_dmem sim t a)
  done

let fib_program =
  "addi r1, r0, 0\n\
   addi r2, r0, 1\n\
   addi r3, r0, 8\n\
   loop: add r4, r1, r2\n\
   mv r1, r2\n\
   mv r2, r4\n\
   addi r3, r3, -1\n\
   bne r3, r0, loop\n\
   halt\n"

let test_pipeline_fib kind () =
  let sim, t, iss, cycles, iss_ok = cosim ~threads:2 ~kind ~limit:3000 fib_program in
  Alcotest.(check bool) "iss halted" true iss_ok;
  Alcotest.(check bool) "pipeline halted" true (cycles <> None);
  check_arch_state sim t iss ~threads:2

(* Each thread stores to its own region: exercises SW/LW plus
   thread-indexed addressing derived from a per-thread start block. *)
let store_program ~threads =
  let buf = Buffer.create 256 in
  (* Thread t starts at its own preamble, which sets r10 = t * 16 and
     jumps to the common body. *)
  for t = 0 to threads - 1 do
    Buffer.add_string buf (Printf.sprintf "addi r10, r0, %d\nj body\n" (t * 16))
  done;
  Buffer.add_string buf
    "body: addi r1, r0, 5\n\
     addi r2, r0, 3\n\
     add r3, r1, r2\n\
     sw r3, 0(r10)\n\
     mul r4, r3, r3\n\
     sw r4, 1(r10)\n\
     lw r5, 0(r10)\n\
     add r6, r5, r4\n\
     sw r6, 2(r10)\n\
     halt\n";
  Buffer.contents buf

let test_pipeline_stores kind () =
  let threads = 4 in
  let program = store_program ~threads in
  let start_pcs = Array.init threads (fun t -> 2 * t) in
  let sim, t, iss, cycles, iss_ok =
    cosim ~threads ~kind ~start_pcs ~limit:3000 program
  in
  Alcotest.(check bool) "iss halted" true iss_ok;
  Alcotest.(check bool) "pipeline halted" true (cycles <> None);
  check_arch_state sim t iss ~threads

let test_pipeline_variable_latency kind () =
  let threads = 3 in
  let program = store_program ~threads in
  let start_pcs = Array.init threads (fun t -> 2 * t) in
  let sim, t, iss, cycles, iss_ok =
    cosim ~threads ~kind ~start_pcs ~limit:20000
      ~imem_latency:(Melastic.Mt_varlat.Random { max_latency = 3; seed = 5 })
      ~exe_latency:(Melastic.Mt_varlat.Random { max_latency = 2; seed = 9 })
      ~mem_latency:(Melastic.Mt_varlat.Random { max_latency = 4; seed = 3 })
      program
  in
  Alcotest.(check bool) "iss halted" true iss_ok;
  Alcotest.(check bool) "pipeline halted" true (cycles <> None);
  check_arch_state sim t iss ~threads

let test_pipeline_eight_threads () =
  (* The paper's 8-thread configuration. *)
  let threads = 8 in
  let program = store_program ~threads in
  let start_pcs = Array.init threads (fun t -> 2 * t) in
  let sim, t, iss, cycles, iss_ok =
    cosim ~threads ~kind:Melastic.Meb.Reduced ~start_pcs ~limit:20000 program
  in
  Alcotest.(check bool) "iss halted" true iss_ok;
  Alcotest.(check bool) "pipeline halted" true (cycles <> None);
  check_arch_state sim t iss ~threads

let test_multithreading_hides_latency () =
  (* With variable-latency units, 4 threads retire a fixed per-thread
     workload in far less than 4x the single-thread time — the
     utilization argument of the paper's introduction. *)
  let program =
    "addi r3, r0, 20\n\
     loop: addi r3, r3, -1\n\
     bne r3, r0, loop\n\
     halt\n"
  in
  let time ~threads =
    let sim, _t, _iss, cycles, _ =
      cosim ~threads ~kind:Melastic.Meb.Reduced ~limit:50000
        ~exe_latency:(Melastic.Mt_varlat.Random { max_latency = 3; seed = 11 })
        program
    in
    ignore sim;
    match cycles with Some c -> c | None -> Alcotest.fail "did not halt"
  in
  let t1 = time ~threads:1 in
  let t4 = time ~threads:4 in
  Alcotest.(check bool)
    (Printf.sprintf "4 threads in < 2.5x single-thread time (%d vs %d)" t4 t1)
    true
    (float_of_int t4 < 2.5 *. float_of_int t1)

(* Random straight-line programs: each thread gets its own code block
   ending in stores to a private region, then halt. *)
let prop_random_programs =
  let gen_block st ~thread =
    let buf = Buffer.create 128 in
    Buffer.add_string buf (Printf.sprintf "addi r10, r0, %d\n" (thread * 32));
    let n_ops = 5 + Random.State.int st 10 in
    for _ = 1 to n_ops do
      let rd = 1 + Random.State.int st 8 in
      let rs = Random.State.int st 9 in
      let rt = Random.State.int st 9 in
      match Random.State.int st 8 with
      | 0 -> Buffer.add_string buf (Printf.sprintf "add r%d, r%d, r%d\n" rd rs rt)
      | 1 -> Buffer.add_string buf (Printf.sprintf "sub r%d, r%d, r%d\n" rd rs rt)
      | 2 -> Buffer.add_string buf (Printf.sprintf "xor r%d, r%d, r%d\n" rd rs rt)
      | 3 -> Buffer.add_string buf (Printf.sprintf "and r%d, r%d, r%d\n" rd rs rt)
      | 4 -> Buffer.add_string buf (Printf.sprintf "slt r%d, r%d, r%d\n" rd rs rt)
      | 5 ->
        Buffer.add_string buf
          (Printf.sprintf "addi r%d, r%d, %d\n" rd rs (Random.State.int st 2000 - 1000))
      | 6 -> Buffer.add_string buf (Printf.sprintf "mul r%d, r%d, r%d\n" rd rs rt)
      | _ ->
        Buffer.add_string buf
          (Printf.sprintf "ori r%d, r%d, %d\n" rd rs (Random.State.int st 4096))
    done;
    for k = 0 to 3 do
      Buffer.add_string buf (Printf.sprintf "sw r%d, %d(r10)\n" (1 + k) k)
    done;
    Buffer.add_string buf "halt\n";
    Buffer.contents buf
  in
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:20 ~name:"random programs: pipeline matches ISS"
       (QCheck.make ~print:string_of_int QCheck.Gen.(int_bound 1_000_000))
       (fun seed ->
         let st = Random.State.make [| seed |] in
         let threads = 2 + Random.State.int st 3 in
         let kind =
           if Random.State.bool st then Melastic.Meb.Full else Melastic.Meb.Reduced
         in
         (* Concatenate per-thread blocks; record start PCs. *)
         let buf = Buffer.create 512 in
         let start_pcs = Array.make threads 0 in
         let pc = ref 0 in
         for t = 0 to threads - 1 do
           start_pcs.(t) <- !pc;
           let block = gen_block st ~thread:t in
           pc := !pc + List.length (Asm.assemble_words block);
           Buffer.add_string buf block
         done;
         let sim, t, iss, cycles, iss_ok =
           cosim ~threads ~kind ~start_pcs ~limit:20000 (Buffer.contents buf)
         in
         if not iss_ok || cycles = None then false
         else begin
           let ok = ref true in
           for th = 0 to threads - 1 do
             for r = 1 to 15 do
               if Iss.reg_value iss ~thread:th ~reg:r
                  <> Cpu.Mt_pipeline.read_reg sim t ~thread:th ~reg:r
               then ok := false
             done
           done;
           for a = 0 to 255 do
             if Iss.dmem_value iss a <> Cpu.Mt_pipeline.read_dmem sim t a then
               ok := false
           done;
           !ok
         end))

(* Assembler fuzz: truncations and seeded single-byte mutations of the
   serving benchmark's two job shapes (a counted add loop and a
   store/load loop).  Every input assembles or raises [Asm.Error];
   any other exception escaping the parser fails the property. *)
let asm_job_shapes =
  [ "li r1, 7\nloop: add r2, r2, r1\naddi r1, r1, -1\nbne r1, r0, loop\nhalt";
    "li r1, 12\nloop: sw r1, 0(r15)\nlw r3, 0(r15)\nadd r2, r2, r3\n\
     addi r1, r1, -1\nbne r1, r0, loop\nhalt" ]

let assembles_or_errors text =
  match Cpu.Asm.assemble_words ~origin:256 text with
  | _ -> true
  | exception Cpu.Asm.Error _ -> true

let test_asm_truncations () =
  List.iter
    (fun src ->
      for n = 0 to String.length src do
        let text = String.sub src 0 n in
        if not (assembles_or_errors text) then Alcotest.failf "prefix %S" text
      done)
    asm_job_shapes

let prop_asm_mutations =
  let gen st =
    let src = List.nth asm_job_shapes (Random.State.int st 2) in
    let b = Bytes.of_string src in
    Bytes.set b (Random.State.int st (Bytes.length b)) (Char.chr (Random.State.int st 256));
    Bytes.to_string b
  in
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:2000 ~name:"asm mutations: result or Asm.Error"
       (QCheck.make ~print:(Printf.sprintf "%S") gen)
       assembles_or_errors)

let kind_cases name f =
  List.map
    (fun kind ->
      Alcotest.test_case
        (Printf.sprintf "%s (%s)" name (Melastic.Meb.kind_to_string kind))
        `Quick (f kind))
    [ Melastic.Meb.Full; Melastic.Meb.Reduced ]

let suite =
  ( "cpu",
    [ Alcotest.test_case "encode/decode roundtrip" `Quick test_encode_decode_roundtrip;
      Alcotest.test_case "decode illegal" `Quick test_decode_illegal;
      Alcotest.test_case "asm basic" `Quick test_asm_basic;
      Alcotest.test_case "asm labels/branches" `Quick test_asm_labels_and_branches;
      Alcotest.test_case "asm errors" `Quick test_asm_errors;
      Alcotest.test_case "iss arith" `Quick test_iss_arith;
      Alcotest.test_case "iss fib" `Quick test_iss_fib;
      Alcotest.test_case "iss memory" `Quick test_iss_memory;
      Alcotest.test_case "iss jal/jr" `Quick test_iss_jal_jr;
      Alcotest.test_case "iss r0 immutable" `Quick test_iss_r0_immutable ]
    @ kind_cases "pipeline fib cosim" test_pipeline_fib
    @ kind_cases "pipeline stores cosim" test_pipeline_stores
    @ kind_cases "pipeline variable latency cosim" test_pipeline_variable_latency
    @ [ Alcotest.test_case "pipeline 8 threads (paper config)" `Quick
          test_pipeline_eight_threads;
        Alcotest.test_case "multithreading hides latency" `Quick
          test_multithreading_hides_latency;
        prop_random_programs;
        Alcotest.test_case "asm truncations: result or Asm.Error" `Quick
          test_asm_truncations;
        prop_asm_mutations ] )
