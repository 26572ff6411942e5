(* MD5: RFC 1321 reference vectors, then circuit-vs-reference
   co-simulation for both MEB kinds. *)

let test_rfc_vectors () =
  List.iter
    (fun (msg, expected) ->
      Alcotest.(check string) (Printf.sprintf "md5(%S)" msg) expected (Md5.Md5_ref.digest msg))
    [ ("", "d41d8cd98f00b204e9800998ecf8427e");
      ("a", "0cc175b9c0f1b6a831c399e269772661");
      ("abc", "900150983cd24fb0d6963f7d28e17f72");
      ("message digest", "f96b697d7cb7938d525a2f31aaf161d0");
      ("abcdefghijklmnopqrstuvwxyz", "c3fcd3d76192e4007dfb496cca67e13b");
      ("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789",
       "d174ab98d277d9f5a5611c2c9f419d9f");
      ("12345678901234567890123456789012345678901234567890123456789012345678901234567890",
       "57edf4a22be3c955ac49da2e2107b67a") ]

let test_t_table () =
  (* Spot-check the computed sine table against RFC 1321 values. *)
  Alcotest.(check int) "T[0]" 0xd76aa478 Md5.Md5_ref.t_table.(0);
  Alcotest.(check int) "T[1]" 0xe8c7b756 Md5.Md5_ref.t_table.(1);
  Alcotest.(check int) "T[63]" 0xeb86d391 Md5.Md5_ref.t_table.(63)

let test_padding () =
  let p = Md5.Md5_ref.pad_message "abc" in
  Alcotest.(check int) "one block" 64 (String.length p);
  Alcotest.(check char) "0x80 delimiter" '\x80' p.[3];
  Alcotest.(check char) "bit length lo" '\x18' p.[56];
  let long = String.make 56 'x' in
  Alcotest.(check int) "two blocks" 128 (String.length (Md5.Md5_ref.pad_message long))

let test_block_roundtrip () =
  let words = Md5.Md5_ref.single_block_words "hello" in
  let bits = Md5.Md5_ref.block_to_bits words in
  Alcotest.(check int) "width" 512 (Bits.width bits);
  Array.iteri
    (fun i w ->
      Alcotest.(check int) (Printf.sprintf "word %d" i) w
        (Bits.to_int (Bits.select bits ~hi:((32 * (i + 1)) - 1) ~lo:(32 * i))))
    words

(* [fill_block] is [padded_blocks] without the padded copy: every block
   of every length 0..200 (all of 55/56/63/64 included), written at an
   offset inside a larger buffer. *)
let prop_fill_block_matches_padded_blocks =
  let arb =
    QCheck.make
      ~print:(fun (len, c) -> Printf.sprintf "len=%d seed char=%d" len c)
      QCheck.Gen.(
        oneof [ int_bound 200; oneofl [ 0; 55; 56; 63; 64; 119; 120; 128 ] ]
        >>= fun len -> int_bound 255 >>= fun c -> return (len, c))
  in
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:300 ~name:"fill_block matches padded_blocks" arb
       (fun (len, c) ->
         let msg = String.init len (fun i -> Char.chr ((c + (i * 37)) land 0xff)) in
         let blocks = Md5.Md5_ref.padded_blocks msg in
         let buf = Array.make 20 (-1) in
         List.length blocks = Md5.Md5_ref.block_count len
         && List.for_all2
              (fun k words ->
                Md5.Md5_ref.fill_block msg k buf 3;
                buf.(2) = -1 && buf.(19) = -1 && Array.sub buf 3 16 = words)
              (List.init (List.length blocks) Fun.id)
              blocks))

let test_fill_block_errors () =
  let buf = Array.make 16 0 in
  Alcotest.check_raises "block past the end"
    (Invalid_argument "Md5_ref.fill_block: no block 1") (fun () ->
      Md5.Md5_ref.fill_block "abc" 1 buf 0);
  Alcotest.check_raises "short buffer"
    (Invalid_argument "Md5_ref.fill_block: 16 words do not fit") (fun () ->
      Md5.Md5_ref.fill_block "abc" 0 buf 1)

(* The int renderer agrees with the [Printf] reference. *)
let prop_hex_of_words =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:300 ~name:"hex_of_words matches to_hex"
       QCheck.(quad int int int int)
       (fun (a, b, c, d) ->
         let m = Md5.Md5_ref.mask32 in
         let a = a land m and b = b land m and c = c land m and d = d land m in
         Md5.Md5_ref.hex_of_words [| 7; a; b; c; d |] 1
         = Md5.Md5_ref.to_hex (a, b, c, d)))

(* Drive the circuit: one message per thread, compare digests. *)
let standard_iv = Md5.Md5_ref.state_to_bits Md5.Md5_ref.iv

let single_block_input msg =
  Md5.Md5_circuit.input_bits
    ~block:(Md5.Md5_ref.block_to_bits (Md5.Md5_ref.single_block_words msg))
    ~iv:standard_iv

let run_circuit ~kind ~threads msgs =
  let circuit = Md5.Md5_circuit.circuit ~kind ~threads () in
  let sim = Hw.Sim.create circuit in
  let d =
    Workload.Mt_driver.create sim ~src:"msg" ~snk:"digest" ~threads
      ~width:Md5.Md5_circuit.input_width
  in
  List.iteri
    (fun t per_thread ->
      List.iter
        (fun msg -> Workload.Mt_driver.push d ~thread:t (single_block_input msg))
        per_thread)
    msgs;
  let sync_violation = ref false in
  Hw.Sim.on_cycle sim (fun sim ->
      if not (Hw.Sim.peek_bool sim "sync_ok") then sync_violation := true);
  let drained = Workload.Mt_driver.run_until_drained d ~limit:5000 in
  Alcotest.(check bool) "drained" true drained;
  Alcotest.(check bool) "round field synced with counter" false !sync_violation;
  d

let check_digests d msgs =
  List.iteri
    (fun t per_thread ->
      let expected =
        List.map
          (fun m -> Md5.Md5_ref.to_hex (Md5.Md5_ref.digest_words m))
          per_thread
      in
      let got =
        List.map
          (fun bits -> Md5.Md5_ref.to_hex (Md5.Md5_ref.state_of_bits bits))
          (Workload.Mt_driver.output_sequence d ~thread:t)
      in
      Alcotest.(check (list string)) (Printf.sprintf "thread %d digests" t) expected got)
    msgs

let test_circuit_single_thread_kind kind () =
  let msgs = [ [ "abc" ] ] in
  let d = run_circuit ~kind ~threads:1 msgs in
  check_digests d msgs

let test_circuit_multi_thread_kind kind () =
  let msgs =
    List.init 4 (fun t -> [ Printf.sprintf "thread-%d message" t ])
  in
  let d = run_circuit ~kind ~threads:4 msgs in
  check_digests d msgs

let test_circuit_batches_kind kind () =
  (* Three successive batches per thread exercise counter wrap-around,
     gate re-opening and barrier episodes. *)
  let msgs =
    List.init 3 (fun t ->
        List.init 3 (fun k -> Printf.sprintf "t%d batch %d" t k))
  in
  let d = run_circuit ~kind ~threads:3 msgs in
  check_digests d msgs

let test_circuit_eight_threads () =
  (* The paper's 8-thread configuration, reduced MEBs. *)
  let msgs = List.init 8 (fun t -> [ String.make (t + 1) (Char.chr (97 + t)) ]) in
  let d = run_circuit ~kind:Melastic.Meb.Reduced ~threads:8 msgs in
  check_digests d msgs

let prop_circuit_matches_reference =
  let arb =
    QCheck.make
      ~print:(fun (kind, msgs) ->
        Printf.sprintf "kind=%b msgs=%s" kind (String.concat "|" msgs))
      QCheck.Gen.(
        bool >>= fun kind ->
        list_size (return 3) (string_size ~gen:printable (int_bound 55)) >>= fun msgs ->
        return (kind, msgs))
  in
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:15 ~name:"MD5 circuit matches reference on random messages"
       arb
       (fun (kind_b, msgs) ->
         let kind = if kind_b then Melastic.Meb.Full else Melastic.Meb.Reduced in
         let per_thread = List.map (fun m -> [ m ]) msgs in
         let d = run_circuit ~kind ~threads:(List.length msgs) per_thread in
         List.for_all2
           (fun t msg ->
             match Workload.Mt_driver.output_sequence d ~thread:t with
             | [ bits ] ->
               Md5.Md5_ref.to_hex (Md5.Md5_ref.state_of_bits bits)
               = Md5.Md5_ref.to_hex (Md5.Md5_ref.digest_words msg)
             | _ -> false)
           (List.init (List.length msgs) Fun.id)
           msgs))

(* Multi-block: hash arbitrary-length messages (including unequal
   block counts across threads, which forces the host driver to feed
   dummy blocks so the barrier keeps releasing). *)
let test_multiblock kind () =
  let msgs =
    [ String.make 70 'a';
      String.concat "" (List.init 5 (fun i -> Printf.sprintf "block-%d-payload!" i));
      String.make 119 'x' ^ "tail, third block follows" ^ String.make 20 'y' ]
  in
  let threads = List.length msgs in
  let sim = Hw.Sim.create (Md5.Md5_circuit.circuit ~kind ~threads ()) in
  let digests = Md5.Md5_host.hash_messages ~limit:20000 sim msgs in
  List.iter2
    (fun msg got ->
      Alcotest.(check string)
        (Printf.sprintf "multiblock md5(%d bytes)" (String.length msg))
        (Md5.Md5_ref.digest msg) got)
    msgs digests

let test_multiblock_very_long () =
  (* A 1000-byte message: 16 chained blocks on one thread alongside a
     short message on the other. *)
  let msgs = [ String.init 1000 (fun i -> Char.chr (33 + (i mod 90))); "hi" ] in
  let sim =
    Hw.Sim.create (Md5.Md5_circuit.circuit ~kind:Melastic.Meb.Reduced ~threads:2 ())
  in
  let digests = Md5.Md5_host.hash_messages ~limit:50000 sim msgs in
  List.iter2
    (fun msg got -> Alcotest.(check string) "long message" (Md5.Md5_ref.digest msg) got)
    msgs digests

(* The drivers read [msg]'s ready before writing a cycle's inputs, so
   it must be a function of registered state: writing every input and
   settling leaves it as the last cycle left it. *)
let test_ready_reads_no_input kind () =
  let module N = Melastic.Names in
  let threads = 4 in
  let sim = Hw.Sim.create (Md5.Md5_circuit.circuit ~kind ~threads ()) in
  let valid = Hw.Sim.input_port sim (N.valid "msg")
  and data = Hw.Sim.input_port sim (N.data "msg")
  and digest_ready = Hw.Sim.input_port sim (N.ready "digest")
  and ready = Hw.Sim.signal_port sim (N.ready "msg") in
  let rng = Random.State.make [| 7 |] in
  let words = Array.make 20 0 in
  let injected = ref 0 in
  for cyc = 0 to 400 do
    let before = Hw.Sim.read_int ready in
    Array.iteri (fun j _ -> words.(j) <- Random.State.bits rng) words;
    Hw.Sim.write_words data words 0;
    Hw.Sim.write_int digest_ready (Random.State.int rng (1 lsl threads));
    let i = Random.State.int rng threads in
    if before land (1 lsl i) <> 0 then begin
      Hw.Sim.write_int valid (1 lsl i);
      incr injected
    end
    else Hw.Sim.write_int valid 0;
    Hw.Sim.settle sim;
    Alcotest.(check int)
      (Printf.sprintf "msg ready at cycle %d" cyc)
      before (Hw.Sim.read_int ready);
    Hw.Sim.cycle sim
  done;
  Alcotest.(check bool) "tokens entered" true (!injected > 0)

let kind_cases name f =
  List.map
    (fun kind ->
      Alcotest.test_case
        (Printf.sprintf "%s (%s)" name (Melastic.Meb.kind_to_string kind))
        `Quick (f kind))
    [ Melastic.Meb.Full; Melastic.Meb.Reduced ]

let suite =
  ( "md5",
    [ Alcotest.test_case "RFC 1321 vectors" `Quick test_rfc_vectors;
      Alcotest.test_case "T table" `Quick test_t_table;
      Alcotest.test_case "padding" `Quick test_padding;
      Alcotest.test_case "block bits roundtrip" `Quick test_block_roundtrip ]
    @ kind_cases "circuit 1 thread" test_circuit_single_thread_kind
    @ kind_cases "circuit 4 threads" test_circuit_multi_thread_kind
    @ kind_cases "circuit 3 batches" test_circuit_batches_kind
    @ kind_cases "multi-block chaining" test_multiblock
    @ [ Alcotest.test_case "multi-block 1000 bytes" `Quick test_multiblock_very_long;
        Alcotest.test_case "circuit 8 threads (paper config)" `Quick
          test_circuit_eight_threads;
        prop_circuit_matches_reference;
        prop_fill_block_matches_padded_blocks;
        Alcotest.test_case "fill_block errors" `Quick test_fill_block_errors;
        prop_hex_of_words ]
    @ kind_cases "msg ready reads no input" test_ready_reads_no_input )
