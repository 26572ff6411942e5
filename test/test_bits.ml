(* Unit and property tests for the Bits bit-vector substrate. *)

let check_bits msg expected actual =
  Alcotest.(check string) msg (Bits.to_string expected) (Bits.to_string actual)

let test_of_int_roundtrip () =
  List.iter
    (fun (w, n) -> Alcotest.(check int) "roundtrip" n Bits.(to_int (of_int ~width:w n)))
    [ (1, 0); (1, 1); (8, 255); (8, 0); (13, 4097); (32, 0xdeadbeef); (62, max_int / 2) ]

let test_of_int_trunc () =
  Alcotest.(check int) "-1 trunc 8" 255 Bits.(to_int (of_int_trunc ~width:8 (-1)));
  Alcotest.(check int) "-2 trunc 4" 14 Bits.(to_int (of_int_trunc ~width:4 (-2)));
  Alcotest.(check int) "-1 trunc 64" 0xff
    Bits.(to_int (select (of_int_trunc ~width:64 (-1)) ~hi:7 ~lo:0))

let test_binary_string () =
  Alcotest.(check string) "to_binary" "01011"
    (Bits.to_binary_string (Bits.of_int ~width:5 11));
  Alcotest.(check int) "of_binary" 11 (Bits.to_int (Bits.of_binary_string "01011"));
  Alcotest.(check int) "underscores" 11 (Bits.to_int (Bits.of_binary_string "0_10_11"))

let test_hex_string () =
  Alcotest.(check string) "to_hex" "beef"
    (Bits.to_hex_string (Bits.of_int ~width:16 0xbeef));
  Alcotest.(check string) "to_hex odd width" "1f"
    (Bits.to_hex_string (Bits.of_int ~width:5 31));
  Alcotest.(check int) "of_hex" 0xbeef
    (Bits.to_int (Bits.of_hex_string ~width:16 "beef"));
  Alcotest.(check int) "of_hex extend" 0xff
    (Bits.to_int (Bits.of_hex_string ~width:32 "ff"))

let test_add_carries () =
  check_bits "carry across limb" (Bits.of_int ~width:40 0x100000000)
    (Bits.add (Bits.of_int ~width:40 0xffffffff) (Bits.of_int ~width:40 1));
  check_bits "wraps" (Bits.zero 8)
    (Bits.add (Bits.of_int ~width:8 255) (Bits.of_int ~width:8 1))

let test_sub_neg () =
  check_bits "sub" (Bits.of_int ~width:8 254)
    (Bits.sub (Bits.of_int ~width:8 1) (Bits.of_int ~width:8 3));
  check_bits "neg" (Bits.of_int ~width:4 13) (Bits.neg (Bits.of_int ~width:4 3))

let test_mul () =
  Alcotest.(check int) "mul widths" 16
    (Bits.width (Bits.mul (Bits.of_int ~width:8 7) (Bits.of_int ~width:8 9)));
  Alcotest.(check int) "mul value" 63
    (Bits.to_int (Bits.mul (Bits.of_int ~width:8 7) (Bits.of_int ~width:8 9)));
  Alcotest.(check int) "mul_trunc" (7 * 9 mod 16)
    (Bits.to_int (Bits.mul_trunc (Bits.of_int ~width:4 7) (Bits.of_int ~width:4 9)))

let test_logic () =
  let a = Bits.of_int ~width:8 0b1100_1010 and b = Bits.of_int ~width:8 0b1010_0110 in
  Alcotest.(check int) "and" 0b1000_0010 (Bits.to_int (Bits.logand a b));
  Alcotest.(check int) "or" 0b1110_1110 (Bits.to_int (Bits.logor a b));
  Alcotest.(check int) "xor" 0b0110_1100 (Bits.to_int (Bits.logxor a b));
  Alcotest.(check int) "not" 0b0011_0101 (Bits.to_int (Bits.lnot a))

let test_shifts () =
  let v = Bits.of_int ~width:8 0b1001_0110 in
  Alcotest.(check int) "sll" 0b0101_1000 (Bits.to_int (Bits.shift_left v 2));
  Alcotest.(check int) "srl" 0b0010_0101 (Bits.to_int (Bits.shift_right_logical v 2));
  Alcotest.(check int) "sra" 0b1110_0101 (Bits.to_int (Bits.shift_right_arith v 2));
  Alcotest.(check int) "sra positive" 1
    (Bits.to_int (Bits.shift_right_arith (Bits.of_int ~width:8 0b0100_0000) 6));
  Alcotest.(check int) "sll overflow" 0 (Bits.to_int (Bits.shift_left v 8));
  Alcotest.(check int) "sra overflow" 255 (Bits.to_int (Bits.shift_right_arith v 9))

let test_rotates () =
  let v = Bits.of_int ~width:8 0b1001_0110 in
  Alcotest.(check int) "rotl" 0b0101_1010 (Bits.to_int (Bits.rotate_left v 2));
  Alcotest.(check int) "rotr" 0b1010_0101 (Bits.to_int (Bits.rotate_right v 2));
  check_bits "rotl full" v (Bits.rotate_left v 8);
  check_bits "rotl neg" (Bits.rotate_right v 3) (Bits.rotate_left v (-3))

let test_concat_select () =
  let a = Bits.of_int ~width:4 0xa and b = Bits.of_int ~width:8 0xbc in
  let c = Bits.concat [ a; b ] in
  Alcotest.(check int) "concat width" 12 (Bits.width c);
  Alcotest.(check int) "concat value" 0xabc (Bits.to_int c);
  Alcotest.(check int) "select hi" 0xa (Bits.to_int (Bits.select c ~hi:11 ~lo:8));
  Alcotest.(check int) "select lo" 0xbc (Bits.to_int (Bits.select c ~hi:7 ~lo:0));
  Alcotest.(check int) "select mid" 0xb (Bits.to_int (Bits.select c ~hi:7 ~lo:4))

let test_resize () =
  let v = Bits.of_int ~width:4 0b1010 in
  Alcotest.(check int) "uresize up" 0b1010 (Bits.to_int (Bits.uresize v 8));
  Alcotest.(check int) "sresize up" 0b1111_1010 (Bits.to_int (Bits.sresize v 8));
  Alcotest.(check int) "sresize pos" 0b0101 (Bits.to_int (Bits.sresize (Bits.of_int ~width:4 0b0101) 8));
  Alcotest.(check int) "uresize down" 0b10 (Bits.to_int (Bits.uresize v 2));
  (* Sign extension across a limb boundary. *)
  let w = Bits.sresize (Bits.of_int ~width:4 0b1000) 40 in
  Alcotest.(check string) "sresize wide" "fffffffff8" (Bits.to_hex_string w)

let test_compare () =
  let f w a b = Bits.(ult (of_int ~width:w a) (of_int ~width:w b)) in
  Alcotest.(check bool) "ult" true (f 8 3 5);
  Alcotest.(check bool) "ult eq" false (f 8 5 5);
  let s w a b = Bits.(slt (of_int_trunc ~width:w a) (of_int_trunc ~width:w b)) in
  Alcotest.(check bool) "slt neg" true (s 8 (-3) 2);
  Alcotest.(check bool) "slt both neg" true (s 8 (-3) (-2));
  Alcotest.(check bool) "slt pos" false (s 8 2 (-3))

let test_bit_ops () =
  let v = Bits.of_int ~width:70 0 in
  let v = Bits.set_bit v 69 true in
  Alcotest.(check bool) "bit 69" true (Bits.bit v 69);
  Alcotest.(check bool) "bit 0" false (Bits.bit v 0);
  Alcotest.(check int) "popcount" 1 (Bits.popcount v);
  Alcotest.(check int) "popcount ones" 70 (Bits.popcount (Bits.ones 70))

let test_split () =
  let v = Bits.of_int ~width:12 0xabc in
  match Bits.split_lsb ~part_width:4 v with
  | [ a; b; c ] ->
    Alcotest.(check int) "lsb part" 0xc (Bits.to_int a);
    Alcotest.(check int) "mid part" 0xb (Bits.to_int b);
    Alcotest.(check int) "msb part" 0xa (Bits.to_int c)
  | _ -> Alcotest.fail "expected 3 parts"

let test_invalid () =
  Alcotest.check_raises "width 0" (Invalid_argument "Bits: width must be >= 1")
    (fun () -> ignore (Bits.zero 0));
  (try
     ignore (Bits.add (Bits.zero 4) (Bits.zero 5));
     Alcotest.fail "expected width mismatch"
   with Invalid_argument _ -> ());
  (try
     ignore (Bits.select (Bits.zero 4) ~hi:4 ~lo:0);
     Alcotest.fail "expected select range error"
   with Invalid_argument _ -> ())

(* Property tests against OCaml int semantics on widths <= 30. *)

let arb_width_value =
  QCheck.make
    ~print:(fun (w, n) -> Printf.sprintf "(w=%d, n=%d)" w n)
    QCheck.Gen.(
      int_range 1 30 >>= fun w ->
      int_bound ((1 lsl w) - 1) >>= fun n -> return (w, n))

let arb_pair_same_width =
  QCheck.make
    ~print:(fun (w, a, b) -> Printf.sprintf "(w=%d, a=%d, b=%d)" w a b)
    QCheck.Gen.(
      int_range 1 30 >>= fun w ->
      int_bound ((1 lsl w) - 1) >>= fun a ->
      int_bound ((1 lsl w) - 1) >>= fun b -> return (w, a, b))

let prop name arb f = QCheck_alcotest.to_alcotest (QCheck.Test.make ~count:500 ~name arb f)

let properties =
  [ prop "add matches int" arb_pair_same_width (fun (w, a, b) ->
        Bits.(to_int (add (of_int ~width:w a) (of_int ~width:w b)))
        = (a + b) land ((1 lsl w) - 1));
    prop "sub matches int" arb_pair_same_width (fun (w, a, b) ->
        Bits.(to_int (sub (of_int ~width:w a) (of_int ~width:w b)))
        = (a - b) land ((1 lsl w) - 1));
    prop "logic matches int" arb_pair_same_width (fun (w, a, b) ->
        Bits.(to_int (logand (of_int ~width:w a) (of_int ~width:w b))) = a land b
        && Bits.(to_int (logor (of_int ~width:w a) (of_int ~width:w b))) = a lor b
        && Bits.(to_int (logxor (of_int ~width:w a) (of_int ~width:w b))) = a lxor b);
    prop "ult matches int" arb_pair_same_width (fun (w, a, b) ->
        Bits.(ult (of_int ~width:w a) (of_int ~width:w b)) = (a < b));
    prop "binary string roundtrip" arb_width_value (fun (w, n) ->
        let v = Bits.of_int ~width:w n in
        Bits.equal v (Bits.of_binary_string (Bits.to_binary_string v)));
    prop "hex string roundtrip" arb_width_value (fun (w, n) ->
        let v = Bits.of_int ~width:w n in
        Bits.equal v (Bits.of_hex_string ~width:w (Bits.to_hex_string v)));
    prop "double negation" arb_width_value (fun (w, n) ->
        let v = Bits.of_int ~width:w n in
        Bits.equal v (Bits.neg (Bits.neg v)));
    prop "not involutive" arb_width_value (fun (w, n) ->
        let v = Bits.of_int ~width:w n in
        Bits.equal v (Bits.lnot (Bits.lnot v)));
    prop "concat select inverse" arb_pair_same_width (fun (w, a, b) ->
        let va = Bits.of_int ~width:w a and vb = Bits.of_int ~width:w b in
        let c = Bits.concat [ va; vb ] in
        Bits.equal va (Bits.select c ~hi:((2 * w) - 1) ~lo:w)
        && Bits.equal vb (Bits.select c ~hi:(w - 1) ~lo:0));
    prop "shift left then right" arb_width_value (fun (w, n) ->
        let v = Bits.of_int ~width:w n in
        let k = n mod (w + 1) in
        let back = Bits.(shift_right_logical (shift_left v k) k) in
        (* Low bits survive; high k bits were discarded. *)
        if k >= w then Bits.is_zero back
        else Bits.equal back (Bits.logand v (Bits.shift_right_logical (Bits.ones w) k)));
    prop "rotate roundtrip" arb_width_value (fun (w, n) ->
        let v = Bits.of_int ~width:w n in
        let k = n mod (w + 3) in
        Bits.equal v (Bits.rotate_right (Bits.rotate_left v k) k));
    prop "mul matches int (small widths)" arb_pair_same_width (fun (w, a, b) ->
        if w > 15 then true
        else
          Bits.(to_int (mul (of_int ~width:w a) (of_int ~width:w b))) = a * b);
    prop "mul_trunc matches int" arb_pair_same_width (fun (w, a, b) ->
        Bits.(to_int (mul_trunc (of_int ~width:w a) (of_int ~width:w b)))
        = a * b land ((1 lsl w) - 1));
    prop "compare is a total order" arb_pair_same_width (fun (w, a, b) ->
        let va = Bits.of_int ~width:w a and vb = Bits.of_int ~width:w b in
        (compare a b < 0) = Bits.(ult va vb)
        && (a = b) = Bits.equal va vb);
    prop "sresize preserves signed value" arb_width_value (fun (w, n) ->
        let v = Bits.of_int ~width:w n in
        let signed = if n land (1 lsl (w - 1)) <> 0 then n - (1 lsl w) else n in
        let wide = Bits.sresize v 40 in
        Bits.to_int (Bits.select wide ~hi:(w - 1) ~lo:0) = n
        && Bits.equal wide (Bits.of_int_trunc ~width:40 signed));
    prop "split/concat roundtrip" arb_width_value (fun (w, n) ->
        let v = Bits.of_int ~width:(4 * w) (n * 7 mod (1 lsl (min 30 (4 * w)))) in
        let parts = Bits.split_lsb ~part_width:w v in
        Bits.equal v (Bits.concat (List.rev parts)));
    prop "add commutes and associates" arb_pair_same_width (fun (w, a, b) ->
        let va = Bits.of_int ~width:w a and vb = Bits.of_int ~width:w b in
        Bits.equal (Bits.add va vb) (Bits.add vb va)
        && Bits.equal
             (Bits.add (Bits.add va vb) va)
             (Bits.add va (Bits.add vb va)));
    prop "popcount of xor" arb_pair_same_width (fun (w, a, b) ->
        let va = Bits.of_int ~width:w a and vb = Bits.of_int ~width:w b in
        Bits.popcount (Bits.logxor va vb)
        = Bits.popcount va + Bits.popcount vb - (2 * Bits.popcount (Bits.logand va vb)))
  ]

let test_random () =
  (* Regression: [random] used to raise [Invalid_argument] for any
     multi-limb value because it asked [Random.State.int] for a full
     2^32 bound (the limit is 2^30).  It must never raise, must return
     values of the requested width, and must normalize (mask) the top
     limb so structural equality works. *)
  let st = Random.State.make [| 7 |] in
  List.iter
    (fun w ->
      for _ = 1 to 20 do
        let v = Bits.random st ~width:w in
        Alcotest.(check int) "width" w (Bits.width v);
        Alcotest.(check bool)
          (Printf.sprintf "normalized at width %d" w)
          true
          (Bits.equal v (Bits.select v ~hi:(w - 1) ~lo:0))
      done)
    [ 1; 7; 30; 31; 32; 33; 62; 63; 64; 127; 128; 200 ];
  (* Sanity that the draws are not degenerate: a 1-bit draw produces a
     one, and a 128-bit draw populates the high limbs, within a few
     hundred attempts. *)
  let eventually p w =
    let rec go n = n < 200 && (p (Bits.random st ~width:w) || go (n + 1)) in
    go 0
  in
  Alcotest.(check bool) "ones appear" true
    (eventually (fun v -> Bits.to_int v = 1) 1);
  Alcotest.(check bool) "high limbs populated" true
    (eventually (fun v -> Bits.popcount (Bits.select v ~hi:127 ~lo:96) > 0) 128)

let test_int_fast_path () =
  (* [to_int_exn] and [select_int] back the compiled simulator's
     unboxed-int value domain. *)
  Alcotest.(check int) "to_int_exn" 0xdead_beef
    (Bits.to_int_exn (Bits.of_int ~width:62 0xdead_beef));
  Alcotest.(check bool) "to_int_exn rejects wide" true
    (try
       ignore (Bits.to_int_exn (Bits.zero 128));
       false
     with Invalid_argument _ -> true);
  let st = Random.State.make [| 11 |] in
  for _ = 1 to 100 do
    let v = Bits.random st ~width:150 in
    let lo = Random.int 150 in
    let hi = min 149 (lo + Random.int (Bits.max_int_width - 1)) in
    Alcotest.(check int)
      (Printf.sprintf "select_int [%d:%d]" hi lo)
      (Bits.to_int_exn (Bits.select v ~hi ~lo))
      (Bits.select_int v ~hi ~lo)
  done

(* [Bits.mul] against the textbook shift-and-add product, kept here as
   the reference: one shifted copy of [a] per set bit of [b].  Widths
   1-200 cover single limbs, limb boundaries and products of several
   limbs; each operand is random, zero or all ones (the carry-heaviest
   case) a third of the time each. *)
let mul_reference a b =
  let w = Bits.width a + Bits.width b in
  let a' = Bits.uresize a w in
  let acc = ref (Bits.zero w) in
  for i = 0 to Bits.width b - 1 do
    if Bits.bit b i then acc := Bits.add !acc (Bits.shift_left a' i)
  done;
  !acc

let arb_mul_operands =
  let operand st =
    let w = 1 + Random.State.int st 200 in
    match Random.State.int st 3 with
    | 0 -> Bits.zero w
    | 1 -> Bits.ones w
    | _ -> Bits.random st ~width:w
  in
  QCheck.make
    ~print:(fun (a, b) -> Bits.to_string a ^ " * " ^ Bits.to_string b)
    (fun st ->
      let a = operand st in
      (a, operand st))

let prop_mul_matches_reference =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:1000 ~name:"mul matches shift-and-add"
       arb_mul_operands (fun (a, b) -> Bits.equal (Bits.mul a b) (mul_reference a b)))

let suite =
  ( "bits",
    [ Alcotest.test_case "random never raises" `Quick test_random;
      Alcotest.test_case "int fast path" `Quick test_int_fast_path;
      Alcotest.test_case "of_int roundtrip" `Quick test_of_int_roundtrip;
      Alcotest.test_case "of_int_trunc" `Quick test_of_int_trunc;
      Alcotest.test_case "binary strings" `Quick test_binary_string;
      Alcotest.test_case "hex strings" `Quick test_hex_string;
      Alcotest.test_case "add carries" `Quick test_add_carries;
      Alcotest.test_case "sub and neg" `Quick test_sub_neg;
      Alcotest.test_case "mul" `Quick test_mul;
      Alcotest.test_case "logic" `Quick test_logic;
      Alcotest.test_case "shifts" `Quick test_shifts;
      Alcotest.test_case "rotates" `Quick test_rotates;
      Alcotest.test_case "concat/select" `Quick test_concat_select;
      Alcotest.test_case "resize" `Quick test_resize;
      Alcotest.test_case "compare" `Quick test_compare;
      Alcotest.test_case "bit ops wide" `Quick test_bit_ops;
      Alcotest.test_case "split_lsb" `Quick test_split;
      Alcotest.test_case "invalid args" `Quick test_invalid ]
    @ properties
    @ [ prop_mul_matches_reference ] )
