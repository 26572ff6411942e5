(* Bit vectors as little-endian arrays of 32-bit limbs stored in OCaml
   ints.  The top limb is kept masked so that structural equality of the
   limb arrays coincides with value equality. *)

let limb_bits = 32
let limb_mask = (1 lsl limb_bits) - 1

type t = { width : int; limbs : int array }

let width t = t.width

let limbs_for w = (w + limb_bits - 1) / limb_bits

(* Mask of valid bits in the top limb of a vector of width [w]. *)
let top_mask w =
  let r = w mod limb_bits in
  if r = 0 then limb_mask else (1 lsl r) - 1

let check_width w = if w < 1 then invalid_arg "Bits: width must be >= 1"

let zero w =
  check_width w;
  { width = w; limbs = Array.make (limbs_for w) 0 }

let normalize t =
  let n = Array.length t.limbs in
  t.limbs.(n - 1) <- t.limbs.(n - 1) land top_mask t.width;
  t

let ones w =
  check_width w;
  let t = { width = w; limbs = Array.make (limbs_for w) limb_mask } in
  normalize t

let of_int ~width:w n =
  check_width w;
  if n < 0 then invalid_arg "Bits.of_int: negative";
  let t = zero w in
  let rec fill i n = if n <> 0 && i < Array.length t.limbs then begin
      t.limbs.(i) <- n land limb_mask;
      fill (i + 1) (n lsr limb_bits)
    end
  in
  fill 0 n;
  normalize t

let of_int_trunc ~width:w n =
  check_width w;
  let t = zero w in
  (* Two's-complement view of [n]: replicate the int across limbs using
     arithmetic shifts so the sign extends naturally. *)
  let rec fill i n =
    if i < Array.length t.limbs then begin
      t.limbs.(i) <- n land limb_mask;
      fill (i + 1) (n asr limb_bits)
    end
  in
  fill 0 n;
  normalize t

let to_int t =
  (* The value fits iff every bit at position >= Sys.int_size - 1 is 0. *)
  let n = Array.length t.limbs in
  for i = 0 to t.width - 1 do
    if i >= Sys.int_size - 1
       && t.limbs.(i / limb_bits) land (1 lsl (i mod limb_bits)) <> 0
    then failwith "Bits.to_int: does not fit"
  done;
  let acc = ref 0 in
  for i = n - 1 downto 0 do
    if i * limb_bits < Sys.int_size - 1 then acc := (!acc lsl limb_bits) lor t.limbs.(i)
  done;
  !acc

let to_int_trunc t =
  let n = Array.length t.limbs in
  let acc = ref 0 in
  let max_limbs = (Sys.int_size - 1 + limb_bits - 1) / limb_bits in
  for i = min (n - 1) (max_limbs - 1) downto 0 do
    acc := (!acc lsl limb_bits) lor t.limbs.(i)
  done;
  !acc land max_int

let of_bool b = of_int ~width:1 (if b then 1 else 0)
let vdd = of_bool true
let gnd = of_bool false

let is_zero t = Array.for_all (fun l -> l = 0) t.limbs
let to_bool t = not (is_zero t)

let bit t i =
  if i < 0 || i >= t.width then invalid_arg "Bits.bit: index out of range";
  t.limbs.(i / limb_bits) land (1 lsl (i mod limb_bits)) <> 0

let set_bit t i b =
  if i < 0 || i >= t.width then invalid_arg "Bits.set_bit: index out of range";
  let limbs = Array.copy t.limbs in
  let j = i / limb_bits and m = 1 lsl (i mod limb_bits) in
  limbs.(j) <- (if b then limbs.(j) lor m else limbs.(j) land lnot m);
  { t with limbs }

let popcount t =
  let count_limb l =
    let rec go l acc = if l = 0 then acc else go (l lsr 1) (acc + (l land 1)) in
    go l 0
  in
  Array.fold_left (fun acc l -> acc + count_limb l) 0 t.limbs

let popcount_int n =
  let rec go n acc = if n = 0 then acc else go (n land (n - 1)) (acc + 1) in
  go n 0

let of_binary_string s =
  let s = String.concat "" (String.split_on_char '_' s) in
  let w = String.length s in
  check_width w;
  let t = zero w in
  String.iteri
    (fun i c ->
      let bit_index = w - 1 - i in
      match c with
      | '0' -> ()
      | '1' ->
        t.limbs.(bit_index / limb_bits)
        <- t.limbs.(bit_index / limb_bits) lor (1 lsl (bit_index mod limb_bits))
      | _ -> invalid_arg "Bits.of_binary_string: bad character")
    s;
  t

let hex_digit c =
  match c with
  | '0' .. '9' -> Char.code c - Char.code '0'
  | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
  | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
  | _ -> invalid_arg "Bits: bad hex character"

let of_hex_string ~width:w s =
  check_width w;
  let s = String.concat "" (String.split_on_char '_' s) in
  let t = zero w in
  let n = String.length s in
  for i = 0 to n - 1 do
    let d = hex_digit s.[n - 1 - i] in
    for b = 0 to 3 do
      let bit_index = (i * 4) + b in
      if bit_index < w && d land (1 lsl b) <> 0 then
        t.limbs.(bit_index / limb_bits)
        <- t.limbs.(bit_index / limb_bits) lor (1 lsl (bit_index mod limb_bits))
    done
  done;
  t

let to_binary_string t =
  String.init t.width (fun i -> if bit t (t.width - 1 - i) then '1' else '0')

let to_hex_string t =
  let digits = (t.width + 3) / 4 in
  String.init digits (fun i ->
      let lo = (digits - 1 - i) * 4 in
      let d = ref 0 in
      for b = 3 downto 0 do
        d := !d * 2;
        if lo + b < t.width && bit t (lo + b) then incr d
      done;
      "0123456789abcdef".[!d])

let same_width op a b =
  if a.width <> b.width then
    invalid_arg (Printf.sprintf "Bits.%s: width mismatch (%d vs %d)" op a.width b.width)

let map2 op f a b =
  same_width op a b;
  { width = a.width; limbs = Array.map2 f a.limbs b.limbs }

let logand a b = map2 "logand" ( land ) a b
let logor a b = map2 "logor" ( lor ) a b
let logxor a b = map2 "logxor" ( lxor ) a b

let lnot a = normalize { a with limbs = Array.map (fun l -> lnot l land limb_mask) a.limbs }

let add a b =
  same_width "add" a b;
  let n = Array.length a.limbs in
  let limbs = Array.make n 0 in
  let carry = ref 0 in
  for i = 0 to n - 1 do
    let s = a.limbs.(i) + b.limbs.(i) + !carry in
    limbs.(i) <- s land limb_mask;
    carry := s lsr limb_bits
  done;
  normalize { width = a.width; limbs }

let neg a = add (lnot a) (of_int ~width:a.width 1)
let sub a b = same_width "sub" a b; add a (neg b)
let succ a = add a (of_int ~width:a.width 1)

let equal a b = a.width = b.width && a.limbs = b.limbs

let compare a b =
  same_width "compare" a b;
  let rec go i =
    if i < 0 then 0
    else if a.limbs.(i) < b.limbs.(i) then -1
    else if a.limbs.(i) > b.limbs.(i) then 1
    else go (i - 1)
  in
  go (Array.length a.limbs - 1)

let ult a b = compare a b < 0
let ule a b = compare a b <= 0

let msb t = bit t (t.width - 1)

let slt a b =
  same_width "slt" a b;
  match msb a, msb b with
  | true, false -> true
  | false, true -> false
  | _ -> ult a b

let sle a b = slt a b || equal a b

let shift_left t k =
  if k < 0 then invalid_arg "Bits.shift_left: negative amount";
  if k = 0 then t
  else if k >= t.width then zero t.width
  else begin
    let r = zero t.width in
    for i = t.width - 1 downto k do
      if bit t (i - k) then
        r.limbs.(i / limb_bits) <- r.limbs.(i / limb_bits) lor (1 lsl (i mod limb_bits))
    done;
    r
  end

let shift_right_logical t k =
  if k < 0 then invalid_arg "Bits.shift_right_logical: negative amount";
  if k = 0 then t
  else if k >= t.width then zero t.width
  else begin
    let r = zero t.width in
    for i = 0 to t.width - 1 - k do
      if bit t (i + k) then
        r.limbs.(i / limb_bits) <- r.limbs.(i / limb_bits) lor (1 lsl (i mod limb_bits))
    done;
    r
  end

let shift_right_arith t k =
  if k < 0 then invalid_arg "Bits.shift_right_arith: negative amount";
  let sign = msb t in
  let k = min k t.width in
  let r = shift_right_logical t (min k (t.width - 1)) in
  let r = if k >= t.width then zero t.width else r in
  if not sign then r
  else begin
    let r = { r with limbs = Array.copy r.limbs } in
    for i = max 0 (t.width - k) to t.width - 1 do
      r.limbs.(i / limb_bits) <- r.limbs.(i / limb_bits) lor (1 lsl (i mod limb_bits))
    done;
    r
  end

let rotate_left t k =
  let k = ((k mod t.width) + t.width) mod t.width in
  if k = 0 then t else logor (shift_left t k) (shift_right_logical t (t.width - k))

let rotate_right t k = rotate_left t (t.width - (((k mod t.width) + t.width) mod t.width))

let select t ~hi ~lo =
  if lo < 0 || hi >= t.width || hi < lo then
    invalid_arg
      (Printf.sprintf "Bits.select: bad range [%d:%d] of width %d" hi lo t.width);
  let w = hi - lo + 1 in
  let r = zero w in
  (* Limb-wise: each result limb is one source limb shifted down, plus
     the spill-over of the next. *)
  let off = lo / limb_bits and sh = lo mod limb_bits in
  let ns = Array.length t.limbs in
  for i = 0 to Array.length r.limbs - 1 do
    let v = t.limbs.(off + i) lsr sh in
    let v =
      if sh > 0 && off + i + 1 < ns then
        v lor ((t.limbs.(off + i + 1) lsl (limb_bits - sh)) land limb_mask)
      else v
    in
    r.limbs.(i) <- v
  done;
  normalize r

let concat = function
  | [] -> invalid_arg "Bits.concat: empty list"
  | parts ->
    let w = List.fold_left (fun acc p -> acc + p.width) 0 parts in
    let r = zero w in
    (* Walk from the least-significant part (last in list) upwards,
       OR-ing each part's limbs in at its bit offset. *)
    let pos = ref 0 in
    List.iter
      (fun p ->
        let off = !pos / limb_bits and sh = !pos mod limb_bits in
        let nr = Array.length r.limbs in
        Array.iteri
          (fun i v ->
            r.limbs.(off + i) <- r.limbs.(off + i) lor ((v lsl sh) land limb_mask);
            if sh > 0 && off + i + 1 < nr then
              r.limbs.(off + i + 1) <-
                r.limbs.(off + i + 1) lor (v lsr (limb_bits - sh)))
          p.limbs;
        pos := !pos + p.width)
      (List.rev parts);
    r

(* In-place field builders: OR a value into an all-zero region of [t]
   at bit offset [pos].  These exist for the simulator backends, which
   assemble wide concatenations field-by-field without boxing each
   narrow part as a [t] first; the result must not escape to callers
   until every field is in place (our [t]s are immutable by
   convention). *)

let or_int_into t ~pos ~width v =
  let off = pos / limb_bits and sh = pos mod limb_bits in
  let v = v land ((1 lsl width) - 1) in
  t.limbs.(off) <- t.limbs.(off) lor ((v lsl sh) land limb_mask);
  let v = ref (v lsr (limb_bits - sh)) in
  let off = ref off in
  while !v <> 0 do
    incr off;
    t.limbs.(!off) <- t.limbs.(!off) lor (!v land limb_mask);
    v := !v lsr limb_bits
  done

let or_bits_into t ~pos src =
  let off = pos / limb_bits and sh = pos mod limb_bits in
  let nr = Array.length t.limbs in
  Array.iteri
    (fun i v ->
      t.limbs.(off + i) <- t.limbs.(off + i) lor ((v lsl sh) land limb_mask);
      if sh > 0 && off + i + 1 < nr then
        t.limbs.(off + i + 1) <-
          t.limbs.(off + i + 1) lor (v lsr (limb_bits - sh)))
    src.limbs

let uresize t w =
  check_width w;
  if w = t.width then t
  else if w < t.width then select t ~hi:(w - 1) ~lo:0
  else begin
    let r = zero w in
    Array.blit t.limbs 0 r.limbs 0 (Array.length t.limbs);
    normalize r
  end

let sresize t w =
  check_width w;
  if w <= t.width then uresize t w
  else if not (msb t) then uresize t w
  else begin
    let r = { width = w; limbs = Array.make (limbs_for w) limb_mask } in
    Array.blit t.limbs 0 r.limbs 0 (Array.length t.limbs);
    (* Re-set the sign-extension bits that sit inside the old top limb. *)
    let top = Array.length t.limbs - 1 in
    r.limbs.(top) <- t.limbs.(top) lor (limb_mask land Stdlib.lnot (top_mask t.width));
    normalize r
  end

let repeat t n =
  if n < 1 then invalid_arg "Bits.repeat: count must be >= 1";
  concat (List.init n (fun _ -> t))

let split_lsb ~part_width t =
  if part_width < 1 || t.width mod part_width <> 0 then
    invalid_arg "Bits.split_lsb: width not a multiple of part_width";
  List.init (t.width / part_width) (fun i ->
      select t ~hi:(((i + 1) * part_width) - 1) ~lo:(i * part_width))

(* Schoolbook multiply over the 32-bit limbs, into one result array.
   A limb product needs 64 bits, more than an OCaml int holds, so it is
   built from four 16-bit half products: [lo] and [hi] land at bit 0
   and bit 32 of the limb pair, the two cross terms (summed, < 2^33) at
   bit 16.  The running carry stays below 2^32: a row step adds at most
   (2^32-1) + (2^32-1)^2 + (2^32-1) < 2^64 to the pair.  The full
   product fits in [width a + width b] bits, so a carry out of the last
   row lands in a limb that exists or is zero, and the top limb comes
   out normalized. *)
let mul a b =
  let w = a.width + b.width in
  let r = Array.make (limbs_for w) 0 in
  let nr = Array.length r and nb = Array.length b.limbs in
  for i = 0 to Array.length a.limbs - 1 do
    let ai = a.limbs.(i) in
    if ai <> 0 then begin
      let al = ai land 0xffff and ah = ai lsr 16 in
      let carry = ref 0 in
      for j = 0 to nb - 1 do
        let bj = b.limbs.(j) in
        let bl = bj land 0xffff and bh = bj lsr 16 in
        let mid = (al * bh) + (ah * bl) in
        let t = r.(i + j) + (al * bl) + ((mid land 0xffff) lsl 16) + !carry in
        r.(i + j) <- t land limb_mask;
        carry := (t lsr limb_bits) + (mid lsr 16) + (ah * bh)
      done;
      if i + nb < nr then r.(i + nb) <- !carry
    end
  done;
  { width = w; limbs = r }

let mul_trunc a b =
  same_width "mul_trunc" a b;
  uresize (mul a b) a.width

let random st ~width:w =
  check_width w;
  let t = zero w in
  for i = 0 to Array.length t.limbs - 1 do
    (* [Random.State.int] only accepts bounds below 2^30 (and 2^32 does
       not even fit an int on 32-bit platforms), so draw each 32-bit
       limb as two independent 16-bit halves of [Random.State.bits]. *)
    let lo = Random.State.bits st land 0xffff in
    let hi = Random.State.bits st land 0xffff in
    t.limbs.(i) <- (hi lsl 16) lor lo
  done;
  normalize t

(* ---- Unboxed-int fast path (used by the compiled simulator) ----

   Vectors of width <= [max_int_width] fit losslessly in a non-negative
   OCaml int ([max_int_width] bits use at most bit positions
   0 .. Sys.int_size - 2, so the sign bit is never touched). *)

let max_int_width = Sys.int_size - 1

let to_int_exn t =
  if t.width > max_int_width then
    invalid_arg
      (Printf.sprintf "Bits.to_int_exn: width %d exceeds int fast path (%d)"
         t.width max_int_width);
  let acc = ref 0 in
  for i = Array.length t.limbs - 1 downto 0 do
    acc := (!acc lsl limb_bits) lor t.limbs.(i)
  done;
  !acc

let select_int t ~hi ~lo =
  if lo < 0 || hi >= t.width || hi < lo then
    invalid_arg
      (Printf.sprintf "Bits.select_int: bad range [%d:%d] of width %d" hi lo t.width);
  let w = hi - lo + 1 in
  if w > max_int_width then
    invalid_arg
      (Printf.sprintf "Bits.select_int: slice width %d exceeds int fast path (%d)"
         w max_int_width);
  (* At most three limbs cover a [max_int_width]-bit slice; gather them
     directly.  [got2 = 2 * limb_bits - sh] is only reached when
     [w > got2], which (with [w <= max_int_width]) bounds the shift
     below [Sys.int_size]. *)
  let off = lo / limb_bits and sh = lo mod limb_bits in
  let v = ref (t.limbs.(off) lsr sh) in
  let got = limb_bits - sh in
  if w > got then begin
    v := !v lor (t.limbs.(off + 1) lsl got);
    let got2 = got + limb_bits in
    if w > got2 then v := !v lor (t.limbs.(off + 2) lsl got2)
  end;
  !v land ((1 lsl w) - 1)

let limb_width = limb_bits

(* Raw limb read, no bounds check: generated simulator kernels lower
   limb-aligned lane extracts (the dominant select shape on 32-bit
   datapaths) to a single load through this.  [i] must be within the
   limb array; the value is exact because limbs are kept normalized. *)
let get_limb t i = Array.unsafe_get t.limbs i

(* The constructor counterpart of [get_limb]: adopt a limb array the
   caller built and will not touch again.  Generated kernels emit wide
   concatenations and selects as one array literal of limb
   expressions, so the vector costs a single allocation and no fill.
   No check: the array must have [limbs_for width] normalized limbs. *)
let unsafe_of_limbs ~width limbs = { width; limbs }

let to_string t = Printf.sprintf "%d'h%s" t.width (to_hex_string t)
let pp fmt t = Format.pp_print_string fmt (to_string t)
