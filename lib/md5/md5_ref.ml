(* Reference MD5 (RFC 1321), pure OCaml over 32-bit words kept in
   OCaml ints.  Used as the golden model for the circuit and for the
   test vectors. *)

let mask32 = 0xffffffff

(* T[i] = floor(|sin(i+1)| * 2^32), computed as the RFC defines it. *)
let t_table =
  Array.init 64 (fun i ->
      Int64.to_int (Int64.of_float (Float.abs (sin (float_of_int (i + 1))) *. 4294967296.0))
      land mask32)

let s_table =
  [| 7; 12; 17; 22; 7; 12; 17; 22; 7; 12; 17; 22; 7; 12; 17; 22;
     5; 9; 14; 20; 5; 9; 14; 20; 5; 9; 14; 20; 5; 9; 14; 20;
     4; 11; 16; 23; 4; 11; 16; 23; 4; 11; 16; 23; 4; 11; 16; 23;
     6; 10; 15; 21; 6; 10; 15; 21; 6; 10; 15; 21; 6; 10; 15; 21 |]

(* Message word index for step [k]. *)
let g_index k =
  let i = k mod 16 in
  match k / 16 with
  | 0 -> i
  | 1 -> ((5 * i) + 1) mod 16
  | 2 -> ((3 * i) + 5) mod 16
  | _ -> 7 * i mod 16

let rotl32 x s = ((x lsl s) lor (x lsr (32 - s))) land mask32

let f_round r b c d =
  match r with
  | 0 -> b land c lor (lnot b land d) land mask32
  | 1 -> b land d lor (c land lnot d) land mask32
  | 2 -> b lxor c lxor d
  | _ -> c lxor (b lor (lnot d land mask32))

let iv = (0x67452301, 0xefcdab89, 0x98badcfe, 0x10325476)

(* One MD5 step: the datapath replicated 16x per cycle in the circuit. *)
let step ~k (a, b, c, d) m =
  let r = k / 16 in
  let f = f_round r b c d in
  let sum = (a + f + m.(g_index k) + t_table.(k)) land mask32 in
  let nb = (b + rotl32 sum s_table.(k)) land mask32 in
  (d, nb, b, c)

(* Process one 16-word block against a chaining value. *)
let process_block (a0, b0, c0, d0) m =
  let rec go k st = if k >= 64 then st else go (k + 1) (step ~k st m) in
  let a, b, c, d = go 0 (a0, b0, c0, d0) in
  ((a0 + a) land mask32, (b0 + b) land mask32, (c0 + c) land mask32,
   (d0 + d) land mask32)

(* RFC 1321 padding: 0x80, zeros, 64-bit little-endian bit length. *)
let pad_message msg =
  let len = String.length msg in
  let bit_len = len * 8 in
  let total = ((len + 8) / 64 * 64) + 64 in
  let buf = Bytes.make total '\000' in
  Bytes.blit_string msg 0 buf 0 len;
  Bytes.set buf len '\x80';
  for i = 0 to 7 do
    Bytes.set buf (total - 8 + i) (Char.chr ((bit_len lsr (8 * i)) land 0xff))
  done;
  Bytes.to_string buf

let words_of_block block offset =
  Array.init 16 (fun i ->
      let base = offset + (i * 4) in
      Char.code block.[base]
      lor (Char.code block.[base + 1] lsl 8)
      lor (Char.code block.[base + 2] lsl 16)
      lor (Char.code block.[base + 3] lsl 24))

(* Digest of an arbitrary string, as the four state words. *)
let digest_words msg =
  let padded = pad_message msg in
  let blocks = String.length padded / 64 in
  let rec go i st =
    if i >= blocks then st else go (i + 1) (process_block st (words_of_block padded (i * 64)))
  in
  go 0 iv

(* Standard lowercase-hex rendering (little-endian bytes per word). *)
let to_hex (a, b, c, d) =
  let word w =
    String.concat ""
      (List.init 4 (fun i -> Printf.sprintf "%02x" ((w lsr (8 * i)) land 0xff)))
  in
  word a ^ word b ^ word c ^ word d

let digest msg = to_hex (digest_words msg)

(* Hex rendering straight from int words: the digest words
   [buf.(off) .. buf.(off + 3)], each as four little-endian bytes. *)
let hex_digits = "0123456789abcdef"

let hex_of_words buf off =
  let b = Bytes.create 32 in
  for w = 0 to 3 do
    let x = buf.(off + w) in
    for k = 0 to 3 do
      let v = (x lsr (8 * k)) land 0xff in
      Bytes.unsafe_set b ((8 * w) + (2 * k)) hex_digits.[v lsr 4];
      Bytes.unsafe_set b ((8 * w) + (2 * k) + 1) hex_digits.[v land 15]
    done
  done;
  Bytes.unsafe_to_string b

(* Padded blocks of a message of [len] bytes: the message, the 0x80
   delimiter and the 8-byte length, rounded up to 64 bytes. *)
let block_count len = ((len + 8) / 64) + 1

(* Byte [i] of [msg]'s padded form, [total] bytes long. *)
let padded_byte msg ~total i =
  let len = String.length msg in
  if i < len then Char.code (String.unsafe_get msg i)
  else if i = len then 0x80
  else if i >= total - 8 then ((len * 8) lsr (8 * (i - (total - 8)))) land 0xff
  else 0

(* Block [k] of the padded message as 16 words, read from [msg] itself:
   the padded copy [pad_message] builds is never made.  Whole message
   words are one 32-bit load each; only the words the padding touches
   are assembled byte by byte. *)
let fill_block msg k buf off =
  let len = String.length msg in
  let total = block_count len * 64 in
  if k < 0 || k * 64 >= total then
    invalid_arg (Printf.sprintf "Md5_ref.fill_block: no block %d" k);
  if off < 0 || off + 16 > Array.length buf then
    invalid_arg "Md5_ref.fill_block: 16 words do not fit";
  for i = 0 to 15 do
    let base = (k * 64) + (i * 4) in
    buf.(off + i) <-
      (if base + 4 <= len then
         Int32.to_int (String.get_int32_le msg base) land mask32
       else
         padded_byte msg ~total base
         lor (padded_byte msg ~total (base + 1) lsl 8)
         lor (padded_byte msg ~total (base + 2) lsl 16)
         lor (padded_byte msg ~total (base + 3) lsl 24))
  done

(* All padded 512-bit blocks of an arbitrary message, as word arrays. *)
let padded_blocks msg =
  let padded = pad_message msg in
  List.init (String.length padded / 64) (fun i -> words_of_block padded (i * 64))

(* Single-block helpers for the circuit, which processes pre-padded
   512-bit blocks (messages of at most 55 bytes). *)
let single_block_words msg =
  if String.length msg > 55 then invalid_arg "Md5_ref.single_block_words: too long";
  words_of_block (pad_message msg) 0

let block_to_bits words =
  Bits.concat (List.rev (Array.to_list (Array.map (fun w -> Bits.of_int ~width:32 w) words)))

let state_to_bits (a, b, c, d) =
  Bits.concat [ Bits.of_int ~width:32 d; Bits.of_int ~width:32 c;
                Bits.of_int ~width:32 b; Bits.of_int ~width:32 a ]

let state_of_bits bits =
  ( Bits.to_int (Bits.select bits ~hi:31 ~lo:0),
    Bits.to_int (Bits.select bits ~hi:63 ~lo:32),
    Bits.to_int (Bits.select bits ~hi:95 ~lo:64),
    Bits.to_int (Bits.select bits ~hi:127 ~lo:96) )
