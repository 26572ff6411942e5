(** Reference MD5 (RFC 1321) in pure OCaml over 32-bit words: the
    golden model for the circuit and the source of the step constants
    the circuit's datapath instantiates. *)

val mask32 : int

val t_table : int array
(** T[i] = floor(|sin(i+1)| * 2^32), computed as the RFC defines. *)

val s_table : int array
(** Per-step rotate amounts. *)

val g_index : int -> int
(** Message-word index used by step [k] (0..63). *)

val rotl32 : int -> int -> int
val f_round : int -> int -> int -> int -> int
(** [f_round r b c d] — the round function F/G/H/I for round [r]. *)

val iv : int * int * int * int
(** The standard chaining-value initialisation (A0, B0, C0, D0). *)

val step : k:int -> int * int * int * int -> int array -> int * int * int * int
(** One MD5 step on state (a,b,c,d) with message words [m]. *)

val process_block : int * int * int * int -> int array -> int * int * int * int

val pad_message : string -> string
(** RFC 1321 padding: 0x80, zeros, 64-bit little-endian bit length. *)

val words_of_block : string -> int -> int array

val digest_words : string -> int * int * int * int
(** Digest of an arbitrary string (multi-block). *)

val to_hex : int * int * int * int -> string
(** Standard lowercase-hex digest rendering. *)

val hex_of_words : int array -> int -> string
(** [hex_of_words buf off] is {!to_hex} of the four words
    [buf.(off) .. buf.(off + 3)], rendered without [Printf]. *)

val digest : string -> string

val padded_blocks : string -> int array list
(** All padded blocks of an arbitrary message, first block first. *)

val block_count : int -> int
(** Padded blocks of a message of that many bytes
    ([List.length (padded_blocks msg)]). *)

val fill_block : string -> int -> int array -> int -> unit
(** [fill_block msg k buf off] writes the 16 words of block [k] of the
    padded message — word [i] of [List.nth (padded_blocks msg) k] — to
    [buf.(off + i)], reading [msg] directly and allocating nothing.
    Raises [Invalid_argument] when there is no block [k] or the 16
    words do not fit in [buf]. *)

(** {1 Single-block helpers for the circuit} *)

val single_block_words : string -> int array
(** Padded block of a message of at most 55 bytes. *)

val block_to_bits : int array -> Bits.t
(** 16 words as a 512-bit bus, word 0 in the least-significant bits. *)

val state_to_bits : int * int * int * int -> Bits.t
val state_of_bits : Bits.t -> int * int * int * int
