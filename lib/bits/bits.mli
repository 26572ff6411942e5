(** Arbitrary-width immutable bit vectors.

    A value of type {!t} is an unsigned bit vector of a fixed width
    (>= 1).  All operations are pure; binary operations require equal
    widths unless stated otherwise.  Bit 0 is the least-significant
    bit. *)

type t

val width : t -> int

(** {1 Construction} *)

val zero : int -> t
(** [zero w] is the all-zeros vector of width [w].  Raises
    [Invalid_argument] if [w < 1]. *)

val ones : int -> t
(** [ones w] is the all-ones vector of width [w]. *)

val of_int : width:int -> int -> t
(** [of_int ~width n] is the low [width] bits of [n].  [n] must be
    non-negative. *)

val of_int_trunc : width:int -> int -> t
(** Like {!of_int} but accepts negative [n], interpreting it in two's
    complement before truncation. *)

val to_int : t -> int
(** Raises [Failure] if the value does not fit in a non-negative OCaml
    [int]. *)

val to_int_trunc : t -> int
(** Low 62 bits of the value, zero-extended, as an OCaml [int]. *)

val of_bool : bool -> t
(** Width-1 vector: [of_bool true = vdd]. *)

val to_bool : t -> bool
(** True iff any bit set. *)

val vdd : t
(** Width-1 one. *)

val gnd : t
(** Width-1 zero. *)

val of_binary_string : string -> t
(** [of_binary_string "0101"] parses an MSB-first binary literal;
    width = string length.  Underscores are ignored. *)

val of_hex_string : width:int -> string -> t
(** Parses an MSB-first hex literal and truncates/zero-extends to
    [width].  Underscores are ignored. *)

(** {1 Inspection} *)

val bit : t -> int -> bool
(** [bit v i] is bit [i]; raises [Invalid_argument] if out of range. *)

val set_bit : t -> int -> bool -> t

val is_zero : t -> bool

val popcount : t -> int

val popcount_int : int -> int
(** Set bits of a non-negative int (an unpacked narrow vector). *)

val to_binary_string : t -> string
(** MSB-first, exactly [width] characters. *)

val to_hex_string : t -> string
(** MSB-first, [ceil (width / 4)] characters, no prefix. *)

(** {1 Logic} *)

val lnot : t -> t
val logand : t -> t -> t
val logor : t -> t -> t
val logxor : t -> t -> t

(** {1 Arithmetic (unsigned, modular)} *)

val add : t -> t -> t
val sub : t -> t -> t
val neg : t -> t
val succ : t -> t
val mul : t -> t -> t
(** [mul a b] has width [width a + width b] (full product). *)

val mul_trunc : t -> t -> t
(** Product truncated to [width a]; requires [width a = width b]. *)

(** {1 Comparison} *)

val equal : t -> t -> bool
val compare : t -> t -> int
(** Unsigned comparison; requires equal widths. *)

val ult : t -> t -> bool
val ule : t -> t -> bool
val slt : t -> t -> bool
(** Signed (two's complement) less-than. *)

val sle : t -> t -> bool

(** {1 Shifts and rotates (shift amount as OCaml int >= 0)} *)

val shift_left : t -> int -> t
val shift_right_logical : t -> int -> t
val shift_right_arith : t -> int -> t
val rotate_left : t -> int -> t
val rotate_right : t -> int -> t

(** {1 Structure} *)

val concat : t list -> t
(** [concat [msb; ...; lsb]] — first element lands in the most
    significant position (Hardcaml convention).  Raises on []. *)

val select : t -> hi:int -> lo:int -> t
(** Bits [hi..lo] inclusive, as a vector of width [hi - lo + 1]. *)

val or_int_into : t -> pos:int -> width:int -> int -> unit
(** [or_int_into t ~pos ~width v] ORs the low [width] bits of [v] into
    [t] at bit offset [pos].  In-place builder for the simulator
    backends, which assemble wide concatenations field-by-field: the
    target region must be zero (start from {!zero}) and the result
    must not escape until every field is in place — [t]s are immutable
    by convention everywhere else.  [width] must be at most
    {!max_int_width} and [pos + width] within [t]. *)

val or_bits_into : t -> pos:int -> t -> unit
(** [or_bits_into t ~pos src] ORs [src] into [t] at bit offset [pos];
    same contract as {!or_int_into}. *)

val uresize : t -> int -> t
(** Zero-extend or truncate to the given width. *)

val sresize : t -> int -> t
(** Sign-extend or truncate to the given width. *)

val repeat : t -> int -> t
(** [repeat v n] concatenates [n >= 1] copies of [v]. *)

val split_lsb : part_width:int -> t -> t list
(** Split into [part_width]-wide pieces, least-significant first.
    Width must be a multiple of [part_width]. *)

(** {1 Unboxed-int fast path}

    Helpers for simulators that store narrow vectors as plain OCaml
    ints.  A width of at most {!max_int_width} bits round-trips
    losslessly through a non-negative [int]. *)

val max_int_width : int
(** Widest vector representable in the int fast path
    ([Sys.int_size - 1]; 62 on 64-bit platforms). *)

val to_int_exn : t -> int
(** Exact non-negative integer value.  Unlike {!to_int} this never
    truncates silently; raises [Invalid_argument] if
    [width t > max_int_width]. *)

val select_int : t -> hi:int -> lo:int -> int
(** [select_int t ~hi ~lo] is [to_int_exn (select t ~hi ~lo)] without
    allocating.  Raises [Invalid_argument] on a bad range or a slice
    wider than {!max_int_width}. *)

val limb_width : int
(** Bits per storage limb (32). *)

val get_limb : t -> int -> int
(** Raw read of the [i]-th {!limb_width}-bit limb (limb 0 is least
    significant), exact because limbs are kept normalized.  No bounds
    check — [i] must be below [limbs_for (width t)].  For simulator
    kernels lowering limb-aligned lane extracts to a single load;
    everything else should use {!select_int}. *)

val unsafe_of_limbs : width:int -> int array -> t
(** [unsafe_of_limbs ~width limbs] adopts [limbs] as the storage of a
    [width]-bit vector, without copying or checking: the counterpart of
    {!get_limb} for simulator kernels that compute each limb of a wide
    result as an int expression.  The array must hold exactly
    [ceil (width / limb_width)] limbs, each in [0, 2^limb_width), the top
    one masked to the bits [width] leaves in it, and the caller must
    not mutate it afterwards. *)

(** {1 Misc} *)

val random : Random.State.t -> width:int -> t
(** Uniformly random vector, normalized; safe for any width on all
    platforms (never calls [Random.State.int] with an oversized
    bound). *)

val pp : Format.formatter -> t -> unit
(** Prints as [<width>'h<hex>]. *)

val to_string : t -> string
