(** The one JSON value type: every BENCH report and the {!Profile}
    schema are built as [t] and printed, and read back, through this
    module.

    Printing has one layout rule: the outer two levels of containers
    put each member on its own line, indented by two spaces per level
    ([{"key": value}] with a space after the colon); anything nested
    deeper is written on one line with no spaces.  Strings are escaped
    as JSON requires (bytes >= 0x80 are copied, so UTF-8 text stays
    UTF-8).  Floats print as the shortest decimal that reads back to
    the same float, always with a [.] or an exponent, so they parse
    back as [Float]; non-finite floats print as [null].  The text ends
    with a newline.

    Parsing is strict RFC 8259: no trailing text, no comments, no
    trailing commas, no control characters in strings, valid UTF-8
    only, no duplicate keys in an object.  A number with a fraction or
    exponent, or too large for an [int], is a [Float]; any other
    number is an [Int]. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list  (** members in order *)

val to_string : t -> string

val of_string : string -> (t, string) result
(** [Error] carries the byte offset and what was expected there. *)
