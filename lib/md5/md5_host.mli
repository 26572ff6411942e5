(** Host-side driver for the MD5 circuit, over one word path.

    A driver resolves the circuit's [msg]/[digest] channel signals
    once; the 640-bit token and the 128-bit digest then move as words
    through {!Hw.Sim.write_words}/{!Hw.Sim.read_words}, never as
    [Bits.t].  Token layout (the 32-bit limbs of
    {!Md5_circuit.input_bits}): chaining words a..d in words 0..3, block
    word [w] in word [4 + w].  Digest layout: words a..d.

    {!step} is the one per-cycle inject/harvest loop.  {!hash_messages}
    drives it in aligned rounds (the barrier synchronizes all threads
    each episode, so threads with shorter messages contribute dummy
    blocks whose digests are discarded); [Serve.Md5_backend] drives it
    with continuous batching. *)

type t
(** A driver: the resolved ports, a staging buffer, and per thread a
    message and a 4-word chaining value. *)

val create : Hw.Sim.t -> threads:int -> t
(** [create sim ~threads] drives a simulator of
    [Md5_circuit.circuit ~threads].  Raises the digest ready of every
    thread; every chaining value starts at {!Md5_ref.iv}. *)

val load : t -> int -> string -> unit
(** [load d i msg]: thread [i]'s real blocks come from [msg]'s padded
    form from now on, and its chaining value is reset to
    {!Md5_ref.iv}. *)

val step : t -> eligible:(int -> bool) -> inject:(int -> int) -> int
(** One clock cycle.  Reads the [msg] ready vector (a function of
    registered state only, so as the last cycle left it) and picks,
    round-robin, the first thread whose ready is high and for which
    [eligible] holds.  [inject i] is called once for that thread and
    returns the index of the block of [i]'s message to send, or [-1]
    for a dummy token.  The token is written (or every valid cleared
    when no thread was picked), the circuit settles, and for each
    thread whose digest fires with a real block its chaining value
    takes the digest.  The circuit is clocked and the fire mask
    returned.  Allocates nothing beyond what [eligible] and [inject]
    allocate. *)

val hex : t -> int -> string
(** [hex d i] renders thread [i]'s chaining value as lowercase hex. *)

val round_counter : t -> int
(** The circuit's shared round counter. *)

val hash_messages : ?limit:int -> Hw.Sim.t -> string list -> string list
(** [hash_messages sim messages] — thread [i] hashes [List.nth
    messages i]; the simulator must come from [Md5_circuit.circuit
    ~threads:(List.length messages)].  Returns lowercase hex digests.
    Raises [Failure] beyond [limit] simulated cycles. *)
