(** Cycle-accurate two-phase simulator, backend-agnostic front end.

    Each {!cycle}: settle all combinational nodes in topological
    order, run observers, commit registers and memory writes, settle
    again (so peeks after [cycle] see the new state).  Poke inputs at
    any time; call {!settle} to observe their combinational effect
    before committing.

    A {!t} packs one of the interchangeable backends behind a
    first-class module:
    - {!Sim_interp} ([Interp]) — the reference interpreter;
    - {!Sim_compiled} ([Compiled]) — pre-compiled closures with an
      unboxed-int fast path, several times faster per cycle;
    - {!Sim_jit} ([Jit]) — combinational cones emitted as OCaml
      source, natively compiled and dynlinked (keeping the compiled
      closures when no kernel can be built), fastest per cycle.

    All are bit-identical (checked cycle-for-cycle by the test
    suite); pick one per simulator via [?backend], plug in any other
    implementation of {!Sim_intf.S} via {!create_from}, or flip the
    process-wide {!default_backend}.

    The backend list is data-driven: {!backend_of_string},
    {!backend_names}, {!backend_help} and the per-backend defaults all
    derive from one registry, so flag parsers and usage text stay in
    sync with the dispatcher by construction. *)

type backend = Interp | Compiled | Jit

val backend_of_string : string -> backend
(** Accepts every registered canonical name and alias (["interp"] /
    ["interpreter"], ["compiled"] / ["compile"], ["jit"]); raises
    [Invalid_argument] listing the accepted names otherwise. *)

val backend_to_string : backend -> string

val backend_doc : backend -> string
(** One-line description, for usage text. *)

val backend_names : unit -> string list
(** Canonical names, registry order. *)

val all_backends : unit -> backend list
(** Registered backends, registry order. *)

val backend_help : unit -> string
(** Multi-line summary (name, description, aliases) of every
    registered backend, for [--help] text. *)

val default_backend : backend ref
(** Backend used by {!create} when [?backend] is omitted.  [Interp]
    initially. *)

type t

val create : ?backend:backend -> ?optimize:bool -> Circuit.t -> t
(** [?optimize] (default: [true] for [Compiled] and [Jit], [false]
    for [Interp])
    runs {!Transform.optimize_with_map} and simulates the reduced
    netlist.  Transparent to callers: named probes survive (as names
    or aliases), and {!peek_signal} / {!mem_port} / {!mem_read} /
    {!mem_write} handles held against the original circuit are
    translated through the optimizer's remap.  Peeking a signal that was swept as dead
    raises [Invalid_argument]; keep it by naming it, or pass
    [~optimize:false]. *)

val create_from : (module Sim_intf.S) -> Circuit.t -> t
(** Instantiate an arbitrary backend implementation. *)

val backend_name : t -> string
(** Name of the packed backend ("interp", "compiled", ...). *)

val settle : t -> unit
(** Recompute all combinational values from current inputs/state. *)

val cycle : t -> unit
(** One clock cycle (settle, observe, commit, settle). *)

val cycles : t -> int -> unit

val cycle_no : t -> int
(** Number of cycles since creation or {!reset}. *)

val circuit : t -> Circuit.t
(** The circuit the backend actually runs — the optimized one when
    [create ~optimize:true] rewrote it. *)

val on_cycle : t -> (t -> unit) -> unit
(** Register an observer called at the end of every cycle, before the
    state commit (i.e. it sees the cycle's settled values). *)

(** {1 Ports}

    Resolve a name once, then read or write through the handle: no
    name building, no hashing, and for signals of width <=
    [Bits.max_int_width] no allocation on {!read_int}/{!write_int}.
    This is the per-cycle path for drivers, samplers and monitors. *)

type port
(** A resolved signal of one simulator.  Valid for the simulator's
    lifetime, across {!reset} and {!load_state}; under
    [create ~optimize:true] it resolves names and aliases of the
    optimized circuit. *)

val input_port : t -> string -> port
(** Resolve a primary input.  Raises {!Sim_intf.Unknown_signal} (with
    near-miss candidates) when no input has that name. *)

val signal_port : t -> string -> port
(** Resolve a named signal, output or input (see
    {!Circuit.find_named}); raises like {!input_port}. *)

val port_name : port -> string
val port_width : port -> int

val read : port -> Bits.t
(** Current value, exactly as {!peek} reads it: a wide signal's stored
    vector, a fresh vector for a narrow one. *)

val read_int : port -> int

val write : port -> Bits.t -> unit
(** Set the primary input behind the port; takes effect at the next
    {!settle}/{!cycle}.  Only a change of the stored value dirties the
    circuit, so re-writing an unchanged input leaves the next settle
    free.  Raises [Invalid_argument] on a width mismatch or a port
    that is not a primary input. *)

val write_int : port -> int -> unit
(** {!write} of a non-negative int, truncated to the port width. *)

(** {2 Word access}

    A port of any width read or written as words of a caller's
    [int array], in the layout {!save_state} gives a register of that
    width: one word for a width <= [Bits.max_int_width], otherwise one
    word per [Bits.limb_width]-bit limb, least significant first.  The
    per-cycle path for drivers of wide ports (MD5's 640-bit message
    and 128-bit digest): no [Bits.t] is built on the host side. *)

val read_words : port -> int array -> int -> unit
(** [read_words p buf off] stores the current value into the
    [Sim_intf.reg_words (port_width p)] words from [buf.(off)],
    allocating nothing.  Raises [Invalid_argument] when the slice does
    not fit. *)

val write_words : port -> int array -> int -> unit
(** [write_words p buf off] sets the primary input from a slice in the
    same layout, each word truncated to its bits.  It compares word by
    word first: an unchanged value allocates nothing and leaves the
    next settle free; a changed one is stored as a fresh vector (the
    old one may be held by registers or memories) and dirties the
    circuit.  Raises [Invalid_argument] like {!write} on a port that
    is not a primary input, and when the slice does not fit. *)

(** {1 By name}

    Each call resolves the name, then does one port operation. *)

val poke : t -> string -> Bits.t -> unit
(** Set a primary input; takes effect at the next {!settle}/{!cycle}. *)

val poke_int : t -> string -> int -> unit

val peek : t -> string -> Bits.t
(** Read a named signal, output or input (see {!Circuit.find_named}). *)

val peek_int : t -> string -> int
val peek_bool : t -> string -> bool
val peek_signal : t -> Signal.t -> Bits.t

(** {1 Register state}

    One mechanism: a backend saves and loads its registers as words in
    a caller's [int array] (see {!Sim_intf.S.save_state} for the
    layout).  {!snapshot}/{!restore} are a [Bits.t] view of the same
    words for callers that keep only a few states. *)

val state_words : t -> int
(** Words one saved state takes: one per register of width <=
    [Bits.max_int_width], one per [Bits.limb_width]-bit limb for a
    wider one, registers in [Circuit.registers] order of the running
    circuit. *)

val save_state : t -> int array -> int -> unit
(** [save_state t buf off] writes the register state to
    [buf.(off) .. buf.(off + state_words t - 1)], allocating nothing
    for narrow registers.  Raises [Invalid_argument] when the slice
    does not fit. *)

val load_state : t -> int array -> int -> unit
(** Overwrite the register state with a slice {!save_state} wrote on a
    simulator of the same circuit, backend and optimization setting.
    Takes effect at the next {!settle}/{!cycle}; inputs, memories and
    {!cycle_no} are untouched.  Raises [Invalid_argument] when the
    slice does not fit. *)

val snapshot : t -> Bits.t array
(** Current register state of the running circuit, one entry per
    register in [Circuit.registers] order.  Use it as a state key or
    {!restore} it into a simulator of the same circuit, backend and
    optimization setting.  Memories are not captured. *)

val restore : t -> Bits.t array -> unit
(** Overwrite register state with a {!snapshot}, through
    {!load_state}.  Raises [Invalid_argument] on a snapshot whose
    length or entry widths do not match, before changing any
    register. *)

val reset : t -> unit
(** Restore registers and memories to their initial contents, and all
    primary inputs to zero — a reset simulator matches a freshly
    created one. *)

(** {1 Memories}

    Testbench access to a memory's contents, through a memory resolved
    once: no hashing per access, and on a memory of width <=
    [Bits.max_int_width] {!mem_get_int}/{!mem_set_int} allocate
    nothing.  The per-job path for drivers that load programs and
    harvest results (the CPU's instruction, data and register
    memories). *)

type mem_port
(** A resolved memory of one simulator.  Valid for the simulator's
    lifetime, across {!reset}; under [create ~optimize:true] it
    resolves a handle of the original circuit through the optimizer's
    remap, as {!peek_signal} does. *)

val mem_port : t -> Signal.memory -> mem_port
(** Raises [Invalid_argument] for a memory that is not part of this
    simulation. *)

val mem_get : mem_port -> int -> Bits.t
(** Word [addr].  Raises [Invalid_argument] when [addr] is outside
    the memory. *)

val mem_get_int : mem_port -> int -> int
(** {!mem_get} as an int.  Also raises [Invalid_argument] on a memory
    wider than [Bits.max_int_width]. *)

val mem_set : mem_port -> int -> Bits.t -> unit
(** Overwrite word [addr].  Asynchronous reads see it at the next
    {!settle}/{!cycle}, which recomputes the state cone.  Raises
    [Invalid_argument] on an address out of range or a width
    mismatch. *)

val mem_set_int : mem_port -> int -> int -> unit
(** {!mem_set} of a non-negative int, truncated to the memory width.
    Raises [Invalid_argument] like {!mem_set}, on a negative value and
    on a memory wider than [Bits.max_int_width]. *)

val mem_fill_int : mem_port -> pos:int -> len:int -> int -> unit
(** [mem_fill_int p ~pos ~len v] sets words [pos] .. [pos + len - 1]
    to [v] in one store loop (a job's data region cleared at once).
    Raises like {!mem_set_int}, also when any address of the range is
    out of range or [len < 0]. *)

val mem_read : t -> Signal.memory -> int -> Bits.t
(** [mem_get (mem_port t m) addr]. *)

val mem_write : t -> Signal.memory -> int -> Bits.t -> unit
(** [mem_set (mem_port t m) addr value]. *)
