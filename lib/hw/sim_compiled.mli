(** Compiled simulation backend.

    [create] compiles the levelized node order once into a flat array
    of pre-resolved closures over mutable value storage.  Signals of
    width <= {!Bits.max_int_width} are stored as unboxed OCaml ints
    (no limb arrays, no per-cycle allocation on the hot path); wider
    signals fall back to [Bits.t].  Bit-identical to {!Sim_interp};
    several times faster per simulated cycle.  Use through {!Sim}
    unless backend-specific typing is needed. *)

include Sim_intf.S

(** Internal hooks for {!Sim_jit}, which reuses this backend's
    instance machinery (storage layout, commit, peek/poke,
    save/load_state, activity flags) and swaps only the settle
    schedules for compiled kernels.  Not a stable API for other
    callers. *)
module Jit_support : sig
  val is_int : Signal.t -> bool
  (** Does the signal live in the unboxed int slot array? *)

  val resolve : Signal.t -> Signal.t
  (** Chase wire chains to the driving node. *)

  val mask : int -> int
  (** Mask of the low [w] bits ([max_int] at the int-path boundary). *)

  val max_int_width : int

  val step_nodes : t -> (Signal.t * (unit -> unit)) array
  (** The full settle schedule in topological order, each step paired
      with the node it computes.  The closures run against this
      instance's storage. *)

  val is_input_dep : t -> Signal.uid -> bool
  val is_state_dep : t -> Signal.uid -> bool

  val ivals : t -> int array
  (** The unboxed int slot array, indexed by uid. *)

  val bvals : t -> Bits.t array
  (** The wide ([Bits.t]) slot array, indexed by uid. *)

  val imem : t -> Signal.memory -> int array option
  (** Live contents of a narrow memory (aliased, kept in place by
      commits and reset), or [None] for a wide memory. *)

  val bmem : t -> Signal.memory -> Bits.t array option
  (** Live contents of a wide memory, or [None] for a narrow one. *)

  val set_schedules :
    t ->
    full:(unit -> unit) array ->
    input:(unit -> unit) array ->
    state:(unit -> unit) array ->
    unit
  (** Replace the three settle schedules.  The replacements must be
      observationally equivalent to the originals (same slots written,
      same topological discipline); [settle]/[cycle]/[reset] run them
      unchanged. *)

  val int_reg_commits : t -> (int * int * int) array
  (** The clear-less int registers as (state slot, data uid, enable
      uid or -1) triples, in commit order. *)

  val wide_reg_commits : t -> (int * int * int) array
  (** Same for the clear-less wide registers (enable is still an int
      uid). *)

  val set_run : t -> (int -> unit) -> unit
  (** Install a batched free-run: [run n] must be observationally
      identical to [n] x [cycle] minus observers (it is only engaged
      by [cycles] when no observer is registered and everything is
      settled on entry), leaving every slot settled on exit. *)

  val set_commit : t -> ((unit -> unit) -> unit) -> unit
  (** Replace the clear-less registers' commit loops and the memory
      write ports with a generated function.  It must sample every
      {!int_reg_commits} / {!wide_reg_commits} register (respecting
      enables), apply every memory write port (creation order, last
      one wins, reading pre-commit values), call its argument — the
      cleared registers' sample — between the samples and the writes
      whenever a register has a clear, then write the sampled values
      to the state slots.  Cleared registers' writes stay
      host-side. *)
end
