(** The shared "sample named signals once per cycle" core.

    A sampler registers one {!Sim.on_cycle} observer.  After each
    cycle settles it refreshes every watched signal's value, appends
    it to the signal's history when recording is enabled, and invokes
    the registered listeners in registration order.  Statistics
    ({!Workload.Stats}), schedule capture ({!Workload.Schedule}), the
    channel profile ({!Melastic.Profile}) and the protocol monitors
    ({!Monitor}) are all clients of this module instead of
    maintaining private peek loops.

    Watching a name resolves it to a {!Sim.port} once and returns a
    {!slot}; listeners read the slot, so the per-cycle path does no
    name lookup, and a narrow signal read with {!value_int} allocates
    nothing. *)

type t

type slot
(** One watched signal: its port and its latest sampled value. *)

val attach : ?signals:string list -> Sim.t -> t
(** Attach a sampler to a simulator and watch [signals] (if any).
    Works with any backend behind {!Sim.t}. *)

val sim : t -> Sim.t

val watch : t -> string -> slot
(** Add a signal to the per-cycle sample set and return its slot
    (idempotent: the same name gives the same slot).  Resolves the
    name eagerly: an unknown name raises {!Sim_intf.Unknown_signal}
    here, not mid-run.  The slot holds the signal's value at watch
    time until the next sample. *)

val record : t -> string -> slot
(** {!watch} plus history retention, for {!series} queries. *)

val on_sample : t -> (t -> unit) -> unit
(** Register a listener called once per cycle after all watched
    values have been refreshed; read them through their slots. *)

val cycle : t -> int
(** Cycle number of the current sample (valid inside listeners). *)

val width : slot -> int

val is_narrow : slot -> bool
(** [width <= Bits.max_int_width]: the value is kept as an int. *)

val value_int : slot -> int
(** Latest sampled value as an int; allocation-free for a narrow
    slot. *)

val value : slot -> Bits.t
(** Latest sampled value as a vector: the stored [Bits.t] of a wide
    slot, a fresh vector for a narrow one. *)

val series : t -> string -> Bits.t list
(** Recorded history of a {!record}ed signal, oldest first. *)

val series_int : t -> string -> int list
