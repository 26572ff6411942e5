(** The single channel-profile API: one telemetry spine from
    {!Hw.Sampler} to {!Synth}.

    Replaces the per-layer ad-hoc measurement code (monitor scoreboard
    sampling, [Workload.Stats] counters, serve-engine queue gauges,
    NoC per-link counters) with one representation:

    - {b hardware channels} — watched through a shared {!Hw.Sampler}
      pass, named via {!Names}: per-channel fire/stall/backpressure/
      idle counters plus an optional occupancy {!Histogram} read from
      the buffer's exported [<name>_occupancy] signal;
    - {b host gauges} — named {!Histogram}s fed by [observe] from
      plain software (queue depths, busy slots, in-flight tokens).

    Both halves share one JSON schema ([to_json]/[save]/[of_json],
    printed and parsed by {!Json}), so a profile captured during a
    workload run can be inspected offline (`elsim profile`) or consumed
    by [Synth.Retime] as the input to profile-guided buffer
    placement. *)

type t

(** {1 Construction} *)

val create : unit -> t
(** A host-only profile: gauges work, channel watching raises. *)

val attach : Hw.Sampler.t -> t
(** A hardware-backed profile.  Registers a single per-cycle listener
    on the sampler; all channels watched later are folded in that one
    pass. *)

val sampler : t -> Hw.Sampler.t option

(** {1 Hardware channels} *)

val watch_channel :
  ?data:bool -> ?occupancy:bool -> t -> name:string -> threads:int -> unit
(** Watch channel [name]'s [_valid]/[_ready]/[_fire] vectors.  A
    partially exported channel (hand-built netlists may lack a fire or
    ready) degrades gracefully: statistics are computed from whatever
    endpoints resolve, with fire derived as [valid & ready] when both
    exist.  [_data] (when [data]) and the [_occupancy] export (when
    [occupancy] — the circuit must export it, e.g. via
    [Component.buffer ~export_occupancy:true]) are explicit requests
    and raise {!Hw.Sim_intf.Unknown_signal} eagerly when missing.
    Every endpoint is resolved to a sampler slot here, so the
    per-cycle update counts bits on ints with no name lookup; a
    handshake vector wider than [Bits.max_int_width] threads raises
    [Invalid_argument].  Idempotent per channel. *)

val on_sample : t -> (t -> unit) -> unit
(** Register a per-cycle listener (after the profile's own counter
    update).  Listeners read the cycle's values through the slots of
    the profile's sampler ({!Hw.Sampler.watch} on a watched channel's
    [_valid]/[_ready]/[_fire]/[_data] name returns the slot the profile
    already reads) — this is how the protocol monitors share the
    profile's sampling pass. *)

(** {1 Channel statistics} *)

type channel_stats = {
  cs_threads : int;
  mutable cs_fires : int;  (** total fire events, summed over threads *)
  cs_fires_per_thread : int array;
  mutable cs_active_cycles : int;  (** cycles with >= 1 fire *)
  mutable cs_stall_cycles : int;  (** valid present, nothing fired *)
  mutable cs_backpressure_cycles : int;  (** some thread valid & !ready *)
  mutable cs_idle_cycles : int;  (** no thread valid *)
  cs_occupancy : Histogram.t option;
}

val cycles : t -> int
(** Cycles sampled (or recorded in a loaded profile). *)

val channel_names : t -> string list
(** Watched channels, in watch order. *)

val channel : t -> string -> channel_stats option
val activity : t -> channel_stats -> float
val throughput : t -> channel_stats -> float

val peak_occupancy : channel_stats -> int
(** Exact maximum observed occupancy (0 if occupancy wasn't watched) —
    the quantity [Synth.Retime] sizes buffers against. *)

(** {1 Host gauges} *)

val observe : t -> string -> int -> unit
(** Record one sample into the named gauge (created on first use). *)

val gauge_names : t -> string list
val gauge : t -> string -> Histogram.t option

val gauge_hist : t -> string -> Histogram.t
(** Like {!gauge} but creates the gauge if missing. *)

val merge_gauges : into:t -> t -> unit
(** Fold every gauge of the second profile into [into] (matched by
    name), for cross-host aggregation. *)

(** {1 Serialization} *)

val to_json : t -> string
val save : t -> string -> unit

val of_json : string -> (t, string) result
(** Inverse of {!to_json} up to histogram bucket quantization (counts,
    sums, maxima and hence means/percentiles are exact).  The result
    is host-only: statistics are readable, watching raises.  Text that
    is not JSON, or does not follow the schema (a missing field, a
    non-integer counter, a non-histogram [occupancy], a repeated name),
    gives [Error] naming the offset or the field. *)
