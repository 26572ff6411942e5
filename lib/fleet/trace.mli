(** Trace-driven open-loop workload generation for the fleet.

    A trace is an array of timestamped requests, produced either by a
    seeded generator (phase program + payload model) or parsed from a
    file.  Open-loop means arrivals do not wait for completions — the
    trace fixes when every request shows up, and the fleet either
    keeps up or its queues grow; that is what makes saturation and
    tail-latency numbers meaningful.

    The generator is deterministic: the same seed, phases and model
    always produce the identical request array. *)

type request = {
  arrival : int;  (** fleet cycle the request reaches the front-end *)
  payload : string;  (** the job body; also the dedup/cache key *)
  cls : int;  (** admission class index *)
}

(** {1 Phase programs}

    Rates are in requests/cycle; arrivals within a cycle are drawn
    Poisson at that cycle's rate, so any rate (including > 1) works. *)

type phase =
  | Steady of { cycles : int; rate : float }
  | Ramp of { cycles : int; rate0 : float; rate1 : float }
      (** linear rate sweep — half a diurnal swing *)
  | Burst of { cycles : int; base : float; peak : float; period : int; width : int }
      (** [base] rate with a [peak]-rate burst of [width] cycles at
          the start of every [period] cycles *)

val phase_cycles : phase list -> int
(** Total duration of a phase program. *)

val scale : float -> phase list -> phase list
(** Multiply every rate by a factor — e.g. 10x a saturation point. *)

(** {1 Payload model} *)

type payload_model = {
  hot_keys : int;  (** size of the duplicate-heavy hot key pool *)
  hot_fraction : float;  (** probability a request draws a hot key *)
  zipf_s : float;  (** Zipf exponent over the hot pool *)
  size_alpha : float;  (** Pareto tail index for payload sizes *)
  max_size : int;  (** payload padding cap, bytes *)
  classes : int;  (** requests draw a class uniformly in [0, classes) *)
}

val default_model : payload_model
(** 32 hot keys, 60% hot, Zipf 1.1, Pareto 1.3, 256-byte cap, 1 class.
    A hot key's payload depends only on the key, so repeats are
    byte-identical — the dedup path sees true duplicates. *)

(** {1 Generation} *)

val generate :
  ?model:payload_model -> seed:int -> phases:phase list -> unit -> request array
(** Requests sorted by arrival; ties keep draw order. *)

val presets : (string * string) list
(** Preset name and one-line description: [steady], [diurnal],
    [burst], [flash]. *)

val preset : ?scale:float -> string -> phase list
(** Phase program of a named preset, rates multiplied by [scale]
    (default 1.0).  Raises [Invalid_argument] for unknown names. *)

(** {1 Trace files} *)

val of_file : ?classes:int -> string -> request array
(** Parse a trace file: one request per line as
    [arrival payload [class]], [#] starts a comment, blank lines
    ignored.  Payloads therefore cannot contain whitespace.  Raises
    [Failure "path:line: ..."] on malformed input, and — when
    [classes] is given — on a class that is not below it. *)

val to_file : string -> request array -> unit
(** Write a trace in the {!of_file} format (payloads containing
    whitespace are rejected with [Invalid_argument]). *)
