(** Fleet front-end: N elastic serving hosts behind one admission
    plane.

    Composes {!Serve.Host} instances (one per simulated machine, each
    over any {!Serve.Backend_intf.replica}) on a shared synchronous
    clock — fleet cycle [c] is host cycle [c] on every host — behind
    the layers a real serving tier puts in front of its accelerators:

    - {b result cache + coalescing} ([dedup]): an LRU cache keyed by
      request payload answers repeats without touching a host, and an
      in-flight pending table coalesces concurrent duplicates onto
      the one dispatched primary.  The pending table is bounded; once
      full, duplicates dispatch independently and are retired from
      host queues ({!Serve.Host.complete_external}) the moment any
      twin's result lands;
    - {b relaxed admission}: one {!Kqueue} per job class buffers
      arrivals ahead of dispatch.  The k-segment design admits
      bounded reordering (distance [<= k - 1]) in exchange for a
      contention-free tail — and the queue's scoreboard checks the
      bound on every dequeue;
    - {b consistent-hash routing}: dispatch routes by payload key on
      a {!Ring}, so duplicates land on the same host (locality for
      the host-level batch) and host membership changes move few keys;
    - {b work stealing} ([stealing]): a host with an empty queue
      steals the youngest queued jobs from the most loaded host
      exceeding a threshold.  Results are payload-deterministic, so
      stealing changes placement and latency but never results.

    Everything is deterministic under a fixed config: the same
    submissions produce the same outcomes, cycle for cycle. *)

type config = {
  n_hosts : int;
  classes : Serve.Host.class_config list;
      (** also defines one {!Kqueue} per class *)
  kq_segments : int;
  kq_k : int;  (** relaxation bound is [kq_k - 1] *)
  cache_capacity : int;
  pending_capacity : int;  (** max in-flight coalescing entries *)
  dispatch_per_cycle : int;  (** front-end dispatch bandwidth *)
  steal_threshold : int;  (** victims must be backed up past this *)
  steal_batch : int;  (** jobs moved per steal *)
  virtual_nodes : int;  (** ring points per host *)
  seed : int;  (** seeds the kqueues' slot draws *)
  deadline : int option;  (** per-job cycle budget on the host *)
  retries : int;
  dedup : bool;  (** cache + coalescing on/off *)
  stealing : bool;
}

val default_config : config
(** 4 hosts, default class, 64x4 kqueue, 256-entry cache, 64-entry
    pending table, 8 dispatches/cycle, steal threshold 4 / batch 2,
    64 vnodes, no deadline, dedup and stealing on. *)

val baseline : config -> config
(** The no-front-end control: same hosts and dispatch plumbing with
    [dedup] and [stealing] off — every request burns a slot where the
    ring puts it.  Benchmarks gate the front-end against this. *)

type ('job, 'res) t

val create :
  ?config:config ->
  make_host:(int -> ('job, 'res) Serve.Backend_intf.replica) ->
  key:('job -> string) ->
  unit ->
  ('job, 'res) t
(** [make_host i] builds host [i]'s replica; hosts may differ (e.g.
    one NoC-fabric host among flat ones).  [key] maps a job to its
    cache/dedup/routing key — byte-equal keys must imply byte-equal
    results. *)

(** {1 Submitting} *)

val submit : ?cls:int -> ('job, 'res) t -> arrival:int -> 'job -> int
(** Register a request arriving at fleet cycle [arrival]; returns its
    dense id.  Raises after {!run}. *)

val submit_trace : (string, 'res) t -> Trace.request array -> unit
(** {!submit} every request of a trace (payload is the job). *)

val request_count : ('job, 'res) t -> int

(** {1 Outcomes} *)

type via =
  | Host of int  (** computed on host [i] *)
  | Cache  (** answered by the result cache *)
  | Coalesced  (** waited on an in-flight duplicate's result *)
  | Retired
      (** dispatched independently, then retired from a host queue
          when a twin's result landed *)

type 'res outcome =
  | Pending
  | Done of { result : 'res; latency : int; via : via }
  | Shed of { at : int }  (** kqueue or host class queue full *)
  | Timed_out of { tries : int }
  | Failed of string  (** cycle-limit abort *)

val outcome : ('job, 'res) t -> int -> 'res outcome
val outcomes : ('job, 'res) t -> 'res outcome array

(** {1 Running} *)

type host_stats = {
  h_host : int;
  h_slots : int;
  h_steps : int;
  h_busy_slot_cycles : int;
  h_queue_depth_sum : int;
  h_queue_depth_max : int;
  h_queue_depth : Melastic.Histogram.t;
      (** the host's ["queue_depth"] profile gauge — per-cycle peak
          backlog, queryable for percentiles *)
  h_admitted : int;  (** jobs dispatched or stolen onto this host *)
  h_violations : int;  (** protocol monitor reports on this host *)
}

type stats = {
  s_cycles : int;
  s_requests : int;
  s_completed : int;  (** resolved [Done], any via *)
  s_cache_hits : int;
  s_coalesced : int;
  s_retired : int;
  s_shed : int;
  s_timed_out : int;
  s_failed : int;
  s_dispatched : int;  (** admissions into host queues *)
  s_steals : int;  (** jobs moved between hosts *)
  s_latency : Melastic.Histogram.t;  (** end-to-end, [Done] only *)
  s_per_host : host_stats array;
  s_kq_bound : int;
  s_kq_max_observed : int;  (** max relaxation distance, all classes *)
  s_kq_dequeues : int;
  s_kq_violations : int;  (** relaxation-bound scoreboard reports *)
  s_monitor_violations : int;  (** protocol monitors, all hosts *)
}

val run : ?pool:Parallel.Pool.t -> ?max_cycles:int -> ('job, 'res) t -> stats
(** Drive the fleet until every submitted request resolves (default
    cycle cap 1_000_000; leftovers become [Failed]).  Per fleet
    cycle: arrivals (cache / coalesce / kqueue) → dispatch (kqueue →
    ring → host admission) → steal → step every host → completions
    (cache fill, waiter resolution, twin retirement).  With [pool],
    the independent per-host steps of each cycle fan across the
    pool's domains; event processing stays in host order, so outcomes
    are identical with or without a pool.  May be called once. *)

val occupancy : host_stats -> float
(** Busy slot-cycles over total slot-cycles, in [0, 1]. *)

val violations : stats -> int
(** [s_kq_violations + s_monitor_violations] — the fleet-level "zero
    violations" gate. *)

val cache_hit_ratio : stats -> float
(** Cache-answered requests over all requests (0 when [dedup] off). *)

val summary : stats -> string
(** Human-readable fleet report. *)
