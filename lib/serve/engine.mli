(** Continuous-batching request server over the multithreaded elastic
    cores.

    The paper's datapaths time-share [S] threads behind per-thread
    valid/ready handshakes; this engine is the host-side layer that
    turns an open stream of jobs into thread-slot occupancy.  Unlike
    {!Workload.Mt_driver}'s batch discipline (pre-load all queues,
    drain), the engine refills a thread slot the moment its previous
    job completes at the sink — continuous batching, the shape of an
    inference-serving stack: fixed slots, dynamic refill, admission
    control, tail-latency metrics.

    Pieces:
    - {b slot allocator} — free slots are refilled every cycle from
      the admission queues (round-robin across classes, FIFO within a
      class);
    - {b admission control} — bounded per-class FIFO queues; a job
      arriving to a full queue is shed.  Per-job deadlines time out
      queued and running jobs (running jobs are cancelled and their
      slot reclaimed); a timed-out job with retry budget left is
      re-queued;
    - {b replica sharding} — N independent simulator replicas (one
      per domain via {!Parallel}) behind one submit/run/outcome API;
      jobs route deterministically ([id mod replicas]) and outcomes
      land in submission order, so an N-replica run returns exactly
      the same per-job results as a 1-replica run;
    - {b service metrics} — per-replica and aggregate throughput,
      slot occupancy, queue depth and p50/p95/p99 latency.

    A backend ({!Md5_backend}, {!Cpu_backend}) supplies the replica as a
    record of closures over a running {!Hw.Sim} design. *)

(** {1 Job classes}

    The per-replica serving loop itself (queues, slot refill,
    deadlines, metrics) lives in {!Host}, steppable one cycle at a
    time; the engine drives one host per replica to completion.  The
    class record is owned by {!Host} and re-exported here. *)

type class_config = Host.class_config = {
  cname : string;
  capacity : int;  (** max queued jobs; arrivals beyond it are shed *)
}

val default_class : class_config
(** [{ cname = "default"; capacity = 64 }] — the class used when
    {!create} gets no [classes] and {!submit} no [cls]. *)

(** {1 Outcomes} *)

type 'res outcome =
  | Pending  (** not yet resolved (before {!run}) *)
  | Completed of { result : 'res; latency : int; replica : int; slot : int }
      (** [latency] is sink-completion cycle minus arrival cycle, on
          the job's replica clock. *)
  | Shed of { at : int }  (** rejected at admission: class queue full *)
  | Timed_out of { tries : int }
      (** deadline exceeded (after [tries] attempts, counting the
          first) *)
  | Failed of string  (** engine gave up, e.g. [run]'s cycle limit *)

(** {1 Backend replica interface}

    The record is owned by {!Backend_intf} (see its documentation for
    the per-cycle contract); the equation below re-exports it so both
    [Engine.replica] and [Backend_intf.replica] spell the same type.
    Backends either hand the engine a [make_replica] closure
    ({!create}) or a packed {!Backend_intf.t} module ({!create_b}). *)

type ('job, 'res) replica = ('job, 'res) Backend_intf.replica = {
  slots : int;
  slot_free : int -> bool;
  start : slot:int -> 'job -> unit;
  cancel : slot:int -> unit;
  step : unit -> unit;
  completions : unit -> (int * 'res) list;
  cycle_no : unit -> int;
  finish : unit -> unit;
  violations : unit -> int;
}

(** {1 The engine} *)

type ('job, 'res) t

val create :
  ?classes:class_config list ->
  ?replicas:int ->
  make_replica:(int -> ('job, 'res) replica) ->
  unit ->
  ('job, 'res) t
(** [make_replica i] is called once per replica — inside the replica's
    domain when {!run} fans out — so simulators are built where they
    run.  [replicas] defaults to 1. *)

val create_b :
  ?classes:class_config list ->
  ?replicas:int ->
  backend:('job, 'res) Backend_intf.t ->
  unit ->
  ('job, 'res) t
(** {!create} over a packed backend module ({!Md5_backend.backend},
    {!Cpu_backend.backend}, {!Noc_backend.backend}) — the
    backend-polymorphic entry point. *)

val submit :
  ?cls:string ->
  ?arrival:int ->
  ?deadline:int ->
  ?retries:int ->
  ('job, 'res) t ->
  'job ->
  int
(** Enqueue a job; returns its id (dense, from 0, in submission
    order).  [arrival] (default 0) is the cycle, on the routed
    replica's clock, at which the job reaches admission — later
    arrivals model an open-loop load.  [deadline] is a cycle budget
    measured from (re-)admission: a job not completed within it is
    timed out; if [retries] (default 0) attempts remain it re-enters
    its queue with a fresh budget.  Admission itself (queue-full
    shedding) happens on the replica timeline during {!run}, not
    here.  Raises [Invalid_argument] for an unknown class or after
    {!run}. *)

val job_count : ('job, 'res) t -> int

val replica_count : ('job, 'res) t -> int

val route : ('job, 'res) t -> int -> int
(** The replica a job id routes to ([id mod replicas]). *)

(** {1 Running and results} *)

type replica_stats = {
  r_replica : int;
  r_slots : int;
  r_cycles : int;  (** cycles this replica simulated *)
  r_wall_seconds : float;
  r_completed : int;
  r_shed : int;
  r_timed_out : int;
  r_retries : int;  (** re-admissions performed *)
  r_busy_slot_cycles : int;  (** occupied slot-cycles *)
  r_queue_depth_sum : int;
  r_queue_depth_max : int;
  r_violations : int;
  r_latency : Melastic.Histogram.t;
      (** completed-job latencies, streamed into fixed log buckets *)
}

type report = {
  per_replica : replica_stats array;
  wall_seconds : float;  (** wall clock of the whole fan-out *)
}

val run : ?domains:int -> ?max_cycles:int -> ('job, 'res) t -> report
(** Serve every submitted job to resolution (completed, shed, timed
    out) and return the service report.  Replicas run concurrently on
    up to [domains] domains (default: {!Parallel.recommended_domains});
    results are deterministic regardless of [domains].  [max_cycles]
    (default 1_000_000, per replica) is a safety valve: jobs still
    unresolved when it trips are marked [Failed].  May be called once
    per engine. *)

val outcome : ('job, 'res) t -> int -> 'res outcome
(** Outcome of a job id, after {!run}. *)

val outcomes : ('job, 'res) t -> 'res outcome array
(** All outcomes, indexed by job id. *)

(** {1 Report queries} *)

val occupancy : replica_stats -> float
(** Busy slot-cycles over total slot-cycles, in [0, 1]. *)

val mean_queue_depth : replica_stats -> float

val completed : report -> int
val shed : report -> int
val timed_out : report -> int
val violations : report -> int
val total_cycles : report -> int
val mean_occupancy : report -> float
(** Cycle-weighted mean of the per-replica occupancies. *)

val latency : report -> Melastic.Histogram.t
(** All completed-job latencies across replicas, merged into one
    histogram (use {!Melastic.Histogram.percentile} for quantiles). *)

val jobs_per_second : report -> float
(** Completed jobs over the fan-out wall clock. *)

val cycles_per_job : report -> float
(** Total simulated cycles over completed jobs. *)

val summary : report -> string
(** Human-readable service report. *)

(** {1 Open-loop load generation} *)

module Load : sig
  val poisson : rng:Random.State.t -> rate:float -> count:int -> int array
  (** Arrival cycles of [count] jobs under Poisson arrivals at [rate]
      jobs/cycle (exponential inter-arrival times of mean [1/rate]
      cycles), non-decreasing from 0. *)
end
