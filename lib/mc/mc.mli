(** Bounded model checker for the MT-elastic protocol.

    Explores EVERY reachable register state of a core FSM
    ({!Melastic.Meb_reduced}, {!Melastic.Meb_full}, {!Melastic.Barrier},
    the M-operators, {!Melastic.Mt_varlat}, {!Melastic.Aligned}) under
    every protocol-legal environment behaviour — all interleavings of
    thread offers at the sources, all sink backpressure patterns, all
    arbiter decisions they induce — and machine-checks the paper's
    invariants on each explored edge:

    - {b one-hot} — at most one [valid(i)] per multithreaded channel
      (invariant P1);
    - {b at-most-one-full} — in every reduced-MEB instance at most one
      thread holds the shared slot, and every state register decodes
      to EMPTY/HALF/FULL (invariant R1);
    - {b conservation} — per-thread, per-edge token accounting: the
      occupancy decoded from the state registers moves exactly with
      the observed fires, FIFO data integrity holds through every
      flow, and the capacity bounds are respected;
    - {b deadlock} — from every reachable state, every thread holding
      tokens can still drain them ([exists]-liveness: the environment
      is controllable, so a thread is deadlocked only when NO
      continuation drains it).

    The checker drives the ordinary simulation backends through
    {!Hw.Sim} (register state words through [save_state]/[load_state]
    plus the named probes the monitors already use, resolved once as
    ports), so it verifies the very netlists that simulate, synthesize
    and serve — not a hand-written model.

    Environment model: producers are persistent — an offered token is
    re-offered until it transfers (baseline elastic stability); that
    is exactly the behaviour {!Monitor.check_stability} [~strict]
    enforces on host endpoints.  Hazard specs ({!fork_retracting},
    {!merge_unordered}) deliberately relax one environment
    precondition to demonstrate the counterexamples the protocol
    documents as composition rules.

    Partial-order / symmetry reductions (sound, see DESIGN.md
    "Verification"):
    - gated-offer canonicalization — at endpoints whose valid is
      provably read only under ready, delayed offers commute with
      every other event until the cycle they become visible, so only
      the canonical inject-on-ready order is explored;
    - absent-thread ready pinning — sink ready bits of threads with no
      token in flight are don't-care inputs and are pinned to 1;
    - data-independence quotient — a netlist taint analysis from the
      [*_data] inputs proves control/data separation, after which the
      data domain collapses to one value and data-path registers leave
      the state key. *)

type mode =
  | Naive  (** full product space: no gating, no pinning, no quotient *)
  | Reduced  (** all reductions on — the default *)

(** {1 System descriptions} *)

type spec

val spec_label : spec -> string
val spec_threads : spec -> int

val expected_violation : spec -> string option
(** [Some checker] for hazard specs whose purpose is to make the
    checker fire (environment-precondition violations documented as
    modeling artifacts); [None] for specs that must verify clean. *)

(** The zoo.  Channel data is 1 bit wide so the data domain is
    enumerated exhaustively; thread counts are the paper's S. *)

val meb :
  kind:Melastic.Meb.kind -> policy:Melastic.Policy.t -> threads:int -> spec
(** source -> MEB -> sink. *)

val meb_chain :
  kind:Melastic.Meb.kind -> policy:Melastic.Policy.t -> threads:int -> spec
(** source -> MEB -> MEB -> sink (stage composition). *)

val barrier : threads:int -> spec
(** source -> MEB (Valid_only) -> Barrier -> sink. *)

val fork : threads:int -> spec
(** source -> eager M-Fork -> two sinks. *)

val fork_retracting : threads:int -> spec
(** {!fork} with a producer allowed to retract an unfired offer — the
    documented eager-fork hazard; expects a conservation
    counterexample. *)

val join : threads:int -> spec
(** two sources -> MEB pair (leader/follower: [Ready_aware] over
    [Valid_only]) -> M-Join -> sink. *)

val join_unaligned : threads:int -> spec
(** {!join} with both producers' MEBs arbitrating independently
    ([Valid_only] twice) instead of leader/follower — the M-Join
    composition rule violated.  The rotating arbiters can phase-lock
    presenting different threads forever; expects a deadlock
    counterexample (needs [threads >= 2]). *)

val merge : fairness:Melastic.M_merge.fairness -> threads:int -> spec
(** two per-thread-exclusive sources -> M-Merge -> MEB -> sink. *)

val merge_unordered : threads:int -> spec
(** {!merge} without the per-thread exclusivity precondition — the
    documented M-Merge composition hazard; expects a conservation
    (per-thread order) counterexample. *)

val branch : threads:int -> spec
(** source -> MEB -> M-Branch (condition = the data bit) -> two sinks;
    data-dependent control, so the data quotient must refuse itself. *)

val router : threads:int -> spec
(** The NoC router node (lib/noc): two input ports, each an MEB
    feeding an M-Branch steered by the data bit, collected per output
    port by a [Fair] M-Merge — [Fair] because fabric merge inputs are
    not per-thread exclusive in general and the pinned [Priority_a]
    offer-order hazard ({!merge_unordered}) would let priority
    arbitration invert a thread's stream across converging routes.
    The model keeps the exclusivity the fabric's deterministic routes
    provide and proves the node itself never duplicates, drops,
    misroutes or deadlocks a token. *)

val varlat : threads:int -> spec
(** source -> shared fixed-latency unit -> sink. *)

val varlat_per_thread : threads:int -> spec
(** source -> per-thread-context fixed-latency unit -> sink. *)

val aligned : policy:Melastic.Policy.t -> threads:int -> spec
(** two sources -> Aligned join pair -> sink. *)

(** {1 Checking} *)

type stats = {
  states : int;  (** distinct state keys explored *)
  edges : int;  (** transitions taken *)
  max_depth : int;  (** BFS radius (= length of the longest minimal trace) *)
  data_collapsed : bool;  (** the data-independence quotient applied *)
  truncated : bool;  (** hit [max_states]; verdicts are then partial *)
}

type outcome = {
  spec_label : string;
  mode : mode;
  backend : string;
  stats : stats;
  props : (string * int) list;
      (** violation count per checker class, every class listed:
          ["one-hot"], ["at-most-one-full"], ["conservation"],
          ["deadlock"] *)
  reports : Monitor.violation list;
      (** detailed reports (capped), in the monitor's format *)
  trace : string list;
      (** minimal counterexample input trace for the first report:
          one poke line per cycle from reset *)
  clean : bool;  (** no violations at all *)
  ok : bool;
      (** verdict adjusted for hazard specs: a spec with
          {!expected_violation} [Some c] is ok iff class [c] fired *)
}

val run :
  ?backend:Hw.Sim.backend ->
  ?mode:mode ->
  ?max_states:int ->
  ?max_reports:int ->
  spec ->
  outcome
(** Exhaustive breadth-first exploration from reset.  [backend]
    defaults to [!Hw.Sim.default_backend] ([~optimize:false] always,
    so both backends enumerate the same register space); [max_states]
    (default 2_000_000) bounds the exploration and sets
    [stats.truncated] when hit; [max_reports] (default 6) caps stored
    reports while [props] keeps exact counts. *)

val mode_to_string : mode -> string

val suite : ?quick:bool -> unit -> spec list
(** The full verification suite: every MEB kind and policy for
    S = 1..4 plus the operator zoo (hazard specs included).  [quick]
    trims thread counts for CI. *)

val naive_comparable : ?quick:bool -> unit -> spec list
(** The subset of {!suite} small enough to also explore in [Naive]
    mode, used to measure the reduction factor. *)
