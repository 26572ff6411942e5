(** CPU program-serving backend: jobs are assembly programs (plus
    initial register arguments), results are the thread's register
    file at halt.

    One replica is one {!Cpu.Mt_pipeline} elaborated with the serve
    job-control interface.  Instruction and data memory are
    partitioned into one region per slot: a job's program assembles at
    its slot's imem base (so absolute jump targets are correct), its
    registers are cleared to the supplied arguments, its dmem region
    is zeroed, and the convention register {!dmem_base_reg} receives
    the slot's dmem base so programs address their region as
    [offset(rN)].  The slot launches with a one-cycle [restart] pulse
    and completes when the thread's halted bit rises; cancellation
    pulses [kill] and reclaims the slot once the in-flight instruction
    drains — which is what makes deadline timeout on a runaway
    (non-halting) job recoverable. *)

type job = {
  source : string;  (** assembly text, one instruction per line *)
  args : (int * int) list;  (** initial register values, (reg, value) *)
}

type result = int array
(** The thread's registers r0..r15 at halt (r0 always 0). *)

val dmem_base_reg : int
(** The register preloaded with the slot's dmem base address
    (the highest register, r15). *)

val monitored_probes : string list
(** The probed channel names the monitors watch (the backend's
    {!Backend_intf.S.probes}). *)

val backend :
  ?kind:Melastic.Meb.kind ->
  ?monitor:bool ->
  ?slots:int ->
  ?imem_size:int ->
  ?dmem_size:int ->
  unit ->
  (job, result) Backend_intf.t
(** {!make} packed as a first-class backend module, for
    {!Engine.create_b} and for composition inside {!Noc_backend}. *)

val make :
  ?kind:Melastic.Meb.kind ->
  ?monitor:bool ->
  ?slots:int ->
  ?imem_size:int ->
  ?dmem_size:int ->
  unit ->
  int ->
  (job, result) Engine.replica
(** [make () index] builds replica [index]; partially applied it plugs
    into {!Engine.create}'s [make_replica].  [slots] defaults to 4.
    [monitor] attaches one-hot / stability / instruction-conservation
    checkers on the pipeline's probed channels.  [start] raises
    {!Cpu.Asm.Error} on bad assembly and [Invalid_argument] when the
    program overflows the slot's imem region. *)

val make_monitored :
  ?kind:Melastic.Meb.kind ->
  ?monitor:bool ->
  ?slots:int ->
  ?imem_size:int ->
  ?dmem_size:int ->
  unit ->
  int ->
  (job, result) Engine.replica * Monitor.t option
(** {!make}, also returning the replica's monitor when [monitor] is
    set — for callers that want its report or channel profile rather
    than just the violation count. *)
