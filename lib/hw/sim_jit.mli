(** Native-JIT simulation backend.

    [create] pretty-prints the settled combinational cones of the
    circuit as straight-line OCaml source over {!Sim_compiled}'s
    unboxed-int slot arrays, compiles it with the native toolchain
    ([ocamlfind ocamlopt -shared]), loads it with [Dynlink], and swaps
    it in as the instance's settle schedules — everything else
    (commit, peek/poke, save/load_state, activity gating, observers)
    is [Sim_compiled]'s machinery, so the backends stay bit-identical
    by construction.  Compiled kernels are cached in process (keyed by
    a canonical netlist hash) and on disk ([_jit_cache/] under the
    working directory by default).  When no kernel can be built or
    loaded (no native toolchain, bytecode host, compile failure) the
    instance simply keeps [Sim_compiled]'s own schedules, and
    {!last_build} records [Fallback] with the reason.

    One observable difference from the other backends:
    {!Sim_intf.S.peek_signal} on an anonymous single-use node raises
    [Invalid_argument] under the native kernel, because the JIT
    register-allocates such nodes (their slot is never written).  Name
    the signal — named probes are always materialized — or use another
    backend.  Peeks by name are unaffected.

    Use through {!Sim} (backend [Jit]) unless backend-specific typing
    is needed. *)

include Sim_intf.S

(** {1 Kernel registration (generated code only)} *)

type maker =
  int array -> Bits.t array -> int array array -> Bits.t array array ->
  (unit -> unit) array ->
  (unit -> unit) * (unit -> unit) * ((unit -> unit) -> unit)
  * (int -> unit) option * (unit -> unit)
(** What a generated plugin registers: given the instance's int slot
    array, its wide ([Bits.t]) slot array, its narrow- and wide-memory
    contents (both in circuit memory order, [[||]] in the list a
    memory is not part of) and its table of kept wide-node closures
    (a safety net — the emitter covers every current shape natively),
    produce the [(full, input, commit, run, state)] functions.  The
    commit is the clear-less registers' latch and the memory write
    ports as straight-line code: it samples into locals, applies the
    ports, calls its argument — the cleared registers' sample — when
    a register has a clear, then writes (see
    {!Sim_compiled.Jit_support.set_commit}).  The run, emitted when
    the circuit has no cleared registers, is the batched free-run:
    n x {commit incl. memory write ports; state-cone settle} in one
    native loop, engaged by [cycles] when no observer is
    registered. *)

val register_kernel : maker -> unit
(** Called by the dynlinked plugin's toplevel initializer.  Not for
    host code. *)

(** {1 Configuration} *)

val cache_dir : unit -> string
(** Kernel cache directory: {!set_cache_dir} value if set, else the
    [ELASTIC_JIT_CACHE] environment variable, else [_jit_cache/] under
    the current working directory. *)

val set_cache_dir : string -> unit

(** {1 Build statistics and cache control} *)

type mode = Native | Fallback of string  (** fallback reason *)

type build_stats = {
  bmode : mode;
  hash : string;  (** canonical netlist hash, the cache key *)
  process_cache_hit : bool;
  disk_cache_hit : bool;
  codegen_seconds : float;
  compile_seconds : float;
  load_seconds : float;
  emitted_nodes : int;  (** nodes lowered to native code *)
  closure_nodes : int;  (** nodes left to their compiled closures *)
  inlined_nodes : int;
}

val last_build : unit -> build_stats option
(** Statistics of the most recent [create] (how its kernel was
    obtained and what the codegen did). *)

val cache_counters : unit -> int * int
(** [(disk_hits, disk_misses)] accumulated since start or
    {!reset_cache_counters}.  A process-cache hit counts as neither. *)

val reset_cache_counters : unit -> unit

val clear_process_cache : unit -> unit
(** Forget which kernels this process has already obtained, so the
    next [create] of each circuit goes back through disk-cache
    accounting (already-linked code is reused — a native unit can be
    dynlinked only once per process — and counts as a disk hit). *)

val clear_disk_cache : unit -> unit
(** Recursively delete {!cache_dir}. *)

val kernel_path : hash:string -> string
(** Where the disk cache keeps the compiled kernel of a netlist
    [hash] (see {!build_stats}).  A kernel is compiled under a private
    name in its cache entry and renamed onto this path, next to a
    digest of its bytes that every load checks first, so processes
    sharing {!cache_dir} never load a partial kernel; an entry that
    fails the check or the load is rebuilt and atomically replaced. *)
