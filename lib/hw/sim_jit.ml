(* Native-JIT simulation backend.

   The compiled backend ([Sim_compiled]) already stores narrow signals
   in an unboxed int array and pre-resolves every operand, but it
   still *walks a schedule of closures*: every settled node pays an
   indirect call, and every slot access a bounds check.  This backend
   removes that last layer of dispatch: the settled combinational
   cones are pretty-printed as straight-line OCaml source over the
   same slot arrays, compiled with the native toolchain
   ([ocamlfind ocamlopt -shared], or plain [ocamlopt]), loaded with
   [Dynlink], and swapped in as the instance's settle schedules.
   Everything else — storage layout, register and memory commit,
   ports, save/load_state, activity gating, observers — is
   [Sim_compiled]'s machinery, reused through
   [Sim_compiled.Jit_support], so the two backends cannot drift.

   Codegen ([generate_module]):
   - Every int-path node whose operands are int-path becomes one
     assignment [iv.(d) <- ...] with operand slots as literal indices
     and the width mask folded in.  The kernel is compiled [-unsafe],
     so slot accesses are raw loads/stores.
   - A node with exactly one consumer and no other observer (no name,
     no alias, not an output, not read by a register/memory commit or
     by a kept closure) is *register-allocated*: its expression is
     inlined into its consumer and its slot is never written.  This
     collapses single-use chains — the bulk of a datapath — into
     expressions ocamlopt keeps in machine registers.  [peek_signal]
     on such a node raises (name the signal to pin it); named probes
     are always materialized.
   - Wide ([Bits.t]) nodes and int nodes with wide operands are also
     emitted natively, as calls into the [Bits] limb-wise kernels over
     the instance's [bv] slot array (concatenations and selects are
     limb literals — one [Bits.unsafe_of_limbs] over an array of int
     limb expressions — muxes are pointer moves), so a 512-bit MD5
     datapath pays no closure dispatch either.  The [Sim_compiled] closure table is still
     passed in as a safety net for any shape the emitter does not
     cover.
   - A narrow select within the low [Sys.int_size] bits of a wide
     product of two int-path operands is one int expression,
     [((x * y) lsr lo) land mask] (see [fused_mul]); a product no
     other node reads is then never computed.  The CPU's ALU keeps
     the low 32 bits of its 32x32 multiply this way, with no [Bits.t]
     per cycle, while the netlist — and Table I's one DSP — keeps the
     [Mul] node.
   - The stepped commit applies the memory write ports natively, as
     the batched free-run does; only registers with a clear go back to
     the host between sample and write.
   - The three activity cones (full, input fan-out, state fan-out) are
     emitted as separate functions, preserving the dirty-flag gating.

   Kernels are cached at two levels: an in-process table keyed by the
   canonical netlist hash (N replicas of one circuit link the same
   code once), and an on-disk cache ([cache_dir], default [_jit_cache/]
   under the working directory, override with [ELASTIC_JIT_CACHE])
   holding the generated source and the compiled [.cmxs], so repeated
   runs of the same circuit skip codegen and compilation entirely.
   Entries are published by atomic rename with a content digest that
   is checked before every load ([build_cmxs]), so processes sharing
   the cache never load a partial or damaged kernel.

   When native loading is impossible — bytecode host, toolchain or the
   library's .cmi directory unavailable, compile failure — [create]
   keeps the [Sim_compiled] instance exactly as built: its own settle
   schedules, commit loops and per-cycle [cycles].  The outcome and
   its reason are recorded in [last_build] for the bench JSON. *)

module J = Sim_compiled.Jit_support

let name = "jit"

(* ---- configuration ---- *)

let codegen_version = "jitv8"
let max_inline_depth = 120

let cache_dir_override : string option ref = ref None

let cache_dir () =
  match !cache_dir_override with
  | Some d -> d
  | None ->
    (match Sys.getenv_opt "ELASTIC_JIT_CACHE" with
     | Some d when d <> "" -> d
     | _ -> Filename.concat (Sys.getcwd ()) "_jit_cache")

let set_cache_dir d = cache_dir_override := Some d

(* ---- build stats (read by the perf bench) ---- *)

type mode = Native | Fallback of string

type build_stats = {
  bmode : mode;
  hash : string;
  process_cache_hit : bool; (* kernel reused from the in-process table *)
  disk_cache_hit : bool; (* .cmxs found on disk; codegen+compile skipped *)
  codegen_seconds : float;
  compile_seconds : float;
  load_seconds : float;
  emitted_nodes : int; (* nodes lowered to native code *)
  closure_nodes : int; (* nodes left to their Sim_compiled closures *)
  inlined_nodes : int; (* register-allocated *)
}

let last_build_ref : build_stats option ref = ref None
let last_build () = !last_build_ref

let disk_hits = ref 0
let disk_misses = ref 0
let cache_counters () = (!disk_hits, !disk_misses)
let reset_cache_counters () = disk_hits := 0; disk_misses := 0

(* ---- kernel ABI (what generated plugins register) ---- *)

(* iv slots, bv (wide) slots, narrow- and wide-memory contents
   (circuit memory order, [[||]] in the list the memory is not part
   of), closure table -> (full, input, commit, run, state).
   The commit samples the clear-less registers into locals, applies
   the memory write ports, runs its argument — the cleared registers'
   sample, host-side — when there is one, then writes.  The run, when
   the circuit qualifies (no cleared registers), is the batched
   free-run: n x {commit incl. memory write ports; state-cone settle}
   as one native loop with no per-cycle dispatch. *)
type maker =
  int array -> Bits.t array -> int array array -> Bits.t array array ->
  (unit -> unit) array ->
  (unit -> unit) * (unit -> unit) * ((unit -> unit) -> unit)
  * (int -> unit) option * (unit -> unit)

let pending_kernel : maker option ref = ref None
let register_kernel m = pending_kernel := Some m

(* A native code unit can be dynlinked only once per process, so
   loaded makers are retained for the process lifetime in [loaded].
   [seen] is the droppable layer: clearing it ([clear_process_cache])
   makes the next [create] go back through cache-hit accounting, for
   honest cold/warm measurements without re-linking. *)
let loaded : (string, maker) Hashtbl.t = Hashtbl.create 16
let seen : (string, unit) Hashtbl.t = Hashtbl.create 16
let clear_process_cache () = Hashtbl.reset seen

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let clear_disk_cache () = rm_rf (cache_dir ())

(* One cache entry per netlist hash: a directory holding the kernel's
   source and its compiled unit. *)
let kernel_module hash = "elastic_jit_" ^ String.sub hash 0 12

let kernel_path ~hash =
  Filename.concat (Filename.concat (cache_dir ()) hash) (kernel_module hash ^ ".cmxs")

(* ---- emit plan ----

   Walks the full settle schedule once and classifies every node:
   [Emit] (int-pure, lowered to an OCaml expression) or [Closure k]
   (keeps its Sim_compiled closure, called as entry [k] of the
   instance's closure table). *)

type emitted =
  | Enot of { x : int; m : int }
  | Ebin of { op : Signal.binop; x : int; y : int; m : int; sb : int }
  | Emux of { sel : int; cases : int array }
  | Econcat of { parts : (int * int) array } (* (uid, width), MSB first *)
  | Eselect of { a : int; lo : int; m : int }
  | Emulsel of { x : int; y : int; lo : int; m : int }
      (* select of a wide product of two int operands, see [fused_mul] *)
  | Ememrd of { mi : int; a : int; size : int }

type step_plan =
  | Emit of emitted
  | Closure of int (* index into the instance closure table *)

type plan = {
  circuit : Circuit.t;
  sched : (Signal.t * step_plan) array; (* schedule in topological order *)
  n_closures : int;
  mem_index : (int, int) Hashtbl.t; (* mem_uid -> position in circuit.memories *)
  materialized : bool array; (* uid -> slot is written when settled *)
  defn : (int, emitted) Hashtbl.t; (* uid -> emitted op, for inlining *)
  (* When set, slot reads of these uids render as the given local
     variable instead of iv.(u)/bv.(u).  Active only while the batched
     free-run body is being emitted: there, register values and
     state-cone intermediates live in OCaml locals across the loop and
     the slots are refreshed once at batch exit. *)
  mutable rename : (int, string) Hashtbl.t option;
}

let resolve_uid s = (J.resolve s).Signal.uid

(* Select-of-multiply fusion.  A narrow select of bits [hi..lo], with
   [hi] below [Sys.int_size], of a wide product of two int-path
   operands reads only bits OCaml's [*] gets exactly: ints wrap modulo
   2^Sys.int_size, so the low [Sys.int_size] bits of [x * y] are those
   of the full product.  Such a select is one int expression over the
   factors, [((x * y) lsr lo) land mask], and reads the product node
   not at all.  Returns the product node and its two factors. *)
let fused_mul (s : Signal.t) =
  match s.Signal.op with
  | Signal.Select { hi; arg; _ } when J.is_int s && hi < Sys.int_size ->
    let a = J.resolve arg in
    (match a.Signal.op with
     | Signal.Binop (Signal.Mul, x, y) when not (J.is_int a) ->
       let x = J.resolve x and y = J.resolve y in
       if J.is_int x && J.is_int y then Some (a, x, y) else None
     | _ -> None)
  | _ -> None

(* Comb operands of a node, wire chains chased (a fused select reads
   the factors, not the product). *)
let operands (s : Signal.t) =
  let r = J.resolve in
  match s.Signal.op with
  | Signal.Const _ | Signal.Input _ | Signal.Reg _ | Signal.Wire _ -> []
  | Signal.Not x -> [ r x ]
  | Signal.Binop (_, x, y) -> [ r x; r y ]
  | Signal.Mux (sel, cases) -> r sel :: Array.to_list (Array.map r cases)
  | Signal.Concat parts -> List.map r parts
  | Signal.Select { arg; _ } ->
    (match fused_mul s with Some (_, x, y) -> [ x; y ] | None -> [ r arg ])
  | Signal.Mem_read { addr; _ } -> [ r addr ]

let classify mem_index (s : Signal.t) : emitted option =
  if not (J.is_int s) then None
  else begin
    let m = J.mask s.Signal.width in
    let int_op x = J.is_int (J.resolve x) in
    match s.Signal.op with
    | Signal.Const _ | Signal.Input _ | Signal.Reg _ | Signal.Wire _ -> None
    | Signal.Not x when int_op x -> Some (Enot { x = resolve_uid x; m })
    | Signal.Not _ -> None
    | Signal.Binop (op, x, y) when int_op x && int_op y ->
      let sb =
        match op with
        | Signal.Slt -> 1 lsl ((J.resolve x).Signal.width - 1)
        | _ -> 0
      in
      Some (Ebin { op; x = resolve_uid x; y = resolve_uid y; m; sb })
    | Signal.Binop _ -> None
    | Signal.Mux (sel, cases) when int_op sel ->
      (* cases have the node's width, hence are int too *)
      Some (Emux { sel = resolve_uid sel; cases = Array.map resolve_uid cases })
    | Signal.Mux _ -> None
    | Signal.Concat parts ->
      (* total width fits an int, so every part does *)
      Some
        (Econcat
           { parts =
               Array.of_list
                 (List.map
                    (fun p ->
                      let rp = J.resolve p in
                      (rp.Signal.uid, rp.Signal.width))
                    parts) })
    | Signal.Select { lo; arg; _ } when int_op arg ->
      Some (Eselect { a = resolve_uid arg; lo; m })
    | Signal.Select { lo; _ } ->
      Option.map
        (fun (_, (x : Signal.t), (y : Signal.t)) ->
          Emulsel { x = x.Signal.uid; y = y.Signal.uid; lo; m })
        (fused_mul s)
    | Signal.Mem_read { mem; addr }
      when mem.Signal.mem_width <= J.max_int_width && int_op addr ->
      Some
        (Ememrd
           { mi = Hashtbl.find mem_index mem.Signal.mem_uid;
             a = resolve_uid addr;
             size = mem.Signal.size })
    | Signal.Mem_read _ -> None
  end

let build_plan (base : Sim_compiled.t) (circuit : Circuit.t) =
  let n = circuit.Circuit.max_uid in
  let mem_index = Hashtbl.create 8 in
  List.iteri
    (fun i (m : Signal.memory) -> Hashtbl.replace mem_index m.Signal.mem_uid i)
    circuit.Circuit.memories;
  let step_nodes = J.step_nodes base in
  let scheduled = Array.make n false in
  Array.iter
    (fun ((s : Signal.t), _) -> scheduled.(s.Signal.uid) <- true)
    step_nodes;
  let defn = Hashtbl.create 256 in
  let n_closures = ref 0 in
  let sched =
    Array.map
      (fun ((s : Signal.t), _) ->
        match classify mem_index s with
        | Some e ->
          Hashtbl.replace defn s.Signal.uid e;
          (s, Emit e)
        | None ->
          let k = !n_closures in
          incr n_closures;
          (s, Closure k))
      step_nodes
  in
  (* Materialization: a node's slot must be written unless its value
     is only ever read by inlining it into its single emitted
     consumer.  Forced: anything peekable by name, anything the commit
     phase reads (register d/enable/clear, memory-port operands),
     anything a kept closure reads, outputs, and multi-use nodes. *)
  let force = Array.make n false in
  let uses = Array.make n 0 in
  let force_sig s = force.(resolve_uid s) <- true in
  Circuit.iter_nodes circuit (fun (s : Signal.t) ->
      (match s.Signal.op with
       | Signal.Reg r ->
         force_sig r.Signal.d;
         Option.iter force_sig r.Signal.enable;
         Option.iter force_sig r.Signal.clear
       | _ -> ());
      if s.Signal.name <> None || s.Signal.aliases <> [] then
        force.(resolve_uid s) <- true);
  List.iter
    (fun (m : Signal.memory) ->
      List.iter
        (fun (p : Signal.write_port) ->
          force_sig p.Signal.we;
          force_sig p.Signal.waddr;
          force_sig p.Signal.wdata)
        m.Signal.write_ports)
    circuit.Circuit.memories;
  List.iter (fun (_, s) -> force_sig s) circuit.Circuit.outputs;
  Array.iter
    (fun ((s : Signal.t), p) ->
      let ops = operands s in
      match p with
      | Emit _ ->
        List.iter
          (fun (d : Signal.t) -> uses.(d.Signal.uid) <- uses.(d.Signal.uid) + 1)
          ops
      | Closure _ ->
        List.iter (fun (d : Signal.t) -> force.(d.Signal.uid) <- true) ops)
    sched;
  let materialized = Array.make n true in
  Array.iter
    (fun ((s : Signal.t), p) ->
      match p with
      | Emit _ ->
        let u = s.Signal.uid in
        materialized.(u) <- force.(u) || uses.(u) > 1
      | Closure _ -> ())
    sched;
  (* A wide product read only by fused selects is never computed: its
     slot goes unwritten, like a register-allocated node's.  (Closures
     force their operands and no other emitted node reads a wide
     value, so [force] and [uses] see every other reader.) *)
  Array.iter
    (fun ((s : Signal.t), _) ->
      match fused_mul s with
      | Some (m, _, _) ->
        let u = m.Signal.uid in
        if not (force.(u) || uses.(u) > 0) then materialized.(u) <- false
      | None -> ())
    sched;
  (* Depth cap: a chain of thousands of single-use nodes must not
     become one expression; rematerialize where the tree gets deep. *)
  let depth = Array.make n 0 in
  Array.iter
    (fun ((s : Signal.t), p) ->
      match p with
      | Emit _ ->
        let u = s.Signal.uid in
        let d =
          1
          + List.fold_left
              (fun acc (op : Signal.t) ->
                let ou = op.Signal.uid in
                if scheduled.(ou) && not materialized.(ou) then
                  max acc depth.(ou)
                else acc)
              0 (operands s)
        in
        if d > max_inline_depth && not materialized.(u) then begin
          materialized.(u) <- true;
          depth.(u) <- 1
        end
        else depth.(u) <- d
      | Closure _ -> ())
    sched;
  { circuit; sched; n_closures = !n_closures; mem_index; materialized; defn;
    rename = None }

(* ---- canonical netlist hash (the kernel cache key) ----

   Everything the generated code depends on: node structure with raw
   uids (the code indexes slots by uid), widths, constants, names
   (they decide materialization), register/memory shapes, and the
   codegen-relevant knobs.  Memories are keyed by their per-circuit
   position — [mem_uid] is a process-global counter and would defeat
   cross-run caching. *)
let canonical_hash (plan : plan) =
  let b = Buffer.create 65536 in
  let add = Buffer.add_string b in
  let addi i =
    Buffer.add_string b (string_of_int i);
    Buffer.add_char b ','
  in
  add codegen_version;
  add Sys.ocaml_version;
  addi Sys.int_size;
  addi max_inline_depth;
  addi plan.circuit.Circuit.max_uid;
  Circuit.iter_nodes plan.circuit (fun (s : Signal.t) ->
      addi s.Signal.uid;
      addi s.Signal.width;
      (match s.Signal.name with Some n -> add n | None -> ());
      List.iter add s.Signal.aliases;
      match s.Signal.op with
      | Signal.Const c -> add "C"; add (Bits.to_hex_string c)
      | Signal.Input nm -> add "I"; add nm
      | Signal.Wire { driver = Some d } -> add "W"; addi d.Signal.uid
      | Signal.Wire { driver = None } -> add "W?"
      | Signal.Not x -> add "N"; addi x.Signal.uid
      | Signal.Binop (op, x, y) ->
        add "B";
        addi
          (match op with
           | Signal.And -> 0 | Signal.Or -> 1 | Signal.Xor -> 2
           | Signal.Add -> 3 | Signal.Sub -> 4 | Signal.Mul -> 5
           | Signal.Eq -> 6 | Signal.Ult -> 7 | Signal.Slt -> 8);
        addi x.Signal.uid;
        addi y.Signal.uid
      | Signal.Mux (sel, cases) ->
        add "M";
        addi sel.Signal.uid;
        Array.iter (fun (c : Signal.t) -> addi c.Signal.uid) cases
      | Signal.Concat parts ->
        add "K";
        List.iter (fun (p : Signal.t) -> addi p.Signal.uid) parts
      | Signal.Select { hi; lo; arg } ->
        add "S"; addi hi; addi lo; addi arg.Signal.uid
      | Signal.Reg r ->
        add "R";
        addi r.Signal.d.Signal.uid;
        (match r.Signal.enable with
         | Some e -> addi e.Signal.uid
         | None -> add "-");
        (match r.Signal.clear with
         | Some c -> addi c.Signal.uid
         | None -> add "-");
        add (Bits.to_hex_string r.Signal.clear_to);
        add (Bits.to_hex_string r.Signal.init)
      | Signal.Mem_read { mem; addr } ->
        add "G";
        addi (Hashtbl.find plan.mem_index mem.Signal.mem_uid);
        addi addr.Signal.uid);
  List.iteri
    (fun i (m : Signal.memory) ->
      add "mem";
      addi i;
      addi m.Signal.size;
      addi m.Signal.mem_width;
      List.iter
        (fun (p : Signal.write_port) ->
          addi p.Signal.we.Signal.uid;
          addi p.Signal.waddr.Signal.uid;
          addi p.Signal.wdata.Signal.uid)
        m.Signal.write_ports)
    plan.circuit.Circuit.memories;
  List.iter
    (fun (nm, (s : Signal.t)) -> add "out"; add nm; addi s.Signal.uid)
    plan.circuit.Circuit.outputs;
  Digest.to_hex (Digest.string (Buffer.contents b))

(* ---- native codegen ---- *)

let int_literal i = if i = max_int then "max_int" else Printf.sprintf "0x%x" i

(* Slot reads, honouring the batch-body rename table: a renamed uid is
   a loop-carried local (register value or state-cone intermediate),
   everything else reads its slot. *)
let int_slot (plan : plan) (uid : int) =
  match plan.rename with
  | Some t ->
    (match Hashtbl.find_opt t uid with
     | Some name -> name
     | None -> Printf.sprintf "iv.(%d)" uid)
  | None -> Printf.sprintf "iv.(%d)" uid

let wide_slot (plan : plan) (uid : int) =
  match plan.rename with
  | Some t ->
    (match Hashtbl.find_opt t uid with
     | Some name -> name
     | None -> Printf.sprintf "bv.(%d)" uid)
  | None -> Printf.sprintf "bv.(%d)" uid

(* The expression for an operand slot, or the full expression of a
   register-allocated (inlined) node. *)
let rec operand_expr (plan : plan) (uid : int) =
  if plan.materialized.(uid) then int_slot plan uid
  else expr_of plan (Hashtbl.find plan.defn uid)

and expr_of plan (e : emitted) =
  let op = operand_expr plan in
  match e with
  | Enot { x; m } -> Printf.sprintf "((lnot %s) land %s)" (op x) (int_literal m)
  | Ebin { op = bop; x; y; m; sb } ->
    (match bop with
     | Signal.And -> Printf.sprintf "(%s land %s)" (op x) (op y)
     | Signal.Or -> Printf.sprintf "(%s lor %s)" (op x) (op y)
     | Signal.Xor -> Printf.sprintf "(%s lxor %s)" (op x) (op y)
     | Signal.Add ->
       Printf.sprintf "((%s + %s) land %s)" (op x) (op y) (int_literal m)
     | Signal.Sub ->
       Printf.sprintf "((%s - %s) land %s)" (op x) (op y) (int_literal m)
     | Signal.Mul -> Printf.sprintf "(%s * %s)" (op x) (op y)
     | Signal.Eq -> Printf.sprintf "(if %s = %s then 1 else 0)" (op x) (op y)
     | Signal.Ult -> Printf.sprintf "(if %s < %s then 1 else 0)" (op x) (op y)
     | Signal.Slt ->
       Printf.sprintf "(if %s lxor %s < %s lxor %s then 1 else 0)" (op x)
         (int_literal sb) (op y) (int_literal sb))
  | Emux { sel; cases } ->
    let nc = Array.length cases in
    if nc = 1 then op cases.(0)
    else if nc = 2 then
      Printf.sprintf "(if %s = 0 then %s else %s)" (op sel) (op cases.(0))
        (op cases.(1))
    else begin
      let buf = Buffer.create 64 in
      Buffer.add_string buf (Printf.sprintf "(match %s with " (op sel));
      for i = 0 to nc - 2 do
        Buffer.add_string buf (Printf.sprintf "| %d -> %s " i (op cases.(i)))
      done;
      Buffer.add_string buf (Printf.sprintf "| _ -> %s)" (op cases.(nc - 1)));
      Buffer.contents buf
    end
  | Econcat { parts } ->
    let acc = ref (op (fst parts.(0))) in
    for i = 1 to Array.length parts - 1 do
      let u, w = parts.(i) in
      acc := Printf.sprintf "((%s lsl %d) lor %s)" !acc w (op u)
    done;
    !acc
  | Eselect { a; lo; m } ->
    if lo = 0 then Printf.sprintf "(%s land %s)" (op a) (int_literal m)
    else Printf.sprintf "((%s lsr %d) land %s)" (op a) lo (int_literal m)
  | Emulsel { x; y; lo; m } ->
    if lo = 0 then
      Printf.sprintf "((%s * %s) land %s)" (op x) (op y) (int_literal m)
    else
      Printf.sprintf "(((%s * %s) lsr %d) land %s)" (op x) (op y) lo
        (int_literal m)
  | Ememrd { mi; a; size } ->
    Printf.sprintf "(let a__ = %s in if a__ < %d then jm%d.(a__) else 0)"
      (op a) size mi

(* ---- native emission of wide steps ----

   Every [Closure]-classified shape has a [Bits]-API equivalent, so
   the native kernel computes wide nodes too, without indirect calls:
   binops call the limb-wise kernels, muxes are pointer moves through
   [bv], concatenations assemble their limbs in place, memory reads
   index the live store arrays.  Narrow operands are boxed on the fly
   ([Bits.of_int]); all operands of these nodes are forced
   materialized by the plan, so slot reads are always valid.  Returns
   [None] for a shape the emitter does not cover — the step then goes
   through the closure table as before. *)

let bits_operand (plan : plan) (x : Signal.t) =
  let x = J.resolve x in
  if J.is_int x then
    Printf.sprintf "(Bits.of_int ~width:%d %s)" x.Signal.width
      (int_slot plan x.Signal.uid)
  else wide_slot plan x.Signal.uid

(* Truncated int view of an operand (matches Bits.to_int_trunc). *)
let int_operand (plan : plan) (x : Signal.t) =
  let x = J.resolve x in
  if J.is_int x then int_slot plan x.Signal.uid
  else Printf.sprintf "(Bits.to_int_trunc %s)" (wide_slot plan x.Signal.uid)

(* ---- limb literals ----

   A wide concatenation or select is emitted as one
   [Bits.unsafe_of_limbs] over an array literal: a single allocation,
   no zero fill, no per-part kernel call.  Operands are described as
   terms [(e, at, vw)]: an int expression [e] whose value is below
   [2^vw], to be placed at result bit [at] ([at] may be negative: its
   low bits then fall off).  Limb [k] of the result is the OR of its
   overlapping terms, each shifted into place, masked only when some
   term carries bits past the limb or past the result width. *)

let limb_terms v ~at ~width =
  let lb = Bits.limb_width in
  List.init
    ((width + lb - 1) / lb)
    (fun j ->
      (Printf.sprintf "Bits.get_limb %s %d" v j, at + (j * lb),
       min lb (width - (j * lb))))

let limb_literal ~width terms =
  let lb = Bits.limb_width in
  let limb k =
    let lo = k * lb in
    let top = min ((k + 1) * lb) width in
    let here = List.filter (fun (_, at, vw) -> at < top && at + vw > lo) terms in
    let shifted (e, at, _) =
      let sh = at - lo in
      if sh = 0 then e
      else if sh > 0 then Printf.sprintf "(%s lsl %d)" e sh
      else Printf.sprintf "(%s lsr %d)" e (-sh)
    in
    let e =
      match here with
      | [] -> "0"
      | [ t ] -> shifted t
      | l -> "(" ^ String.concat " lor " (List.map shifted l) ^ ")"
    in
    if List.exists (fun (_, at, vw) -> at + vw > top) here then
      Printf.sprintf "(%s land %s)" e (int_literal ((1 lsl (top - lo)) - 1))
    else e
  in
  Printf.sprintf "Bits.unsafe_of_limbs ~width:%d [| %s |]" width
    (String.concat "; " (List.init ((width + lb - 1) / lb) limb))

(* Muxes with many cases index a per-node uid array bound in the
   prologue instead of expanding to a [match]. *)
let mux_inline_cases = 8

let wide_stmt_of (plan : plan) (s : Signal.t) : string option =
  let d = s.Signal.uid in
  let dest_int = J.is_int s in
  match s.Signal.op with
  | Signal.Const _ | Signal.Input _ | Signal.Reg _ | Signal.Wire _ -> None
  | Signal.Not x ->
    Some (Printf.sprintf "bv.(%d) <- Bits.lnot %s" d (bits_operand plan x))
  | Signal.Binop (op, x, y) ->
    let bx = bits_operand plan x and by = bits_operand plan y in
    (match (op, dest_int) with
     | Signal.Eq, true ->
       Some
         (Printf.sprintf "iv.(%d) <- (if Bits.equal %s %s then 1 else 0)" d bx
            by)
     | Signal.Ult, true ->
       Some
         (Printf.sprintf "iv.(%d) <- (if Bits.ult %s %s then 1 else 0)" d bx by)
     | Signal.Slt, true ->
       Some
         (Printf.sprintf "iv.(%d) <- (if Bits.slt %s %s then 1 else 0)" d bx by)
     | (Signal.And | Signal.Or | Signal.Xor | Signal.Add | Signal.Sub
       | Signal.Mul), false ->
       let f =
         match op with
         | Signal.And -> "logand" | Signal.Or -> "logor"
         | Signal.Xor -> "logxor" | Signal.Add -> "add"
         | Signal.Sub -> "sub" | Signal.Mul -> "mul"
         | _ -> assert false
       in
       Some (Printf.sprintf "bv.(%d) <- Bits.%s %s %s" d f bx by)
     | _ -> None)
  | Signal.Mux (sel, cases) ->
    let arr = if dest_int then "iv" else "bv" in
    let rd u = if dest_int then int_slot plan u else wide_slot plan u in
    let us = Array.map resolve_uid cases in
    let nc = Array.length us in
    let sel_e = int_operand plan sel in
    if nc = 1 then Some (Printf.sprintf "%s.(%d) <- %s" arr d (rd us.(0)))
    else if nc = 2 then
      Some
        (Printf.sprintf "%s.(%d) <- (if %s = 0 then %s else %s)" arr d sel_e
           (rd us.(0)) (rd us.(1)))
    else if nc <= mux_inline_cases || plan.rename <> None then begin
      (* In the batch body case values may be loop locals, so the
         uid-array indirection below is unavailable: always expand. *)
      let buf = Buffer.create 64 in
      Buffer.add_string buf
        (Printf.sprintf "%s.(%d) <- (match %s with " arr d sel_e);
      for i = 0 to nc - 2 do
        Buffer.add_string buf (Printf.sprintf "| %d -> %s " i (rd us.(i)))
      done;
      Buffer.add_string buf (Printf.sprintf "| _ -> %s)" (rd us.(nc - 1)));
      Some (Buffer.contents buf)
    end
    else
      Some
        (Printf.sprintf
           "%s.(%d) <- Array.unsafe_get %s (Array.unsafe_get mxc%d (let i__ = \
            %s in if i__ >= %d then %d else i__))"
           arr d arr d sel_e nc (nc - 1))
  | Signal.Concat parts when not dest_int ->
    (* Parts are bound once, then each result limb ORs the operand
       bits that land in it. *)
    let pos = ref s.Signal.width in
    let binds = ref [] and terms = ref [] in
    List.iteri
      (fun i p ->
        let p = J.resolve p in
        let pw = p.Signal.width and v = Printf.sprintf "k%d__" i in
        pos := !pos - pw;
        if J.is_int p then begin
          binds := (v, int_slot plan p.Signal.uid) :: !binds;
          terms := (v, !pos, pw) :: !terms
        end
        else begin
          binds := (v, wide_slot plan p.Signal.uid) :: !binds;
          terms := limb_terms v ~at:!pos ~width:pw @ !terms
        end)
      parts;
    Some
      (Printf.sprintf "bv.(%d) <- (let %s in %s)" d
         (String.concat " and "
            (List.rev_map (fun (v, e) -> v ^ " = " ^ e) !binds))
         (limb_literal ~width:s.Signal.width !terms))
  | Signal.Concat _ -> None (* narrow concats are always Emit-classified *)
  | Signal.Select { hi; lo; arg } ->
    let a = resolve_uid arg in
    if dest_int then begin
      let lb = Bits.limb_width in
      if hi / lb = lo / lb then begin
        (* Same-limb slice — the dominant shape on 32-bit datapaths
           (lane extracts from a 512-bit block): one raw load. *)
        let k = lo / lb and sh = lo mod lb in
        let e = Printf.sprintf "Bits.get_limb %s %d" (wide_slot plan a) k in
        let e = if sh = 0 then e else Printf.sprintf "(%s lsr %d)" e sh in
        let e =
          (* No mask needed when the slice reaches the limb's top bit:
             nothing sits above it after the shift. *)
          if hi mod lb = lb - 1 then e
          else
            Printf.sprintf "(%s land %s)" e
              (int_literal (J.mask (hi - lo + 1)))
        in
        Some (Printf.sprintf "iv.(%d) <- %s" d e)
      end
      else
        Some
          (Printf.sprintf "iv.(%d) <- Bits.select_int %s ~hi:%d ~lo:%d" d
             (wide_slot plan a) hi lo)
    end
    else
      (* Result bit [b] is source bit [lo + b]: the source limbs sit at
         [-lo]; those outside the slice fall off or are masked off. *)
      let src_w = (J.resolve arg).Signal.width in
      Some
        (Printf.sprintf "bv.(%d) <- (let a__ = %s in %s)" d (wide_slot plan a)
           (limb_literal ~width:(hi - lo + 1)
              (limb_terms "a__" ~at:(-lo) ~width:src_w)))
  | Signal.Mem_read { mem; addr } ->
    let mi = Hashtbl.find plan.mem_index mem.Signal.mem_uid in
    let size = mem.Signal.size in
    let a = int_operand plan addr in
    if mem.Signal.mem_width <= J.max_int_width then
      Some
        (Printf.sprintf
           "iv.(%d) <- (let a__ = %s in if a__ < %d then jm%d.(a__) else 0)" d
           a size mi)
    else
      Some
        (Printf.sprintf
           "bv.(%d) <- (let a__ = %s in if a__ < %d then Array.unsafe_get \
            bm%d a__ else z%d)"
           d a size mi mem.Signal.mem_width)

let generate_module (base : Sim_compiled.t) (plan : plan) ~hash =
  let buf = Buffer.create (1 lsl 16) in
  let add = Buffer.add_string buf in
  add "(* generated by Hw.Sim_jit -- do not edit *)\n";
  add
    (Printf.sprintf "(* netlist hash %s, circuit %S *)\n" hash
       plan.circuit.Circuit.name);
  add "let make iv bv mems bmems wide =\n";
  add "  ignore iv; ignore bv; ignore mems; ignore bmems; ignore wide;\n";
  List.iteri
    (fun i (m : Signal.memory) ->
      if m.Signal.mem_width <= J.max_int_width then
        add (Printf.sprintf "  let jm%d = mems.(%d) in\n  ignore jm%d;\n" i i i)
      else
        add
          (Printf.sprintf "  let bm%d = bmems.(%d) in\n  ignore bm%d;\n" i i i))
    plan.circuit.Circuit.memories;
  (* Prologue bindings the wide statements refer to: default values
     for out-of-range wide memory reads, case-uid arrays for muxes too
     big to expand to a [match]. *)
  let zero_widths = Hashtbl.create 4 in
  Array.iter
    (fun ((s : Signal.t), p) ->
      match p with
      | Emit _ -> ()
      | Closure _ ->
        (match s.Signal.op with
         | Signal.Mem_read { mem; _ }
           when mem.Signal.mem_width > J.max_int_width ->
           Hashtbl.replace zero_widths mem.Signal.mem_width ()
         | Signal.Mux (_, cases)
           when Array.length cases > mux_inline_cases ->
           add
             (Printf.sprintf "  let mxc%d = [| %s |] in\n" s.Signal.uid
                (String.concat "; "
                   (Array.to_list
                      (Array.map
                         (fun c -> string_of_int (resolve_uid c))
                         cases))))
         | _ -> ()))
    plan.sched;
  Hashtbl.iter
    (fun w () -> add (Printf.sprintf "  let z%d = Bits.zero %d in\n" w w))
    zero_widths;
  let emit_fn fname keep =
    add (Printf.sprintf "  let %s () =\n" fname);
    Array.iter
      (fun ((s : Signal.t), p) ->
        if keep s then
          match p with
          | Emit e ->
            let u = s.Signal.uid in
            if plan.materialized.(u) then
              add (Printf.sprintf "    iv.(%d) <- %s;\n" u (expr_of plan e))
          | Closure k ->
            if plan.materialized.(s.Signal.uid) then
              (match wide_stmt_of plan s with
               | Some stmt -> add (Printf.sprintf "    %s;\n" stmt)
               | None -> add (Printf.sprintf "    wide.(%d) ();\n" k)))
      plan.sched;
    add "    ()\n";
    add "  in\n"
  in
  emit_fn "jit_full" (fun _ -> true);
  emit_fn "jit_input" (fun s -> J.is_input_dep base s.Signal.uid);
  emit_fn "jit_state" (fun s -> J.is_state_dep base s.Signal.uid);
  let irc = J.int_reg_commits base and wrc = J.wide_reg_commits base in
  let emit_samples ind =
    Array.iteri
      (fun i (q, d, e) ->
        if e >= 0 then
          add
            (Printf.sprintf
               "%slet r%d = if iv.(%d) = 0 then iv.(%d) else iv.(%d) in\n" ind
               i e q d)
        else add (Printf.sprintf "%slet r%d = iv.(%d) in\n" ind i d))
      irc;
    Array.iteri
      (fun i (q, d, e) ->
        if e >= 0 then
          add
            (Printf.sprintf
               "%slet w%d = if iv.(%d) = 0 then bv.(%d) else bv.(%d) in\n" ind
               i e q d)
        else add (Printf.sprintf "%slet w%d = bv.(%d) in\n" ind i d))
      wrc
  in
  let emit_writes ind =
    Array.iteri
      (fun i (q, _, _) -> add (Printf.sprintf "%siv.(%d) <- r%d;\n" ind q i))
      irc;
    Array.iteri
      (fun i (q, _, _) -> add (Printf.sprintf "%sbv.(%d) <- w%d;\n" ind q i))
      wrc
  in
  (* Registers with a clear keep their host-side commit: with one, the
     stepped commit calls the host middle and there is no batched
     free-run. *)
  let has_cleared =
    List.exists
      (fun (s : Signal.t) ->
        match s.Signal.op with
        | Signal.Reg r -> r.Signal.clear <> None
        | _ -> false)
      (Circuit.registers plan.circuit)
  in
  (* Write ports read pre-commit values; creation order, so the
     last-added port wins, as in the host's commit.  Rename-aware: in
     the locals body the operands are loop locals, otherwise slots. *)
  let emit_ports out ind =
    List.iteri
      (fun mi (m : Signal.memory) ->
        let narrow = m.Signal.mem_width <= J.max_int_width in
        List.iter
          (fun (p : Signal.write_port) ->
            let we = int_slot plan (resolve_uid p.Signal.we) in
            let addr = int_operand plan p.Signal.waddr in
            let di = resolve_uid p.Signal.wdata in
            let data = if narrow then int_slot plan di else wide_slot plan di in
            Buffer.add_string out
              (Printf.sprintf
                 "%sif %s <> 0 then begin let a__ = %s in if a__ < %d then \
                  %s.(a__) <- %s end;\n"
                 ind we addr m.Signal.size
                 (if narrow then Printf.sprintf "jm%d" mi
                  else Printf.sprintf "bm%d" mi)
                 data))
          (List.rev m.Signal.write_ports))
      plan.circuit.Circuit.memories
  in
  (* The register commit, straight-line: sample every clear-less
     register into a local (constant slot indices, enable folded in),
     apply the memory write ports natively, run the host middle when
     some register has a clear (its sample reads pre-commit slots),
     then write the locals back.  The locals may spill to the stack,
     which is still far cheaper than the host's index-array loops and
     port closures (no per-register index loads, no enable test for
     the enable-less majority, no indirect call per port). *)
  add "  let jit_commit mid__ =\n";
  emit_samples "    ";
  emit_ports buf "    ";
  if has_cleared then add "    mid__ ();\n";
  emit_writes "    ";
  add "    ()\n";
  add "  in\n";
  (* Batched free-run: when no register has a clear (none of the real
     kernels do), the whole cycle — commit including the memory write
     ports, then the state-cone settle — can loop inside the plugin
     with no per-cycle dispatch at all.  The host engages it from
     [cycles] when there are no observers. *)
  (* Locals body of the batched free-run: register values and
     state-cone intermediates are loop-carried OCaml locals — no slot
     traffic on the hot path; the slots are written back and settled
     once at batch exit.  [None] when the state cone contains a node
     the native emitter does not cover (kept closure): closures read
     raw slots, so that cone must stay slot-based. *)
  let locals_body () =
    let body = Buffer.create 4096 in
    let addb = Buffer.add_string body in
    let t = Hashtbl.create 64 in
    Array.iteri
      (fun i (q, _, _) -> Hashtbl.replace t q (Printf.sprintf "q%d" i))
      irc;
    Array.iteri
      (fun i (q, _, _) -> Hashtbl.replace t q (Printf.sprintf "p%d" i))
      wrc;
    Array.iter
      (fun ((s : Signal.t), p) ->
        match p with
        | Emit _
          when J.is_state_dep base s.Signal.uid
               && plan.materialized.(s.Signal.uid) ->
          Hashtbl.replace t s.Signal.uid (Printf.sprintf "x%d" s.Signal.uid)
        | _ -> ())
      plan.sched;
    plan.rename <- Some t;
    Fun.protect
      ~finally:(fun () -> plan.rename <- None)
      (fun () ->
        match
          Array.iter
            (fun ((s : Signal.t), p) ->
              if J.is_state_dep base s.Signal.uid then
                match p with
                | Emit e ->
                  if plan.materialized.(s.Signal.uid) then
                    addb
                      (Printf.sprintf "        let x%d = %s in\n" s.Signal.uid
                         (expr_of plan e))
                | Closure _ ->
                  if plan.materialized.(s.Signal.uid) then
                    (match wide_stmt_of plan s with
                     | Some stmt -> addb (Printf.sprintf "        %s;\n" stmt)
                     | None -> raise Exit))
            plan.sched
        with
        | () ->
          (* Samples: enable folded in, the pre-commit register values
             are still bound as the loop parameters. *)
          Array.iteri
            (fun i (_, dd, e) ->
              if e >= 0 then
                addb
                  (Printf.sprintf "        let s%d = if %s = 0 then q%d else \
                                   %s in\n"
                     i (operand_expr plan e) i (operand_expr plan dd))
              else
                addb
                  (Printf.sprintf "        let s%d = %s in\n" i
                     (operand_expr plan dd)))
            irc;
          Array.iteri
            (fun i (_, dd, e) ->
              if e >= 0 then
                addb
                  (Printf.sprintf "        let t%d = if %s = 0 then p%d else \
                                   %s in\n"
                     i (operand_expr plan e) i (wide_slot plan dd))
              else
                addb
                  (Printf.sprintf "        let t%d = %s in\n" i
                     (wide_slot plan dd)))
            wrc;
          emit_ports body "        ";
          addb "        jit_chunk (k__ - 1)";
          Array.iteri (fun i _ -> addb (Printf.sprintf " s%d" i)) irc;
          Array.iteri (fun i _ -> addb (Printf.sprintf " t%d" i)) wrc;
          addb "\n";
          Some (Buffer.contents body)
        | exception Exit -> None)
  in
  if not has_cleared then begin
    match locals_body () with
    | Some body ->
      let params = Buffer.create 64 in
      Array.iteri
        (fun i _ -> Buffer.add_string params (Printf.sprintf " q%d" i))
        irc;
      Array.iteri
        (fun i _ -> Buffer.add_string params (Printf.sprintf " p%d" i))
        wrc;
      add "  let jit_run n__ =\n";
      add (Printf.sprintf "    let rec jit_chunk k__%s =\n"
             (Buffer.contents params));
      add "      if k__ = 0 then begin\n";
      Array.iteri
        (fun i (q, _, _) -> add (Printf.sprintf "        iv.(%d) <- q%d;\n" q i))
        irc;
      Array.iteri
        (fun i (q, _, _) -> add (Printf.sprintf "        bv.(%d) <- p%d;\n" q i))
        wrc;
      add "        ()\n";
      add "      end else begin\n";
      add body;
      add "      end\n";
      add "    in\n";
      (* Chunked driver: self-calls whose arguments spill to the stack
         are not tail-eliminated on every target, so bound the depth
         and round-trip the registers through their slots between
         chunks.  Nothing between chunks reads a state-cone slot (the
         body recomputes the cone from the registers it is passed), so
         the cone is settled once, after the last chunk. *)
      add "    let left__ = ref n__ in\n";
      add "    while !left__ > 0 do\n";
      add "      let c__ = if !left__ > 1024 then 1024 else !left__ in\n";
      add "      jit_chunk c__";
      Array.iter (fun (q, _, _) -> add (Printf.sprintf " iv.(%d)" q)) irc;
      Array.iter (fun (q, _, _) -> add (Printf.sprintf " bv.(%d)" q)) wrc;
      add ";\n";
      add "      left__ := !left__ - c__\n";
      add "    done;\n";
      add "    jit_state ()\n";
      add "  in\n"
    | None ->
      add "  let jit_run n__ =\n";
      add "    for _ = 1 to n__ do\n";
      emit_samples "      ";
      emit_ports buf "      ";
      emit_writes "      ";
      add "      jit_state ()\n";
      add "    done\n";
      add "  in\n"
  end;
  add
    (Printf.sprintf "  (jit_full, jit_input, jit_commit, %s, jit_state)\n"
       (if has_cleared then "None" else "Some jit_run"));
  add "\nlet () = Hw.Sim_jit.register_kernel make\n";
  Buffer.contents buf

(* ---- toolchain: locate cmi dirs, compile, dynlink ---- *)

exception Fell_back of string

let find_include_dirs () =
  match Sys.getenv_opt "ELASTIC_JIT_INCLUDES" with
  | Some s when s <> "" -> Some (String.split_on_char ':' s)
  | _ ->
    let probe root =
      let hw = Filename.concat root "lib/hw/.hw.objs/byte" in
      if Sys.file_exists (Filename.concat hw "hw.cmi") then
        (* The native dirs carry the .cmx files: with them visible,
           ocamlopt can inline the small Bits kernels (select_int,
           or_int_into, ...) straight into the generated code. *)
        Some
          (hw
          :: List.filter Sys.file_exists
               [ Filename.concat root "lib/hw/.hw.objs/native";
                 Filename.concat root "lib/bits/.bits.objs/byte";
                 Filename.concat root "lib/bits/.bits.objs/native" ])
      else None
    in
    let rec walk dir depth =
      if depth > 10 then None
      else
        match probe dir with
        | Some dirs -> Some dirs
        | None ->
          (match probe (Filename.concat dir "_build/default") with
           | Some dirs -> Some dirs
           | None ->
             let parent = Filename.dirname dir in
             if parent = dir then None else walk parent (depth + 1))
    in
    let from_exe =
      let d = Filename.dirname Sys.executable_name in
      if Filename.is_relative d then None else walk d 0
    in
    (match from_exe with
     | Some dirs -> Some dirs
     | None -> walk (Sys.getcwd ()) 0)

(* The generated plugin is compiled against hw.cmi and bits.cmi; a
   kernel built against different interfaces would be rejected by
   [Dynlink] at load time.  Mixing the cmi digests into the cache key
   turns that rejection into an honest cache miss instead. *)
let iface_fingerprint =
  lazy
    (match find_include_dirs () with
     | None -> "no-cmi"
     | Some dirs ->
       String.concat ";"
         (List.concat_map
            (fun d ->
              (* Every unit of the libraries, not just the [Hw]/[Bits]
                 alias modules: [Dynlink] checks the interface and
                 implementation of each unit the plugin imports
                 ([Hw__Sim_jit], ...).  cmx too: with cross-module
                 inlining the generated code bakes in implementation
                 details, not just the interfaces. *)
              (match Sys.readdir d with
               | files ->
                 Array.to_list files
                 |> List.filter (fun f ->
                        Filename.check_suffix f ".cmi"
                        || Filename.check_suffix f ".cmx")
                 |> List.sort compare
                 |> List.filter_map (fun f ->
                        match Digest.file (Filename.concat d f) with
                        | dg -> Some (f ^ ":" ^ Digest.to_hex dg)
                        | exception Sys_error _ -> None)
               | exception Sys_error _ -> []))
            dirs))

let compiler_command =
  lazy
    (let probe cmd = Sys.command (cmd ^ " -version > /dev/null 2>&1") = 0 in
     if probe "ocamlfind ocamlopt" then Some "ocamlfind ocamlopt"
     else if probe "ocamlopt.opt" then Some "ocamlopt.opt"
     else if probe "ocamlopt" then Some "ocamlopt"
     else None)

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    (try Sys.mkdir dir 0o755 with Sys_error _ -> ())
  end

let load_cmxs path =
  pending_kernel := None;
  (try Dynlink.loadfile_private path with
   | Dynlink.Error e ->
     raise (Fell_back ("dynlink: " ^ Dynlink.error_message e))
   | Sys_error e -> raise (Fell_back ("dynlink: " ^ e)));
  match !pending_kernel with
  | Some m -> m
  | None -> raise (Fell_back "plugin did not register a kernel")

(* Compile [src] (already on disk) to [out], compiler output to [log];
   raises [Fell_back]. *)
let compile_cmxs ~incs ~src ~out ~log =
  let compiler =
    match Lazy.force compiler_command with
    | Some c -> c
    | None -> raise (Fell_back "no native OCaml compiler on PATH")
  in
  let q = Filename.quote in
  let inc_flags = String.concat " " (List.map (fun d -> "-I " ^ q d) incs) in
  let attempt flags =
    Sys.command
      (Printf.sprintf "%s -shared %s %s -o %s %s > %s 2>&1" compiler flags
         inc_flags (q out) (q src) (q log))
  in
  (* -O2 is flambda-only; retry without it on a non-flambda switch. *)
  let rc = attempt "-unsafe -O2 -inline 100 -w -a" in
  let rc = if rc = 0 then 0 else attempt "-unsafe -inline 100 -w -a" in
  if rc <> 0 then
    raise (Fell_back (Printf.sprintf "compile failed (exit %d, log %s)" rc log))

(* Every kernel is dlopen'ed only once its bytes match the digest
   recorded next to it at build time: dlopen of a truncated shared
   object can kill the process (SIGBUS) rather than fail, so a damaged
   or unrecorded entry must be caught before the loader sees it. *)
let digest_path cmxs = cmxs ^ ".digest"

let verified cmxs =
  match In_channel.with_open_bin (digest_path cmxs) In_channel.input_all with
  | recorded -> String.trim recorded = Digest.to_hex (Digest.file cmxs)
  | exception Sys_error _ -> false

(* Build the kernel [modname] of [text] into the cache entry [dir] and
   return [load] of it.

   Everything is written in a private staging directory inside [dir]
   and the finished [.cmxs] is [Sys.rename]d onto its final name, its
   digest just before it, so a process sharing the cache never loads a
   half-written kernel: it finds no file (and builds its own), a
   complete one, or — when two builders interleave their renames — a
   digest mismatch, which is a rebuild.  [load] runs on the staged
   path, before the publish: after a failed load of the final path,
   dlopen would hand back the stale object it already mapped under
   that name.  The source is moved next to the kernel for inspection,
   and the compiler log is written there directly. *)
let stage_counter = ref 0

let build_cmxs ~incs ~dir ~modname text ~load =
  mkdir_p dir;
  incr stage_counter;
  let stage =
    Filename.concat dir
      (Printf.sprintf "stage-%d-%d" (Unix.getpid ()) !stage_counter)
  in
  mkdir_p stage;
  let staged ext = Filename.concat stage (modname ^ ext) in
  let final ext = Filename.concat dir (modname ^ ext) in
  Fun.protect
    ~finally:(fun () -> try rm_rf stage with Sys_error _ -> ())
    (fun () ->
      let oc = open_out (staged ".ml") in
      output_string oc text;
      close_out oc;
      compile_cmxs ~incs ~src:(staged ".ml") ~out:(staged ".cmxs")
        ~log:(final ".ml.log");
      let loaded = load (staged ".cmxs") in
      Out_channel.with_open_bin (digest_path (staged ".cmxs")) (fun oc ->
          Out_channel.output_string oc (Digest.to_hex (Digest.file (staged ".cmxs"))));
      Sys.rename (staged ".ml") (final ".ml");
      Sys.rename (digest_path (staged ".cmxs")) (digest_path (final ".cmxs"));
      Sys.rename (staged ".cmxs") (final ".cmxs");
      loaded)

(* ---- backend instance ---- *)

type t = {
  base : Sim_compiled.t;
  inlined : bool array; (* uid -> register-allocated (slot never written) *)
}

(* The native kernel of [plan], or [None] — with the reason recorded in
   [last_build] — when it cannot be had. *)
let obtain_maker (base : Sim_compiled.t) (plan : plan) ~hash =
  let now = Unix.gettimeofday in
  let t0 = now () in
  let record bmode ~process_hit ~disk_hit ~cg ~cc =
    let load_s =
      match bmode with Native -> now () -. t0 -. cg -. cc | Fallback _ -> 0.0
    in
    let emitted, closures, inl =
      match bmode with
      | Fallback _ -> (0, Array.length plan.sched, 0)
      | Native ->
        Array.fold_left
          (fun (e, c, i) ((s : Signal.t), p) ->
            match p with
            | Emit _ ->
              (e + 1, c, if plan.materialized.(s.Signal.uid) then i else i + 1)
            | Closure _ ->
              (* Wide steps the native codegen covers count as emitted,
                 products left to fused selects as inlined. *)
              if not plan.materialized.(s.Signal.uid) then (e + 1, c, i + 1)
              else if wide_stmt_of plan s <> None then (e + 1, c, i)
              else (e, c + 1, i))
          (0, 0, 0) plan.sched
    in
    last_build_ref :=
      Some
        { bmode; hash; process_cache_hit = process_hit;
          disk_cache_hit = disk_hit; codegen_seconds = cg; compile_seconds = cc;
          load_seconds = load_s; emitted_nodes = emitted;
          closure_nodes = closures; inlined_nodes = inl }
  in
  let native m ~process_hit ~disk_hit ~cg ~cc =
    record Native ~process_hit ~disk_hit ~cg ~cc;
    Some m
  in
  if Hashtbl.mem seen hash && Hashtbl.mem loaded hash then
    native (Hashtbl.find loaded hash) ~process_hit:true ~disk_hit:false ~cg:0.0
      ~cc:0.0
  else begin
    Hashtbl.replace seen hash ();
    match Hashtbl.find_opt loaded hash with
    | Some m ->
      (* linked earlier in this process; equivalent to a disk hit *)
      incr disk_hits;
      native m ~process_hit:false ~disk_hit:true ~cg:0.0 ~cc:0.0
    | None ->
      (try
         if not Dynlink.is_native then raise (Fell_back "bytecode host");
         let incs =
           match find_include_dirs () with
           | Some dirs -> dirs
           | None -> raise (Fell_back "library .cmi directory not found")
         in
         let dir = Filename.concat (cache_dir ()) hash in
         let modname = kernel_module hash in
         let cmxs = kernel_path ~hash in
         let compile_fresh () =
           let text = generate_module base plan ~hash in
           let t1 = now () in
           let t2 = ref t1 in
           let m =
             build_cmxs ~incs ~dir ~modname text ~load:(fun path ->
                 t2 := now ();
                 load_cmxs path)
           in
           let t2 = !t2 in
           Hashtbl.replace loaded hash m;
           native m ~process_hit:false ~disk_hit:false ~cg:(t1 -. t0)
             ~cc:(t2 -. t1)
         in
         if Sys.file_exists cmxs then begin
           match
             if verified cmxs then load_cmxs cmxs
             else raise (Fell_back "kernel does not match its recorded digest")
           with
           | m ->
             incr disk_hits;
             Hashtbl.replace loaded hash m;
             native m ~process_hit:false ~disk_hit:true ~cg:0.0 ~cc:0.0
           | exception Fell_back _ ->
             (* Corrupt or stale entry (the interface fingerprint in
                the key makes this rare): rebuild it; the rename
                replaces the bad file atomically. *)
             incr disk_misses;
             compile_fresh ()
         end
         else begin
           incr disk_misses;
           compile_fresh ()
         end
       with Fell_back reason ->
         record (Fallback reason) ~process_hit:false ~disk_hit:false ~cg:0.0
           ~cc:0.0;
         None)
  end

(* Kernel acquisition touches process-wide state — the lazy toolchain
   probes, the kernel tables, the cache counters, [Dynlink] — so
   simulators created on several domains at once take it in turn. *)
let acquire_lock = Mutex.create ()

let create circuit =
  let base = Sim_compiled.create circuit in
  let plan = build_plan base circuit in
  let maker =
    Mutex.protect acquire_lock (fun () ->
        let hash =
          Digest.to_hex
            (Digest.string (canonical_hash plan ^ Lazy.force iface_fingerprint))
        in
        obtain_maker base plan ~hash)
  in
  match maker with
  | None -> { base; inlined = [||] }
  | Some maker ->
    (* Per-instance closure table, in the same schedule order the
       codegen assigned indices. *)
    let wide = Array.make (max 1 plan.n_closures) (fun () -> ()) in
    let k = ref 0 in
    Array.iter2
      (fun ((_ : Signal.t), p) ((_ : Signal.t), f) ->
        match p with
        | Closure _ ->
          wide.(!k) <- f;
          incr k
        | Emit _ -> ())
      plan.sched (J.step_nodes base);
    let mems =
      Array.of_list
        (List.map
           (fun (m : Signal.memory) ->
             match J.imem base m with Some arr -> arr | None -> [||])
           circuit.Circuit.memories)
    in
    let bmems =
      Array.of_list
        (List.map
           (fun (m : Signal.memory) ->
             match J.bmem base m with Some arr -> arr | None -> [||])
           circuit.Circuit.memories)
    in
    let full, input, commit, run, state =
      maker (J.ivals base) (J.bvals base) mems bmems wide
    in
    J.set_schedules base ~full:[| full |] ~input:[| input |] ~state:[| state |];
    J.set_commit base commit;
    Option.iter (J.set_run base) run;
    let inlined = Array.make (max 1 circuit.Circuit.max_uid) false in
    Array.iter
      (fun ((s : Signal.t), _) ->
        if not plan.materialized.(s.Signal.uid) then
          inlined.(s.Signal.uid) <- true)
      plan.sched;
    { base; inlined }

let settle t = Sim_compiled.settle t.base
let cycle t = Sim_compiled.cycle t.base
let cycles t n = Sim_compiled.cycles t.base n
let cycle_no t = Sim_compiled.cycle_no t.base
let circuit t = Sim_compiled.circuit t.base
let on_cycle t f = Sim_compiled.on_cycle t.base (fun _ -> f t)

(* Ports are the compiled backend's slots: every node a name resolves
   to is materialized by the plan, so its slot is always written. *)
type port = Sim_compiled.port

let input_port ?op t nm = Sim_compiled.input_port ?op t.base nm
let signal_port ?op t nm = Sim_compiled.signal_port ?op t.base nm
let port_name = Sim_compiled.port_name
let port_width = Sim_compiled.port_width
let read t p = Sim_compiled.read t.base p
let read_int t p = Sim_compiled.read_int t.base p
let write t p v = Sim_compiled.write t.base p v
let write_int t p n = Sim_compiled.write_int t.base p n
let read_words t p buf off = Sim_compiled.read_words t.base p buf off
let write_words t p buf off = Sim_compiled.write_words t.base p buf off

let peek_signal t (s : Signal.t) =
  let r = J.resolve s in
  if r.Signal.uid < Array.length t.inlined && t.inlined.(r.Signal.uid) then
    invalid_arg
      (Printf.sprintf
         "Sim(jit).peek_signal: signal #%d was register-allocated by the JIT \
          (its slot is never written); name it to keep it observable, or use \
          the compiled backend"
         r.Signal.uid)
  else Sim_compiled.peek_signal t.base s

let state_words t = Sim_compiled.state_words t.base
let save_state t buf off = Sim_compiled.save_state t.base buf off
let load_state t buf off = Sim_compiled.load_state t.base buf off
let reset t = Sim_compiled.reset t.base
(* Memory ports are the compiled backend's live stores, which the
   kernel aliases ([jm]/[bm]), so a port write is seen by the kernel's
   reads and its commits alike. *)
type mem_port = Sim_compiled.mem_port

let mem_port t m = Sim_compiled.mem_port t.base m
let mem_get t p addr = Sim_compiled.mem_get t.base p addr
let mem_get_int t p addr = Sim_compiled.mem_get_int t.base p addr
let mem_set t p addr v = Sim_compiled.mem_set t.base p addr v
let mem_set_int t p addr v = Sim_compiled.mem_set_int t.base p addr v
let mem_fill_int t p ~pos ~len v = Sim_compiled.mem_fill_int t.base p ~pos ~len v
