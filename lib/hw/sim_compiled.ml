(* Compiled simulation backend.

   At [create] time the levelized node order is compiled once into a
   flat array of pre-resolved closures over mutable value storage, so
   the per-cycle hot path does no polymorphic dispatch on node kinds
   and — for narrow signals — no allocation at all:

   - Signals of width <= [Bits.max_int_width] (62 on 64-bit hosts) live
     in an unboxed [int array] indexed by uid; all of their operations
     are plain integer arithmetic masked to the signal width.
   - Wider signals (e.g. MD5's 128-bit digest bus) fall back to
     [Bits.t] storage and the same operations the interpreter uses.
   - Constants are written once at build time, primary inputs are
     written by [poke], and register outputs hold the latched state
     directly, so none of them occupy a slot in the settle schedule.
   - Wires are resolved away at compile time: every operand accessor
     chases the wire chain to the real driver, so wires (pervasive in
     feedback-heavy elastic designs) cost nothing per cycle.  Peeks
     chase the same chain, so named wires stay observable.

   Activity gating: the settle schedule is partitioned by what can
   invalidate a node — [steps_input] is the fan-out cone of the
   primary inputs, [steps_state] the cone of registers and memory
   reads (the two overlap; each is kept in topological order).  A
   dirty flag tracks pokes (an input write that changes a stored value
   sets it; a settle clears it), a second one memory-port writes and
   register loads:

   - [settle] is a no-op when nothing was poked, and otherwise runs
     only the input cone;
   - [cycle] skips its leading settle when the trailing settle of the
     previous cycle already left the circuit consistent, and its
     trailing settle runs only the state cone unless an observer
     poked.

   This removes the redundant full double-settle per cycle: a
   free-running circuit pays one state-cone settle per cycle, and a
   poke-per-cycle testbench pays one input-cone plus one state-cone
   settle instead of two full passes.  Nodes that depend on neither
   inputs nor state (constant cones) are evaluated once at [create]
   and never again.

   A fresh simulator is fully settled, exactly as after [reset].

   Semantics are bit-identical to [Sim_interp] (the test suite checks
   this cycle-for-cycle on randomized circuits): two-phase
   settle/commit, registers sampled before any write, memory write
   ports applied in creation order (last-added wins), out-of-range
   memory reads return zero, out-of-range writes are dropped, and
   out-of-range mux selects clamp to the last case. *)

let name = "compiled"
let name_ = name (* alias usable where [name] is shadowed by a parameter *)

let maxw = Bits.max_int_width

(* Mask of the low [w] bits, w <= maxw.  For w = maxw the shift wraps
   through the sign bit, so special-case it to [max_int]. *)
let mask w = if w >= maxw then max_int else (1 lsl w) - 1

type mem_store =
  | Imem of { arr : int array; init : int array }
  | Bmem of { arr : Bits.t array; init : Bits.t array }

type reg_step = {
  sample : unit -> unit; (* latch next value into scratch (phase a) *)
  write : unit -> unit; (* scratch -> state slot (phase c) *)
  reset_reg : unit -> unit; (* state slot <- init value *)
}

(* Narrow registers without a clear — the overwhelming majority in the
   real designs — commit through tight index-array loops instead of a
   closure pair per register: the commit is a fixed cost paid every
   cycle, so it is worth specializing.  [es.(i) = -1] marks a register
   with no enable (always loads). *)
type int_regs = {
  slots : int array; (* uid of the register's state slot *)
  ds : int array; (* uid of the data operand *)
  es : int array; (* uid of the enable operand, -1 if none *)
  scratch : int array; (* phase-a sample buffer *)
  inits : int array; (* reset values *)
}

(* Same specialization for wide clear-less registers: samples and
   writes are pointer moves through index arrays, no closures. *)
type wide_regs = {
  wslots : int array;
  wds : int array;
  wes : int array; (* -1 if none *)
  wscratch : Bits.t array;
  winits : Bits.t array;
}

type t = {
  circuit : Circuit.t;
  ivals : int array; (* uid -> value, signals of width <= maxw *)
  bvals : Bits.t array; (* uid -> value, wider signals *)
  mem_state : (int, mem_store) Hashtbl.t; (* mem_uid -> contents *)
  mutable steps : (unit -> unit) array;
  (* full settle schedule (input + state cones); mutable so Sim_jit
     can swap in compiled kernels for the three schedules *)
  mutable steps_input : (unit -> unit) array; (* fan-out cone of the primary inputs *)
  mutable steps_state : (unit -> unit) array; (* fan-out cone of registers/memories *)
  step_nodes : (Signal.t * (unit -> unit)) array;
  (* the full schedule with its nodes, in topological order — the raw
     material Sim_jit lowers to straight-line code *)
  input_dep : bool array; (* uid -> in the fan-out cone of an input *)
  state_dep : bool array; (* uid -> in the fan-out cone of state *)
  int_regs : int_regs;
  wide_regs : wide_regs;
  reg_steps : reg_step array; (* cleared registers: closure path *)
  mem_commits : (unit -> unit) array; (* write ports, phase b *)
  input_resets : (unit -> unit) array;
  state_regs : Signal.t array; (* Circuit.registers order, for save/load_state *)
  state_words : int;
  mutable dirty : bool; (* an input changed since the last settle *)
  mutable mstale : bool; (* a memory port wrote, or a state load ran *)
  mutable cycle_no : int;
  mutable observers : (t -> unit) array; (* registration order *)
  mutable commit_jit : ((unit -> unit) -> unit) option;
  (* Sim_jit's generated commit: samples the clear-less registers into
     locals, runs the memory write ports and calls its argument (the
     cleared registers' sample below), then writes.  Replaces the
     index-array loops and the port closures of [commit] when set. *)
  commit_mid : unit -> unit;
  (* the cleared registers' sample: between sample and write, because
     it reads pre-commit slot values *)
  mutable run_jit : (int -> unit) option;
  (* Sim_jit's batched free-run: n x {commit; state settle} as one
     native loop.  [cycles] engages it when no observer is registered. *)
}

let is_int (s : Signal.t) = s.Signal.width <= maxw

(* Chase wire chains to the driving node: every operand access and
   peek goes through the driver's slot, so wires need no settle step
   of their own. *)
let rec resolve (s : Signal.t) =
  match s.Signal.op with
  | Signal.Wire { driver = Some d } -> resolve d
  | Signal.Wire { driver = None } -> assert false (* rejected at elaboration *)
  | _ -> s

let create circuit =
  let n = circuit.Circuit.max_uid in
  let ivals = Array.make n 0 in
  let bvals = Array.make n (Bits.zero 1) in
  let mem_state = Hashtbl.create 8 in
  List.iter
    (fun (m : Signal.memory) ->
      let init =
        match m.Signal.init_contents with
        | Some a -> a
        | None -> Array.make m.Signal.size (Bits.zero m.Signal.mem_width)
      in
      let store =
        if m.Signal.mem_width <= maxw then
          let init = Array.map Bits.to_int_exn init in
          Imem { arr = Array.copy init; init }
        else Bmem { arr = Array.copy init; init }
      in
      Hashtbl.replace mem_state m.Signal.mem_uid store)
    circuit.Circuit.memories;
  (* Give every wide slot a correctly-sized zero so peeks before the
     first settle already have the right width. *)
  Circuit.iter_nodes circuit (fun (s : Signal.t) ->
      if not (is_int s) then bvals.(s.Signal.uid) <- Bits.zero s.Signal.width);
  (* Activity classification: which cones can a poke (input_dep) or a
     state commit (state_dep) invalidate?  Flags propagate through the
     topological order, wires included. *)
  let input_dep = Array.make n false in
  let state_dep = Array.make n false in
  Circuit.iter_nodes circuit (fun (s : Signal.t) ->
      (match s.Signal.op with
       | Signal.Input _ -> input_dep.(s.Signal.uid) <- true
       | Signal.Reg _ | Signal.Mem_read _ -> state_dep.(s.Signal.uid) <- true
       | _ -> ());
      List.iter
        (fun (d : Signal.t) ->
          if input_dep.(d.Signal.uid) then input_dep.(s.Signal.uid) <- true;
          if state_dep.(d.Signal.uid) then state_dep.(s.Signal.uid) <- true)
        (Circuit.comb_deps s));
  (* Operand accessors, pre-resolved to a storage slot. *)
  let get_int_of (x : Signal.t) =
    (* Truncated int view of any operand (matches Bits.to_int_trunc). *)
    let x = resolve x in
    let xi = x.Signal.uid in
    if is_int x then fun () -> ivals.(xi) else fun () -> Bits.to_int_trunc bvals.(xi)
  in
  let get_bits_of (x : Signal.t) =
    let x = resolve x in
    let xi = x.Signal.uid and xw = x.Signal.width in
    if is_int x then fun () -> Bits.of_int ~width:xw ivals.(xi)
    else fun () -> bvals.(xi)
  in
  let iuid (x : Signal.t) = (resolve x).Signal.uid in
  let compile (s : Signal.t) : (unit -> unit) option =
    let d = s.Signal.uid in
    let w = s.Signal.width in
    if is_int s then begin
      let m = mask w in
      match s.Signal.op with
      | Signal.Const _ | Signal.Input _ | Signal.Reg _ -> None
      | Signal.Wire _ -> None (* operands and peeks resolve through it *)
      | Signal.Not x ->
        let xi = iuid x in
        Some (fun () -> ivals.(d) <- lnot ivals.(xi) land m)
      | Signal.Binop (op, x, y) ->
        let rx = resolve x and ry = resolve y in
        let xi = rx.Signal.uid and yi = ry.Signal.uid in
        (match op with
         | Signal.And -> Some (fun () -> ivals.(d) <- ivals.(xi) land ivals.(yi))
         | Signal.Or -> Some (fun () -> ivals.(d) <- ivals.(xi) lor ivals.(yi))
         | Signal.Xor -> Some (fun () -> ivals.(d) <- ivals.(xi) lxor ivals.(yi))
         | Signal.Add -> Some (fun () -> ivals.(d) <- (ivals.(xi) + ivals.(yi)) land m)
         | Signal.Sub -> Some (fun () -> ivals.(d) <- (ivals.(xi) - ivals.(yi)) land m)
         | Signal.Mul ->
           (* Node width = sum of operand widths <= maxw: the product
              cannot overflow, no mask needed. *)
           Some (fun () -> ivals.(d) <- ivals.(xi) * ivals.(yi))
         | Signal.Eq ->
           if is_int rx then Some (fun () -> ivals.(d) <- if ivals.(xi) = ivals.(yi) then 1 else 0)
           else Some (fun () -> ivals.(d) <- if Bits.equal bvals.(xi) bvals.(yi) then 1 else 0)
         | Signal.Ult ->
           (* Int-path values are non-negative, so OCaml's (<) is an
              unsigned compare. *)
           if is_int rx then Some (fun () -> ivals.(d) <- if ivals.(xi) < ivals.(yi) then 1 else 0)
           else Some (fun () -> ivals.(d) <- if Bits.ult bvals.(xi) bvals.(yi) then 1 else 0)
         | Signal.Slt ->
           if is_int rx then begin
             (* Flipping the sign bit turns signed order into unsigned. *)
             let sb = 1 lsl (rx.Signal.width - 1) in
             Some
               (fun () ->
                 ivals.(d) <- if ivals.(xi) lxor sb < ivals.(yi) lxor sb then 1 else 0)
           end
           else Some (fun () -> ivals.(d) <- if Bits.slt bvals.(xi) bvals.(yi) then 1 else 0))
      | Signal.Mux (sel, cases) ->
        let ncases = Array.length cases in
        let case_uids = Array.map iuid cases in
        let rsel = resolve sel in
        if ncases = 2 && is_int rsel then begin
          (* Fully inlined 2-case mux: no selector closure, direct
             slot reads (the dominant mux shape in elastic control). *)
          let si = rsel.Signal.uid in
          let u0 = case_uids.(0) and u1 = case_uids.(1) in
          Some
            (fun () ->
              ivals.(d) <- if ivals.(si) = 0 then ivals.(u0) else ivals.(u1))
        end
        else begin
          let get_sel = get_int_of sel in
          if ncases = 2 then begin
            let u0 = case_uids.(0) and u1 = case_uids.(1) in
            Some (fun () -> ivals.(d) <- if get_sel () = 0 then ivals.(u0) else ivals.(u1))
          end
          else
            Some
              (fun () ->
                let i = get_sel () in
                let i = if i >= ncases then ncases - 1 else i in
                ivals.(d) <- ivals.(case_uids.(i)))
        end
      | Signal.Concat parts ->
        (* Total width <= maxw, so every part is on the int path. *)
        let us = Array.of_list (List.map iuid parts) in
        let ws = Array.of_list (List.map (fun (p : Signal.t) -> p.Signal.width) parts) in
        Some
          (fun () ->
            let acc = ref 0 in
            for i = 0 to Array.length us - 1 do
              acc := (!acc lsl ws.(i)) lor ivals.(us.(i))
            done;
            ivals.(d) <- !acc)
      | Signal.Select { hi; lo; arg } ->
        let arg = resolve arg in
        if is_int arg then begin
          let ai = arg.Signal.uid in
          Some (fun () -> ivals.(d) <- (ivals.(ai) lsr lo) land m)
        end
        else begin
          let ai = arg.Signal.uid in
          Some (fun () -> ivals.(d) <- Bits.select_int bvals.(ai) ~hi ~lo)
        end
      | Signal.Mem_read { mem; addr } ->
        let size = mem.Signal.size in
        let get_addr = get_int_of addr in
        (match Hashtbl.find mem_state mem.Signal.mem_uid with
         | Imem { arr; _ } ->
           Some
             (fun () ->
               let a = get_addr () in
               ivals.(d) <- if a < size then arr.(a) else 0)
         | Bmem _ -> assert false (* store width = node width <= maxw *))
    end
    else begin
      (* Wide fallback: same computations as the interpreter, over
         [Bits.t] slots.  Narrow operands (e.g. a full multiplier's
         factors) are boxed on the fly. *)
      match s.Signal.op with
      | Signal.Const _ | Signal.Input _ | Signal.Reg _ -> None
      | Signal.Wire _ -> None
      | Signal.Not x ->
        let gx = get_bits_of x in
        Some (fun () -> bvals.(d) <- Bits.lnot (gx ()))
      | Signal.Binop (op, x, y) ->
        let gx = get_bits_of x and gy = get_bits_of y in
        let f =
          match op with
          | Signal.And -> Bits.logand
          | Signal.Or -> Bits.logor
          | Signal.Xor -> Bits.logxor
          | Signal.Add -> Bits.add
          | Signal.Sub -> Bits.sub
          | Signal.Mul -> Bits.mul
          | Signal.Eq | Signal.Ult | Signal.Slt ->
            assert false (* comparisons are 1 bit wide: int path *)
        in
        Some (fun () -> bvals.(d) <- f (gx ()) (gy ()))
      | Signal.Mux (sel, cases) ->
        let ncases = Array.length cases in
        let case_uids = Array.map iuid cases in
        let get_sel = get_int_of sel in
        Some
          (fun () ->
            let i = get_sel () in
            let i = if i >= ncases then ncases - 1 else i in
            bvals.(d) <- bvals.(case_uids.(i)))
      | Signal.Concat parts ->
        (* Assemble the result's limbs directly: narrow fields OR in
           from their int slots without boxing each as a [Bits.t],
           wide fields limb-wise.  This is the hottest wide shape by
           far (datapath buses are concatenations of 32-bit lanes). *)
        let fields =
          let pos = ref w in
          Array.of_list
            (List.map
               (fun (p : Signal.t) ->
                 pos := !pos - p.Signal.width;
                 let x = resolve p in
                 (!pos, x.Signal.width, x.Signal.uid, is_int x))
               parts)
        in
        Some
          (fun () ->
            let r = Bits.zero w in
            Array.iter
              (fun (pos, pw, u, int_path) ->
                if int_path then Bits.or_int_into r ~pos ~width:pw ivals.(u)
                else Bits.or_bits_into r ~pos bvals.(u))
              fields;
            bvals.(d) <- r)
      | Signal.Select { hi; lo; arg } ->
        (* The slice is wider than maxw, so the argument is too. *)
        let ai = iuid arg in
        Some (fun () -> bvals.(d) <- Bits.select bvals.(ai) ~hi ~lo)
      | Signal.Mem_read { mem; addr } ->
        let size = mem.Signal.size in
        let zero = Bits.zero mem.Signal.mem_width in
        let get_addr = get_int_of addr in
        (match Hashtbl.find mem_state mem.Signal.mem_uid with
         | Bmem { arr; _ } ->
           Some
             (fun () ->
               let a = get_addr () in
               bvals.(d) <- if a < size then arr.(a) else zero)
         | Imem _ -> assert false)
    end
  in
  let steps = ref [] in (* (node, closure, input_dep, state_dep), reverse topo *)
  Circuit.iter_nodes circuit (fun s ->
      (* Constants and initial register/input values are written into
         their slots here; they need no settle step. *)
      (match s.Signal.op with
       | Signal.Const c ->
         if is_int s then ivals.(s.Signal.uid) <- Bits.to_int_exn c
         else bvals.(s.Signal.uid) <- c
       | Signal.Reg r ->
         if is_int s then ivals.(s.Signal.uid) <- Bits.to_int_exn r.Signal.init
         else bvals.(s.Signal.uid) <- r.Signal.init
       | _ -> ());
      match compile s with
      | Some f ->
        let u = s.Signal.uid in
        steps := (s, f, input_dep.(u), state_dep.(u)) :: !steps
      | None -> ());
  let all = List.rev !steps in
  (* Constant cones (neither input- nor state-dependent) are settled
     exactly once, here, and never enter a schedule. *)
  List.iter (fun (_, f, i, st) -> if (not i) && not st then f ()) all;
  let pick p = Array.of_list (List.filter_map p all) in
  let steps = pick (fun (_, f, i, st) -> if i || st then Some f else None) in
  let steps_input = pick (fun (_, f, i, _) -> if i then Some f else None) in
  let steps_state = pick (fun (_, f, _, st) -> if st then Some f else None) in
  let step_nodes =
    pick (fun (s, f, i, st) -> if i || st then Some (s, f) else None)
  in
  (* Register commit: latch every next value before writing any state
     slot, so simultaneous register-to-register exchanges are safe.
     Narrow clear-less registers go into the index-array fast path;
     the rest compile to a closure triple. *)
  let compile_reg (s : Signal.t) =
    match s.Signal.op with
    | Signal.Reg r ->
      let slot = s.Signal.uid in
      let get_clear =
        match r.Signal.clear with
        | None -> fun () -> false
        | Some c -> let ci = iuid c in fun () -> ivals.(ci) <> 0
      in
      let get_enable =
        match r.Signal.enable with
        | None -> fun () -> true
        | Some e -> let ei = iuid e in fun () -> ivals.(ei) <> 0
      in
      if is_int s then begin
        let di = iuid r.Signal.d in
        let clear_to = Bits.to_int_exn r.Signal.clear_to in
        let init = Bits.to_int_exn r.Signal.init in
        let scratch = ref 0 in
        { sample =
            (fun () ->
              scratch :=
                if get_clear () then clear_to
                else if get_enable () then ivals.(di)
                else ivals.(slot));
          write = (fun () -> ivals.(slot) <- !scratch);
          reset_reg = (fun () -> ivals.(slot) <- init) }
      end
      else begin
        let di = iuid r.Signal.d in
        let scratch = ref r.Signal.init in
        let sample =
          (* Direct slot reads for the common clear-less shapes; the
             generic closure pair only for cleared registers. *)
          match (r.Signal.clear, r.Signal.enable) with
          | None, None -> fun () -> scratch := bvals.(di)
          | None, Some e ->
            let ei = iuid e in
            fun () ->
              scratch := if ivals.(ei) <> 0 then bvals.(di) else bvals.(slot)
          | Some _, _ ->
            fun () ->
              scratch :=
                if get_clear () then r.Signal.clear_to
                else if get_enable () then bvals.(di)
                else bvals.(slot)
        in
        { sample;
          write = (fun () -> bvals.(slot) <- !scratch);
          reset_reg = (fun () -> bvals.(slot) <- r.Signal.init) }
      end
    | _ -> assert false
  in
  let clearless, slow =
    List.partition
      (fun (s : Signal.t) ->
        match s.Signal.op with
        | Signal.Reg r -> r.Signal.clear = None
        | _ -> false)
      (Circuit.registers circuit)
  in
  let fast, fast_wide = List.partition is_int clearless in
  let int_regs =
    let k = List.length fast in
    let regs =
      { slots = Array.make k 0; ds = Array.make k 0; es = Array.make k (-1);
        scratch = Array.make k 0; inits = Array.make k 0 }
    in
    List.iteri
      (fun i (s : Signal.t) ->
        match s.Signal.op with
        | Signal.Reg r ->
          regs.slots.(i) <- s.Signal.uid;
          regs.ds.(i) <- iuid r.Signal.d;
          (match r.Signal.enable with
           | Some e -> regs.es.(i) <- iuid e
           | None -> ());
          regs.inits.(i) <- Bits.to_int_exn r.Signal.init
        | _ -> assert false)
      fast;
    regs
  in
  let wide_regs =
    let k = List.length fast_wide in
    let dummy = Bits.zero 1 in
    let regs =
      { wslots = Array.make k 0; wds = Array.make k 0; wes = Array.make k (-1);
        wscratch = Array.make k dummy; winits = Array.make k dummy }
    in
    List.iteri
      (fun i (s : Signal.t) ->
        match s.Signal.op with
        | Signal.Reg r ->
          regs.wslots.(i) <- s.Signal.uid;
          regs.wds.(i) <- iuid r.Signal.d;
          (match r.Signal.enable with
           | Some e -> regs.wes.(i) <- iuid e
           | None -> ());
          regs.winits.(i) <- r.Signal.init
        | _ -> assert false)
      fast_wide;
    regs
  in
  let reg_steps = Array.of_list (List.map compile_reg slow) in
  (* Memory write ports, in creation order (last-added wins). *)
  let compile_mem (m : Signal.memory) =
    let size = m.Signal.size in
    let store = Hashtbl.find mem_state m.Signal.mem_uid in
    let ports =
      List.map
        (fun (p : Signal.write_port) ->
          let wei = iuid p.Signal.we in
          let ra = resolve p.Signal.waddr in
          let ai = ra.Signal.uid in
          let addr_is_int = is_int ra in
          let get_addr = get_int_of p.Signal.waddr in
          match store with
          | Imem { arr; _ } ->
            let di = iuid p.Signal.wdata in
            if addr_is_int then
              (fun () ->
                if ivals.(wei) <> 0 then begin
                  let a = ivals.(ai) in
                  if a < size then arr.(a) <- ivals.(di)
                end)
            else
              (fun () ->
                if ivals.(wei) <> 0 then begin
                  let a = get_addr () in
                  if a < size then arr.(a) <- ivals.(di)
                end)
          | Bmem { arr; _ } ->
            let di = iuid p.Signal.wdata in
            if addr_is_int then
              (fun () ->
                if ivals.(wei) <> 0 then begin
                  let a = ivals.(ai) in
                  if a < size then arr.(a) <- bvals.(di)
                end)
            else
              (fun () ->
                if ivals.(wei) <> 0 then begin
                  let a = get_addr () in
                  if a < size then arr.(a) <- bvals.(di)
                end))
        (List.rev m.Signal.write_ports)
    in
    let ports = Array.of_list ports in
    fun () -> Array.iter (fun p -> p ()) ports
  in
  let mem_commits =
    Array.of_list (List.map compile_mem circuit.Circuit.memories)
  in
  let input_resets =
    let rs = ref [] in
    Circuit.iter_nodes circuit (fun (s : Signal.t) ->
        match s.Signal.op with
        | Signal.Input _ ->
          let slot = s.Signal.uid and w = s.Signal.width in
          let r =
            if is_int s then fun () -> ivals.(slot) <- 0
            else fun () -> bvals.(slot) <- Bits.zero w
          in
          rs := r :: !rs
        | _ -> ());
    Array.of_list !rs
  in
  let state_regs = Array.of_list (Circuit.registers circuit) in
  let t =
    { circuit; ivals; bvals; mem_state; steps; steps_input; steps_state;
      step_nodes; input_dep; state_dep;
      int_regs; wide_regs; reg_steps; mem_commits; input_resets; state_regs;
      state_words = Sim_intf.state_words_of state_regs;
      dirty = false; mstale = false; cycle_no = 0; observers = [||];
      commit_jit = None;
      run_jit = None;
      commit_mid = (fun () -> Array.iter (fun r -> r.sample ()) reg_steps) }
  in
  (* A fresh simulator is fully settled (same state as after [reset]). *)
  Array.iter (fun f -> f ()) t.steps;
  t

let run_steps (steps : (unit -> unit) array) =
  for i = 0 to Array.length steps - 1 do
    (Array.unsafe_get steps i) ()
  done

(* Pokes invalidate the input cone; memory-port writes invalidate
   the state cone (async read fan-out).  [cycle] re-settles the state
   cone after every commit, so with neither flag set every slot is
   already consistent and settling is a no-op. *)
let settle t =
  if t.dirty && t.mstale then begin
    run_steps t.steps;
    t.dirty <- false;
    t.mstale <- false
  end
  else if t.dirty then begin
    run_steps t.steps_input;
    t.dirty <- false
  end
  else if t.mstale then begin
    run_steps t.steps_state;
    t.mstale <- false
  end

let commit_generic t =
  (* Phase a: sample every register's next value (old slot values).
     Phase b: memory writes, which also read pre-commit slot values.
     Phase c: registers latch. *)
  let ir = t.int_regs and ivals = t.ivals in
  for i = 0 to Array.length ir.slots - 1 do
    let e = Array.unsafe_get ir.es i in
    Array.unsafe_set ir.scratch i
      (if e >= 0 && Array.unsafe_get ivals e = 0 then
         Array.unsafe_get ivals (Array.unsafe_get ir.slots i)
       else Array.unsafe_get ivals (Array.unsafe_get ir.ds i))
  done;
  let wr = t.wide_regs and bvals = t.bvals in
  for i = 0 to Array.length wr.wslots - 1 do
    let e = Array.unsafe_get wr.wes i in
    Array.unsafe_set wr.wscratch i
      (if e >= 0 && Array.unsafe_get ivals e = 0 then
         Array.unsafe_get bvals (Array.unsafe_get wr.wslots i)
       else Array.unsafe_get bvals (Array.unsafe_get wr.wds i))
  done;
  Array.iter (fun r -> r.sample ()) t.reg_steps;
  Array.iter (fun f -> f ()) t.mem_commits;
  for i = 0 to Array.length ir.slots - 1 do
    Array.unsafe_set ivals (Array.unsafe_get ir.slots i)
      (Array.unsafe_get ir.scratch i)
  done;
  for i = 0 to Array.length wr.wslots - 1 do
    Array.unsafe_set bvals (Array.unsafe_get wr.wslots i)
      (Array.unsafe_get wr.wscratch i)
  done;
  Array.iter (fun r -> r.write ()) t.reg_steps

let commit t =
  match t.commit_jit with
  | Some f ->
    (* Generated commit: straight-line samples into locals, the memory
       write ports, the cleared registers' sample via the argument,
       straight-line writes.  Cleared registers still latch host-side,
       after the generated writes (write order among registers is
       immaterial — every sample already happened). *)
    f t.commit_mid;
    Array.iter (fun r -> r.write ()) t.reg_steps
  | None -> commit_generic t

let cycle t =
  (* Leading settle: only needed if something was poked or written
     since the last settle (the trailing settle below keeps everything
     else fresh). *)
  settle t;
  for i = 0 to Array.length t.observers - 1 do
    t.observers.(i) t
  done;
  commit t;
  t.cycle_no <- t.cycle_no + 1;
  (* Trailing settle: the commit invalidated the state cone.  If an
     observer poked, the input cone is stale too — run the full
     schedule (observer pokes take effect here, after the commit,
     exactly as in the unpartitioned model). *)
  if t.dirty then begin
    run_steps t.steps;
    t.dirty <- false;
    t.mstale <- false
  end
  else begin
    run_steps t.steps_state;
    t.mstale <- false
  end

let cycles t n =
  match t.run_jit with
  | Some run when Array.length t.observers = 0 && n > 0 ->
    (* Flush pending pokes/testbench writes, then hand the whole batch
       to the generated loop.  It leaves every slot settled (its last
       action per cycle is the state-cone settle), so both staleness
       flags end false — identical observable state to n x [cycle]. *)
    settle t;
    run n;
    t.cycle_no <- t.cycle_no + n;
    t.mstale <- false
  | _ -> for _ = 1 to n do cycle t done

let cycle_no t = t.cycle_no

let circuit t = t.circuit

let on_cycle t f = t.observers <- Array.append t.observers [| f |]

(* A port is a pre-resolved storage slot: the uid of the node at the
   end of the name's wire chain, on the int or the [Bits.t] side.
   Input writes compare before storing, so re-poking an unchanged value
   leaves the circuit clean and the next settle free. *)
type port = {
  pname : string;
  slot : int;
  pwidth : int;
  narrow : bool; (* slot lives in [ivals] *)
  input : bool;
}

let port_of name (s : Signal.t) =
  let input = match s.Signal.op with Signal.Input _ -> true | _ -> false in
  let s = resolve s in
  { pname = name; slot = s.Signal.uid; pwidth = s.Signal.width;
    narrow = is_int s; input }

let input_port ?(op = "input_port") t name =
  port_of name (Sim_intf.find_input ~backend:name_ ~op t.circuit name)

let signal_port ?(op = "signal_port") t name =
  port_of name (Sim_intf.find_named ~backend:name_ ~op t.circuit name)

let port_name p = p.pname
let port_width p = p.pwidth

let read t p =
  if p.narrow then Bits.of_int ~width:p.pwidth t.ivals.(p.slot)
  else t.bvals.(p.slot)

let read_int t p =
  if p.narrow then t.ivals.(p.slot) else Bits.to_int t.bvals.(p.slot)

let write_int t p n =
  if not p.input then Sim_intf.not_an_input p.pname;
  if not p.narrow then begin
    let v = Bits.of_int ~width:p.pwidth n in
    if not (Bits.equal t.bvals.(p.slot) v) then begin
      t.bvals.(p.slot) <- v;
      t.dirty <- true
    end
  end
  else begin
    if n < 0 then invalid_arg "Bits.of_int: negative";
    let v = n land mask p.pwidth in
    if t.ivals.(p.slot) <> v then begin
      t.ivals.(p.slot) <- v;
      t.dirty <- true
    end
  end

let write t p bits =
  if not p.input then Sim_intf.not_an_input p.pname;
  if Bits.width bits <> p.pwidth then
    Sim_intf.width_mismatch p.pname ~got:(Bits.width bits) ~want:p.pwidth;
  if p.narrow then write_int t p (Bits.to_int_exn bits)
  else if not (Bits.equal t.bvals.(p.slot) bits) then begin
    t.bvals.(p.slot) <- bits;
    t.dirty <- true
  end

let read_words t p buf off =
  Sim_intf.check_port_slice ~op:"read_words" ~name:p.pname ~width:p.pwidth buf
    off;
  if p.narrow then buf.(off) <- t.ivals.(p.slot)
  else Sim_intf.save_limbs t.bvals.(p.slot) buf off

let write_words t p buf off =
  if not p.input then Sim_intf.not_an_input p.pname;
  Sim_intf.check_port_slice ~op:"write_words" ~name:p.pname ~width:p.pwidth buf
    off;
  if p.narrow then begin
    let v = buf.(off) land mask p.pwidth in
    if t.ivals.(p.slot) <> v then begin
      t.ivals.(p.slot) <- v;
      t.dirty <- true
    end
  end
  else if Sim_intf.limbs_differ t.bvals.(p.slot) buf off then begin
    t.bvals.(p.slot) <- Sim_intf.load_limbs ~width:p.pwidth buf off;
    t.dirty <- true
  end

let peek_signal t (s : Signal.t) =
  let s = resolve s in
  if is_int s then Bits.of_int ~width:s.Signal.width t.ivals.(s.Signal.uid)
  else t.bvals.(s.Signal.uid)

(* Register state as words, in canonical [Circuit.registers] order
   (NOT the fast/slow commit partition).  Register outputs hold the
   latched state directly in their uid slot, so a save is a plain slot
   read and a load a plain slot write; loading invalidates the state
   cone exactly like a memory-port write. *)
let state_words t = t.state_words

let save_state t buf off =
  Sim_intf.check_state_slice ~op:"save_state" ~words:t.state_words buf off;
  let o = ref off in
  for i = 0 to Array.length t.state_regs - 1 do
    let s = Array.unsafe_get t.state_regs i in
    let u = s.Signal.uid in
    if is_int s then begin
      Array.unsafe_set buf !o (Array.unsafe_get t.ivals u);
      incr o
    end
    else begin
      Sim_intf.save_limbs t.bvals.(u) buf !o;
      o := !o + Sim_intf.reg_words s.Signal.width
    end
  done

let load_state t buf off =
  Sim_intf.check_state_slice ~op:"load_state" ~words:t.state_words buf off;
  let o = ref off in
  for i = 0 to Array.length t.state_regs - 1 do
    let s = Array.unsafe_get t.state_regs i in
    let u = s.Signal.uid and w = s.Signal.width in
    if is_int s then begin
      Array.unsafe_set t.ivals u (Array.unsafe_get buf !o land mask w);
      incr o
    end
    else begin
      t.bvals.(u) <- Sim_intf.load_limbs ~width:w buf !o;
      o := !o + Sim_intf.reg_words w
    end
  done;
  t.mstale <- true

let reset t =
  let ir = t.int_regs in
  for i = 0 to Array.length ir.slots - 1 do
    t.ivals.(ir.slots.(i)) <- ir.inits.(i)
  done;
  let wr = t.wide_regs in
  for i = 0 to Array.length wr.wslots - 1 do
    t.bvals.(wr.wslots.(i)) <- wr.winits.(i)
  done;
  Array.iter (fun r -> r.reset_reg ()) t.reg_steps;
  Hashtbl.iter
    (fun _ store ->
      match store with
      | Imem { arr; init } -> Array.blit init 0 arr 0 (Array.length arr)
      | Bmem { arr; init } -> Array.blit init 0 arr 0 (Array.length arr))
    t.mem_state;
  Array.iter (fun f -> f ()) t.input_resets;
  t.cycle_no <- 0;
  run_steps t.steps;
  t.dirty <- false;
  t.mstale <- false

(* A memory port is the memory's live store (kept in place by commits
   and [reset]).  A write invalidates the state cone (async read
   fan-out), exactly like a register load. *)
type mem_port = {
  mname : string;
  msize : int;
  mwidth : int;
  mmask : int; (* [mask mwidth], for the int writes of a narrow memory *)
  store : mem_store;
}

let mem_port t (m : Signal.memory) =
  match Hashtbl.find_opt t.mem_state m.Signal.mem_uid with
  | Some store ->
    { mname = m.Signal.mem_name; msize = m.Signal.size;
      mwidth = m.Signal.mem_width; mmask = mask m.Signal.mem_width;
      store }
  | None -> Sim_intf.foreign_memory m

let check_addr ~op p addr = Sim_intf.check_mem_addr ~op p.mname ~size:p.msize addr

let mem_get _t p addr =
  check_addr ~op:"mem_get" p addr;
  match p.store with
  | Imem { arr; _ } -> Bits.of_int ~width:p.mwidth arr.(addr)
  | Bmem { arr; _ } -> arr.(addr)

let mem_get_int _t p addr =
  match p.store with
  | Imem { arr; _ } ->
    check_addr ~op:"mem_get_int" p addr;
    arr.(addr)
  | Bmem _ -> Sim_intf.mem_not_narrow ~op:"mem_get_int" p.mname ~width:p.mwidth

let mem_set t p addr value =
  check_addr ~op:"mem_set" p addr;
  if Bits.width value <> p.mwidth then
    Sim_intf.mem_width_mismatch p.mname ~got:(Bits.width value) ~want:p.mwidth;
  (match p.store with
   | Imem { arr; _ } -> arr.(addr) <- Bits.to_int_exn value
   | Bmem { arr; _ } -> arr.(addr) <- value);
  t.mstale <- true

let mem_set_int t p addr v =
  match p.store with
  | Imem { arr; _ } ->
    check_addr ~op:"mem_set_int" p addr;
    if v < 0 then Sim_intf.mem_negative p.mname v;
    arr.(addr) <- v land p.mmask;
    t.mstale <- true
  | Bmem _ -> Sim_intf.mem_not_narrow ~op:"mem_set_int" p.mname ~width:p.mwidth

let mem_fill_int t p ~pos ~len v =
  match p.store with
  | Imem { arr; _ } ->
    Sim_intf.check_mem_range ~op:"mem_fill_int" p.mname ~size:p.msize ~pos ~len;
    if v < 0 then Sim_intf.mem_negative p.mname v;
    Array.fill arr pos len (v land p.mmask);
    t.mstale <- true
  | Bmem _ -> Sim_intf.mem_not_narrow ~op:"mem_fill_int" p.mname ~width:p.mwidth

(* ---- hooks for the native-JIT backend (Sim_jit) ----

   Sim_jit reuses this backend's entire instance machinery — storage
   layout, register/memory commit, ports, save/load_state,
   activity flags — and only replaces the three settle schedules with
   compiled kernels.  Everything it needs is exposed here rather than
   duplicated there. *)
module Jit_support = struct
  let is_int = is_int
  let resolve = resolve
  let mask = mask
  let max_int_width = maxw

  let step_nodes t = t.step_nodes
  let is_input_dep t uid = t.input_dep.(uid)
  let is_state_dep t uid = t.state_dep.(uid)
  let ivals t = t.ivals
  let bvals t = t.bvals

  (* The mutable int contents of a narrow memory (the array aliases
     the live store: in-place writes by ports/reset stay visible), or
     [None] for a wide memory. *)
  let imem t (m : Signal.memory) =
    match Hashtbl.find_opt t.mem_state m.Signal.mem_uid with
    | Some (Imem { arr; _ }) -> Some arr
    | Some (Bmem _) | None -> None

  (* Same for a wide memory's [Bits.t] contents. *)
  let bmem t (m : Signal.memory) =
    match Hashtbl.find_opt t.mem_state m.Signal.mem_uid with
    | Some (Bmem { arr; _ }) -> Some arr
    | Some (Imem _) | None -> None

  let set_schedules t ~full ~input ~state =
    t.steps <- full;
    t.steps_input <- input;
    t.steps_state <- state

  (* The clear-less registers' (state slot, data uid, enable uid or -1)
     triples, in commit order — the raw material for a generated
     commit. *)
  let int_reg_commits t =
    let ir = t.int_regs in
    Array.init (Array.length ir.slots) (fun i ->
        (ir.slots.(i), ir.ds.(i), ir.es.(i)))

  let wide_reg_commits t =
    let wr = t.wide_regs in
    Array.init (Array.length wr.wslots) (fun i ->
        (wr.wslots.(i), wr.wds.(i), wr.wes.(i)))

  let set_commit t f = t.commit_jit <- Some f
  let set_run t f = t.run_jit <- Some f
end
