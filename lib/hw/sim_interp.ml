(* Reference cycle-accurate two-phase interpreter.

   Phase 1 (settle): evaluate every combinational node in topological
   order.  Phase 2 (commit): registers latch their sampled next values
   and memory write ports take effect.  [cycle] = settle, run observers,
   commit, settle again, so that peeking after [cycle] reflects the new
   state.  Out-of-range memory reads return zero; out-of-range writes
   are dropped.

   A dirty flag (set by an input write that changes a value or by a
   memory-port write, cleared by a settle) makes
   the redundant leading settle in [cycle] free when nothing was poked
   since the previous cycle's trailing settle: back-to-back [cycles]
   pay one settle per cycle instead of two.  A fresh simulator is
   fully settled, exactly as after [reset].

   This backend walks the node array through polymorphic dispatch and
   allocates fresh [Bits.t] per node per cycle; it is the simple,
   obviously-correct oracle that [Sim_compiled] is checked against. *)

let name = "interp"
let name_ = name (* alias usable where [name] is shadowed by a parameter *)

type t = {
  circuit : Circuit.t;
  values : Bits.t array; (* indexed by uid; combinational values *)
  reg_state : Bits.t array; (* indexed by uid, only Reg uids meaningful *)
  input_values : Bits.t array;
  mem_state : (int, Bits.t array) Hashtbl.t; (* mem_uid -> contents *)
  regs : Signal.t array; (* Circuit.registers order *)
  state_words : int;
  mutable dirty : bool; (* poked or written since the last settle *)
  mutable cycle_no : int;
  mutable observers : (t -> unit) array; (* registration order *)
}

let mem_initial (m : Signal.memory) =
  match m.Signal.init_contents with
  | Some a -> Array.map (fun x -> x) a
  | None -> Array.make m.Signal.size (Bits.zero m.Signal.mem_width)

let create_unsettled circuit =
  let n = circuit.Circuit.max_uid in
  let values = Array.make n (Bits.zero 1) in
  let reg_state = Array.make n (Bits.zero 1) in
  let input_values = Array.make n (Bits.zero 1) in
  let mem_state = Hashtbl.create 8 in
  List.iter
    (fun (m : Signal.memory) -> Hashtbl.replace mem_state m.Signal.mem_uid (mem_initial m))
    circuit.Circuit.memories;
  let regs = Array.of_list (Circuit.registers circuit) in
  Array.iter
    (fun (s : Signal.t) ->
      match s.Signal.op with
      | Signal.Reg r -> reg_state.(s.Signal.uid) <- r.Signal.init
      | _ -> ())
    regs;
  Circuit.iter_nodes circuit (fun (s : Signal.t) ->
      match s.Signal.op with
      | Signal.Input _ -> input_values.(s.Signal.uid) <- Bits.zero s.Signal.width
      | _ -> ());
  { circuit; values; reg_state; input_values; mem_state; regs;
    state_words = Sim_intf.state_words_of regs;
    dirty = false; cycle_no = 0; observers = [||] }

let eval_node t (s : Signal.t) =
  let v x = t.values.(x.Signal.uid) in
  let value =
    match s.Signal.op with
    | Signal.Const c -> c
    | Signal.Input _ -> t.input_values.(s.Signal.uid)
    | Signal.Wire { driver = Some d } -> v d
    | Signal.Wire { driver = None } -> assert false (* rejected at elaboration *)
    | Signal.Not x -> Bits.lnot (v x)
    | Signal.Binop (op, x, y) ->
      (match op with
       | Signal.And -> Bits.logand (v x) (v y)
       | Signal.Or -> Bits.logor (v x) (v y)
       | Signal.Xor -> Bits.logxor (v x) (v y)
       | Signal.Add -> Bits.add (v x) (v y)
       | Signal.Sub -> Bits.sub (v x) (v y)
       | Signal.Mul -> Bits.mul (v x) (v y)
       | Signal.Eq -> Bits.of_bool (Bits.equal (v x) (v y))
       | Signal.Ult -> Bits.of_bool (Bits.ult (v x) (v y))
       | Signal.Slt -> Bits.of_bool (Bits.slt (v x) (v y)))
    | Signal.Mux (sel, cases) ->
      let i = Bits.to_int_trunc (v sel) in
      let i = if i >= Array.length cases then Array.length cases - 1 else i in
      v cases.(i)
    | Signal.Concat parts -> Bits.concat (List.map v parts)
    | Signal.Select { hi; lo; arg } -> Bits.select (v arg) ~hi ~lo
    | Signal.Reg _ -> t.reg_state.(s.Signal.uid)
    | Signal.Mem_read { mem; addr } ->
      let contents = Hashtbl.find t.mem_state mem.Signal.mem_uid in
      let a = Bits.to_int_trunc (v addr) in
      if a < mem.Signal.size then contents.(a) else Bits.zero mem.Signal.mem_width
  in
  t.values.(s.Signal.uid) <- value

let settle_always t = Array.iter (eval_node t) t.circuit.Circuit.order

(* A fresh simulator is fully settled (same state as after [reset]). *)
let create circuit =
  let t = create_unsettled circuit in
  settle_always t;
  t

let settle t =
  if t.dirty then begin
    settle_always t;
    t.dirty <- false
  end

let commit t =
  let v x = t.values.(x.Signal.uid) in
  (* Sample every register's next value before writing any of them. *)
  let nexts =
    Array.map
      (fun (s : Signal.t) ->
        match s.Signal.op with
        | Signal.Reg r ->
          let clear = match r.Signal.clear with Some c -> Bits.to_bool (v c) | None -> false in
          let enable = match r.Signal.enable with Some e -> Bits.to_bool (v e) | None -> true in
          if clear then r.Signal.clear_to
          else if enable then v r.Signal.d
          else t.reg_state.(s.Signal.uid)
        | _ -> assert false)
      t.regs
  in
  Array.iteri
    (fun i (s : Signal.t) -> t.reg_state.(s.Signal.uid) <- nexts.(i))
    t.regs;
  List.iter
    (fun (m : Signal.memory) ->
      let contents = Hashtbl.find t.mem_state m.Signal.mem_uid in
      (* Ports were prepended as added; apply in creation order so the
         last-added port wins on an address conflict. *)
      List.iter
        (fun (p : Signal.write_port) ->
          if Bits.to_bool (v p.Signal.we) then begin
            let a = Bits.to_int_trunc (v p.Signal.waddr) in
            if a < m.Signal.size then contents.(a) <- v p.Signal.wdata
          end)
        (List.rev m.Signal.write_ports))
    t.circuit.Circuit.memories

let cycle t =
  (* Leading settle: skipped when the previous trailing settle already
     left every value consistent. *)
  settle t;
  Array.iter (fun f -> f t) t.observers;
  commit t;
  t.cycle_no <- t.cycle_no + 1;
  (* Trailing settle: the commit changed register/memory state.
     Observer pokes take effect here too, as in the ungated model. *)
  settle_always t;
  t.dirty <- false

let cycles t n = for _ = 1 to n do cycle t done

let cycle_no t = t.cycle_no

let circuit t = t.circuit

let on_cycle t f = t.observers <- Array.append t.observers [| f |]

(* Ports index the node arrays by uid.  A read returns the settled
   value, as the by-name peek always did; a write stores the input and
   dirties the circuit only when the value actually changes. *)
type port = { pname : string; uid : int; pwidth : int; input : bool }

let port_of name (s : Signal.t) =
  { pname = name; uid = s.Signal.uid; pwidth = s.Signal.width;
    input = (match s.Signal.op with Signal.Input _ -> true | _ -> false) }

let input_port ?(op = "input_port") t name =
  port_of name (Sim_intf.find_input ~backend:name_ ~op t.circuit name)

let signal_port ?(op = "signal_port") t name =
  port_of name (Sim_intf.find_named ~backend:name_ ~op t.circuit name)

let port_name p = p.pname
let port_width p = p.pwidth

let read t p = t.values.(p.uid)
let read_int t p = Bits.to_int t.values.(p.uid)

let write t p bits =
  if not p.input then Sim_intf.not_an_input p.pname;
  if Bits.width bits <> p.pwidth then
    Sim_intf.width_mismatch p.pname ~got:(Bits.width bits) ~want:p.pwidth;
  if not (Bits.equal t.input_values.(p.uid) bits) then begin
    t.input_values.(p.uid) <- bits;
    t.dirty <- true
  end

let write_int t p n = write t p (Bits.of_int ~width:p.pwidth n)

let read_words t p buf off =
  Sim_intf.check_port_slice ~op:"read_words" ~name:p.pname ~width:p.pwidth buf
    off;
  let v = t.values.(p.uid) in
  if p.pwidth <= Bits.max_int_width then buf.(off) <- Bits.to_int v
  else Sim_intf.save_limbs v buf off

let write_words t p buf off =
  if not p.input then Sim_intf.not_an_input p.pname;
  Sim_intf.check_port_slice ~op:"write_words" ~name:p.pname ~width:p.pwidth buf
    off;
  let cur = t.input_values.(p.uid) in
  if p.pwidth <= Bits.max_int_width then begin
    let v = buf.(off) land ((1 lsl p.pwidth) - 1) in
    if Bits.to_int cur <> v then begin
      t.input_values.(p.uid) <- Bits.of_int ~width:p.pwidth v;
      t.dirty <- true
    end
  end
  else if Sim_intf.limbs_differ cur buf off then begin
    t.input_values.(p.uid) <- Sim_intf.load_limbs ~width:p.pwidth buf off;
    t.dirty <- true
  end

let peek_signal t (s : Signal.t) = t.values.(s.Signal.uid)

(* Register state as words, in [Circuit.registers] order ([t.regs] is
   exactly that).  A load marks the simulator dirty rather than
   settling eagerly, so a load/write/cycle sequence — the model
   checker's hot loop — pays a single settle; it re-boxes only the
   registers whose value changed. *)
let state_words t = t.state_words

let save_state t buf off =
  Sim_intf.check_state_slice ~op:"save_state" ~words:t.state_words buf off;
  let o = ref off in
  for i = 0 to Array.length t.regs - 1 do
    let s = t.regs.(i) in
    let v = t.reg_state.(s.Signal.uid) in
    if s.Signal.width <= Bits.max_int_width then buf.(!o) <- Bits.to_int v
    else Sim_intf.save_limbs v buf !o;
    o := !o + Sim_intf.reg_words s.Signal.width
  done

let load_state t buf off =
  Sim_intf.check_state_slice ~op:"load_state" ~words:t.state_words buf off;
  let o = ref off in
  for i = 0 to Array.length t.regs - 1 do
    let s = t.regs.(i) in
    let u = s.Signal.uid and w = s.Signal.width in
    if w <= Bits.max_int_width then begin
      let v = buf.(!o) in
      if Bits.to_int t.reg_state.(u) <> v then
        t.reg_state.(u) <- Bits.of_int_trunc ~width:w v
    end
    else t.reg_state.(u) <- Sim_intf.load_limbs ~width:w buf !o;
    o := !o + Sim_intf.reg_words w
  done;
  t.dirty <- true

let reset t =
  Array.iter
    (fun (s : Signal.t) ->
      match s.Signal.op with
      | Signal.Reg r -> t.reg_state.(s.Signal.uid) <- r.Signal.init
      | _ -> ())
    t.regs;
  (* In place: memory ports hold the contents arrays. *)
  List.iter
    (fun (m : Signal.memory) ->
      let init = mem_initial m in
      Array.blit init 0 (Hashtbl.find t.mem_state m.Signal.mem_uid) 0
        (Array.length init))
    t.circuit.Circuit.memories;
  (* Inputs return to zero too: a reset simulator must be
     indistinguishable from a freshly created one, not retain stale
     poked values. *)
  Circuit.iter_nodes t.circuit (fun (s : Signal.t) ->
      match s.Signal.op with
      | Signal.Input _ -> t.input_values.(s.Signal.uid) <- Bits.zero s.Signal.width
      | _ -> ());
  t.cycle_no <- 0;
  settle_always t;
  t.dirty <- false

(* Memory ports hold the contents array itself (kept in place by
   [reset]).  A write dirties the circuit: async read cones see it at
   the next settle. *)
type mem_port = { mname : string; msize : int; mwidth : int; contents : Bits.t array }

let mem_port t (m : Signal.memory) =
  match Hashtbl.find_opt t.mem_state m.Signal.mem_uid with
  | Some contents ->
    { mname = m.Signal.mem_name; msize = m.Signal.size;
      mwidth = m.Signal.mem_width; contents }
  | None -> Sim_intf.foreign_memory m

let check_addr ~op p addr = Sim_intf.check_mem_addr ~op p.mname ~size:p.msize addr

let mem_get _t p addr =
  check_addr ~op:"mem_get" p addr;
  p.contents.(addr)

let mem_get_int _t p addr =
  if p.mwidth > Bits.max_int_width then
    Sim_intf.mem_not_narrow ~op:"mem_get_int" p.mname ~width:p.mwidth;
  check_addr ~op:"mem_get_int" p addr;
  Bits.to_int p.contents.(addr)

let mem_set t p addr value =
  check_addr ~op:"mem_set" p addr;
  if Bits.width value <> p.mwidth then
    Sim_intf.mem_width_mismatch p.mname ~got:(Bits.width value) ~want:p.mwidth;
  p.contents.(addr) <- value;
  t.dirty <- true

let mem_set_int t p addr v =
  if p.mwidth > Bits.max_int_width then
    Sim_intf.mem_not_narrow ~op:"mem_set_int" p.mname ~width:p.mwidth;
  check_addr ~op:"mem_set_int" p addr;
  if v < 0 then Sim_intf.mem_negative p.mname v;
  p.contents.(addr) <- Bits.of_int ~width:p.mwidth v;
  t.dirty <- true

let mem_fill_int t p ~pos ~len v =
  if p.mwidth > Bits.max_int_width then
    Sim_intf.mem_not_narrow ~op:"mem_fill_int" p.mname ~width:p.mwidth;
  Sim_intf.check_mem_range ~op:"mem_fill_int" p.mname ~size:p.msize ~pos ~len;
  if v < 0 then Sim_intf.mem_negative p.mname v;
  Array.fill p.contents pos len (Bits.of_int ~width:p.mwidth v);
  t.dirty <- true
