(* Backend-agnostic simulator front end.

   A [t] packs a backend module (any implementation of [Sim_intf.S])
   together with one of its instances behind a first-class module, so
   every host-side driver, testbench and experiment can switch between
   the reference interpreter ([Sim_interp]) and the compiled backend
   ([Sim_compiled]) without source changes — either per call site via
   [?backend] / [create_from], or globally via [default_backend]
   (which e.g. [bench/main.ml --backend compiled] sets).

   [create ?optimize] (default: on for the compiled backend) runs
   [Transform.optimize_with_map] over the circuit and simulates the
   reduced netlist instead.  Handles the caller holds against the
   ORIGINAL circuit — [peek_signal] nodes, [mem_port]/[mem_read]/
   [mem_write] memory handles (e.g. [Cpu.Mt_pipeline.load_program]'s
   instruction memory) — are translated through the optimizer's remap, so
   testbenches are oblivious to the rewrite.  Named probes survive
   optimization by construction ([Transform] keeps the live cone of
   every named signal and carries merged names as aliases). *)

type backend = Interp | Compiled | Jit

(* The one backend registry.  The dispatcher, [backend_of_string], the
   bench/CLI flag parsers and the help text are all derived from this
   list, so a new backend added here is automatically accepted and
   documented everywhere. *)
type backend_info = {
  backend : backend;
  bname : string; (* canonical flag name *)
  aliases : string list;
  doc : string;
  impl : (module Sim_intf.S);
  optimize_default : bool; (* [create ?optimize] default *)
}

let backends : backend_info list =
  [ { backend = Interp; bname = "interp"; aliases = [ "interpreter" ];
      doc = "reference interpreter (slow, zero setup cost)";
      impl = (module Sim_interp); optimize_default = false };
    { backend = Compiled; bname = "compiled"; aliases = [ "compile" ];
      doc = "pre-compiled closures with an unboxed-int fast path";
      impl = (module Sim_compiled); optimize_default = true };
    { backend = Jit; bname = "jit"; aliases = [];
      doc =
        "native code: cones emitted as OCaml, compiled and dynlinked \
         (the compiled closures when the toolchain is unavailable)";
      impl = (module Sim_jit); optimize_default = true } ]

let backend_info b = List.find (fun i -> i.backend = b) backends

let backend_of_string s =
  match
    List.find_opt (fun i -> i.bname = s || List.mem s i.aliases) backends
  with
  | Some i -> i.backend
  | None ->
    invalid_arg
      (Printf.sprintf "Sim.backend_of_string: %S (expected %s)" s
         (String.concat "|"
            (List.concat_map (fun i -> i.bname :: i.aliases) backends)))

let backend_to_string b = (backend_info b).bname
let backend_doc b = (backend_info b).doc
let backend_names () = List.map (fun i -> i.bname) backends
let all_backends () = List.map (fun i -> i.backend) backends

let backend_help () =
  String.concat "\n"
    (List.map
       (fun i ->
         Printf.sprintf "  %-10s %s%s" i.bname i.doc
           (match i.aliases with
            | [] -> ""
            | l -> Printf.sprintf " (alias: %s)" (String.concat ", " l)))
       backends)

let default_backend = ref Interp

type packed = T : (module Sim_intf.S with type t = 'a) * 'a -> packed

type t = {
  p : packed;
  regs : Signal.t array;
  (* registers of the running circuit, in [Circuit.registers] order:
     the layout [snapshot]/[restore] convert through *)
  map_signal : Signal.t -> Signal.t;
  (* original-circuit signal -> simulated-circuit signal *)
  map_memory : Signal.memory -> Signal.memory;
}

let registers_of c = Array.of_list (Circuit.registers c)

let pack (type a) (module M : Sim_intf.S with type t = a) (s : a) =
  { p = T ((module M), s);
    regs = registers_of (M.circuit s);
    map_signal = (fun s -> s);
    map_memory = (fun m -> m) }

let create_from (module M : Sim_intf.S) circuit = pack (module M) (M.create circuit)

let module_of_backend b = (backend_info b).impl

(* Remap wrapper for an optimized simulation.  A handle is used as-is
   when it is physically a node of the optimized circuit (looked up by
   uid, confirmed by physical equality — uid spaces of different
   builders overlap); otherwise it is translated through the
   optimizer's remap.  A handle whose node was swept as dead raises. *)
let optimized_maps (c' : Circuit.t) (remap : Transform.remap) =
  let own_sig : (int, Signal.t) Hashtbl.t = Hashtbl.create 1024 in
  Circuit.iter_nodes c' (fun s -> Hashtbl.replace own_sig s.Signal.uid s);
  let own_mem : (int, Signal.memory) Hashtbl.t = Hashtbl.create 8 in
  List.iter
    (fun (m : Signal.memory) -> Hashtbl.replace own_mem m.Signal.mem_uid m)
    c'.Circuit.memories;
  let map_signal (s : Signal.t) =
    match Hashtbl.find_opt own_sig s.Signal.uid with
    | Some s' when s' == s -> s
    | _ ->
      (match remap.Transform.signal_of s with
       | Some s' -> s'
       | None ->
         invalid_arg
           (Printf.sprintf
              "Sim: signal #%d%s was optimized away (dead); name it or create \
               the simulator with ~optimize:false"
              s.Signal.uid
              (match s.Signal.name with Some n -> " (" ^ n ^ ")" | None -> "")))
  in
  let map_memory (m : Signal.memory) =
    (* mem_uids are globally unique (one atomic counter), so physical
       identity and uid identity coincide. *)
    match Hashtbl.find_opt own_mem m.Signal.mem_uid with
    | Some m' -> m'
    | None ->
      (match remap.Transform.memory_of m with
       | Some m' -> m'
       | None ->
         invalid_arg
           (Printf.sprintf "Sim: memory %s is not part of this simulation"
              m.Signal.mem_name))
  in
  (map_signal, map_memory)

let create ?backend ?optimize circuit =
  let backend = match backend with Some b -> b | None -> !default_backend in
  let optimize =
    match optimize with
    | Some b -> b
    | None -> (backend_info backend).optimize_default
  in
  let (module M : Sim_intf.S) = module_of_backend backend in
  if not optimize then create_from (module M) circuit
  else begin
    let c', _stats, remap =
      Transform.optimize_with_map ~name:circuit.Circuit.name circuit
    in
    let map_signal, map_memory = optimized_maps c' remap in
    { p = T ((module M), M.create c'); regs = registers_of c'; map_signal;
      map_memory }
  end

let backend_name { p = T ((module M), _); _ } = M.name

let settle { p = T ((module M), s); _ } = M.settle s
let cycle { p = T ((module M), s); _ } = M.cycle s
let cycles { p = T ((module M), s); _ } n = M.cycles s n
let cycle_no { p = T ((module M), s); _ } = M.cycle_no s

let circuit { p = T ((module M), s); _ } = M.circuit s
(* For an optimized simulation this is the OPTIMIZED circuit (that is
   what the backend runs); original-circuit handles are translated by
   the accessors below. *)

let on_cycle ({ p = T ((module M), s); _ } as packed) f =
  (* Observers see the packed simulator, whatever the backend. *)
  M.on_cycle s (fun _ -> f packed)

(* A port packs the backend's own resolved handle with its instance,
   so a read or write is one pattern match and one backend call. *)
type port =
  | P : (module Sim_intf.S with type t = 'a and type port = 'p) * 'a * 'p -> port

let input_port { p = T ((module M), s); _ } name =
  P ((module M), s, M.input_port s name)

let signal_port { p = T ((module M), s); _ } name =
  P ((module M), s, M.signal_port s name)

let port_name (P ((module M), _, p)) = M.port_name p
let port_width (P ((module M), _, p)) = M.port_width p
let read (P ((module M), s, p)) = M.read s p
let read_int (P ((module M), s, p)) = M.read_int s p
let write (P ((module M), s, p)) v = M.write s p v
let write_int (P ((module M), s, p)) n = M.write_int s p n
let read_words (P ((module M), s, p)) buf off = M.read_words s p buf off
let write_words (P ((module M), s, p)) buf off = M.write_words s p buf off

(* The by-name API: resolve, then one port operation. *)
let poke { p = T ((module M), s); _ } name v = M.write s (M.input_port ~op:"poke" s name) v

let poke_int { p = T ((module M), s); _ } name n =
  M.write_int s (M.input_port ~op:"poke_int" s name) n

let peek { p = T ((module M), s); _ } name = M.read s (M.signal_port ~op:"peek" s name)

let peek_int { p = T ((module M), s); _ } name =
  M.read_int s (M.signal_port ~op:"peek_int" s name)

let peek_bool { p = T ((module M), s); _ } name =
  let p = M.signal_port ~op:"peek_bool" s name in
  if M.port_width p <= Bits.max_int_width then M.read_int s p <> 0
  else Bits.to_bool (M.read s p)

let peek_signal ({ p = T ((module M), s); _ } as t) signal =
  M.peek_signal s (t.map_signal signal)

let state_words { p = T ((module M), s); _ } = M.state_words s
let save_state { p = T ((module M), s); _ } buf off = M.save_state s buf off
let load_state { p = T ((module M), s); _ } buf off = M.load_state s buf off

(* [snapshot]/[restore] are the [Bits.t] view of one saved state, for
   callers that keep a handful of states; they convert through the
   backend's [save_state]/[load_state] word layout. *)
let snapshot { p = T ((module M), s); regs; _ } =
  let buf = Array.make (M.state_words s) 0 in
  M.save_state s buf 0;
  let o = ref 0 in
  Array.map
    (fun (r : Signal.t) ->
      let w = r.Signal.width in
      let v =
        if w <= Bits.max_int_width then Bits.of_int ~width:w buf.(!o)
        else Sim_intf.load_limbs ~width:w buf !o
      in
      o := !o + Sim_intf.reg_words w;
      v)
    regs

let restore { p = T ((module M), s); regs; _ } snap =
  if Array.length snap <> Array.length regs then
    invalid_arg
      (Printf.sprintf "Sim.restore: %d registers, snapshot has %d entries"
         (Array.length regs) (Array.length snap));
  let buf = Array.make (M.state_words s) 0 in
  let o = ref 0 in
  Array.iteri
    (fun i (r : Signal.t) ->
      let w = r.Signal.width in
      if Bits.width snap.(i) <> w then
        invalid_arg
          (Printf.sprintf "Sim.restore: register %d width mismatch (%d vs %d)"
             i (Bits.width snap.(i)) w);
      if w <= Bits.max_int_width then buf.(!o) <- Bits.to_int snap.(i)
      else Sim_intf.save_limbs snap.(i) buf !o;
      o := !o + Sim_intf.reg_words w)
    regs;
  M.load_state s buf 0
(* Saved states are taken from / loaded into the RUNNING circuit (the
   optimized one under [~optimize:true]); they are only portable
   between simulators of that same circuit. *)

let reset { p = T ((module M), s); _ } = M.reset s

(* A memory port packs the backend's resolved store with its instance,
   like a signal port.  Handles of the original circuit are translated
   once, at resolution. *)
type mem_port =
  | Mp : (module Sim_intf.S with type t = 'a and type mem_port = 'p) * 'a * 'p
      -> mem_port

let mem_port ({ p = T ((module M), s); _ } as t) m =
  Mp ((module M), s, M.mem_port s (t.map_memory m))

let mem_get (Mp ((module M), s, p)) addr = M.mem_get s p addr
let mem_get_int (Mp ((module M), s, p)) addr = M.mem_get_int s p addr
let mem_set (Mp ((module M), s, p)) addr v = M.mem_set s p addr v
let mem_set_int (Mp ((module M), s, p)) addr v = M.mem_set_int s p addr v

let mem_fill_int (Mp ((module M), s, p)) ~pos ~len v =
  M.mem_fill_int s p ~pos ~len v

(* The by-handle API: resolve, then one port operation. *)
let mem_read t m addr = mem_get (mem_port t m) addr
let mem_write t m addr value = mem_set (mem_port t m) addr value
