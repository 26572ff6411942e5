(* Signature shared by every simulation backend, plus the structured
   name-lookup errors both backends raise.

   A backend is a cycle-accurate two-phase simulator of an elaborated
   [Circuit.t]: [settle] evaluates the combinational nodes, [cycle]
   runs settle / observers / commit / settle (so peeks after [cycle]
   reflect the newly latched state).  [Sim] packs any backend behind a
   first-class module so host code is backend-agnostic. *)

exception
  Unknown_signal of {
    backend : string;  (* "interp", "compiled", ... *)
    op : string;  (* "peek", "poke", "signal_port", ... *)
    name : string;  (* the name that failed to resolve *)
    candidates : string list;  (* near-miss signal names, best first *)
  }
(* Raised by port resolution (and so by [peek]/[poke] and friends) on a
   name the circuit does not export.  [candidates] lists close matches
   so a typo'd probe name is diagnosable from the error alone. *)

(* Bounded Levenshtein distance, used only to rank near misses. *)
let edit_distance a b =
  let la = String.length a and lb = String.length b in
  let prev = Array.init (lb + 1) (fun j -> j) in
  let cur = Array.make (lb + 1) 0 in
  for i = 1 to la do
    cur.(0) <- i;
    for j = 1 to lb do
      let cost = if a.[i - 1] = b.[j - 1] then 0 else 1 in
      cur.(j) <- min (min (cur.(j - 1) + 1) (prev.(j) + 1)) (prev.(j - 1) + cost)
    done;
    Array.blit cur 0 prev 0 (lb + 1)
  done;
  prev.(lb)

(* Close matches to [name] among [names]: shared prefixes/suffixes and
   small edit distances, ranked best-first, at most five. *)
let near_misses ~names name =
  let score n =
    let d = edit_distance name n in
    let affix =
      let l = min (String.length n) (String.length name) in
      (l > 2 && String.length name >= 3
       && (String.sub n 0 (min 3 (String.length n))
           = String.sub name 0 (min 3 (String.length name))))
      || (String.length n > String.length name
          && String.length name >= 3
          &&
          let tail = String.sub n (String.length n - String.length name)
              (String.length name) in
          tail = name)
    in
    let budget = 2 + (String.length name / 4) in
    if d <= budget || affix then Some (d, n) else None
  in
  List.filter_map score names
  |> List.sort compare
  |> List.map snd
  |> fun l -> List.filteri (fun i _ -> i < 5) l

let unknown_signal ~backend ~op ~names name =
  raise (Unknown_signal { backend; op; name; candidates = near_misses ~names name })

(* All peekable names of a circuit: named signals, output aliases and
   primary inputs. *)
let peekable_names (c : Circuit.t) =
  let names = Hashtbl.fold (fun n _ acc -> n :: acc) c.Circuit.named [] in
  let names = Hashtbl.fold (fun n _ acc -> n :: acc) c.Circuit.inputs names in
  List.sort_uniq compare names

let pokeable_names (c : Circuit.t) =
  List.sort compare (Hashtbl.fold (fun n _ acc -> n :: acc) c.Circuit.inputs [])

(* Shared lookup helpers for the backends. *)
let find_input ~backend ~op (c : Circuit.t) name =
  match Hashtbl.find_opt c.Circuit.inputs name with
  | Some s -> s
  | None -> unknown_signal ~backend ~op ~names:(pokeable_names c) name

let find_named ~backend ~op (c : Circuit.t) name =
  match Hashtbl.find_opt c.Circuit.named name with
  | Some s -> s
  | None ->
    (match Hashtbl.find_opt c.Circuit.inputs name with
     | Some s -> s
     | None -> unknown_signal ~backend ~op ~names:(peekable_names c) name)

(* Shared errors of the port write path. *)
let not_an_input name =
  invalid_arg (Printf.sprintf "Sim.write: %s is not a primary input" name)

let width_mismatch name ~got ~want =
  invalid_arg
    (Printf.sprintf "Sim.poke %s: width mismatch (%d vs %d)" name got want)

(* Saved register state.  A register of width <= [Bits.max_int_width]
   is one word holding its value; a wider one is one word per
   [Bits.limb_width]-bit limb, least significant first.  Registers
   follow [Circuit.registers] order, so every backend running the same
   circuit agrees on the layout. *)
let reg_words w =
  if w <= Bits.max_int_width then 1
  else (w + Bits.limb_width - 1) / Bits.limb_width

let state_words_of (regs : Signal.t array) =
  Array.fold_left (fun acc (s : Signal.t) -> acc + reg_words s.Signal.width) 0 regs

let check_state_slice ~op ~words buf off =
  if off < 0 || off + words > Array.length buf then
    invalid_arg
      (Printf.sprintf "Sim.%s: %d state words do not fit at offset %d of %d"
         op words off (Array.length buf))

let save_limbs v buf off =
  for i = 0 to reg_words (Bits.width v) - 1 do
    buf.(off + i) <- Bits.get_limb v i
  done

(* Valid bits of limb [i] of a [width]-bit vector. *)
let limb_mask ~width i =
  let r = width - (i * Bits.limb_width) in
  if r >= Bits.limb_width then (1 lsl Bits.limb_width) - 1 else (1 lsl r) - 1

(* A fresh vector from [reg_words width] limb words, each truncated to
   its limb's valid bits. *)
let load_limbs ~width buf off =
  let limbs = Array.make (reg_words width) 0 in
  for i = 0 to Array.length limbs - 1 do
    limbs.(i) <- buf.(off + i) land limb_mask ~width i
  done;
  Bits.unsafe_of_limbs ~width limbs

(* Would [load_limbs] of the slice give a value other than [v]?  The
   write side of the word ports compares before it allocates. *)
let limbs_differ v buf off =
  let width = Bits.width v in
  let n = reg_words width in
  let i = ref 0 in
  while !i < n && Bits.get_limb v !i = buf.(off + !i) land limb_mask ~width !i do
    incr i
  done;
  !i < n

(* Word access to one port: a signal of width <= [Bits.max_int_width]
   is one word, a wider one [reg_words] limbs — the [save_state]
   layout of a register of the same width. *)
let check_port_slice ~op ~name ~width buf off =
  let words = reg_words width in
  if off < 0 || off + words > Array.length buf then
    invalid_arg
      (Printf.sprintf "Sim.%s %s: %d words do not fit at offset %d of %d" op
         name words off (Array.length buf))

(* Shared errors of the memory ports. *)
let foreign_memory (m : Signal.memory) =
  invalid_arg
    (Printf.sprintf "Sim.mem_port: memory %s is not part of this simulation"
       m.Signal.mem_name)

let check_mem_addr ~op name ~size addr =
  if addr < 0 || addr >= size then
    invalid_arg
      (Printf.sprintf "Sim.%s %s: address %d out of range (size %d)" op name
         addr size)

let mem_width_mismatch name ~got ~want =
  invalid_arg
    (Printf.sprintf "Sim.mem_set %s: width mismatch (%d vs %d)" name got want)

let mem_not_narrow ~op name ~width =
  invalid_arg
    (Printf.sprintf "Sim.%s %s: a %d-bit memory has no int access (width > %d)"
       op name width Bits.max_int_width)

let check_mem_range ~op name ~size ~pos ~len =
  if len < 0 || pos < 0 || pos + len > size then
    invalid_arg
      (Printf.sprintf "Sim.%s %s: range %d+%d out of range (size %d)" op name pos
         len size)

let mem_negative name v =
  invalid_arg (Printf.sprintf "Sim.mem_set_int %s: negative value %d" name v)

let () =
  Printexc.register_printer (function
    | Unknown_signal { backend; op; name; candidates } ->
      Some
        (Printf.sprintf "Sim(%s).%s: no signal named %S%s" backend op name
           (match candidates with
            | [] -> ""
            | l -> " (did you mean " ^ String.concat ", " l ^ "?)"))
    | _ -> None)

module type S = sig
  type t

  val create : Circuit.t -> t

  val name : string
  (** Human-readable backend name ("interp", "compiled", ...). *)

  val settle : t -> unit
  (** Recompute all combinational values from current inputs/state. *)

  val cycle : t -> unit
  (** One clock cycle (settle, observe, commit, settle). *)

  val cycles : t -> int -> unit

  val cycle_no : t -> int
  (** Number of cycles since creation or {!reset}. *)

  val circuit : t -> Circuit.t

  val on_cycle : t -> (t -> unit) -> unit
  (** Register an observer called once per cycle, after settle and
      before the state commit (it sees the cycle's settled values). *)

  type port
  (** A signal resolved once by name: reads and writes through it do
      no name building and no hashing, and — for signals of width
      <= [Bits.max_int_width] — {!read_int}/{!write_int} allocate
      nothing.  A port stays valid for the lifetime of the simulator,
      across {!reset} and {!load_state}. *)

  val input_port : ?op:string -> t -> string -> port
  (** Resolve a primary input.  Raises {!Unknown_signal} (with
      near-miss candidates, [op] defaulting to ["input_port"]) when no
      input has that name. *)

  val signal_port : ?op:string -> t -> string -> port
  (** Resolve a named signal, output or input (see
      {!Circuit.find_named}); raises like {!input_port}. *)

  val port_name : port -> string
  val port_width : port -> int

  val read : t -> port -> Bits.t
  (** The port's current value, exactly as a by-name peek reads it. *)

  val read_int : t -> port -> int

  val write : t -> port -> Bits.t -> unit
  (** Set the primary input behind the port; takes effect at the next
      {!settle}/{!cycle}.  Marks the circuit dirty only when the stored
      value changes (an unchanged input leaves its fan-out cone
      consistent).  Raises [Invalid_argument] on a width mismatch or a
      port that is not a primary input. *)

  val write_int : t -> port -> int -> unit
  (** {!write} of a non-negative int, truncated to the port width. *)

  val read_words : t -> port -> int array -> int -> unit
  (** [read_words t p buf off] stores the port's value into
      [buf.(off) ..], in the layout {!save_state} gives a register of
      the same width ({!reg_words}): one word for a width <=
      [Bits.max_int_width], otherwise one word per
      [Bits.limb_width]-bit limb, least significant first.  Allocates
      nothing.  Raises [Invalid_argument] when the slice does not fit
      in [buf]. *)

  val write_words : t -> port -> int array -> int -> unit
  (** [write_words t p buf off] sets the primary input behind the port
      from a slice in the {!read_words} layout, each word truncated to
      its bits.  The stored value is compared word by word first: an
      unchanged value allocates nothing and leaves the circuit clean;
      a changed one is stored as a fresh vector (registers and
      memories may hold the old one) and dirties the circuit.  Raises
      [Invalid_argument] like {!write} for a port that is not a
      primary input, and when the slice does not fit in [buf]. *)

  val peek_signal : t -> Signal.t -> Bits.t

  val state_words : t -> int
  (** Length of the register state {!save_state} writes: one word per
      register of width <= [Bits.max_int_width], one per
      [Bits.limb_width]-bit limb for a wider one, registers in
      [Circuit.registers] order.  Memories are not part of it. *)

  val save_state : t -> int array -> int -> unit
  (** [save_state t buf off] writes the register state to
      [buf.(off) .. buf.(off + state_words t - 1)].  Narrow registers
      cost one store each and allocate nothing.  Raises
      [Invalid_argument] when the slice does not fit in [buf]. *)

  val load_state : t -> int array -> int -> unit
  (** Overwrite the register state with a slice written by
      {!save_state} on a simulator of the same circuit (each word is
      truncated to its register's width).  Like a write, takes effect
      at the next {!settle}/{!cycle}; primary inputs, memories and
      {!cycle_no} are untouched.  Raises [Invalid_argument] when the
      slice does not fit in [buf]. *)

  val reset : t -> unit
  (** Restore registers and memories to their initial contents and all
      primary inputs to zero, so a reset simulator is indistinguishable
      from a freshly created one. *)

  type mem_port
  (** A memory resolved once: reads and writes through it do no
      hashing, and on a memory of width <= [Bits.max_int_width]
      {!mem_get_int}/{!mem_set_int} allocate nothing.  Valid for the
      lifetime of the simulator, across {!reset}. *)

  val mem_port : t -> Signal.memory -> mem_port
  (** Resolve one of the simulated circuit's memories.  Raises
      [Invalid_argument] for a memory that is not part of it. *)

  val mem_get : t -> mem_port -> int -> Bits.t
  (** Word [addr] of the memory.  Raises [Invalid_argument] when
      [addr] is outside [0, size). *)

  val mem_get_int : t -> mem_port -> int -> int
  (** {!mem_get} as an int; raises [Invalid_argument] on a memory wider
      than [Bits.max_int_width]. *)

  val mem_set : t -> mem_port -> int -> Bits.t -> unit
  (** Overwrite word [addr].  The state cone (asynchronous reads) is
      stale until the next {!settle}/{!cycle}, which recomputes it.
      Raises [Invalid_argument] on an address out of range or a width
      mismatch. *)

  val mem_set_int : t -> mem_port -> int -> int -> unit
  (** {!mem_set} of a non-negative int, truncated to the memory width.
      Raises [Invalid_argument] like {!mem_set}, on a negative value,
      and on a memory wider than [Bits.max_int_width]. *)

  val mem_fill_int : t -> mem_port -> pos:int -> len:int -> int -> unit
  (** [mem_fill_int t p ~pos ~len v] is [len] {!mem_set_int}s of [v],
      at [pos] .. [pos + len - 1], as one store loop.  Raises like
      {!mem_set_int} when any address of the range (or [len < 0])
      is out of range. *)
end
