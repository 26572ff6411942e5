(* Bounded model checker for the MT-elastic protocol.

   The checker explores the reachable register states of a small
   elastic system — the very netlist the simulators run, driven
   through [Hw.Sim]'s save_state/load_state — under every
   protocol-legal environment behaviour, and checks the paper's
   invariants on every state and edge.  See mc.mli for the property
   classes and DESIGN.md "Verification" for the soundness arguments;
   the load-bearing engineering decisions are summarized here.

   State.  A node of the explored graph is (register words,
   environment state): pending producer offers, the per-flow token
   scoreboard (FIFO of injected data per thread, plus a debt list for
   operators that deliver downstream before consuming upstream, like
   the eager fork), and per-thread offer-order lists for merge-style
   shared paths.  The scoreboard rides along so conservation is a
   *local* check on each edge: after the clock edge, the occupancy
   decoded from the state registers must equal (queued - owed) tokens
   for every flow group and thread.

   Store.  Each state is one fixed-length record in a flat int vector:
   every register word, the environment (offers, then each list
   packed into one word — see [Plist]), depth / predecessor / pending
   mask, and the label of the edge that reached it as ints (source
   combo, sink ready vector).  The dedup key is the kept register
   words plus the environment, looked up in an open-addressing table
   of state ids tagged with their key's hash.  A successor is built in
   place at the end of the store and kept only when its key is new, so
   an edge into a known state — almost all of them — allocates next to
   nothing.  The successors already met from the state being expanded
   are cached, so most edges skip the table; only distinct (state,
   successor) pairs are kept, for the deadlock closure.  Probes are
   ports resolved once per run, and labels become text only for a
   stored report or a counterexample trace.

   Environment.  Producers are persistent: an offer stays asserted
   until it transfers, which is what [Monitor.check_stability ~strict]
   demands of host endpoints.  Consumers may do anything, so sink
   ready vectors are enumerated exhaustively (modulo the pinning
   reduction below).  Hazard specs relax exactly one of these
   preconditions to reproduce the documented composition hazards.

   Reductions (Reduced mode only; Naive explores the raw product):

   - Gated-offer canonicalization.  At a source whose valid input is
     provably read only under its ready (every MEB input: the write
     strobe is [valid AND rout] and rout is registered), an unfired
     offer is invisible to the circuit, so offering at cycle k and
     transferring at cycle k+j is stutter-equivalent to offering at
     cycle k+j.  Only inject-on-ready is explored and gated sources
     carry no offer state at all.  Availability is computed once per
     state under all-ones sink ready; since every gated endpoint's
     ready is monotone in (or independent of) sink ready, a chosen
     injection can only *lose* its ready under the actual poked combo
     — such edges are skipped as duplicates of the same combo without
     the injection.
   - Absent-thread ready pinning.  A sink ready bit of a thread with
     no token in flight and no offer this combo feeds no enabled
     transfer, so it is a don't-care: pinned to 1 instead of
     enumerated.
   - Data-independence quotient.  A netlist taint analysis from the
     [*_data] inputs proves that no signal the checker observes
     depends on data; then the data domain collapses to {0} and
     tainted (data-path) registers leave the state key.  The branch
     spec fails the proof (its steering condition IS the data) and
     automatically keeps the full domain. *)

module S = Hw.Signal
module Circuit = Hw.Circuit
module Sim = Hw.Sim
module Ch = Melastic.Mt_channel
module N = Melastic.Names
module Meb = Melastic.Meb
module Policy = Melastic.Policy
module Barrier = Melastic.Barrier
module M_fork = Melastic.M_fork
module M_join = Melastic.M_join
module M_merge = Melastic.M_merge
module M_branch = Melastic.M_branch
module Mt_varlat = Melastic.Mt_varlat
module Aligned = Melastic.Aligned

type mode = Naive | Reduced

let mode_to_string = function Naive -> "naive" | Reduced -> "reduced"

(* ------------------------------------------------------------------ *)
(* System descriptions                                                *)
(* ------------------------------------------------------------------ *)

(* Where a flow's tokens leave the system: a sink channel, which bits
   of its data bus carry this flow's payload, and (for a branch-style
   router) the data value whose tokens are the only legal visitors. *)
type sink_ref = { snk : string; slice : (int * int) option; accept : int option }

type src = {
  src_name : string;
  gated : bool;  (* valid provably read only under ready *)
  retracts : bool;  (* hazard: may withdraw an unfired offer *)
}

(* One source-to-sink token flow with its occupancy decoder.
   [tokens probe t] builds thread [t]'s decoder: it resolves every
   signal the decoder reads through [probe] (once per run; the taint
   check records the names with a fake [probe]) and returns a function
   giving the number of this flow's tokens currently stored in the
   circuit's registers.  [lo] may be negative for operators that run a
   delivery debt (eager fork).  Flows sharing [grp] share one physical
   buffer and are balanced as a unit. *)
type flow = {
  from_ : string;
  into : sink_ref list;
  tokens : (string -> unit -> int) -> int -> unit -> int;
  lo : int;
  hi : int;
  grp : string option;
}

type spec = {
  label : string;
  threads : int;
  build : S.builder -> unit;
  srcs : src list;
  snks : string list;
  flows : flow list;
  one_hot : string list;  (* channels whose valid vector must stay one-hot *)
  full_groups : (string * int) list;  (* reduced-MEB instances: (name, threads) *)
  exclusive : string list list;  (* per-thread exclusivity between sources *)
  ordered : string list list;  (* per-thread offer order must survive merging *)
  no_collapse : bool;  (* hazard needs distinguishable data values *)
  expect : string option;  (* hazard spec: the class that must fire *)
}

let spec_label s = s.label
let spec_threads s = s.threads
let expected_violation s = s.expect

type stats = {
  states : int;
  edges : int;
  max_depth : int;
  data_collapsed : bool;
  truncated : bool;
}

type outcome = {
  spec_label : string;
  mode : mode;
  backend : string;
  stats : stats;
  props : (string * int) list;
  reports : Monitor.violation list;
  trace : string list;
  clean : bool;
  ok : bool;
}

let prop_names = [ "one-hot"; "at-most-one-full"; "conservation"; "deadlock" ]

(* ------------------------------------------------------------------ *)
(* Data-independence quotient                                         *)
(* ------------------------------------------------------------------ *)

let is_data_name nm =
  let l = String.length nm in
  l >= 5 && String.sub nm (l - 5) 5 = "_data"

(* Every name the checker peeks during exploration.  These must stay
   untainted for the quotient to be sound; anything else (MEB payload
   registers, combine networks) is free to depend on data. *)
let observed_names spec =
  let acc = ref [] in
  let add nm = acc := nm :: !acc in
  List.iter
    (fun s ->
      add (N.valid s.src_name);
      add (N.ready s.src_name);
      add (N.fire s.src_name))
    spec.srcs;
  List.iter
    (fun nm ->
      add (N.valid nm);
      add (N.fire nm))
    spec.snks;
  List.iter (fun nm -> add (N.valid nm)) spec.one_hot;
  List.iter
    (fun (inst, n) ->
      for i = 0 to n - 1 do
        add (N.state inst i)
      done)
    spec.full_groups;
  List.iter
    (fun f ->
      for t = 0 to spec.threads - 1 do
        let (_ : unit -> int) =
          f.tokens
            (fun nm ->
              add nm;
              fun () -> 0)
            t
        in
        ()
      done)
    spec.flows;
  !acc

(* Forward taint from the [*_data] inputs to a fixpoint.  Registers
   are tainted through d, enable and clear; everything combinational
   through [Circuit.comb_deps].  Returns (clean, keep-in-key mask over
   [regs]): when any observed signal is tainted the quotient refuses
   itself and every register stays in the key. *)
let data_quotient circuit spec regs =
  let taint = Array.make (circuit.Circuit.max_uid + 1) false in
  let changed = ref true in
  while !changed do
    changed := false;
    Array.iter
      (fun (s : S.t) ->
        if not taint.(s.S.uid) then begin
          let t =
            match s.S.op with
            | S.Input nm -> is_data_name nm
            | S.Reg r ->
              taint.(r.S.d.S.uid)
              || (match r.S.enable with Some e -> taint.(e.S.uid) | None -> false)
              || (match r.S.clear with Some c -> taint.(c.S.uid) | None -> false)
            | _ ->
              List.exists (fun (d : S.t) -> taint.(d.S.uid)) (Circuit.comb_deps s)
          in
          if t then begin
            taint.(s.S.uid) <- true;
            changed := true
          end
        end)
      circuit.Circuit.order
  done;
  let clean =
    List.for_all
      (fun nm ->
        match Circuit.find_named circuit nm with
        | s -> not taint.(s.S.uid)
        | exception _ -> true)
      (observed_names spec)
  in
  if clean then (true, Array.map (fun (r : S.t) -> not taint.(r.S.uid)) regs)
  else (false, Array.map (fun _ -> true) regs)

(* ------------------------------------------------------------------ *)
(* Exploration engine                                                 *)
(* ------------------------------------------------------------------ *)

(* A growable flat [int] vector: the state store and the edge list. *)
module Ivec = struct
  type t = { mutable a : int array; mutable n : int }

  let create () = { a = Array.make 1024 0; n = 0 }

  (* Room for [k] more words past [n]; [a] may be replaced. *)
  let reserve v k =
    if v.n + k > Array.length v.a then begin
      let a' = Array.make (max (v.n + k) (2 * Array.length v.a)) 0 in
      Array.blit v.a 0 a' 0 v.n;
      v.a <- a'
    end

  let push v x =
    reserve v 1;
    Array.unsafe_set v.a v.n x;
    v.n <- v.n + 1
end

(* Token and offer-order lists, packed into one int each: a 1 sentinel
   followed by [bits] bits per element, first element highest.  The
   sentinel makes the code injective (the empty list is 1), so a list
   is one key word and an append or a pop is a few shifts. *)
module Plist = struct
  let empty = 1

  let length ~bits code =
    let rec msb c acc = if c = 1 then acc else msb (c lsr 1) (acc + 1) in
    msb code 0 / bits

  let append ~bits code x =
    if code lsr (Sys.int_size - 1 - bits) <> 0 then
      failwith "Mc: a token or offer-order list outgrew its packed key word";
    (code lsl bits) lor x

  (* Element [i] counted from the front of a list of length [len]. *)
  let nth ~bits ~len code i =
    (code lsr ((len - 1 - i) * bits)) land ((1 lsl bits) - 1)

  let head ~bits code = nth ~bits ~len:(length ~bits code) code 0

  (* Drop element [i] of a list of length [len]. *)
  let drop ~bits ~len code i =
    let lo = (len - 1 - i) * bits in
    ((code lsr (lo + bits)) lsl lo) lor (code land ((1 lsl lo) - 1))

  let pop ~bits code = drop ~bits ~len:(length ~bits code) code 0

  let remove_first ~bits code x =
    let len = length ~bits code in
    let rec find i =
      if i = len then code
      else if nth ~bits ~len code i = x then drop ~bits ~len code i
      else find (i + 1)
    in
    find 0
end

let prop_one_hot = 0
let prop_full = 1
let prop_conservation = 2
let prop_deadlock = 3

let run ?backend ?(mode = Reduced) ?(max_states = 2_000_000) ?(max_reports = 6)
    spec =
  let backend = match backend with Some b -> b | None -> !Sim.default_backend in
  let b = S.Builder.create () in
  spec.build b;
  let circuit = Circuit.create ~name:spec.label b in
  (* Both backends must enumerate the same register space, so the
     optimizer stays off even for the compiled backend. *)
  let sim = Sim.create ~backend ~optimize:false circuit in
  let regs = Array.of_list (Circuit.registers circuit) in
  let collapse, keep =
    if mode = Naive || spec.no_collapse then
      (false, Array.map (fun _ -> true) regs)
    else data_quotient circuit spec regs
  in
  let t_n = spec.threads in
  let all_mask = (1 lsl t_n) - 1 in
  let datas = if collapse then [ 0 ] else [ 0; 1 ] in
  let srcs = Array.of_list spec.srcs in
  let nsrc = Array.length srcs in
  let snks = Array.of_list spec.snks in
  let nsnk = Array.length snks in
  let flows = Array.of_list spec.flows in
  let nflow = Array.length flows in
  let src_idx name =
    let r = ref (-1) in
    Array.iteri (fun i s -> if s.src_name = name then r := i) srcs;
    if !r < 0 then invalid_arg ("Mc: unknown source " ^ name);
    !r
  in
  let snk_idx name =
    let r = ref (-1) in
    Array.iteri (fun i s -> if s = name then r := i) snks;
    if !r < 0 then invalid_arg ("Mc: unknown sink " ^ name);
    !r
  in
  let flow_src = Array.map (fun f -> src_idx f.from_) flows in
  (* Conservation groups: flows sharing [grp] share one buffer. *)
  let grp_ids : (string, int) Hashtbl.t = Hashtbl.create 8 in
  let members : (int, int list) Hashtbl.t = Hashtbl.create 8 in
  let ngrp = ref 0 in
  Array.iteri
    (fun fi f ->
      let key =
        match f.grp with Some g -> "g:" ^ g | None -> "f:" ^ string_of_int fi
      in
      let g =
        match Hashtbl.find_opt grp_ids key with
        | Some g -> g
        | None ->
          let g = !ngrp in
          incr ngrp;
          Hashtbl.add grp_ids key g;
          g
      in
      Hashtbl.replace members g
        (fi :: (match Hashtbl.find_opt members g with Some l -> l | None -> [])))
    flows;
  let ngrp = !ngrp in
  let groups = Array.init ngrp (fun g -> List.rev (Hashtbl.find members g)) in
  let g_rep = Array.map List.hd groups in
  (* Per group, the sinks its tokens may leave through, with the
     (flow, sink_ref) candidates for pop attribution. *)
  let g_sinks =
    Array.map
      (fun mem ->
        let seen = Hashtbl.create 4 in
        let names = ref [] in
        List.iter
          (fun fi ->
            List.iter
              (fun sr ->
                if not (Hashtbl.mem seen sr.snk) then begin
                  Hashtbl.add seen sr.snk ();
                  names := sr.snk :: !names
                end)
              flows.(fi).into)
          mem;
        Array.of_list
          (List.map
             (fun nm ->
               ( snk_idx nm,
                 nm,
                 Array.of_list
                   (List.concat_map
                      (fun fi ->
                        List.filter_map
                          (fun sr -> if sr.snk = nm then Some (fi, sr) else None)
                          flows.(fi).into)
                      mem) ))
             (List.rev !names)))
      groups
  in
  (* Ordered groups (offer-order preservation across merged paths). *)
  let ogroups = Array.of_list (List.map (List.map src_idx) spec.ordered) in
  let nog = Array.length ogroups in
  let src_og = Array.make nsrc (-1) in
  Array.iteri (fun gi l -> List.iter (fun si -> src_og.(si) <- gi) l) ogroups;
  let g_og =
    Array.map
      (fun mem ->
        match mem with
        | [] | [ _ ] -> -1
        | l -> (
          match List.map (fun fi -> src_og.(flow_src.(fi))) l with
          | og :: rest when og >= 0 && List.for_all (( = ) og) rest -> og
          | _ -> -1))
      groups
  in
  let ex_groups = Array.of_list (List.map (List.map src_idx) spec.exclusive) in
  (* Ports: every probe the exploration reads or drives, resolved once. *)
  let read p () = Sim.read_int p in
  let probe nm = read (Sim.signal_port sim nm) in
  let src_valid = Array.map (fun s -> Sim.input_port sim (N.valid s.src_name)) srcs in
  let src_data = Array.map (fun s -> Sim.input_port sim (N.data s.src_name)) srcs in
  let src_fire = Array.map (fun s -> Sim.signal_port sim (N.fire s.src_name)) srcs in
  let src_avail =
    Array.map
      (fun s -> if s.gated then probe (N.ready s.src_name) else fun () -> 0)
      srcs
  in
  let snk_ready = Array.map (fun nm -> Sim.input_port sim (N.ready nm)) snks in
  let snk_fire = Array.map (fun nm -> Sim.signal_port sim (N.fire nm)) snks in
  let snk_data =
    Array.map (fun nm -> if collapse then fun () -> 0 else probe (N.data nm)) snks
  in
  let one_hot =
    Array.of_list
      (List.map (fun nm -> (nm, Sim.signal_port sim (N.valid nm))) spec.one_hot)
  in
  let full_groups =
    Array.of_list
      (List.map
         (fun (inst, n) ->
           (inst, Array.init n (fun i -> Sim.signal_port sim (N.state inst i))))
         spec.full_groups)
  in
  let decoders =
    Array.init (ngrp * t_n) (fun i ->
        flows.(g_rep.(i / t_n)).tokens probe (i mod t_n))
  in
  (* Bits per packed list element: token data (a source's data bit or
     a sink's observed data) and source indices. *)
  let bits_for n =
    let rec go b = if 1 lsl b > n then b else go (b + 1) in
    max 1 (go 0)
  in
  let bits =
    Array.fold_left
      (fun acc nm ->
        if collapse then acc
        else max acc (Sim.port_width (Sim.signal_port sim (N.data nm))))
      (bits_for (nsrc - 1)) snks
  in
  (* State store: one record of [stride] words per state, all in one
     flat vector.  [nw] register words (every register, so a state can
     be reloaded), then the environment — offers, per flow x thread
     FIFO and debt lists, per ordered group x thread offer-order lists
     — then depth, predecessor and pending-thread mask, then the edge
     label that reached it: the source combo and the sink ready
     vector.  The key is the kept register words plus the
     environment. *)
  let nw = Sim.state_words sim in
  let o_off = nw in
  let q_off = o_off + nsrc in
  let d_off = q_off + (nflow * t_n) in
  let r_off = d_off + (nflow * t_n) in
  let m_off = r_off + (nog * t_n) in
  let v_off = m_off + 3 in
  let stride = v_off + nsrc + nsnk in
  let key_pos =
    let pos = ref [] and o = ref 0 in
    Array.iteri
      (fun i (r : S.t) ->
        let words = Hw.Sim_intf.reg_words r.S.width in
        if keep.(i) then for j = 0 to words - 1 do pos := (!o + j) :: !pos done;
        o := !o + words)
      regs;
    Array.of_list (List.rev !pos @ List.init (m_off - o_off) (fun i -> o_off + i))
  in
  let nkey = Array.length key_pos in
  let store = Ivec.create () in
  let n_st = ref 0 in
  let n_states () = !n_st in
  let field id off = store.Ivec.a.((id * stride) + off) in
  (* Open-addressing table by the key words of the record at [base],
     linear probing.  An entry is a state id (31 bits) under the upper
     bits of its key's hash: the upper bits pick the slot and reject
     most mismatches without touching the store. *)
  let table = ref (Array.make 4096 (-1)) in
  let id_mask = 0x7FFF_FFFF in
  let slot_of e = e lsr 31 in
  let hash_at a base =
    let h = ref 0 in
    for i = 0 to nkey - 1 do
      let x = Array.unsafe_get a (base + Array.unsafe_get key_pos i) in
      let m = (!h lxor x) * 0x2545F4914F6CDD1D in
      h := m lxor (m lsr 29)
    done;
    !h land max_int
  in
  let same_key a b1 b2 =
    let i = ref 0 in
    while
      !i < nkey
      &&
      let p = Array.unsafe_get key_pos !i in
      Array.unsafe_get a (b1 + p) = Array.unsafe_get a (b2 + p)
    do
      incr i
    done;
    !i = nkey
  in
  let rec free_slot tbl i =
    if tbl.(i) < 0 then i else free_slot tbl ((i + 1) land (Array.length tbl - 1))
  in
  let grow () =
    let tbl = Array.make (2 * Array.length !table) (-1) in
    let mask = Array.length tbl - 1 in
    Array.iter
      (fun e -> if e >= 0 then tbl.(free_slot tbl (slot_of e land mask)) <- e)
      !table;
    table := tbl
  in
  (* Bookkeeping for results. *)
  let counts = Array.make (List.length prop_names) 0 in
  let reports = ref [] in
  let n_reports = ref 0 in
  let first_trace = ref [] in
  (* The current edge's label (also the label stored with a new state). *)
  let combo = Array.make nsrc (-1) in
  let rvec = Array.make nsnk 0 in
  let via_text get =
    String.concat " "
      (Array.to_list
         (Array.mapi
            (fun si s ->
              match get si with
              | c when c >= 0 ->
                Printf.sprintf "%s=t%d/%d" s.src_name (c / 2) (c land 1)
              | _ -> Printf.sprintf "%s=-" s.src_name)
            srcs)
      @ Array.to_list
          (Array.mapi
             (fun k snk ->
               Printf.sprintf "%s.ready=%s" snk
                 (Bits.to_binary_string (Bits.of_int ~width:t_n (get (nsrc + k)))))
             snks))
  in
  let edge_via () =
    via_text (fun i -> if i < nsrc then combo.(i) else rvec.(i - nsrc))
  in
  let trace_to id extra =
    let rec walk id acc =
      if id < 0 then acc
      else
        let pred = field id (m_off + 1) in
        walk pred
          (if pred < 0 then acc else via_text (fun i -> field id (v_off + i)) :: acc)
    in
    let n = ref 0 in
    "reset"
    :: List.map
         (fun v ->
           incr n;
           Printf.sprintf "cycle %d: %s" !n v)
         (walk id [] @ extra)
  in
  (* [violated p] counts one violation of [p] and says whether its
     report is still to be stored, so the details are rendered only for
     the first [max_reports].  [~edge] adds the current edge's label to
     the counterexample trace. *)
  let violated prop =
    counts.(prop) <- counts.(prop) + 1;
    !n_reports < max_reports
  in
  let report ~prop ~channel ?thread ~expected ~actual ~depth ~at ?(edge = false)
      () =
    incr n_reports;
    reports :=
      { Monitor.checker = "mc-" ^ List.nth prop_names prop; cycle = depth;
        channel; thread; expected; actual }
      :: !reports;
    if !first_trace = [] then
      first_trace := trace_to at (if edge then [ edge_via () ] else [])
  in
  let truncated = ref false in
  let max_depth = ref 0 in
  (* Explored edges, and the distinct (state, successor) pairs among
     them as [(id lsl 31) lor id'] for the deadlock closure. *)
  let n_edges = ref 0 in
  let edges = Ivec.create () in
  (* Register the record just written at the store's end, whose key
     hashes to [h]: its key is looked up, and the record is kept (with
     depth, predecessor, pending mask and the current edge label) only
     when new. *)
  let add_state ~pred ~pend h =
    let a = store.Ivec.a in
    let id_new = n_states () in
    let base = id_new * stride in
    let tag = h land lnot id_mask in
    let tbl = !table in
    let mask = Array.length tbl - 1 in
    (* Probe to the key's entry or the first empty slot. *)
    let i = ref (slot_of h land mask) in
    while
      let e = tbl.(!i) in
      e >= 0
      && not (e land lnot id_mask = tag && same_key a ((e land id_mask) * stride) base)
    do
      i := (!i + 1) land mask
    done;
    let i = !i in
    let e = tbl.(i) in
    if e >= 0 then e land id_mask
    else begin
      let depth = if pred < 0 then 0 else field pred m_off + 1 in
      if depth > !max_depth then max_depth := depth;
      a.(base + m_off) <- depth;
      a.(base + m_off + 1) <- pred;
      a.(base + m_off + 2) <- pend;
      Array.blit combo 0 a (base + v_off) nsrc;
      Array.blit rvec 0 a (base + v_off + nsrc) nsnk;
      store.Ivec.n <- base + stride;
      incr n_st;
      tbl.(i) <- tag lor id_new;
      if 2 * n_states () > Array.length tbl then grow ();
      id_new
    end
  in
  (* Successors already met from the state being expanded, direct-mapped
     by hash and stamped with that state's id.  A state's edges mostly
     lead to a few successors; a hit here is confirmed against a record
     that was just read, and its edge is a duplicate pair, so only the
     first edge to each successor probes the table and is kept. *)
  let near_bits = 6 in
  let near_stamp = Array.make (1 lsl near_bits) (-1) in
  let near_hash = Array.make (1 lsl near_bits) 0 in
  let near_id = Array.make (1 lsl near_bits) 0 in
  let add_edge ~from ~pend =
    incr n_edges;
    let base = n_states () * stride in
    let h = hash_at store.Ivec.a base in
    let k = h land ((1 lsl near_bits) - 1) in
    if not (near_stamp.(k) = from && near_hash.(k) = h
            && same_key store.Ivec.a (near_id.(k) * stride) base)
    then begin
      let id' = add_state ~pred:from ~pend h in
      near_stamp.(k) <- from;
      near_hash.(k) <- h;
      near_id.(k) <- id';
      Ivec.push edges ((from lsl 31) lor id')
    end
  in
  let slice_val sr v =
    match sr.slice with
    | None -> v
    | Some (hi, lo) -> (v lsr lo) land ((1 lsl (hi - lo + 1)) - 1)
  in
  (* Pending-thread mask: threads with tokens decoded in the registers
     ([held], one bit per thread) or an offer outstanding in the record
     at [base]. *)
  let pending_of ~held base =
    let m = ref held in
    for si = 0 to nsrc - 1 do
      let o = store.Ivec.a.(base + o_off + si) in
      if o >= 0 then m := !m lor (1 lsl (o / 2))
    done;
    !m land all_mask
  in
  (* Root: the reset state with all inputs low. *)
  Sim.settle sim;
  Ivec.reserve store stride;
  Sim.save_state sim store.Ivec.a 0;
  Array.fill store.Ivec.a o_off nsrc (-1);
  Array.fill store.Ivec.a q_off (m_off - q_off) Plist.empty;
  let root_bals = Array.map (fun f -> f ()) decoders in
  let root_held = ref 0 in
  Array.iteri (fun i v -> if v <> 0 then root_held := !root_held lor (1 lsl (i mod t_n)))
    root_bals;
  ignore
    (add_state ~pred:(-1) ~pend:(pending_of ~held:!root_held 0) (hash_at store.Ivec.a 0));
  for i = 0 to (ngrp * t_n) - 1 do
    let v = root_bals.(i) in
    if v <> 0 && violated prop_conservation then
      report ~prop:prop_conservation
        ~channel:flows.(g_rep.(i / t_n)).from_
        ~thread:(i mod t_n) ~expected:"empty system at reset"
        ~actual:(Printf.sprintf "occupancy decodes to %d" v)
        ~depth:0 ~at:0 ()
  done;
  (* The state being expanded: a copy of its record, so the store may
     grow underneath. *)
  let cur = Array.make stride 0 in
  let fires_src = Array.make nsrc 0 in
  let fires_snk = Array.make nsnk 0 in
  let rel_bits = Array.make t_n 0 in
  let group_flows = Array.map Array.of_list groups in
  (* Offer [offers.(off + si)] at every source, sink ready all-ones or
     [rvec], then settle. *)
  let drive offers off ~all_ready =
    for si = 0 to nsrc - 1 do
      let o = offers.(off + si) in
      Sim.write_int src_valid.(si) (if o >= 0 then 1 lsl (o / 2) else 0);
      Sim.write_int src_data.(si) (if o >= 0 then o land 1 else 0)
    done;
    for k = 0 to nsnk - 1 do
      Sim.write_int snk_ready.(k) (if all_ready then all_mask else rvec.(k))
    done;
    Sim.settle sim
  in
  let head = ref 0 in
  (try
     while !head < n_states () do
       if n_states () > max_states then begin
         truncated := true;
         raise Exit
       end;
       let id = !head in
       incr head;
       Array.blit store.Ivec.a (id * stride) cur 0 stride;
       let depth = cur.(m_off) and pend = cur.(m_off + 2) in
       let offer si = cur.(o_off + si) in
       (* Base settle: pending offers asserted, every sink ready.
          Registered-state checks and gated availability read here. *)
       Sim.load_state sim cur 0;
       drive cur o_off ~all_ready:true;
       Array.iter
         (fun (inst, ports) ->
           let fulls = ref 0 in
           let bad = ref (-1) in
           Array.iteri
             (fun i p ->
               let v = Sim.read_int p in
               if v = 2 then incr fulls;
               if v > 2 then bad := i)
             ports;
           if !bad >= 0 && violated prop_full then
             report ~prop:prop_full ~channel:inst ~thread:!bad
               ~expected:"state in {EMPTY, HALF, FULL}"
               ~actual:(Printf.sprintf "state%d = 3" !bad)
               ~depth ~at:id ();
           if !fulls > 1 && violated prop_full then
             report ~prop:prop_full ~channel:inst
               ~expected:"at most one FULL thread (one shared aux slot)"
               ~actual:(Printf.sprintf "%d threads FULL" !fulls)
               ~depth ~at:id ())
         full_groups;
       let avail = Array.map (fun f -> f ()) src_avail in
       (* Threads each source currently holds (for exclusivity). *)
       let held = Array.make nsrc 0 in
       for si = 0 to nsrc - 1 do
         let o = offer si in
         if o >= 0 then held.(si) <- held.(si) lor (1 lsl (o / 2))
       done;
       for fi = 0 to nflow - 1 do
         let si = flow_src.(fi) in
         for t = 0 to t_n - 1 do
           let i = (fi * t_n) + t in
           if cur.(q_off + i) <> Plist.empty || cur.(d_off + i) <> Plist.empty then
             held.(si) <- held.(si) lor (1 lsl t)
         done
       done;
       (* Per source, the offers this state may present, in the order
          the combos are enumerated. *)
       let choices =
         Array.mapi
           (fun si s ->
             let o = offer si in
             (* An unfired offer at a GATED endpoint is invisible to
                the circuit, so the environment closure may also
                reconsider it (else Naive models a strictly more
                committed environment than Reduced prunes: a producer
                wedged on a full thread starves a barrier or aligned
                join of the sibling threads it needs — a real
                composition hazard, but of persistent ungated
                producers, which is what the hazard specs with
                [retracts] document). *)
             if o >= 0 then
               if s.retracts || (mode = Naive && s.gated) then [| o; -1 |]
               else [| o |]
             else begin
               let opts = ref [ -1 ] in
               for t = t_n - 1 downto 0 do
                 let injectable =
                   if mode = Reduced && s.gated then avail.(si) land (1 lsl t) <> 0
                   else true
                 in
                 if injectable then
                   List.iter (fun d -> opts := ((t * 2) lor d) :: !opts) datas
               done;
               Array.of_list !opts
             end)
           srcs
       in
       let combo_ok () =
         Array.for_all
           (fun mem ->
             let acc = ref 0 in
             let ok = ref true in
             List.iter
               (fun si ->
                 let c = combo.(si) in
                 let m = held.(si) lor if c >= 0 then 1 lsl (c / 2) else 0 in
                 if !acc land m <> 0 then ok := false;
                 acc := !acc lor m)
               mem;
             !ok)
           ex_groups
       in
       let ncombo = Array.fold_left (fun acc c -> acc * Array.length c) 1 choices in
       for ci = 0 to ncombo - 1 do
         (* Mixed radix, first source most significant: the cartesian
            product in source order. *)
         let r = ref ci in
         for si = nsrc - 1 downto 0 do
           let c = choices.(si) in
           combo.(si) <- c.(!r mod Array.length c);
           r := !r / Array.length c
         done;
         if combo_ok () then begin
           let inject = ref 0 in
           for si = 0 to nsrc - 1 do
             let c = combo.(si) in
             if c >= 0 then inject := !inject lor (1 lsl (c / 2))
           done;
           let rel =
             if mode = Naive then all_mask else (pend lor !inject) land all_mask
           in
           let nrel = ref 0 in
           for t = 0 to t_n - 1 do
             if rel land (1 lsl t) <> 0 then begin
               rel_bits.(!nrel) <- t;
               incr nrel
             end
           done;
           let nrel = !nrel in
           let pinned = all_mask land lnot rel in
           for rc = 0 to (1 lsl (nrel * nsnk)) - 1 do
             for k = 0 to nsnk - 1 do
               rvec.(k) <- pinned;
               for j = 0 to nrel - 1 do
                 if (rc lsr ((k * nrel) + j)) land 1 <> 0 then
                   rvec.(k) <- rvec.(k) lor (1 lsl rel_bits.(j))
               done
             done;
             Sim.load_state sim cur 0;
             drive combo 0 ~all_ready:false;
             let skip = ref false in
             for si = 0 to nsrc - 1 do
               let f = Sim.read_int src_fire.(si) in
               fires_src.(si) <- f;
               (* Canonical-order skip: a gated injection that does not
                  fire under this ready combo is the same edge as the
                  combo without it. *)
               let c = combo.(si) in
               if mode = Reduced && srcs.(si).gated && c >= 0
                  && f land (1 lsl (c / 2)) = 0
               then skip := true
             done;
             if not !skip then begin
               let depth' = depth + 1 in
               for h = 0 to Array.length one_hot - 1 do
                 let nm, p = one_hot.(h) in
                 let hot =
                   if Sim.port_width p <= Bits.max_int_width then
                     Bits.popcount_int (Sim.read_int p)
                   else Bits.popcount (Sim.read p)
                 in
                 if hot > 1 && violated prop_one_hot then
                   report ~prop:prop_one_hot ~channel:nm
                     ~expected:"at most one valid thread per cycle (P1)"
                     ~actual:
                       (Printf.sprintf "valids = %s"
                          (Bits.to_binary_string (Sim.read p)))
                     ~depth:depth' ~at:id ~edge:true ()
               done;
               for k = 0 to nsnk - 1 do
                 fires_snk.(k) <- Sim.read_int snk_fire.(k)
               done;
               (* The successor's record is built in place at the end of
                  the store, from the current environment. *)
               Ivec.reserve store stride;
               let a = store.Ivec.a in
               let nb = n_states () * stride in
               Array.blit cur o_off a (nb + o_off) (m_off - o_off);
               (* Offer order: a new offer joins its thread's line; a
                  retracted one leaves it. *)
               for si = 0 to nsrc - 1 do
                 let og = src_og.(si) in
                 if og >= 0 then begin
                   let c = combo.(si) and o = offer si in
                   if c >= 0 && o < 0 then begin
                     let oi = nb + r_off + (og * t_n) + (c / 2) in
                     a.(oi) <- Plist.append ~bits a.(oi) si
                   end
                   else if c < 0 && o >= 0 then begin
                     let oi = nb + r_off + (og * t_n) + (o / 2) in
                     a.(oi) <- Plist.remove_first ~bits a.(oi) si
                   end
                 end
               done;
               (* Pushes: every source fire injects into all its flows. *)
               for fi = 0 to nflow - 1 do
                 let si = flow_src.(fi) in
                 let fm = fires_src.(si) in
                 for t = 0 to t_n - 1 do
                   if fm land (1 lsl t) <> 0 then begin
                     let d = if combo.(si) >= 0 then combo.(si) land 1 else 0 in
                     let qi = nb + q_off + (fi * t_n) + t
                     and di = nb + d_off + (fi * t_n) + t in
                     if a.(di) <> Plist.empty then begin
                       (* The sink consumed before the source fired
                          (delivery debt, eager fork): settle it. *)
                       let d0 = Plist.head ~bits a.(di) in
                       if (not collapse) && d0 <> d && violated prop_conservation
                       then
                         report ~prop:prop_conservation ~channel:flows.(fi).from_
                           ~thread:t
                           ~expected:(Printf.sprintf "source completes data %d" d)
                           ~actual:
                             (Printf.sprintf
                                "a sink already observed %d for this token" d0)
                           ~depth:depth' ~at:id ~edge:true ();
                       a.(di) <- Plist.pop ~bits a.(di)
                     end
                     else a.(qi) <- Plist.append ~bits a.(qi) d
                   end
                 done
               done;
               (* Pops: attribute each sink fire to a queued token of
                  its conservation group. *)
               for g = 0 to ngrp - 1 do
                 for gs = 0 to Array.length g_sinks.(g) - 1 do
                     let ki, snk_nm, frefs = g_sinks.(g).(gs) in
                     let fm = fires_snk.(ki) in
                     for t = 0 to t_n - 1 do
                       if fm land (1 lsl t) <> 0 then begin
                         let obs_full = snk_data.(ki) () in
                         let oi = nb + r_off + (g_og.(g) * t_n) + t in
                         let expect_src =
                           if g_og.(g) >= 0 && a.(oi) <> Plist.empty then
                             Plist.head ~bits a.(oi)
                           else -1
                         in
                         (* Candidates are the flows with a queued token:
                            the one from the expected source first, then
                            the only one, then one whose head matches the
                            observed data, then the first. *)
                         let pick = ref (-1) and first = ref (-1) and ncand = ref 0 in
                         for j = 0 to Array.length frefs - 1 do
                           let fi, _ = frefs.(j) in
                           if a.(nb + q_off + (fi * t_n) + t) <> Plist.empty then begin
                             incr ncand;
                             if !first < 0 then first := j;
                             if !pick < 0 && flow_src.(fi) = expect_src then pick := j
                           end
                         done;
                         if !pick < 0 && !ncand > 1 then
                           for j = 0 to Array.length frefs - 1 do
                             let fi, sr = frefs.(j) in
                             let q = a.(nb + q_off + (fi * t_n) + t) in
                             if !pick < 0 && q <> Plist.empty
                                && Plist.head ~bits q = slice_val sr obs_full
                             then pick := j
                           done;
                         if !pick < 0 then pick := !first;
                         if !pick >= 0 then begin
                           let fi, sr = frefs.(!pick) in
                           if expect_src >= 0 && flow_src.(fi) <> expect_src
                              && violated prop_conservation
                           then
                             report ~prop:prop_conservation ~channel:snk_nm ~thread:t
                               ~expected:
                                 (Printf.sprintf
                                    "thread-%d tokens leave in offer order (next: %s)"
                                    t srcs.(expect_src).src_name)
                               ~actual:
                                 (Printf.sprintf "a later token from %s overtook it"
                                    srcs.(flow_src.(fi)).src_name)
                               ~depth:depth' ~at:id ~edge:true ();
                           if g_og.(g) >= 0 then
                             a.(oi) <- Plist.remove_first ~bits a.(oi) flow_src.(fi);
                           let qi = nb + q_off + (fi * t_n) + t in
                           let d0 = Plist.head ~bits a.(qi) in
                           a.(qi) <- Plist.pop ~bits a.(qi);
                           let obs = slice_val sr obs_full in
                           if (not collapse) && obs <> d0 && violated prop_conservation
                           then
                             report ~prop:prop_conservation ~channel:snk_nm ~thread:t
                               ~expected:
                                 (Printf.sprintf
                                    "data %d (per-thread FIFO order from %s)" d0
                                    flows.(fi).from_)
                               ~actual:(Printf.sprintf "observed %d" obs)
                               ~depth:depth' ~at:id ~edge:true ();
                           match sr.accept with
                           | Some acc
                             when (not collapse) && acc <> d0
                                  && violated prop_conservation ->
                             report ~prop:prop_conservation ~channel:snk_nm ~thread:t
                               ~expected:
                                 (Printf.sprintf "only tokens with data %d routed here"
                                    acc)
                               ~actual:(Printf.sprintf "token carries %d" d0)
                               ~depth:depth' ~at:id ~edge:true ()
                           | _ -> ()
                         end
                         else begin
                           (* No queued token: legal only for flows that
                              run a delivery debt. *)
                           let debt = ref (-1) in
                           for j = Array.length frefs - 1 downto 0 do
                             let fi, _ = frefs.(j) in
                             if flows.(fi).lo < 0 then debt := j
                           done;
                           if !debt >= 0 then begin
                             let fi, sr = frefs.(!debt) in
                             let di = nb + d_off + (fi * t_n) + t in
                             a.(di) <- Plist.append ~bits a.(di) (slice_val sr obs_full)
                           end
                           else if violated prop_conservation then
                             report ~prop:prop_conservation ~channel:snk_nm ~thread:t
                               ~expected:"a sink fire consumes a queued token"
                               ~actual:"fire with no token in flight" ~depth:depth'
                               ~at:id ~edge:true ()
                         end
                       end
                     done
                 done
               done;
               Sim.cycle sim;
               let held = ref 0 in
               for g = 0 to ngrp - 1 do
                 let rep = flows.(g_rep.(g)) in
                 for t = 0 to t_n - 1 do
                   let want = ref 0 in
                   for j = 0 to Array.length group_flows.(g) - 1 do
                     let i = (group_flows.(g).(j) * t_n) + t in
                     want :=
                       !want
                       + Plist.length ~bits a.(nb + q_off + i)
                       - Plist.length ~bits a.(nb + d_off + i)
                   done;
                   let want = !want in
                   let got = decoders.((g * t_n) + t) () in
                   if got <> 0 then held := !held lor (1 lsl t);
                   if got <> want && violated prop_conservation then
                     report ~prop:prop_conservation ~channel:rep.from_ ~thread:t
                       ~expected:
                         (Printf.sprintf "occupancy %d (every fire accounted)" want)
                       ~actual:(Printf.sprintf "state decodes to %d" got)
                       ~depth:depth' ~at:id ~edge:true ();
                   if (want < rep.lo || want > rep.hi) && violated prop_conservation
                   then
                     report ~prop:prop_conservation ~channel:rep.from_ ~thread:t
                       ~expected:
                         (Printf.sprintf "occupancy within [%d, %d]" rep.lo rep.hi)
                       ~actual:(string_of_int want) ~depth:depth' ~at:id ~edge:true
                       ()
                 done
               done;
               for si = 0 to nsrc - 1 do
                 let c = combo.(si) in
                 a.(nb + o_off + si) <-
                   (if c >= 0 && fires_src.(si) land (1 lsl (c / 2)) <> 0 then -1
                    else c)
               done;
               Sim.save_state sim a nb;
               add_edge ~from:id ~pend:(pending_of ~held:!held nb)
             end
           done
         end
       done
     done
   with Exit -> ());
  let n = n_states () in
  let n_pairs = edges.Ivec.n in
  (* Deadlock-freedom: a thread with tokens in flight must always keep
     SOME drain reachable (the environment is controllable, so this is
     exists-liveness: backward closure of the drained states). *)
  if not !truncated then begin
    (* Reverse adjacency in compressed rows: the predecessors of [s]
       are [preds.(start.(s)) .. preds.(start.(s + 1) - 1)]. *)
    let start = Array.make (n + 1) 0 in
    let edge e = (edges.Ivec.a.(e) lsr 31, edges.Ivec.a.(e) land 0x7FFF_FFFF) in
    for e = 0 to n_pairs - 1 do
      let f, t = edge e in
      if f <> t then start.(t + 1) <- start.(t + 1) + 1
    done;
    for s = 1 to n do
      start.(s) <- start.(s) + start.(s - 1)
    done;
    let preds = Array.make start.(n) 0 in
    let fill = Array.sub start 0 n in
    for e = 0 to n_pairs - 1 do
      let f, t = edge e in
      if f <> t then begin
        preds.(fill.(t)) <- f;
        fill.(t) <- fill.(t) + 1
      end
    done;
    let stack = Array.make n 0 in
    for t = 0 to t_n - 1 do
      let bit = 1 lsl t in
      let good = Array.init n (fun i -> field i (m_off + 2) land bit = 0) in
      let sp = ref 0 in
      Array.iteri
        (fun i g ->
          if g then begin
            stack.(!sp) <- i;
            incr sp
          end)
        good;
      while !sp > 0 do
        decr sp;
        let s' = stack.(!sp) in
        for j = start.(s') to start.(s' + 1) - 1 do
          let s = preds.(j) in
          if not good.(s) then begin
            good.(s) <- true;
            stack.(!sp) <- s;
            incr sp
          end
        done
      done;
      let bad = ref (-1) in
      Array.iteri
        (fun i g ->
          if (not g) && (!bad < 0 || field i m_off < field !bad m_off) then bad := i)
        good;
      if !bad >= 0 && violated prop_deadlock then
        report ~prop:prop_deadlock ~channel:"system" ~thread:t
          ~expected:"some input sequence still drains the thread"
          ~actual:"thread holds tokens and no continuation ever drains them"
          ~depth:(field !bad m_off) ~at:!bad ()
    done
  end;
  let props = List.mapi (fun i p -> (p, counts.(i))) prop_names in
  let clean = List.for_all (fun (_, c) -> c = 0) props in
  let ok =
    match spec.expect with
    | None -> clean && not !truncated
    | Some p -> List.assoc p props > 0
  in
  { spec_label = spec.label;
    mode;
    backend = Sim.backend_to_string backend;
    stats =
      { states = n;
        edges = !n_edges;
        max_depth = !max_depth;
        data_collapsed = collapse;
        truncated = !truncated };
    props;
    reports = List.rev !reports;
    trace = !first_trace;
    clean;
    ok }

(* ------------------------------------------------------------------ *)
(* The zoo                                                            *)
(* ------------------------------------------------------------------ *)

let gated name = { src_name = name; gated = true; retracts = false }
let persistent name = { src_name = name; gated = false; retracts = false }
let sref ?slice ?accept snk = { snk; slice; accept }

(* EMPTY/HALF/FULL register value -> token count; the illegal encoding
   3 is reported by the at-most-one-full check, count it as one token
   so conservation flags the same state. *)
let decode_occ = function 0 -> 0 | 1 -> 1 | 2 -> 2 | _ -> 1

let meb_tokens ~kind ~inst probe t =
  let state =
    probe
      (match kind with
       | Meb.Reduced -> N.state inst t
       | Meb.Full -> N.state (N.sub inst t) 0)
  in
  fun () -> decode_occ (state ())

let meb_groups ~kind ~inst ~threads =
  match kind with
  | Meb.Reduced -> [ (inst, threads) ]
  | Meb.Full -> List.init threads (fun t -> (N.sub inst t, 1))

let base ~label ~threads ~build =
  { label; threads; build; srcs = []; snks = []; flows = []; one_hot = [];
    full_groups = []; exclusive = []; ordered = []; no_collapse = false;
    expect = None }

let meb ~kind ~policy ~threads =
  let s =
    base
      ~label:
        (Printf.sprintf "meb-%s-%s-S%d" (Meb.kind_to_string kind)
           (Policy.to_string policy) threads)
      ~threads
      ~build:(fun b ->
        let src = Ch.source b ~name:"src" ~threads ~width:1 in
        let m = Meb.create ~name:"m0" ~policy ~kind b src in
        Ch.sink b ~name:"snk" m.Meb.out)
  in
  { s with
    srcs = [ gated "src" ];
    snks = [ "snk" ];
    flows =
      [ { from_ = "src"; into = [ sref "snk" ];
          tokens = meb_tokens ~kind ~inst:"m0"; lo = 0; hi = 2; grp = None } ];
    one_hot = [ "snk" ];
    full_groups = meb_groups ~kind ~inst:"m0" ~threads }

let meb_chain ~kind ~policy ~threads =
  let s =
    base
      ~label:
        (Printf.sprintf "chain-%s-%s-S%d" (Meb.kind_to_string kind)
           (Policy.to_string policy) threads)
      ~threads
      ~build:(fun b ->
        let src = Ch.source b ~name:"src" ~threads ~width:1 in
        let m0 = Meb.create ~name:"m0" ~policy ~kind b src in
        let mid = Ch.probe b ~name:"mid" m0.Meb.out in
        let m1 = Meb.create ~name:"m1" ~policy ~kind b mid in
        Ch.sink b ~name:"snk" m1.Meb.out)
  in
  { s with
    srcs = [ gated "src" ];
    snks = [ "snk" ];
    flows =
      [ { from_ = "src"; into = [ sref "snk" ];
          tokens =
            (fun probe t ->
              let m0 = meb_tokens ~kind ~inst:"m0" probe t
              and m1 = meb_tokens ~kind ~inst:"m1" probe t in
              fun () -> m0 () + m1 ());
          lo = 0; hi = 4; grp = None } ];
    one_hot = [ "mid"; "snk" ];
    full_groups =
      meb_groups ~kind ~inst:"m0" ~threads @ meb_groups ~kind ~inst:"m1" ~threads }

let barrier ~threads =
  let s =
    base ~label:(Printf.sprintf "barrier-S%d" threads) ~threads
      ~build:(fun b ->
        let src = Ch.source b ~name:"src" ~threads ~width:1 in
        let m =
          Meb.create ~name:"m0" ~policy:Policy.Valid_only ~kind:Meb.Reduced b
            src
        in
        let bar = Barrier.create ~name:"bar" b m.Meb.out in
        Ch.sink b ~name:"snk" bar.Barrier.out)
  in
  (* The barrier stores no token: it observes arrivals through valid
     while holding ready low, so occupancy lives in the MEB alone. *)
  { s with
    srcs = [ gated "src" ];
    snks = [ "snk" ];
    flows =
      [ { from_ = "src"; into = [ sref "snk" ];
          tokens = meb_tokens ~kind:Meb.Reduced ~inst:"m0"; lo = 0; hi = 2;
          grp = None } ];
    one_hot = [ "snk" ];
    full_groups = [ ("m0", threads) ] }

let fork_gen ~retracts ~threads =
  let s =
    base
      ~label:
        (Printf.sprintf "%s-S%d" (if retracts then "fork-retract" else "fork")
           threads)
      ~threads
      ~build:(fun b ->
        let src = Ch.source b ~name:"src" ~threads ~width:1 in
        let outs = M_fork.eager ~name:"mfork" b src ~n:2 in
        List.iteri
          (fun k o -> Ch.sink b ~name:(Printf.sprintf "snk%d" k) o)
          outs)
  in
  (* The eager fork's valid is read outside ready (the done bits latch
     on partial deliveries), so the source is persistent; its flows
     run a delivery debt: done(t,k) means sink k got the token before
     the source completed. *)
  { s with
    srcs = [ { src_name = "src"; gated = false; retracts } ];
    snks = [ "snk0"; "snk1" ];
    flows =
      List.init 2 (fun k ->
          { from_ = "src";
            into = [ sref (Printf.sprintf "snk%d" k) ];
            tokens =
              (fun probe t ->
                let dn = probe (N.indexed (N.sub "mfork" t) "done" k) in
                fun () -> -dn ());
            lo = -1; hi = 0; grp = None });
    one_hot = [ "snk0"; "snk1" ];
    no_collapse = retracts;
    expect = (if retracts then Some "conservation" else None) }

let fork ~threads = fork_gen ~retracts:false ~threads
let fork_retracting ~threads = fork_gen ~retracts:true ~threads

let join_gen ~leader ~threads =
  let s =
    base
      ~label:
        (Printf.sprintf "%s-S%d" (if leader then "join" else "join-unaligned")
           threads)
      ~threads
      ~build:(fun b ->
        let sa = Ch.source b ~name:"srca" ~threads ~width:1 in
        let sc = Ch.source b ~name:"srcc" ~threads ~width:1 in
        let ma =
          Meb.create ~name:"ma"
            ~policy:(if leader then Policy.Ready_aware else Policy.Valid_only)
            ~kind:Meb.Reduced b sa
        in
        let mc =
          Meb.create ~name:"mc" ~policy:Policy.Valid_only ~kind:Meb.Reduced b
            sc
        in
        let j = M_join.create b ma.Meb.out mc.Meb.out in
        let j = Ch.probe b ~name:"jn" j in
        Ch.sink b ~name:"snk" j)
  in
  (* Default combine is concat [a; c]: a's bit is the sink's MSB. *)
  { s with
    srcs = [ gated "srca"; gated "srcc" ];
    snks = [ "snk" ];
    flows =
      [ { from_ = "srca"; into = [ sref ~slice:(1, 1) "snk" ];
          tokens = meb_tokens ~kind:Meb.Reduced ~inst:"ma"; lo = 0; hi = 2;
          grp = None };
        { from_ = "srcc"; into = [ sref ~slice:(0, 0) "snk" ];
          tokens = meb_tokens ~kind:Meb.Reduced ~inst:"mc"; lo = 0; hi = 2;
          grp = None } ];
    one_hot = [ "jn"; "snk" ];
    full_groups = [ ("ma", threads); ("mc", threads) ];
    expect = (if leader then None else Some "deadlock") }

let join ~threads = join_gen ~leader:true ~threads
let join_unaligned ~threads = join_gen ~leader:false ~threads

let merge_gen ~fairness ~exclusive ~threads =
  let s =
    base
      ~label:
        (Printf.sprintf "merge-%s%s-S%d"
           (match fairness with
           | M_merge.Priority_a -> "prio"
           | M_merge.Fair -> "fair")
           (if exclusive then "" else "-unordered")
           threads)
      ~threads
      ~build:(fun b ->
        let sa = Ch.source b ~name:"srca" ~threads ~width:1 in
        let sc = Ch.source b ~name:"srcc" ~threads ~width:1 in
        let mg = M_merge.create ~fairness b sa sc in
        let mg = Ch.probe b ~name:"mg" mg in
        let m =
          Meb.create ~name:"m0" ~policy:Policy.Valid_only ~kind:Meb.Reduced b
            mg
        in
        Ch.sink b ~name:"snk" m.Meb.out)
  in
  (* Merge reads valids outside the producers' ready (selection and
     fairness state), so both sources are persistent.  Both flows land
     in the same MEB: one conservation group. *)
  { s with
    srcs = [ persistent "srca"; persistent "srcc" ];
    snks = [ "snk" ];
    flows =
      [ { from_ = "srca"; into = [ sref "snk" ];
          tokens = meb_tokens ~kind:Meb.Reduced ~inst:"m0"; lo = 0; hi = 2;
          grp = Some "m0" };
        { from_ = "srcc"; into = [ sref "snk" ];
          tokens = meb_tokens ~kind:Meb.Reduced ~inst:"m0"; lo = 0; hi = 2;
          grp = Some "m0" } ];
    one_hot = [ "mg"; "snk" ];
    full_groups = [ ("m0", threads) ];
    exclusive = (if exclusive then [ [ "srca"; "srcc" ] ] else []);
    ordered = [ [ "srca"; "srcc" ] ];
    no_collapse = not exclusive;
    expect = (if exclusive then None else Some "conservation") }

let merge ~fairness ~threads = merge_gen ~fairness ~exclusive:true ~threads

let merge_unordered ~threads =
  merge_gen ~fairness:M_merge.Priority_a ~exclusive:false ~threads

let branch ~threads =
  let s =
    base ~label:(Printf.sprintf "branch-S%d" threads) ~threads
      ~build:(fun b ->
        let src = Ch.source b ~name:"src" ~threads ~width:1 in
        let m =
          Meb.create ~name:"m0" ~policy:Policy.Valid_only ~kind:Meb.Reduced b
            src
        in
        let mid = Ch.probe b ~name:"mid" m.Meb.out in
        let br = M_branch.create b mid ~cond:mid.Ch.data in
        Ch.sink b ~name:"snkt" br.M_branch.out_true;
        Ch.sink b ~name:"snkf" br.M_branch.out_false)
  in
  (* Steering is BY data, so the data quotient must (and does) refuse
     itself; the accept fields check the routing. *)
  { s with
    srcs = [ gated "src" ];
    snks = [ "snkt"; "snkf" ];
    flows =
      [ { from_ = "src";
          into = [ sref ~accept:1 "snkt"; sref ~accept:0 "snkf" ];
          tokens = meb_tokens ~kind:Meb.Reduced ~inst:"m0"; lo = 0; hi = 2;
          grp = None } ];
    one_hot = [ "mid"; "snkt"; "snkf" ];
    full_groups = [ ("m0", threads) ] }

(* The NoC router node (lib/noc): 2-in/2-out, input-buffered — each
   input's MEB feeds an M-Branch steered by the data bit (the
   destination field), and each output port collects both arms through
   an M-Merge.

   Merge policy: [Fair].  A fabric merge's inputs are not per-thread
   exclusive in general (one thread's tokens can converge on a router
   from different routes), and the pinned Priority_a offer-order
   hazard ([merge_unordered]) shows priority arbitration inverting one
   thread's stream across converging paths — besides starving the low
   side under load.  The checker model keeps the per-thread
   exclusivity assumption the fabric's deterministic single-path
   routes give each (source, destination) stream; what it proves is
   that the router itself never duplicates, drops, misroutes or
   deadlocks a token, with occupancy decoded from the two input
   MEBs. *)
let router ~threads =
  let s =
    base ~label:(Printf.sprintf "router-S%d" threads) ~threads
      ~build:(fun b ->
        let sa = Ch.source b ~name:"srca" ~threads ~width:1 in
        let sc = Ch.source b ~name:"srcc" ~threads ~width:1 in
        let ma =
          Meb.create ~name:"ma" ~policy:Policy.Valid_only ~kind:Meb.Reduced b sa
        in
        let mc =
          Meb.create ~name:"mc" ~policy:Policy.Valid_only ~kind:Meb.Reduced b sc
        in
        let ina = Ch.probe b ~name:"mida" ma.Meb.out in
        let inc = Ch.probe b ~name:"midc" mc.Meb.out in
        let ba = M_branch.create b ina ~cond:ina.Ch.data in
        let bc = M_branch.create b inc ~cond:inc.Ch.data in
        let out0 =
          M_merge.create ~fairness:M_merge.Fair b ba.M_branch.out_false
            bc.M_branch.out_false
        in
        let out1 =
          M_merge.create ~fairness:M_merge.Fair b ba.M_branch.out_true
            bc.M_branch.out_true
        in
        Ch.sink b ~name:"snk0" (Ch.probe b ~name:"out0" out0);
        Ch.sink b ~name:"snk1" (Ch.probe b ~name:"out1" out1))
  in
  (* Unlike the bare [merge] spec, each source feeds an input MEB
     (whose valid input is read only under its ready), so both sources
     are gated; what the merges read outside ready is the MEB
     *outputs*, which are circuit state, not environment offers.
     Steering is BY data, so the data quotient refuses itself (as in
     [branch]) and routing is checked through the accept fields. *)
  { s with
    srcs = [ gated "srca"; gated "srcc" ];
    snks = [ "snk0"; "snk1" ];
    flows =
      (* The flows share both sinks, so they must form one
         conservation group (a sink fire is attributed within the
         group); the group decoder sums both input buffers.  Per-flow
         pop attribution stays unambiguous because exclusivity keeps a
         thread's in-flight tokens in one input buffer at a time. *)
      (let both probe t =
         let ma = meb_tokens ~kind:Meb.Reduced ~inst:"ma" probe t
         and mc = meb_tokens ~kind:Meb.Reduced ~inst:"mc" probe t in
         fun () -> ma () + mc ()
       in
       [ { from_ = "srca";
           into = [ sref ~accept:0 "snk0"; sref ~accept:1 "snk1" ];
           tokens = both; lo = 0; hi = 2; grp = Some "rtr" };
         { from_ = "srcc";
           into = [ sref ~accept:0 "snk0"; sref ~accept:1 "snk1" ];
           tokens = both; lo = 0; hi = 2; grp = Some "rtr" } ]);
    one_hot = [ "mida"; "midc"; "out0"; "out1"; "snk0"; "snk1" ];
    full_groups = [ ("ma", threads); ("mc", threads) ];
    exclusive = [ [ "srca"; "srcc" ] ] }

let varlat ~threads =
  let s =
    base ~label:(Printf.sprintf "varlat-S%d" threads) ~threads
      ~build:(fun b ->
        let src = Ch.source b ~name:"src" ~threads ~width:1 in
        let v = Mt_varlat.create ~name:"vl" b src ~latency:(Mt_varlat.Fixed 2) in
        Ch.sink b ~name:"snk" v.Mt_varlat.out)
  in
  { s with
    srcs = [ gated "src" ];
    snks = [ "snk" ];
    flows =
      [ { from_ = "src"; into = [ sref "snk" ];
          tokens =
            (fun probe t ->
              let occ = probe "vl_occupied" in
              let owner = if threads = 1 then fun () -> 0 else probe "vl_owner" in
              fun () -> if occ () = 1 && owner () = t then 1 else 0);
          lo = 0; hi = 1; grp = None } ];
    one_hot = [ "snk" ] }

let varlat_per_thread ~threads =
  let s =
    base ~label:(Printf.sprintf "varlat-pt-S%d" threads) ~threads
      ~build:(fun b ->
        let src = Ch.source b ~name:"src" ~threads ~width:1 in
        let v =
          Mt_varlat.per_thread ~name:"vlp" b src ~latency:(Mt_varlat.Fixed 2)
        in
        Ch.sink b ~name:"snk" v.Mt_varlat.out)
  in
  { s with
    srcs = [ gated "src" ];
    snks = [ "snk" ];
    flows =
      [ { from_ = "src"; into = [ sref "snk" ];
          tokens = (fun probe t -> probe (N.indexed "vlp" "occ" t));
          lo = 0; hi = 1; grp = None } ];
    one_hot = [ "snk" ] }

let aligned ~policy ~threads =
  let s =
    base
      ~label:(Printf.sprintf "aligned-%s-S%d" (Policy.to_string policy) threads)
      ~threads
      ~build:(fun b ->
        let sa = Ch.source b ~name:"srca" ~threads ~width:1 in
        let sb = Ch.source b ~name:"srcb" ~threads ~width:1 in
        let al = Aligned.create ~name:"al" ~policy b sa sb in
        Ch.sink b ~name:"snk" al.Aligned.out)
  in
  (* Aligned builds one single-thread reduced store per (side, thread)
     named al_<tag><i>; default combine is concat [a; b]. *)
  { s with
    srcs = [ gated "srca"; gated "srcb" ];
    snks = [ "snk" ];
    flows =
      [ { from_ = "srca"; into = [ sref ~slice:(1, 1) "snk" ];
          tokens =
            (fun probe t ->
              let state = probe (Printf.sprintf "al_a%d_state0" t) in
              fun () -> decode_occ (state ()));
          lo = 0; hi = 2; grp = None };
        { from_ = "srcb"; into = [ sref ~slice:(0, 0) "snk" ];
          tokens =
            (fun probe t ->
              let state = probe (Printf.sprintf "al_b%d_state0" t) in
              fun () -> decode_occ (state ()));
          lo = 0; hi = 2; grp = None } ];
    one_hot = [ "snk" ];
    full_groups =
      List.concat_map
        (fun tag ->
          List.init threads (fun i -> (Printf.sprintf "al_%s%d" tag i, 1)))
        [ "a"; "b" ] }

(* ------------------------------------------------------------------ *)
(* Suites                                                             *)
(* ------------------------------------------------------------------ *)

let suite ?(quick = false) () =
  let ss = if quick then [ 1; 2 ] else [ 1; 2; 3; 4 ] in
  let mebs =
    List.concat_map
      (fun kind ->
        List.concat_map
          (fun policy ->
            List.map (fun threads -> meb ~kind ~policy ~threads) ss)
          [ Policy.Ready_aware; Policy.Valid_only ])
      [ Meb.Full; Meb.Reduced ]
  in
  let chains =
    if quick then [ meb_chain ~kind:Meb.Reduced ~policy:Policy.Valid_only ~threads:2 ]
    else
      [ meb_chain ~kind:Meb.Reduced ~policy:Policy.Valid_only ~threads:2;
        meb_chain ~kind:Meb.Reduced ~policy:Policy.Ready_aware ~threads:2;
        meb_chain ~kind:Meb.Full ~policy:Policy.Ready_aware ~threads:2 ]
  in
  let extra = if quick then [] else [ barrier ~threads:3; fork ~threads:3;
                                      branch ~threads:3; varlat ~threads:3;
                                      varlat_per_thread ~threads:3;
                                      join ~threads:3;
                                      aligned ~policy:Policy.Valid_only ~threads:2 ]
  in
  mebs @ chains
  @ [ barrier ~threads:2;
      fork ~threads:2;
      fork_retracting ~threads:2;
      join ~threads:2;
      join_unaligned ~threads:2;
      merge ~fairness:M_merge.Priority_a ~threads:2;
      merge ~fairness:M_merge.Fair ~threads:2;
      merge_unordered ~threads:2;
      branch ~threads:2;
      router ~threads:2;
      varlat ~threads:2;
      varlat_per_thread ~threads:2;
      aligned ~policy:Policy.Ready_aware ~threads:2 ]
  @ extra

let naive_comparable ?(quick = false) () =
  let mebs =
    List.concat_map
      (fun kind ->
        List.concat_map
          (fun policy ->
            List.map
              (fun threads -> meb ~kind ~policy ~threads)
              (if quick then [ 2 ] else [ 1; 2 ]))
          [ Policy.Ready_aware; Policy.Valid_only ])
      (if quick then [ Meb.Reduced ] else [ Meb.Full; Meb.Reduced ])
  in
  mebs
  @ (if quick then [ varlat ~threads:2 ]
     else
       [ barrier ~threads:2; fork ~threads:2; varlat ~threads:2;
         varlat_per_thread ~threads:2; branch ~threads:2;
         aligned ~policy:Policy.Ready_aware ~threads:2 ])
