(* Elastic NoC generator: declarative topologies of MT-elastic routers.

   One [topology] value turns into a netlist of routers built from the
   paper's primitives — M-Branch steering by a destination-id field in
   the data word, M-Merge arbitration per output port, MEB pipelining
   on every link — wrapping injection/ejection channels per terminal.

   Model
   - A token is one data word [payload | dest]: the low [dest_width]
     bits address a terminal, the rest is payload.  Thread index =
     source terminal, so each source's token stream is a protocol
     thread and per-link conservation is per-source FIFO order.
   - Every terminal attaches to its router through a terminal link;
     router-router links connect the fabric.  Each directed link is an
     MEB chain ([link_slots] stages, Valid_only policy — acyclic in
     any topology).
   - A router is input-buffered: each input port's tokens (arriving
     through the link MEBs) fan out over a chain of M-Branches on the
     routing decision [port = route(router, dest)], and each output
     port collects its arms through a tree of M-Merges.  The merge
     fairness is selectable per fabric; the default is [Fair] — fabric
     merge inputs are not per-thread exclusive, and the documented
     Priority_a offer-order hazard (docs/PROTOCOL.md §8) means
     priority arbitration could invert one source's stream across two
     converging paths, besides starving a port under load.
   - Routing is table-driven and host-computed: dimension-order (XY)
     on the mesh, BFS shortest-path with deterministic (sorted)
     tie-breaking elsewhere.  On the mesh, X-links only ever feed
     Y-links and ejections; on star/tree/butterfly/fully-connected the
     routes are up*/down* through an acyclic hierarchy (or single
     hop), so the channel-dependency graph is acyclic and the fabric
     is deadlock-free (DESIGN.md §9).

   Monitors attach per link through the [Names] scheme: one-hot on
   every link endpoint, per-thread FIFO token conservation across
   every MEB chain, gated stability on the merge outputs (a Valid_only
   arbiter may legally rotate a grant onto a thread steered to another
   port, emptying this one).  [router_circuit] exposes one router as a
   standalone netlist for Table-I-style area rows. *)

module S = Hw.Signal
module Ch = Melastic.Mt_channel
module Names = Melastic.Names

(* ---- topologies ---- *)

type topology =
  | Star of { leaves : int }
  | Tree of { arity : int; depth : int }
  | Butterfly of { k : int; n : int }
  | Fully_connected of int
  | Mesh of { x : int; y : int }

let topology_to_string = function
  | Star { leaves } -> Printf.sprintf "star%d" leaves
  | Tree { arity; depth } -> Printf.sprintf "tree%d-%d" arity depth
  | Butterfly { k; n } -> Printf.sprintf "butterfly%d-%d" k n
  | Fully_connected n -> Printf.sprintf "full%d" n
  | Mesh { x; y } -> Printf.sprintf "mesh%dx%d" x y

let rec pow base e = if e <= 0 then 1 else base * pow base (e - 1)

let validate = function
  | Star { leaves } -> if leaves < 1 then invalid_arg "Noc: star needs >= 1 leaf"
  | Tree { arity; depth } ->
    if arity < 2 then invalid_arg "Noc: tree arity must be >= 2";
    if depth < 1 then invalid_arg "Noc: tree depth must be >= 1"
  | Butterfly { k; n } ->
    if k < 2 then invalid_arg "Noc: butterfly radix must be >= 2";
    if n < 1 then invalid_arg "Noc: butterfly must have >= 1 stage"
  | Fully_connected n ->
    if n < 1 then invalid_arg "Noc: fully-connected needs >= 1 node"
  | Mesh { x; y } ->
    if x < 1 || y < 1 then invalid_arg "Noc: mesh sides must be >= 1"

let terminals topo =
  validate topo;
  match topo with
  | Star { leaves } -> leaves
  | Tree { arity; depth } -> pow arity depth
  | Butterfly { k; n } -> pow k n
  | Fully_connected n -> n
  | Mesh { x; y } -> x * y

(* ---- the plan: graph + routing tables ---- *)

(* Port numbering at router [r]: ports [0 .. |locals r| - 1] are the
   terminal links (in [locals] order), then the neighbor links (in
   [neighbors] order, sorted by router id). *)
type plan = {
  topology : topology;
  n_terminals : int;
  n_routers : int;
  locals : int array array;  (* router -> attached terminals, ascending *)
  neighbors : int array array;  (* router -> neighbor routers, ascending *)
  term_router : int array;  (* terminal -> its router *)
  next_hop : int array array;  (* router -> dest terminal -> output port *)
}

let ports p r = Array.length p.locals.(r) + Array.length p.neighbors.(r)

let max_ports p =
  let m = ref 0 in
  for r = 0 to p.n_routers - 1 do
    if ports p r > !m then m := ports p r
  done;
  !m

(* Undirected graph of each shape: router count, terminal attachment,
   edge list. *)
let graph topo =
  let t = terminals topo in
  match topo with
  | Star _ -> (1, Array.init t (fun _ -> 0), [])
  | Fully_connected n ->
    let edges = ref [] in
    for a = 0 to n - 1 do
      for c = a + 1 to n - 1 do
        edges := (a, c) :: !edges
      done
    done;
    (n, Array.init n (fun i -> i), !edges)
  | Mesh { x; y } ->
    let edges = ref [] in
    for yi = 0 to y - 1 do
      for xi = 0 to x - 1 do
        let r = (yi * x) + xi in
        if xi + 1 < x then edges := (r, r + 1) :: !edges;
        if yi + 1 < y then edges := (r, r + x) :: !edges
      done
    done;
    (x * y, Array.init (x * y) (fun i -> i), !edges)
  | Tree { arity; depth } ->
    (* Routers are the internal nodes, breadth-first: level [l] starts
       at [(arity^l - 1) / (arity - 1)]; the leaves (level [depth])
       are the terminals. *)
    let level_base l = (pow arity l - 1) / (arity - 1) in
    let n_routers = level_base depth in
    let edges = ref [] in
    for l = 0 to depth - 2 do
      for j = 0 to pow arity l - 1 do
        let r = level_base l + j in
        for c = 0 to arity - 1 do
          edges := (r, level_base (l + 1) + (arity * j) + c) :: !edges
        done
      done
    done;
    let leaf_parent = level_base (depth - 1) in
    (n_routers, Array.init t (fun i -> leaf_parent + (i / arity)), !edges)
  | Butterfly { k; n } ->
    (* k-ary n-fly: [n] stages of [k^(n-1)] routers; stage-0 routers
       host [k] terminals each; router (s, j) links to the stage-(s+1)
       routers whose id differs from [j] only in base-k digit
       [n - 2 - s].  Terminals reach each other up through the stages
       and back down, so routes are up*/down*. *)
    let per_stage = pow k (n - 1) in
    let rid s j = (s * per_stage) + j in
    let edges = ref [] in
    for s = 0 to n - 2 do
      let d = n - 2 - s in
      let stride = pow k d in
      for j = 0 to per_stage - 1 do
        let digit = j / stride mod k in
        for v = 0 to k - 1 do
          let j' = j + ((v - digit) * stride) in
          edges := (rid s j, rid (s + 1) j') :: !edges
        done
      done
    done;
    (n * per_stage, Array.init t (fun i -> i / k), !edges)

let port_of p r ~target =
  let nl = Array.length p.locals.(r) in
  let rec go i =
    if i >= Array.length p.neighbors.(r) then
      invalid_arg
        (Printf.sprintf "Noc: router %d has no link to router %d" r target)
    else if p.neighbors.(r).(i) = target then nl + i
    else go (i + 1)
  in
  go 0

let local_port p r ~terminal =
  let rec go i =
    if i >= Array.length p.locals.(r) then
      invalid_arg
        (Printf.sprintf "Noc: terminal %d is not local to router %d" terminal r)
    else if p.locals.(r).(i) = terminal then i
    else go (i + 1)
  in
  go 0

(* BFS from the destination's router; each router's next hop is its
   BFS parent (one step closer, deterministic because neighbor lists
   are sorted). *)
let bfs_next_hop p dst =
  let rd = p.term_router.(dst) in
  let parent = Array.make p.n_routers (-1) in
  let seen = Array.make p.n_routers false in
  seen.(rd) <- true;
  let q = Queue.create () in
  Queue.add rd q;
  while not (Queue.is_empty q) do
    let u = Queue.pop q in
    Array.iter
      (fun v ->
        if not seen.(v) then begin
          seen.(v) <- true;
          parent.(v) <- u;
          Queue.add v q
        end)
      p.neighbors.(u)
  done;
  fun r ->
    if r = rd then local_port p r ~terminal:dst
    else if parent.(r) < 0 then
      invalid_arg (Printf.sprintf "Noc: router %d cannot reach terminal %d" r dst)
    else port_of p r ~target:parent.(r)

(* Dimension-order (XY) routing: correct X first, then Y — X-links
   never depend on X-links through a turn back, so the
   channel-dependency graph is acyclic (deadlock-free). *)
let xy_next_hop p ~x dst =
  let rd = p.term_router.(dst) in
  fun r ->
    if r = rd then local_port p r ~terminal:dst
    else begin
      let xr = r mod x and yr = r / x in
      let xd = rd mod x and yd = rd / x in
      let target =
        if xr <> xd then if xd > xr then r + 1 else r - 1
        else if yd > yr then r + x
        else r - x
      in
      port_of p r ~target
    end

let plan topo =
  validate topo;
  let n_terminals = terminals topo in
  let n_routers, term_router, edges = graph topo in
  let locals = Array.make n_routers [] in
  Array.iteri (fun t r -> locals.(r) <- t :: locals.(r)) term_router;
  let locals =
    Array.map (fun l -> Array.of_list (List.sort compare l)) locals
  in
  let adj = Array.make n_routers [] in
  List.iter
    (fun (a, c) ->
      if a <> c then begin
        adj.(a) <- c :: adj.(a);
        adj.(c) <- a :: adj.(c)
      end)
    edges;
  let neighbors =
    Array.map (fun l -> Array.of_list (List.sort_uniq compare l)) adj
  in
  let p =
    { topology = topo;
      n_terminals;
      n_routers;
      locals;
      neighbors;
      term_router;
      next_hop = [||] }
  in
  let next_hop =
    Array.init n_routers (fun _ -> Array.make n_terminals 0)
  in
  for dst = 0 to n_terminals - 1 do
    let hop =
      match topo with
      | Mesh { x; y = _ } -> xy_next_hop p ~x dst
      | _ -> bfs_next_hop p dst
    in
    for r = 0 to n_routers - 1 do
      next_hop.(r).(dst) <- hop r
    done
  done;
  { p with next_hop }

(* The router sequence a (src, dst) token traverses, per the tables —
   for tests and documentation. *)
let path p ~src ~dst =
  if src < 0 || src >= p.n_terminals || dst < 0 || dst >= p.n_terminals then
    invalid_arg "Noc.path: terminal out of range";
  let rec go r acc hops =
    if hops > p.n_routers then invalid_arg "Noc.path: routing loop"
    else
      let port = p.next_hop.(r).(dst) in
      let nl = Array.length p.locals.(r) in
      if port < nl then List.rev (r :: acc)
      else go p.neighbors.(r).(port - nl) (r :: acc) (hops + 1)
  in
  go p.term_router.(src) [] 0

(* ---- hardware elaboration ---- *)

let dest_width p = max 1 (S.clog2 p.n_terminals)

(* The Names scheme of the fabric's export points. *)
let inj t = Printf.sprintf "inj%d" t
let ej t = Printf.sprintf "ej%d" t
let term_rx t = Printf.sprintf "t%d_rx" t  (* after the up-link MEBs *)
let term_tx t = Printf.sprintf "t%d_tx" t  (* before the down-link MEBs *)
let link_tx a c = Printf.sprintf "l%d_%d_tx" a c
let link_rx a c = Printf.sprintf "l%d_%d_rx" a c

(* Every channel name the monitored driver watches — what a violation
   report's [channel] field refers back to (Backend_intf.probes). *)
let probe_names p =
  let terms =
    List.concat
      (List.init p.n_terminals (fun t -> [ inj t; term_rx t; term_tx t; ej t ]))
  in
  let links = ref [] in
  Array.iteri
    (fun r nbs ->
      Array.iter (fun nb -> links := link_rx r nb :: link_tx r nb :: !links) nbs)
    p.neighbors;
  terms @ List.rev !links

(* The buffer-chain name of every directed link — the keys a per-link
   [link_overrides] map (and Synth.Retime's NoC sizing) is written
   against: [t<t>_up]/[t<t>_down] for the terminal links, [l<a>_<b>]
   for each router-router direction. *)
let term_up t = Printf.sprintf "t%d_up" t
let term_down t = Printf.sprintf "t%d_down" t
let link_chain a c = Printf.sprintf "l%d_%d" a c

let link_names p =
  let terms =
    List.concat (List.init p.n_terminals (fun t -> [ term_up t; term_down t ]))
  in
  let links = ref [] in
  Array.iteri
    (fun r nbs -> Array.iter (fun nb -> links := link_chain r nb :: !links) nbs)
    p.neighbors;
  terms @ List.rev !links

(* Per-link slot counts: the uniform [link_slots] default with an
   override map keyed by chain name (asymmetric meshes, profile-guided
   retiming).  Unknown keys are rejected eagerly — a typo would
   otherwise silently leave the link at the default. *)
let slots_table p ~link_slots ~link_overrides =
  if link_slots < 1 then invalid_arg "Noc: link_slots must be >= 1";
  let known = link_names p in
  List.iter
    (fun (name, s) ->
      if not (List.mem name known) then
        invalid_arg (Printf.sprintf "Noc: unknown link %S in link_overrides" name);
      if s < 1 then
        invalid_arg (Printf.sprintf "Noc: link %S needs >= 1 slot" name))
    link_overrides;
  fun name ->
    match List.assoc_opt name link_overrides with
    | Some s -> s
    | None -> link_slots

(* An MEB chain of [link_slots] stages — the pipelined link. *)
let chain ~kind ~link_slots b name ch =
  Melastic.Component.pipe b
    (List.init link_slots (fun k ->
         Melastic.Component.buffer
           ~name:(Printf.sprintf "%s_s%d" name k)
           ~policy:Melastic.Policy.Valid_only ~kind ()))
    ch

(* One router's crossbar: every input port fans out over the routing
   decision, every output port collects its arms. *)
let crossbar ~fairness b p r inputs =
  let nports = ports p r in
  let dw = dest_width p in
  let sel bb data =
    let dest = S.select bb data ~hi:(dw - 1) ~lo:0 in
    let pw = max 1 (S.clog2 (max 2 nports)) in
    let cases =
      List.init (1 lsl dw) (fun d ->
          let port = if d < p.n_terminals then p.next_hop.(r).(d) else 0 in
          S.of_int bb ~width:pw port)
    in
    S.mux bb dest cases
  in
  let arms =
    Array.map
      (fun ch ->
        Melastic.Component.fanout ~n:nports ~sel b ch)
      inputs
  in
  Array.init nports (fun q ->
      Melastic.Component.collect ~fairness b
        (Array.init nports (fun i -> arms.(i).(q))))

let build ?(kind = Melastic.Meb.Reduced) ?(fairness = Melastic.M_merge.Fair)
    ?(link_slots = 1) ?(link_overrides = []) ?(probes = false) ~payload_width p b
    =
  if payload_width < 1 then invalid_arg "Noc.build: payload_width must be >= 1";
  let threads = p.n_terminals in
  let width = dest_width p + payload_width in
  let slots = slots_table p ~link_slots ~link_overrides in
  let chain name ch = chain ~kind ~link_slots:(slots name) b name ch in
  let maybe_probe name ch = if probes then Ch.probe b ~name ch else ch in
  (* Arrival wires first, so routers elaborate in any order. *)
  let rx_wire = Hashtbl.create 16 in
  Array.iteri
    (fun r nbs ->
      Array.iter
        (fun nb -> Hashtbl.replace rx_wire (r, nb) (Ch.wires b ~threads ~width))
        nbs)
    p.neighbors;
  for r = 0 to p.n_routers - 1 do
    let nl = Array.length p.locals.(r) in
    let inputs =
      Array.init (ports p r) (fun q ->
          if q < nl then begin
            (* Terminal link, upstream direction. *)
            let t = p.locals.(r).(q) in
            let src = Ch.source b ~name:(inj t) ~threads ~width in
            maybe_probe (term_rx t) (chain (term_up t) src)
          end
          else
            (* Arrival side of the link from neighbor [a]. *)
            Hashtbl.find rx_wire (p.neighbors.(r).(q - nl), r))
    in
    let outs = crossbar ~fairness b p r inputs in
    Array.iteri
      (fun q out ->
        if q < nl then begin
          let t = p.locals.(r).(q) in
          let out = maybe_probe (term_tx t) out in
          Ch.sink b ~name:(ej t) (chain (term_down t) out)
        end
        else begin
          let nb = p.neighbors.(r).(q - nl) in
          let out = maybe_probe (link_tx r nb) out in
          let out = chain (link_chain r nb) out in
          let out = maybe_probe (link_rx r nb) out in
          Ch.connect ~src:out ~dst:(Hashtbl.find rx_wire (r, nb))
        end)
      outs
  done

let circuit ?kind ?fairness ?link_slots ?link_overrides ?probes ?name
    ~payload_width p =
  let b = S.Builder.create () in
  build ?kind ?fairness ?link_slots ?link_overrides ?probes ~payload_width p b;
  let name =
    match name with
    | Some n -> n
    | None -> "noc_" ^ topology_to_string p.topology
  in
  Hw.Circuit.create ~name b

(* One router as a standalone netlist (default: the widest router of
   the plan), with its input-side link buffering — the unit the
   Table-I-style area rows report. *)
let router_circuit ?(kind = Melastic.Meb.Reduced)
    ?(fairness = Melastic.M_merge.Fair) ?(link_slots = 1) ?router
    ~payload_width p =
  let r =
    match router with
    | Some r ->
      if r < 0 || r >= p.n_routers then
        invalid_arg "Noc.router_circuit: router out of range";
      r
    | None ->
      let best = ref 0 in
      for i = 1 to p.n_routers - 1 do
        if ports p i > ports p !best then best := i
      done;
      !best
  in
  let b = S.Builder.create () in
  let threads = p.n_terminals in
  let width = dest_width p + payload_width in
  let inputs =
    Array.init (ports p r) (fun q ->
        chain ~kind ~link_slots b
          (Printf.sprintf "rin%d" q)
          (Ch.source b ~name:(Printf.sprintf "pin%d" q) ~threads ~width))
  in
  Array.iteri
    (fun q out -> Ch.sink b ~name:(Printf.sprintf "pout%d" q) out)
    (crossbar ~fairness b p r inputs);
  ( r,
    Hw.Circuit.create
      ~name:(Printf.sprintf "router_%s_r%d" (topology_to_string p.topology) r)
      b )

(* ---- host-side fabric driver ---- *)

module Driver = struct
  type t = {
    plan : plan;
    payload_width : int;
    dest_w : int;
    width : int;
    sim : Hw.Sim.t;
    mon : Monitor.t option;
    queues : (int * int) Queue.t array;  (* per source: (dst, payload) *)
    mutable hw_in_flight : int;
    (* Terminal handshake ports, resolved once, indexed by terminal. *)
    inj_valid : Hw.Sim.port array;
    inj_ready : Hw.Sim.port array;
    inj_data : Hw.Sim.port array;
    ej_fire : Hw.Sim.port array;
    ej_data : Hw.Sim.port array;
  }

  let create ?backend ?(kind = Melastic.Meb.Reduced)
      ?(fairness = Melastic.M_merge.Fair) ?(link_slots = 1) ?(link_overrides = [])
      ?(monitor = false) ?(payload_width = 16) topo =
    if payload_width < 1 || payload_width > 30 then
      invalid_arg "Noc.Driver.create: payload_width must be in 1..30";
    let p = plan topo in
    let threads = p.n_terminals in
    let c =
      circuit ~kind ~fairness ~link_slots ~link_overrides ~probes:monitor
        ~payload_width p
    in
    let sim = Hw.Sim.create ?backend c in
    let mon =
      if not monitor then None
      else begin
        let m = Monitor.create sim in
        let slots = slots_table p ~link_slots ~link_overrides in
        let cap name = slots name * Melastic.Meb.capacity ~kind ~threads in
        (* Per-link invariants: P1 one-hot at both endpoints, gated
           stability at the merge side (the arbiter may rotate onto a
           thread steered elsewhere), per-thread FIFO conservation
           with the chain's slot capacity across the MEBs — capacity
           is per link now that slot counts can differ. *)
        let link ~chain_name src snk =
          Monitor.check_one_hot m ~name:src ~threads;
          Monitor.check_one_hot m ~name:snk ~threads;
          Monitor.check_stability ~gated:true m ~name:src ~threads;
          Monitor.check_conservation m ~src ~snk ~threads
            ~max_in_flight:(cap chain_name) ~expect_drained:true
        in
        for t = 0 to threads - 1 do
          link ~chain_name:(term_up t) (inj t) (term_rx t);
          link ~chain_name:(term_down t) (term_tx t) (ej t)
        done;
        Array.iteri
          (fun r nbs ->
            Array.iter
              (fun nb ->
                link ~chain_name:(link_chain r nb) (link_tx r nb) (link_rx r nb))
              nbs)
          p.neighbors;
        Some m
      end
    in
    for t = 0 to threads - 1 do
      Hw.Sim.poke sim (Names.ready (ej t)) (Bits.ones threads)
    done;
    let ports port name = Array.init threads (fun t -> port sim (name t)) in
    { plan = p;
      payload_width;
      dest_w = dest_width p;
      width = dest_width p + payload_width;
      sim;
      mon;
      queues = Array.init threads (fun _ -> Queue.create ());
      hw_in_flight = 0;
      inj_valid = ports Hw.Sim.input_port (fun t -> Names.valid (inj t));
      inj_ready = ports Hw.Sim.signal_port (fun t -> Names.ready (inj t));
      inj_data = ports Hw.Sim.input_port (fun t -> Names.data (inj t));
      ej_fire = ports Hw.Sim.signal_port (fun t -> Names.fire (ej t));
      ej_data = ports Hw.Sim.signal_port (fun t -> Names.data (ej t)) }

  let plan t = t.plan
  let terminals t = t.plan.n_terminals
  let payload_width t = t.payload_width
  let sim t = t.sim
  let cycle_no t = Hw.Sim.cycle_no t.sim

  let in_flight t =
    Array.fold_left (fun acc q -> acc + Queue.length q) t.hw_in_flight t.queues

  let idle t = in_flight t = 0

  let inject t ~src ~dst payload =
    if src < 0 || src >= t.plan.n_terminals then
      invalid_arg "Noc.Driver.inject: src out of range";
    if dst < 0 || dst >= t.plan.n_terminals then
      invalid_arg "Noc.Driver.inject: dst out of range";
    if payload < 0 || payload lsr t.payload_width <> 0 then
      invalid_arg "Noc.Driver.inject: payload out of range";
    Queue.add (dst, payload) t.queues.(src)

  (* One fabric cycle: offer at most one queued token per terminal
     (thread = the terminal, so each injection channel stays one-hot
     by construction), harvest every ejection.  Returns the ejections
     as [(terminal, src, payload)], terminal-major. *)
  let step t =
    let threads = t.plan.n_terminals in
    for s = 0 to threads - 1 do
      Hw.Sim.write_int t.inj_valid.(s) 0
    done;
    Hw.Sim.settle t.sim;
    for s = 0 to threads - 1 do
      if not (Queue.is_empty t.queues.(s)) then begin
        if Hw.Sim.read_int t.inj_ready.(s) land (1 lsl s) <> 0 then begin
          let dst, payload = Queue.pop t.queues.(s) in
          Hw.Sim.write_int t.inj_valid.(s) (1 lsl s);
          Hw.Sim.write t.inj_data.(s)
            (Bits.of_int ~width:t.width ((payload lsl t.dest_w) lor dst));
          t.hw_in_flight <- t.hw_in_flight + 1
        end
      end
    done;
    Hw.Sim.settle t.sim;
    let out = ref [] in
    for term = threads - 1 downto 0 do
      let fire = Hw.Sim.read_int t.ej_fire.(term) in
      for s = threads - 1 downto 0 do
        if fire land (1 lsl s) <> 0 then begin
          let data = Hw.Sim.read_int t.ej_data.(term) in
          out := (term, s, data lsr t.dest_w) :: !out;
          t.hw_in_flight <- t.hw_in_flight - 1
        end
      done
    done;
    Hw.Sim.cycle t.sim;
    !out

  (* Run the fabric until every queued and in-flight token has
     ejected; raises past [limit] cycles (a deadlocked fabric). *)
  let drain ?(limit = 100_000) t =
    let out = ref [] in
    let guard = ref 0 in
    while not (idle t) && !guard < limit do
      out := List.rev_append (step t) !out;
      incr guard
    done;
    if not (idle t) then
      invalid_arg
        (Printf.sprintf "Noc.Driver.drain: %d tokens stuck after %d cycles"
           (in_flight t) limit);
    List.rev !out

  let finish t =
    let _ = drain t in
    match t.mon with Some m -> Monitor.finalize m | None -> ()

  let violations t =
    match t.mon with Some m -> Monitor.violation_count m | None -> 0

  (* The per-link channel profile accumulated by the monitor's shared
     sampling pass — [None] on an unmonitored fabric (no probes to
     watch).  This is what replaced the driver's private per-link
     counters: activity, stalls and backpressure per link endpoint
     come from the same [Melastic.Profile] every other layer uses. *)
  let profile t = Option.map Monitor.profile t.mon
end
