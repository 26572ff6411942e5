(* NoC topology sweep (the `noc` subcommand): every declarative
   topology at equal core count, served end to end.

   Each point builds a fabric of MT-elastic routers ([Noc]), wraps one
   MD5 core per terminal behind it ([Serve.Noc_backend] over
   [Serve.Md5_backend]) and drives a saturation run — all jobs
   submitted at cycle 0 — through the backend-polymorphic serving
   engine, with the protocol monitors attached on both layers (every
   link of the fabric and every core), so each throughput number is
   also a protocol check.  A single monitored core at the same
   per-core slot count is the baseline; the speedup column is
   jobs-per-kilocycle relative to it.

   Per topology the Table-I-style area rows of every router (the
   router netlist with its input-side link buffering, optimized and
   mapped by the fpga technology model) are printed and written to
   BENCH_noc.json alongside the service numbers.

   Exit is non-zero — with a one-line structured FAIL diagnostic on
   stderr — when any monitor fires or when no topology reaches 2x the
   single-core throughput at 4 cores. *)

let cores = 4
let slots = 4 (* threads per MD5 core; the baseline core is identical *)

let topologies =
  [ Noc.Star { leaves = cores };
    Noc.Tree { arity = 2; depth = 2 };
    Noc.Butterfly { k = 2; n = 2 };
    Noc.Fully_connected cores;
    Noc.Mesh { x = 2; y = 2 } ]

let md5_message i =
  Printf.sprintf "request %d %s" i (String.make (7 * i mod 80) 'x')

(* Saturation service point: [jobs] requests all arriving at cycle 0,
   admission queue sized to hold them, one replica.  Throughput is
   completed jobs per kilocycle including the drain tail. *)
let saturate ~backend ~jobs =
  let t =
    Serve.Engine.create_b
      ~classes:[ { Serve.Engine.cname = "default"; capacity = jobs } ]
      ~backend ()
  in
  for i = 0 to jobs - 1 do
    ignore (Serve.Engine.submit t (md5_message i))
  done;
  let r = Serve.Engine.run ~domains:1 t in
  let completed = Serve.Engine.completed r in
  let cycles = Serve.Engine.total_cycles r in
  let jpk =
    if cycles = 0 then 0.
    else 1000. *. float_of_int completed /. float_of_int cycles
  in
  (completed, cycles, jpk, Serve.Engine.violations r)

type topo_result = {
  t_name : string;
  t_terminals : int;
  t_routers : int;
  t_completed : int;
  t_cycles : int;
  t_jpk : float;
  t_speedup : float;
  t_violations : int;
  t_area : (int * int * Fpga.Report.row) list;
      (* (router, ports, mapped row) *)
}

(* Area rows: one standalone netlist per router of the plan, at the
   payload width the serving fabric actually uses ([kind bit | tag]
   over [cores * slots] outer slots — see Serve.Noc_backend). *)
let fabric_payload_width =
  1 + max 1 (Hw.Signal.clog2 (cores * slots))

let router_rows name plan =
  List.init plan.Noc.n_routers (fun r ->
      let ports = Noc.ports plan r in
      let _, c =
        Noc.router_circuit ~router:r ~payload_width:fabric_payload_width plan
      in
      let c, _ = Hw.Transform.optimize c in
      let row =
        Fpga.Report.of_circuit
          ~label:(Printf.sprintf "%s r%d (%dp)" name r ports)
          c
      in
      (r, ports, row))

let topo_point ~jobs ~baseline_jpk topology =
  let name = Noc.topology_to_string topology in
  let plan = Noc.plan topology in
  let backend =
    Serve.Noc_backend.backend ~monitor:true ~topology
      (Serve.Md5_backend.backend ~monitor:true ~slots ())
  in
  let completed, cycles, jpk, violations = saturate ~backend ~jobs in
  { t_name = name;
    t_terminals = plan.Noc.n_terminals;
    t_routers = plan.Noc.n_routers;
    t_completed = completed;
    t_cycles = cycles;
    t_jpk = jpk;
    t_speedup = (if baseline_jpk > 0. then jpk /. baseline_jpk else 0.);
    t_violations = violations;
    t_area = router_rows name plan }

let print_point p =
  Printf.printf
    "%-14s %d cores / %d routers: %3d jobs in %6d cyc = %6.2f jobs/kcyc, \
     %.2fx single core%s\n%!"
    p.t_name p.t_terminals p.t_routers p.t_completed p.t_cycles p.t_jpk
    p.t_speedup
    (if p.t_violations > 0 then
       Printf.sprintf "  [%d VIOLATIONS]" p.t_violations
     else "")

let point_json p =
  Melastic.Json.(
    Obj
      [ ("topology", String p.t_name); ("terminals", Int p.t_terminals);
        ("routers", Int p.t_routers); ("completed", Int p.t_completed);
        ("cycles", Int p.t_cycles); ("jobs_per_kilocycle", Float p.t_jpk);
        ("speedup", Float p.t_speedup); ("violations", Int p.t_violations);
        ( "router_area",
          List
            (List.map
               (fun (r, ports, (row : Fpga.Report.row)) ->
                 Obj
                   [ ("router", Int r); ("ports", Int ports); ("les", Int row.Fpga.Report.les);
                     ("ffs", Int row.Fpga.Report.ffs);
                     ("fmax_mhz", Float row.Fpga.Report.fmax_mhz) ])
               p.t_area) ) ])

let run ?(quick = false) ?domains () =
  Printf.printf
    "=== noc: elastic fabric topology sweep at %d cores%s ===\n%!" cores
    (if quick then " (quick)" else "");
  let jobs = if quick then 48 else 192 in
  let base_completed, base_cycles, base_jpk, base_violations =
    saturate ~backend:(Serve.Md5_backend.backend ~monitor:true ~slots ()) ~jobs
  in
  Printf.printf
    "%-14s 1 core  / 0 routers: %3d jobs in %6d cyc = %6.2f jobs/kcyc \
     (baseline)%s\n%!"
    "single" base_completed base_cycles base_jpk
    (if base_violations > 0 then
       Printf.sprintf "  [%d VIOLATIONS]" base_violations
     else "");
  (* Topology points are independent (each builds its own fabric,
     cores and monitors), so fan them across domains; print in
     topology order afterwards. *)
  let points =
    Parallel.map_list ?domains
      (fun topology -> topo_point ~jobs ~baseline_jpk:base_jpk topology)
      topologies
  in
  List.iter print_point points;
  List.iter
    (fun p ->
      Fpga.Report.pp_table Format.std_formatter
        (List.map (fun (_, _, row) -> row) p.t_area))
    points;
  let best =
    List.fold_left
      (fun (bn, bs) p -> if p.t_speedup > bs then (p.t_name, p.t_speedup) else (bn, bs))
      ("none", 0.) points
  in
  let violations =
    List.fold_left (fun a p -> a + p.t_violations) base_violations points
  in
  Printf.printf "best speedup: %.2fx (%s); violations: %d\n%!" (snd best)
    (fst best) violations;
  Bench_json.write ~experiment:"noc" ~quick ~backend:true "BENCH_noc.json"
    Melastic.Json.
      [ ("cores", Int cores); ("slots_per_core", Int slots); ("jobs", Int jobs);
        ( "baseline",
          Obj
            [ ("completed", Int base_completed); ("cycles", Int base_cycles);
              ("jobs_per_kilocycle", Float base_jpk); ("violations", Int base_violations) ] );
        ("topologies", List (List.map point_json points));
        ("best_topology", String (fst best)); ("best_speedup", Float (snd best));
        ("violations", Int violations) ];
  if violations > 0 || snd best < 2.0 then begin
    Printf.eprintf
      "FAIL noc: backend=%s cores=%d slots=%d jobs=%d best=%s \
       speedup=%.2f (need >= 2.00 over single core) violations=%d \
       (expected 0)\n\
       %!"
      (Hw.Sim.backend_to_string !Hw.Sim.default_backend)
      cores slots jobs (fst best) (snd best) violations;
    exit 1
  end
