(* Serving benchmark: open-loop Poisson load over the serving engine.

   Three sections, all written to BENCH_serve.json:
   - saturation sweep (MD5, 8 threads, 1 replica): offered load in
     jobs/cycle vs achieved throughput, mean slot occupancy, queue
     depth and p50/p95/p99 latency — the continuous-batching analogue
     of the paper's Fig. 9 throughput curves, with the monitors
     attached so every point is also a protocol check;
   - a CPU-backend service point: a mix of looping programs served
     through the pipeline's restart/kill interface;
   - replica scaling: aggregate jobs/s of the same job set at 1..N
     replicas fanned over domains (skipped on single-core hosts, where
     the comparison would only measure timer noise). *)

let wall () = Unix.gettimeofday ()

type point = {
  p_rate : float;
  p_jobs : int;
  p_completed : int;
  p_shed : int;
  p_cycles : int;
  p_occupancy : float;
  p_queue_depth : float;
  p_p50 : int;
  p_p95 : int;
  p_p99 : int;
  p_achieved : float; (* completed jobs per kilocycle *)
  p_violations : int;
}

let point_of_report ~rate ~jobs r =
  let lat = Serve.Engine.latency r in
  let cycles = Serve.Engine.total_cycles r in
  let completed = Serve.Engine.completed r in
  let qd =
    let sum =
      Array.fold_left
        (fun acc s -> acc +. Serve.Engine.mean_queue_depth s)
        0. r.Serve.Engine.per_replica
    in
    sum /. float_of_int (Array.length r.Serve.Engine.per_replica)
  in
  { p_rate = rate;
    p_jobs = jobs;
    p_completed = completed;
    p_shed = Serve.Engine.shed r;
    p_cycles = cycles;
    p_occupancy = Serve.Engine.mean_occupancy r;
    p_queue_depth = qd;
    p_p50 = Melastic.Histogram.percentile lat 0.50;
    p_p95 = Melastic.Histogram.percentile lat 0.95;
    p_p99 = Melastic.Histogram.percentile lat 0.99;
    p_achieved =
      (if cycles = 0 then 0.
       else 1000. *. float_of_int completed /. float_of_int cycles);
    p_violations = Serve.Engine.violations r }

let print_point label p =
  Printf.printf
    "%-10s rate %.3f: %3d/%3d done, %2d shed, occ %.2f, qdepth %5.1f, \
     p50/p95/p99 %4d/%4d/%4d cyc, %6.2f jobs/kcyc%s\n%!"
    label p.p_rate p.p_completed p.p_jobs p.p_shed p.p_occupancy p.p_queue_depth
    p.p_p50 p.p_p95 p.p_p99 p.p_achieved
    (if p.p_violations > 0 then
       Printf.sprintf "  [%d VIOLATIONS]" p.p_violations
     else "")

let point_json p =
  Melastic.Json.(
    Obj
      [ ("rate", Float p.p_rate); ("jobs", Int p.p_jobs); ("completed", Int p.p_completed);
        ("shed", Int p.p_shed); ("cycles", Int p.p_cycles); ("occupancy", Float p.p_occupancy);
        ("queue_depth", Float p.p_queue_depth); ("p50", Int p.p_p50); ("p95", Int p.p_p95);
        ("p99", Int p.p_p99); ("jobs_per_kilocycle", Float p.p_achieved);
        ("violations", Int p.p_violations) ])

(* ---- MD5 saturation sweep ---- *)

let md5_message i =
  (* Mostly single-block requests with some multi-block tails. *)
  Printf.sprintf "request %d %s" i (String.make (7 * i mod 80) 'x')

let md5_point ~monitor ~slots ~jobs ~rate ~seed =
  let rng = Random.State.make [| seed |] in
  let arrivals = Serve.Engine.Load.poisson ~rng ~rate ~count:jobs in
  let t =
    Serve.Engine.create
      ~classes:[ { Serve.Engine.cname = "default"; capacity = 4 * slots } ]
      ~make_replica:(Serve.Md5_backend.make ~monitor ~slots ())
      ()
  in
  Array.iteri
    (fun i a -> ignore (Serve.Engine.submit ~arrival:a t (md5_message i)))
    arrivals;
  point_of_report ~rate ~jobs (Serve.Engine.run ~domains:1 t)

(* ---- CPU service point ---- *)

let cpu_program i =
  let n = 4 + (i mod 13) in
  { Serve.Cpu_backend.source =
      Printf.sprintf
        "li r1, %d\nloop: add r2, r2, r1\n addi r1, r1, -1\n bne r1, r0, loop\n halt"
        n;
    args = [] }

let cpu_point ~monitor ~slots ~jobs ~rate ~seed =
  let rng = Random.State.make [| seed |] in
  let arrivals = Serve.Engine.Load.poisson ~rng ~rate ~count:jobs in
  let t =
    Serve.Engine.create
      ~make_replica:(Serve.Cpu_backend.make ~monitor ~slots ())
      ()
  in
  Array.iteri
    (fun i a -> ignore (Serve.Engine.submit ~arrival:a t (cpu_program i)))
    arrivals;
  point_of_report ~rate ~jobs (Serve.Engine.run ~domains:1 t)

(* ---- replica scaling ---- *)

let replica_point ~replicas ~domains ~slots ~jobs ~rate ~seed =
  let rng = Random.State.make [| seed |] in
  let arrivals = Serve.Engine.Load.poisson ~rng ~rate ~count:jobs in
  let t =
    Serve.Engine.create ~replicas
      ~make_replica:(Serve.Md5_backend.make ~monitor:false ~slots ())
      ()
  in
  Array.iteri
    (fun i a -> ignore (Serve.Engine.submit ~arrival:a t (md5_message i)))
    arrivals;
  let t0 = wall () in
  let r = Serve.Engine.run ~domains t in
  let seconds = wall () -. t0 in
  let jps = float_of_int (Serve.Engine.completed r) /. seconds in
  Printf.printf
    "replicas %d (domains %d): %d jobs in %.2fs = %8.1f jobs/s\n%!" replicas
    domains (Serve.Engine.completed r) seconds jps;
  (replicas, seconds, jps)

(* ---- top level ---- *)

let run ?(quick = false) ?domains () =
  Printf.printf "=== serve: continuous-batching request server%s ===\n%!"
    (if quick then " (quick)" else "");
  let cores = Parallel.recommended_domains () in
  let domains = match domains with Some d -> max 1 d | None -> cores in
  let slots = 8 in
  let seed = 0x5e12e in
  let jobs = if quick then 48 else 200 in
  let rates =
    if quick then [ 0.02; 0.2 ] else [ 0.01; 0.02; 0.05; 0.1; 0.2; 0.4 ]
  in
  let sweep =
    List.map
      (fun rate ->
        let p = md5_point ~monitor:true ~slots ~jobs ~rate ~seed in
        print_point "md5-8t" p;
        p)
      rates
  in
  let saturated = List.fold_left (fun a p -> max a p.p_occupancy) 0. sweep in
  Printf.printf "peak mean slot occupancy: %.2f %s\n%!" saturated
    (if saturated >= 0.8 then "(saturates, >= 0.80)" else "(BELOW 0.80)");
  let cpu_jobs = if quick then 16 else 64 in
  let cpu = cpu_point ~monitor:true ~slots:4 ~jobs:cpu_jobs ~rate:0.005 ~seed in
  print_point "cpu-4t" cpu;
  (* On a single core the parallel speedup is meaningless, but the
     throughput numbers still are: fall back to sequential execution so
     the JSON always carries data, and keep "skipped" as a flag. *)
  let sequential = domains <= 1 in
  if sequential then
    Printf.printf "replica scaling: single core, running sequentially\n%!";
  let scaling =
    let jobs = if quick then 64 else 256 in
    let counts =
      if sequential then [ 1; 2; 4 ]
      else List.sort_uniq compare [ 1; min 2 domains; min 4 domains; domains ]
    in
    List.map
      (fun replicas ->
        replica_point ~replicas ~domains:(max 1 domains) ~slots ~jobs
          ~rate:0.5 ~seed)
      counts
  in
  let violations =
    List.fold_left (fun a p -> a + p.p_violations) cpu.p_violations sweep
  in
  let scaling_json =
    let points =
      Melastic.Json.(
        List
          (List.map
             (fun (r, s, jps) ->
               Obj [ ("replicas", Int r); ("seconds", Float s); ("jobs_per_second", Float jps) ])
             scaling))
    in
    if sequential then
      Melastic.Json.(Obj [ ("skipped", String "single core"); ("points", points) ])
    else points
  in
  Bench_json.write ~experiment:"serve" ~quick ~backend:true "BENCH_serve.json"
    Melastic.Json.
      [ ("md5_slots", Int slots); ("md5_saturation", List (List.map point_json sweep));
        ("peak_occupancy", Float saturated); ("cpu", point_json cpu);
        ("replica_scaling", scaling_json); ("domains", Int domains);
        ("violations", Int violations) ];
  if violations > 0 then begin
    Printf.eprintf
      "FAIL serve: backend=%s slots=%d jobs=%d rates=%d expected=0 protocol \
       violations got=%d (monitor reports printed above)\n\
       %!"
      (Hw.Sim.backend_to_string !Hw.Sim.default_backend)
      slots jobs (List.length rates) violations;
    exit 1
  end
