(* Fleet benchmark: a simulated datacenter of elastic serving hosts
   behind the dedup/steal front-end, under trace-driven open load.

   Four sections, all written to BENCH_fleet.json:
   - load sweep at 1x / 10x / 100x of the PR-4 single-engine
     saturation rate (0.2 jobs/cycle at 8 slots), duplicate-heavy
     traffic, front-end vs the no-front-end baseline at every point;
   - gates, checked at the 10x point: the cache must hit, stealing
     must move work, front-end p99 must strictly beat the baseline,
     observed k-queue relaxation must stay within its bound, and no
     host may report a protocol violation anywhere in the sweep;
   - determinism: with ample queues the same seed must replay
     byte-identical results, and stealing on vs off must agree
     byte-for-byte (placement changes, results never);
   - host scaling: wall-clock jobs/s at 1..8 hosts with per-cycle
     host stepping fanned over a Parallel.Pool (sequential fallback
     with a "skipped" flag on single-core machines). *)

let wall () = Unix.gettimeofday ()

type point = {
  p_label : string;
  p_scale : float;
  p_requests : int;
  p_completed : int;
  p_cache_hits : int;
  p_coalesced : int;
  p_retired : int;
  p_shed : int;
  p_dispatched : int;
  p_steals : int;
  p_cycles : int;
  p_occupancy : float;
  p_p50 : int;
  p_p95 : int;
  p_p99 : int;
  p_p999 : int;
  p_kq_max : int;
  p_kq_bound : int;
  p_violations : int;
}

let point_of_stats ~label ~scale (s : Fleet.Frontend.stats) =
  let occ =
    let sum =
      Array.fold_left
        (fun a h -> a +. Fleet.Frontend.occupancy h)
        0. s.Fleet.Frontend.s_per_host
    in
    sum /. float_of_int (Array.length s.Fleet.Frontend.s_per_host)
  in
  let pct p = Melastic.Histogram.percentile s.Fleet.Frontend.s_latency p in
  { p_label = label;
    p_scale = scale;
    p_requests = s.Fleet.Frontend.s_requests;
    p_completed = s.Fleet.Frontend.s_completed;
    p_cache_hits = s.Fleet.Frontend.s_cache_hits;
    p_coalesced = s.Fleet.Frontend.s_coalesced;
    p_retired = s.Fleet.Frontend.s_retired;
    p_shed = s.Fleet.Frontend.s_shed;
    p_dispatched = s.Fleet.Frontend.s_dispatched;
    p_steals = s.Fleet.Frontend.s_steals;
    p_cycles = s.Fleet.Frontend.s_cycles;
    p_occupancy = occ;
    p_p50 = pct 0.50;
    p_p95 = pct 0.95;
    p_p99 = pct 0.99;
    p_p999 = pct 0.999;
    p_kq_max = s.Fleet.Frontend.s_kq_max_observed;
    p_kq_bound = s.Fleet.Frontend.s_kq_bound;
    p_violations = Fleet.Frontend.violations s }

let print_point p =
  Printf.printf
    "%-14s %5.0fx: %4d reqs, %4d done (%3d cache, %3d coal, %2d ret), %4d \
     shed, %3d steals, occ %.2f, p50/p99/p99.9 %4d/%5d/%5d cyc, kq %d<=%d%s\n\
     %!"
    p.p_label p.p_scale p.p_requests p.p_completed p.p_cache_hits p.p_coalesced
    p.p_retired p.p_shed p.p_steals p.p_occupancy p.p_p50 p.p_p99 p.p_p999
    p.p_kq_max p.p_kq_bound
    (if p.p_violations > 0 then
       Printf.sprintf "  [%d VIOLATIONS]" p.p_violations
     else "")

let point_json p =
  Melastic.Json.(
    Obj
      [ ("label", String p.p_label); ("scale", Float p.p_scale); ("requests", Int p.p_requests);
        ("completed", Int p.p_completed); ("cache_hits", Int p.p_cache_hits);
        ("coalesced", Int p.p_coalesced); ("retired", Int p.p_retired); ("shed", Int p.p_shed);
        ("dispatched", Int p.p_dispatched); ("steals", Int p.p_steals);
        ("cycles", Int p.p_cycles); ("occupancy", Float p.p_occupancy); ("p50", Int p.p_p50);
        ("p95", Int p.p_p95); ("p99", Int p.p_p99); ("p999", Int p.p_p999);
        ("kq_max_observed", Int p.p_kq_max); ("kq_bound", Int p.p_kq_bound);
        ("violations", Int p.p_violations) ])

(* ---- workload & fleet construction ---- *)

let hosts = 4
let slots = 8
let base_rate = 0.2 (* PR-4 single-engine saturation at 8 slots *)
let seed = 0xf1ee7

(* Few virtual nodes on purpose: the skewed ring shares plus
   heavy-tailed job sizes are what make queues uneven enough for the
   work-stealing path to earn its keep. *)
let fleet_config =
  { Fleet.Frontend.default_config with
    n_hosts = hosts;
    virtual_nodes = 8;
    steal_threshold = 2;
    steal_batch = 2;
    dispatch_per_cycle = 8;
    cache_capacity = 512;
    seed = 11 }

let dup_model =
  { Fleet.Trace.default_model with hot_keys = 24; hot_fraction = 0.6 }

let make_trace ~quick ~scale =
  (* long enough that hot keys recur after their first completion
     (MD5 service latency runs 100-300 cycles): repeats then hit the
     result cache instead of coalescing onto an in-flight primary *)
  let cycles = if quick then 280 else 500 in
  Fleet.Trace.generate ~model:dup_model ~seed
    ~phases:
      (Fleet.Trace.scale scale
         [ Fleet.Trace.Steady { cycles; rate = base_rate } ])
    ()

let make_host i = Serve.Md5_backend.make ~monitor:true ~slots () i

let run_fleet ?pool ~config trace =
  let t = Fleet.Frontend.create ~config ~make_host ~key:Fun.id () in
  Fleet.Frontend.submit_trace t trace;
  let s = Fleet.Frontend.run ?pool t in
  (s, Fleet.Frontend.outcomes t)

let results_fingerprint outcomes =
  (* order- and id-stable digest of every outcome; Done carries its
     result bytes, so any divergence in what was computed shows up *)
  let b = Buffer.create 1024 in
  Array.iteri
    (fun i o ->
      Buffer.add_string b
        (match o with
        | Fleet.Frontend.Done { result; _ } -> Printf.sprintf "%d=%s;" i result
        | Fleet.Frontend.Shed _ -> Printf.sprintf "%d=shed;" i
        | Fleet.Frontend.Timed_out _ -> Printf.sprintf "%d=timeout;" i
        | Fleet.Frontend.Failed _ -> Printf.sprintf "%d=failed;" i
        | Fleet.Frontend.Pending -> Printf.sprintf "%d=pending;" i))
    outcomes;
  Digest.to_hex (Digest.string (Buffer.contents b))

(* ---- top level ---- *)

let run ?(quick = false) ?domains () =
  Printf.printf "=== fleet: simulated datacenter of elastic hosts%s ===\n%!"
    (if quick then " (quick)" else "");
  let cores = Parallel.recommended_domains () in
  let domains = match domains with Some d -> max 1 d | None -> cores in
  (* load sweep: front-end vs baseline at each scale *)
  let scales = [ 1.; 10.; 100. ] in
  let sweep =
    List.map
      (fun scale ->
        let trace = make_trace ~quick ~scale in
        let s_fe, _ = run_fleet ~config:fleet_config trace in
        let fe = point_of_stats ~label:"frontend" ~scale s_fe in
        print_point fe;
        let s_base, _ =
          run_fleet ~config:(Fleet.Frontend.baseline fleet_config) trace
        in
        let base = point_of_stats ~label:"baseline" ~scale s_base in
        print_point base;
        (scale, fe, base))
      scales
  in
  let fe_at s = List.find (fun (sc, _, _) -> sc = s) sweep in
  let _, fe10, base10 = fe_at 10. in
  (* determinism: ample queues so nothing sheds, then the same seed
     must replay byte-identical, stealing on or off *)
  let det_config =
    { fleet_config with
      kq_segments = 2048;
      classes = [ { Serve.Host.cname = "default"; capacity = 4096 } ];
      cache_capacity = 4096 }
  in
  let det_trace = make_trace ~quick ~scale:10. in
  let _, out_a = run_fleet ~config:det_config det_trace in
  let _, out_b = run_fleet ~config:det_config det_trace in
  let _, out_off =
    run_fleet ~config:{ det_config with stealing = false } det_trace
  in
  let fp_a = results_fingerprint out_a in
  let fp_b = results_fingerprint out_b in
  let fp_off = results_fingerprint out_off in
  let replay_ok = fp_a = fp_b in
  let steal_invariant_ok = fp_a = fp_off in
  Printf.printf "determinism: replay %s, stealing on/off %s (%s)\n%!"
    (if replay_ok then "identical" else "DIVERGED")
    (if steal_invariant_ok then "identical" else "DIVERGED")
    fp_a;
  (* host scaling: per-host load held constant, hosts stepped through
     a pool; single core falls back to sequential and flags it *)
  let sequential = domains <= 1 in
  if sequential then
    Printf.printf "host scaling: single core, running sequentially\n%!";
  let scaling =
    let cycles = if quick then 80 else 200 in
    let cold = { dup_model with hot_fraction = 0. } in
    List.map
      (fun n ->
        let trace =
          Fleet.Trace.generate ~model:cold ~seed
            ~phases:
              [ Fleet.Trace.Steady
                  { cycles; rate = 0.15 *. float_of_int n } ]
            ()
        in
        let config =
          { (Fleet.Frontend.baseline fleet_config) with n_hosts = n }
        in
        let pool =
          if sequential then None
          else Some (Parallel.Pool.create (min domains n))
        in
        let t0 = wall () in
        let s, _ = run_fleet ?pool ~config trace in
        let seconds = wall () -. t0 in
        Option.iter Parallel.Pool.shutdown pool;
        let jps = float_of_int s.Fleet.Frontend.s_completed /. seconds in
        (* Queue-depth percentiles across the point's hosts, merged
           from each host's "queue_depth" profile gauge — reported
           whether the sweep ran in parallel or sequentially. *)
        let qd = Melastic.Histogram.create () in
        Array.iter
          (fun h ->
            Melastic.Histogram.merge_into ~into:qd
              h.Fleet.Frontend.h_queue_depth)
          s.Fleet.Frontend.s_per_host;
        let qd_p p = Melastic.Histogram.percentile qd p in
        Printf.printf
          "hosts %d: %4d jobs in %6.2fs = %8.1f jobs/s  queue p50/p95/p99 \
           %d/%d/%d\n\
           %!"
          n s.Fleet.Frontend.s_completed seconds jps (qd_p 0.50) (qd_p 0.95)
          (qd_p 0.99);
        (n, s.Fleet.Frontend.s_completed, seconds, jps, (qd_p 0.50, qd_p 0.95, qd_p 0.99)))
      [ 1; 2; 4; 8 ]
  in
  (* gates *)
  let total_violations =
    List.fold_left (fun a (_, fe, base) -> a + fe.p_violations + base.p_violations) 0 sweep
  in
  let gates =
    [ ("cache_hits_at_10x", fe10.p_cache_hits > 0);
      ("steals_at_10x", fe10.p_steals > 0);
      ("p99_beats_baseline_at_10x", fe10.p_p99 < base10.p_p99);
      ("relaxation_within_bound", fe10.p_kq_max <= fe10.p_kq_bound);
      ("zero_violations", total_violations = 0);
      ("deterministic_replay", replay_ok);
      ("stealing_result_invariant", steal_invariant_ok) ]
  in
  List.iter
    (fun (name, ok) ->
      Printf.printf "gate %-28s %s\n%!" name (if ok then "ok" else "FAILED"))
    gates;
  let scaling_json =
    let points =
      Melastic.Json.(
        List
          (List.map
             (fun (n, jobs, s, jps, (p50, p95, p99)) ->
               Obj
                 [ ("hosts", Int n); ("completed", Int jobs); ("seconds", Float s);
                   ("jobs_per_second", Float jps); ("queue_depth_p50", Int p50);
                   ("queue_depth_p95", Int p95); ("queue_depth_p99", Int p99) ])
             scaling))
    in
    if sequential then
      Melastic.Json.(Obj [ ("skipped", String "single core"); ("points", points) ])
    else points
  in
  Bench_json.write ~experiment:"fleet" ~quick ~backend:true "BENCH_fleet.json"
    Melastic.Json.
      [ ("hosts", Int hosts); ("slots_per_host", Int slots); ("base_rate", Float base_rate);
        ( "sweep",
          List (List.concat_map (fun (_, fe, base) -> [ point_json fe; point_json base ]) sweep) );
        ( "determinism",
          Obj
            [ ("replay_identical", Bool replay_ok);
              ("stealing_on_off_identical", Bool steal_invariant_ok);
              ("fingerprint", String fp_a) ] );
        ("host_scaling", scaling_json); ("domains", Int domains);
        ("gates", Obj (List.map (fun (n, ok) -> (n, Bool ok)) gates));
        ("violations", Int total_violations) ];
  let failed = List.filter (fun (_, ok) -> not ok) gates in
  if failed <> [] then begin
    Printf.eprintf
      "FAIL fleet: hosts=%d slots=%d base_rate=%.2f scales=1x/10x/100x \
       expected all gates to hold, failed: %s\n\
       %!"
      hosts slots base_rate
      (String.concat ", " (List.map fst failed));
    exit 1
  end
