(* The repository's benchmark: four workloads, each checked against a
   reference, with end-to-end metrics from untraced runs and per-layer
   metrics from a separate traced run.  See NOTES.md for what every
   metric measures and which layer it belongs to.

   perfbench --workload W --seed N --seconds S --trace 0|1 [--size tiny]

   The last line of standard output is the result object; earlier
   lines record the run envelope and the simulated results. *)

open Pb_util

let workloads = [ "serve_md5"; "serve_cpu"; "fleet_flash"; "mc_quick" ]

let end_to_end =
  [ ("setup_s", "s");
    ("sim_cycles_per_s", "cycles/s");
    ("jobs_per_s", "jobs/s");
    ("verify_s", "s");
    ("peak_rss_mb", "MB");
    ("latency_p50_cycles", "cycles");
    ("latency_p99_cycles", "cycles");
    ("ok_ratio", "ratio") ]

let per_layer =
  [ ("hw.create_md5_s", "s");
    ("hw.create_cpu_s", "s");
    ("hw.jit_build_cold_s", "s");
    ("hw.freerun_md5_cycles_per_s", "cycles/s");
    ("hw.freerun_cpu_cycles_per_s", "cycles/s");
    ("hw.step_md5_cycles_per_s", "cycles/s");
    ("hw.step_cpu_cycles_per_s", "cycles/s");
    ("hw.step_md5_words_per_cycle", "words");
    ("hw.step_cpu_words_per_cycle", "words");
    ("hw.settle_ns", "ns");
    ("hw.poke_peek_ns", "ns");
    ("hw.snapshot_restore_ns", "ns");
    ("md5_backend.step_ns", "ns");
    ("md5_backend.self_ns", "ns");
    ("md5_backend.start_ns", "ns");
    ("md5_backend.words_per_cycle", "words");
    ("cpu_backend.step_ns", "ns");
    ("cpu_backend.self_ns", "ns");
    ("cpu_backend.start_ns", "ns");
    ("cpu_backend.words_per_cycle", "words");
    ("serve.host_self_ns", "ns");
    ("serve.host_words_per_cycle", "words");
    ("serve.occupancy", "ratio");
    ("serve.queue_depth_p99", "count");
    ("serve.saturation_rate", "jobs/cycle");
    ("serve.sustained_rate", "jobs/cycle");
    ("monitor.overhead_ns_per_cycle", "ns");
    ("monitor.words_per_cycle", "words");
    ("monitor.violations", "count");
    ("fleet.trace_gen_s", "s");
    ("fleet.outside_replica_ns_per_cycle", "ns");
    ("fleet.words_per_cycle", "words");
    ("fleet.cache_hit_ratio", "ratio");
    ("fleet.coalesced_ratio", "ratio");
    ("fleet.steals", "count");
    ("fleet.dispatched", "count");
    ("fleet.host_occupancy_spread", "ratio");
    ("fleet.kq_max_relaxation", "count");
    ("fleet.kq_bound", "count");
    ("fleet.kq_violations", "count");
    ("fleet.pool2_speedup", "x");
    ("mc.states", "count");
    ("mc.edges", "count");
    ("mc.edges_per_s", "edges/s");
    ("mc.router_s", "s");
    ("mc.small_specs_s", "s") ]
  @ List.concat_map
      (fun l -> [ ("mc.states." ^ l, "count"); ("mc.edges." ^ l, "count") ])
      Pb_mc.labels
  @ List.concat_map
      (fun (l, what) ->
        [ (Printf.sprintf "ladder.%s_%s_cycles_per_s" l what, "cycles/s");
          (Printf.sprintf "ladder.%s_%s_words_per_cycle" l what, "words") ])
      [ ("l0", "freerun"); ("l1", "step"); ("l2", "replica"); ("l3", "host");
        ("l4", "monitor"); ("l5", "frontend") ]
  @ [ ("trace.overhead_cycles_per_s", "cycles/s") ]

(* ---- the result being built ---- *)

let values : (string, float) Hashtbl.t = Hashtbl.create 128
let set name v = Hashtbl.replace values name v
let failures : string list ref = ref []
let fail fmt = Printf.ksprintf (fun s -> failures := s :: !failures) fmt
let attempted = ref 0
let failed = ref 0
let trace_layers : (string * Pb_trace.acc) list ref = ref []
let sim_info : (string * string) list ref = ref []
let info k v = sim_info := (k, v) :: !sim_info
let n_passes = ref 1

(* Fingerprints of every request's outcome at full size, for the
   default seed (1) and the held-out seed (2): simulated results must
   stay byte-identical. *)
let golden =
  [ ("serve_md5", 1, "10592e403e65189e818cf84f5dba542c");
    ("serve_md5", 2, "80523d2de9ed58d71cea045c18b9b1cf");
    ("serve_cpu", 1, "0e9a865f33896d2f7a6dc89de4a3fb6c");
    ("serve_cpu", 2, "1e7eea58a189825d78df54b16d4c263f");
    ("fleet_flash", 1, "5b72b6ac77669cd5eada3e5d9ac13982");
    ("fleet_flash", 2, "7400cbda2c7b39946a7cb6c519ceb528") ]

let check_golden ~workload ~seed ~tiny fp =
  if not tiny then
    List.iter
      (fun (w, s, g) ->
        if w = workload && s = seed && g <> fp then
          fail "%s seed %d: fingerprint %s, expected %s" w s fp g)
      golden

(* ---- options ---- *)

type opts = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  tiny : bool;
  corrupt : int option;  (** self-test: corrupt the k-th result *)
}

let usage () =
  prerr_endline
    ("usage: perfbench --workload " ^ String.concat "|" workloads
   ^ " --seed N --seconds S --trace 0|1 [--size full|tiny] [--corrupt K]");
  exit 2

let parse argv =
  let o =
    ref
      { workload = ""; seed = 1; seconds = 10.; trace = false; tiny = false;
        corrupt = None }
  in
  let int_of s = match int_of_string_opt s with Some n -> n | None -> usage () in
  let rec go = function
    | "--workload" :: w :: r ->
        o := { !o with workload = w };
        go r
    | "--seed" :: n :: r ->
        o := { !o with seed = int_of n };
        go r
    | "--seconds" :: n :: r ->
        o := { !o with seconds = float_of_int (int_of n) };
        go r
    | "--trace" :: ("0" | "1" as t) :: r ->
        o := { !o with trace = t = "1" };
        go r
    | "--size" :: ("full" | "tiny" as s) :: r ->
        o := { !o with tiny = s = "tiny" };
        go r
    | "--corrupt" :: k :: r ->
        o := { !o with corrupt = Some (int_of k) };
        go r
    | [] -> ()
    | _ -> usage ()
  in
  go (List.tl (Array.to_list argv));
  if not (List.mem !o.workload workloads) then usage ();
  !o

(* Peak resident set after a fixed amount of work: the OCaml 5 heap
   does not give memory back, so the high-water mark keeps creeping up
   with every pass, and the number of passes that fit in a run varies. *)
let peak_rss = ref nan

(* Passes of set-up + timed work, repeated while another fits in the
   time budget (at least [min_passes]). *)
let repeat ~seconds ~min_passes run =
  let t0 = now () in
  let rec go n acc =
    let acc = run () :: acc in
    let n = n + 1 in
    if n = min_passes then peak_rss := peak_rss_mb ();
    let elapsed = now () -. t0 in
    if n < min_passes || elapsed +. (elapsed /. float_of_int n) <= seconds then
      go n acc
    else List.rev acc
  in
  go 0 []

(* ---- serving workloads ---- *)

let md5_cycles ~tiny = if tiny then 3_000 else 300_000
let cpu_cycles ~tiny = if tiny then 4_000 else 400_000

let check_serve_pass (p : Pb_serve.pass) =
  attempted := !attempted + p.offered;
  failed := !failed + p.wrong + p.lost;
  if p.wrong > 0 then fail "%d results differ from the reference" p.wrong;
  if p.lost > 0 then fail "%d requests unresolved at the cycle cap" p.lost;
  if p.violations > 0 then fail "%d monitor violations" p.violations

let same_fingerprints name fps =
  match fps with
  | [] -> ""
  | fp :: rest ->
      if List.exists (( <> ) fp) rest then
        fail "%s: passes of one seed gave different results" name;
      fp

let latency_metrics ~n_key lats ~offered ~completed =
  let p50 = Pb_serve.percentile lats 0.50 and p99 = Pb_serve.percentile lats 0.99 in
  set "latency_p50_cycles" (float_of_int p50);
  set "latency_p99_cycles" (float_of_int p99);
  set "ok_ratio" (float_of_int completed /. float_of_int (max 1 offered));
  info n_key (string_of_int (Array.length lats));
  info "latency_p50_cycles" (string_of_int p50);
  info "latency_p99_cycles" (string_of_int p99);
  info "offered" (string_of_int offered);
  info "completed" (string_of_int completed)

let serve_untraced o (w : ('j, 'r) Pb_serve.workload) ~prime =
  ignore (Pb_serve.run_pass ~cycles:prime w);
  Pb_jit.start_timing ();
  let passes =
    repeat ~seconds:o.seconds ~min_passes:3 (fun () ->
        Pb_serve.run_pass ~timed:true ?corrupt:o.corrupt w)
  in
  Pb_jit.finish_timing ();
  List.iter check_serve_pass passes;
  let p = List.hd passes in
  let fp = same_fingerprints w.label (List.map (fun (p : Pb_serve.pass) -> p.fingerprint) passes) in
  check_golden ~workload:o.workload ~seed:o.seed ~tiny:o.tiny fp;
  info "fingerprint" fp;
  n_passes := List.length passes;
  let med f = median (List.map (fun (p : Pb_serve.pass) -> at_nominal (f p) ~speed:p.speed) passes) in
  let run_s = med (fun p -> p.run_s) in
  set "setup_s" (med (fun p -> p.setup_s));
  set "sim_cycles_per_s" (float_of_int p.cycles /. run_s);
  set "jobs_per_s" (float_of_int p.completed /. run_s);
  set "verify_s" run_s;
  latency_metrics ~n_key:"latency_samples" p.latencies ~offered:p.offered
    ~completed:p.completed;
  info "sim_cycles" (string_of_int p.cycles)

let ns_per_cycle secs cycles = secs *. 1e9 /. float_of_int (max 1 cycles)
let per_cycle x cycles = x /. float_of_int (max 1 cycles)
let rate_of (p : Pb_serve.pass) = float_of_int p.cycles /. p.run_s

(* Traced run of a serving workload: the hw probes, one traced pass
   (replica closures and Host.step timed), one untraced pass (the
   tracing overhead), the same trace with the other monitor setting,
   and the saturation / sustained-rate sweep. *)
let serve_traced o (w : ('j, 'r) Pb_serve.workload) ~backend ~(hw : Pb_hw.probes) =
  let hw_step_ns, hw_step_words =
    if w.label = "md5" then (1e9 /. hw.step_md5, hw.step_md5_words)
    else (1e9 /. hw.step_cpu, hw.step_cpu_words)
  in
  Pb_jit.start_timing ();
  let tp = Pb_trace.span "pass traced" (fun () -> Pb_serve.run_pass ~traced:true w) in
  Pb_trace.on := false;
  let up = Pb_serve.run_pass w in
  let other = Pb_serve.run_pass ~monitor:(not w.monitor) w in
  Pb_trace.on := true;
  Pb_jit.finish_timing ();
  List.iter check_serve_pass [ tp; up; other ];
  if tp.fingerprint <> up.fingerprint then
    fail "traced and untraced passes gave different results";
  check_golden ~workload:o.workload ~seed:o.seed ~tiny:o.tiny up.fingerprint;
  info "fingerprint" up.fingerprint;
  latency_metrics ~n_key:"latency_samples" up.latencies ~offered:up.offered
    ~completed:up.completed;
  info "sim_cycles" (string_of_int up.cycles);
  let a = Option.get tp.accs in
  trace_layers :=
    [ ("serve.Host.step", a.host); (backend ^ ".step", a.step);
      (backend ^ ".start", a.start); (backend ^ ".completions", a.completions) ];
  let closures = [ a.step; a.start; a.completions ] in
  let csecs = List.fold_left (fun s (x : Pb_trace.acc) -> s +. x.secs) 0. closures in
  let cwords = List.fold_left (fun s (x : Pb_trace.acc) -> s +. x.words) 0. closures in
  let step_ns = ns_per_cycle a.step.secs tp.cycles in
  set (backend ^ ".step_ns") step_ns;
  set (backend ^ ".self_ns") (step_ns -. hw_step_ns);
  set (backend ^ ".start_ns") (a.start.secs *. 1e9 /. max 1. a.start.calls);
  set (backend ^ ".words_per_cycle") (per_cycle cwords tp.cycles -. hw_step_words);
  set "serve.host_self_ns" (ns_per_cycle (a.host.secs -. csecs) tp.cycles);
  set "serve.host_words_per_cycle" (per_cycle (a.host.words -. cwords) tp.cycles);
  set "serve.occupancy" up.occupancy;
  set "serve.queue_depth_p99" (float_of_int up.queue_depth_p99);
  let on, off = if w.monitor then (up, other) else (other, up) in
  set "monitor.overhead_ns_per_cycle"
    (ns_per_cycle on.run_s on.cycles -. ns_per_cycle off.run_s off.cycles);
  set "monitor.words_per_cycle" (per_cycle on.words on.cycles -. per_cycle off.words off.cycles);
  set "monitor.violations" (float_of_int on.violations);
  set "trace.overhead_cycles_per_s" (rate_of tp -. rate_of up);
  (* Design metrics: simulated time only. *)
  Pb_trace.span "sweep" (fun () ->
      let sat, sp = Pb_serve.saturation w ~jobs:(if o.tiny then 64 else 2000) in
      let sustained, sweep =
        Pb_serve.sustained_rate w ~sat ~cycles:(if o.tiny then 3_000 else 40_000)
      in
      List.iter check_serve_pass (sp :: sweep);
      set "serve.saturation_rate" sat;
      set "serve.sustained_rate" sustained);
  (tp, up, on, csecs, cwords)

(* The ladder on the serve_md5 trace: L0 free-run, L1 stepped, L2 the
   replica closures, L3 Host (untraced pass), L4 with monitors, L5
   behind the front-end (one host, dedup on). *)
let ladder (w : (string, string) Pb_serve.workload) ~(hw : Pb_hw.probes)
    ~(tp : Pb_serve.pass) ~(up : Pb_serve.pass) ~(mon : Pb_serve.pass) ~csecs
    ~cwords =
  let put l what rate words =
    set (Printf.sprintf "ladder.%s_%s_cycles_per_s" l what) rate;
    set (Printf.sprintf "ladder.%s_%s_words_per_cycle" l what) words
  in
  put "l0" "freerun" hw.Pb_hw.freerun_md5 0.;
  put "l1" "step" hw.step_md5 hw.step_md5_words;
  put "l2" "replica" (float_of_int tp.cycles /. csecs) (per_cycle cwords tp.cycles);
  put "l3" "host" (rate_of up) (per_cycle up.words up.cycles);
  put "l4" "monitor" (rate_of mon) (per_cycle mon.words mon.cycles);
  Pb_trace.on := false;
  let fe =
    Pb_fleet.run_pass ~n_hosts:1
      ~gen:(fun () ->
        Array.map
          (fun (arrival, payload) -> { Fleet.Trace.arrival; payload; cls = 0 })
          (w.gen ~rate:w.rate ~cycles:w.cycles))
      ()
  in
  Pb_trace.on := true;
  attempted := !attempted + fe.offered;
  failed := !failed + fe.wrong + fe.lost;
  if fe.wrong + fe.lost > 0 then fail "front-end ladder pass: wrong or lost results";
  let cycles = fe.stats.Fleet.Frontend.s_cycles in
  put "l5" "frontend" (float_of_int cycles /. fe.run_s) (per_cycle fe.words cycles)

(* ---- fleet ---- *)

let fleet_flashes ~tiny = if tiny then 1 else 6

let check_fleet_pass (p : Pb_fleet.pass) =
  attempted := !attempted + p.offered;
  failed := !failed + p.wrong + p.lost;
  if p.wrong > 0 then fail "%d fleet results differ from the reference" p.wrong;
  if p.lost > 0 then fail "%d fleet requests failed or unresolved" p.lost;
  let s = p.stats in
  if Fleet.Frontend.violations s > 0 then
    fail "%d fleet violations" (Fleet.Frontend.violations s);
  if s.Fleet.Frontend.s_kq_max_observed > s.Fleet.Frontend.s_kq_bound then
    fail "k-queue relaxation %d exceeds bound %d" s.s_kq_max_observed s.s_kq_bound

let fleet_sim (p : Pb_fleet.pass) =
  let s = p.stats in
  info "fingerprint" p.fingerprint;
  info "fleet_cycles" (string_of_int s.Fleet.Frontend.s_cycles);
  info "shed" (string_of_int s.s_shed);
  latency_metrics ~n_key:"latency_samples" p.latencies ~offered:p.offered
    ~completed:p.completed

let fleet_untraced o =
  let gen = Pb_fleet.gen ~seed:o.seed ~flashes:(fleet_flashes ~tiny:o.tiny) in
  ignore (Pb_fleet.run_pass ~gen:(Pb_fleet.gen ~seed:o.seed ~flashes:1) ());
  Pb_jit.start_timing ();
  let passes =
    repeat ~seconds:o.seconds ~min_passes:3 (fun () ->
        Pb_fleet.run_pass ~timed:true ?corrupt:o.corrupt ~gen ())
  in
  Pb_jit.finish_timing ();
  List.iter check_fleet_pass passes;
  let fp = same_fingerprints "fleet" (List.map (fun (p : Pb_fleet.pass) -> p.fingerprint) passes) in
  check_golden ~workload:o.workload ~seed:o.seed ~tiny:o.tiny fp;
  n_passes := List.length passes;
  let p = List.hd passes in
  fleet_sim p;
  let med f = median (List.map (fun (p : Pb_fleet.pass) -> at_nominal (f p) ~speed:p.speed) passes) in
  let run_s = med (fun p -> p.run_s) in
  set "setup_s" (med (fun p -> p.setup_s));
  set "sim_cycles_per_s" (float_of_int (p.stats.Fleet.Frontend.s_cycles * p.n_hosts) /. run_s);
  set "jobs_per_s" (float_of_int p.completed /. run_s);
  set "verify_s" run_s

let fleet_traced o =
  let gen = Pb_fleet.gen ~seed:o.seed ~flashes:(fleet_flashes ~tiny:o.tiny) in
  Pb_jit.start_timing ();
  let tp = Pb_trace.span "pass traced" (fun () -> Pb_fleet.run_pass ~traced:true ~gen ()) in
  Pb_trace.on := false;
  let up = Pb_fleet.run_pass ~gen () in
  let pool = Parallel.Pool.create 2 in
  let pp =
    Fun.protect
      ~finally:(fun () -> Parallel.Pool.shutdown pool)
      (fun () -> Pb_fleet.run_pass ~pool ~gen ())
  in
  Pb_trace.on := true;
  Pb_jit.finish_timing ();
  List.iter check_fleet_pass [ tp; up; pp ];
  if tp.fingerprint <> up.fingerprint then
    fail "traced and untraced fleet passes gave different results";
  if pp.fingerprint <> up.fingerprint then
    fail "fleet results differ with a 2-domain pool";
  check_golden ~workload:o.workload ~seed:o.seed ~tiny:o.tiny up.fingerprint;
  fleet_sim up;
  let s = up.stats in
  let fc = s.Fleet.Frontend.s_cycles in
  let a = Option.get tp.accs in
  trace_layers :=
    [ ("md5_backend.step", a.step); ("md5_backend.start", a.start);
      ("md5_backend.completions", a.completions) ];
  let csecs = a.step.secs +. a.start.secs +. a.completions.secs in
  let cwords = a.step.words +. a.start.words +. a.completions.words in
  let req = float_of_int (max 1 s.s_requests) in
  set "fleet.trace_gen_s" up.trace_gen_s;
  set "fleet.outside_replica_ns_per_cycle" (ns_per_cycle (tp.run_s -. csecs) fc);
  set "fleet.words_per_cycle" (per_cycle (tp.words -. cwords) fc);
  set "fleet.cache_hit_ratio" (float_of_int s.s_cache_hits /. req);
  set "fleet.coalesced_ratio" (float_of_int s.s_coalesced /. req);
  set "fleet.steals" (float_of_int s.s_steals);
  set "fleet.dispatched" (float_of_int s.s_dispatched);
  let occ = Array.map Fleet.Frontend.occupancy s.s_per_host in
  set "fleet.host_occupancy_spread"
    (Array.fold_left max 0. occ -. Array.fold_left min 1. occ);
  set "fleet.kq_max_relaxation" (float_of_int s.s_kq_max_observed);
  set "fleet.kq_bound" (float_of_int s.s_kq_bound);
  set "fleet.kq_violations" (float_of_int s.s_kq_violations);
  set "fleet.pool2_speedup" (up.run_s /. pp.run_s);
  set "serve.occupancy" (Array.fold_left ( +. ) 0. occ /. float_of_int (Array.length occ));
  let rate (p : Pb_fleet.pass) = float_of_int (p.stats.s_cycles * p.n_hosts) /. p.run_s in
  set "trace.overhead_cycles_per_s" (rate tp -. rate up)

(* ---- model checking ---- *)

let check_mc_pass (p : Pb_mc.pass) =
  attempted := !attempted + List.length p.results;
  failed := !failed + p.wrong;
  if p.wrong > 0 then fail "%d mc verdicts differ from the committed quick results" p.wrong;
  if p.missing > 0 then fail "%d expected mc specs missing from the suite" p.missing

let mc_edges (p : Pb_mc.pass) =
  List.fold_left (fun n ((o : Mc.outcome), _) -> n + o.stats.edges) 0 p.results

(* Unscaled host seconds in [Mc.run], for the per-layer metrics. *)
let mc_raw_s (p : Pb_mc.pass) = List.fold_left (fun s (_, dt) -> s +. dt) 0. p.results

let mc_e2e (p : Pb_mc.pass) =
  let n = List.length p.results in
  let depths =
    Array.of_list (List.map (fun ((o : Mc.outcome), _) -> o.stats.max_depth) p.results)
  in
  Array.sort compare depths;
  let verify_s = at_nominal p.verify_s ~speed:p.speed in
  set "setup_s" (at_nominal p.setup_s ~speed:p.speed);
  set "verify_s" verify_s;
  set "sim_cycles_per_s" (float_of_int (mc_edges p) /. verify_s);
  set "jobs_per_s" (float_of_int n /. verify_s);
  latency_metrics ~n_key:"specs" depths ~offered:n
    ~completed:(List.length (List.filter (fun ((o : Mc.outcome), _) -> o.ok) p.results));
  info "edges" (string_of_int (mc_edges p))

let mc_untraced o =
  Pb_mc.prime ~tiny:o.tiny;
  Pb_jit.start_timing ();
  let p = Pb_mc.run_pass ~tiny:o.tiny ~timed:true () in
  Pb_jit.finish_timing ();
  check_mc_pass p;
  mc_e2e p

let mc_traced o =
  Pb_jit.start_timing ();
  let tp = Pb_trace.span "pass traced" (fun () -> Pb_mc.run_pass ~tiny:o.tiny ()) in
  Pb_trace.on := false;
  let up = Pb_mc.run_pass ~tiny:o.tiny () in
  Pb_trace.on := true;
  Pb_jit.finish_timing ();
  check_mc_pass tp;
  check_mc_pass up;
  mc_e2e up;
  let states = ref 0 and edges = ref 0 and router = ref 0. and small = ref 0. in
  List.iter
    (fun ((o : Mc.outcome), secs) ->
      states := !states + o.stats.states;
      edges := !edges + o.stats.edges;
      set ("mc.states." ^ o.spec_label) (float_of_int o.stats.states);
      set ("mc.edges." ^ o.spec_label) (float_of_int o.stats.edges);
      if o.spec_label = "router-S2" then router := secs
      else if not (List.mem o.spec_label Pb_mc.big) then small := !small +. secs)
    tp.results;
  set "mc.states" (float_of_int !states);
  set "mc.edges" (float_of_int !edges);
  set "mc.edges_per_s" (float_of_int !edges /. mc_raw_s tp);
  set "mc.router_s" !router;
  set "mc.small_specs_s" !small;
  set "trace.overhead_cycles_per_s"
    ((float_of_int (mc_edges tp) /. mc_raw_s tp) -. (float_of_int (mc_edges up) /. mc_raw_s up))

(* ---- priming ---- *)

let md5_w o = Pb_serve.md5 ~seed:o.seed ~cycles:(md5_cycles ~tiny:o.tiny)
let cpu_w o = Pb_serve.cpu ~seed:o.seed ~cycles:(cpu_cycles ~tiny:o.tiny)

(* ---- envelope ---- *)

let git_rev () =
  let read f =
    let ic = open_in f in
    Fun.protect ~finally:(fun () -> close_in_noerr ic) (fun () -> String.trim (input_line ic))
  in
  match read ".git/HEAD" with
  | head when String.length head > 5 && String.sub head 0 5 = "ref: " -> (
      let r = String.sub head 5 (String.length head - 5) in
      try read (Filename.concat ".git" r) with Sys_error _ | End_of_file -> "unavailable")
  | head -> head
  | exception (Sys_error _ | End_of_file) -> "unavailable"

let print_obj tag kvs =
  Printf.printf "%s: {%s}\n" tag
    (String.concat ", "
       (List.map (fun (k, v) -> Printf.sprintf "%s: %s" (json_string k) v) kvs))

let jit_mode () =
  match Hw.Sim_jit.last_build () with
  | Some { Hw.Sim_jit.bmode = Native; _ } -> "native"
  | Some { bmode = Fallback r; _ } -> "fallback: " ^ r
  | None -> "none"

(* ---- main ---- *)

let () =
  let o = parse Sys.argv in
  let t_start = now () in
  Hw.Sim.default_backend := Hw.Sim.Jit;
  let declared = if o.trace then per_layer else end_to_end in
  if o.trace then begin
    (* Per-layer metrics of layers this workload does not run stay 0. *)
    List.iter (fun (n, _) -> set n 0.) per_layer;
    Pb_trace.reset ();
    Pb_trace.on := true;
    let cold = Pb_trace.span "jit build cold" Pb_hw.jit_build_cold_s in
    Pb_trace.span "prime" (fun () ->
        Pb_hw.prime ();
        match o.workload with
        | "serve_md5" ->
            ignore (Pb_serve.run_pass ~cycles:2_000 (md5_w o));
            ignore (Pb_serve.run_pass ~monitor:true ~cycles:2_000 (md5_w o))
        | "serve_cpu" ->
            ignore (Pb_serve.run_pass ~cycles:2_000 (cpu_w o));
            ignore (Pb_serve.run_pass ~monitor:false ~cycles:2_000 (cpu_w o))
        | "fleet_flash" -> ignore (Pb_fleet.run_pass ~gen:(Pb_fleet.gen ~seed:o.seed ~flashes:1) ())
        | _ -> Pb_mc.prime ~tiny:o.tiny);
    Pb_jit.start_timing ();
    let hw = Pb_trace.span "hw probes" Pb_hw.probe in
    Pb_jit.finish_timing ();
    set "hw.jit_build_cold_s" cold;
    List.iter
      (fun (n, v) -> set n v)
      [ ("hw.create_md5_s", hw.create_md5_s);
        ("hw.create_cpu_s", hw.create_cpu_s);
        ("hw.freerun_md5_cycles_per_s", hw.freerun_md5);
        ("hw.freerun_cpu_cycles_per_s", hw.freerun_cpu);
        ("hw.step_md5_cycles_per_s", hw.step_md5);
        ("hw.step_cpu_cycles_per_s", hw.step_cpu);
        ("hw.step_md5_words_per_cycle", hw.step_md5_words);
        ("hw.step_cpu_words_per_cycle", hw.step_cpu_words);
        ("hw.settle_ns", hw.settle_ns);
        ("hw.poke_peek_ns", hw.poke_peek_ns);
        ("hw.snapshot_restore_ns", hw.snapshot_restore_ns) ];
    match o.workload with
    | "serve_md5" ->
        let w = md5_w o in
        let tp, up, on, csecs, cwords =
          serve_traced o w ~backend:"md5_backend" ~hw
        in
        ladder w ~hw ~tp ~up ~mon:on ~csecs ~cwords
    | "serve_cpu" -> ignore (serve_traced o (cpu_w o) ~backend:"cpu_backend" ~hw)
    | "fleet_flash" -> fleet_traced o
    | _ -> mc_traced o
  end
  else begin
    match o.workload with
    | "serve_md5" -> serve_untraced o (md5_w o) ~prime:2_000
    | "serve_cpu" -> serve_untraced o (cpu_w o) ~prime:2_000
    | "fleet_flash" -> fleet_untraced o
    | _ -> mc_untraced o
  end;
  if not o.trace then
    set "peak_rss_mb" (if Float.is_nan !peak_rss then peak_rss_mb () else !peak_rss);
  let wall = now () -. t_start in
  print_obj "envelope"
    [ ("workload", json_string o.workload);
      ("seed", string_of_int o.seed);
      ("held_out_seed", "2");
      ("trace", string_of_bool o.trace);
      ("size", json_string (if o.tiny then "tiny" else "full"));
      ("nproc", string_of_int (Domain.recommended_domain_count ()));
      ("ocaml", json_string Sys.ocaml_version);
      ("backend", json_string "jit");
      ("jit_mode", json_string (jit_mode ()));
      ("jit_disk_hits", string_of_int (fst (Hw.Sim_jit.cache_counters ())));
      ("jit_disk_misses", string_of_int (snd (Hw.Sim_jit.cache_counters ())));
      ("domains", "1");
      ("git_rev", json_string (git_rev ()));
      ("passes", string_of_int !n_passes);
      ( "ref_median_s",
        match !all_samples with [] -> "null" | l -> json_float (median l) );
      ("ref_nominal_s", json_float ref_nominal);
      ("wall_s", json_float wall);
      ("cycle_model", json_string "unvalidated (no silicon reference)") ];
  print_obj "sim"
    (List.rev_map (fun (k, v) -> (k, json_string v)) !sim_info);
  if o.trace then begin
    mkdir_p out_dir;
    let path =
      Filename.concat out_dir
        (Printf.sprintf "trace-%s-seed%d.json" o.workload o.seed)
    in
    Pb_trace.write path ~layers:!trace_layers;
    Printf.printf "trace: %s\n" (json_string path)
  end;
  if not (Pb_jit.valid ()) then begin
    List.iter (fun p -> prerr_endline ("perfbench: invalid run: " ^ p)) !Pb_jit.problems;
    exit 3
  end;
  let metrics =
    List.map
      (fun (name, unit) ->
        match Hashtbl.find_opt values name with
        | Some v when Float.is_finite v ->
            Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (json_string name)
              (json_float v) (json_string unit)
        | _ ->
            prerr_endline ("perfbench: metric not measured: " ^ name);
            exit 4)
      declared
  in
  let correct = !failures = [] in
  List.iter (fun f -> prerr_endline ("perfbench: check failed: " ^ f)) (List.rev !failures);
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    correct !attempted !failed (String.concat ", " metrics);
  exit (if correct then 0 else 1)
