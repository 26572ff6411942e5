(* Tests for the serving engine: slot refill under monitor
   supervision, deadline timeout and slot reclamation, queue-full
   shedding, and replica-count invariance. *)

let md5_engine ?classes ?replicas ~monitor ~slots () =
  Serve.Engine.create ?classes ?replicas
    ~make_replica:(Serve.Md5_backend.make ~monitor ~slots ())
    ()

(* More jobs than slots, arrivals spread out, so slots are freed and
   refilled mid-run; the conservation scoreboard (per-thread FIFO
   against the reference digest) proves refill never loses, duplicates
   or reorders a thread's block stream. *)
let test_md5_refill_conserves () =
  let t = md5_engine ~monitor:true ~slots:4 () in
  let jobs =
    Array.init 12 (fun i -> Printf.sprintf "message %d: %s" i (String.make (i * 7) 'x'))
  in
  Array.iteri (fun i m -> ignore (Serve.Engine.submit ~arrival:(i * 5) t m)) jobs;
  let report = Serve.Engine.run ~domains:1 t in
  Alcotest.(check int) "violations" 0 (Serve.Engine.violations report);
  Alcotest.(check int) "completed" 12 (Serve.Engine.completed report);
  Array.iteri
    (fun i m ->
      match Serve.Engine.outcome t i with
      | Serve.Engine.Completed { result; _ } ->
        Alcotest.(check string) "digest" (Md5.Md5_ref.digest m) result
      | _ -> Alcotest.fail "expected completion")
    jobs

(* A runaway (non-halting) program blows its deadline; the engine
   kills it and the very same slot must then serve another job to
   completion. *)
let test_cpu_deadline_frees_slot () =
  let t =
    Serve.Engine.create
      ~make_replica:(Serve.Cpu_backend.make ~monitor:true ~slots:1 ())
      ()
  in
  let runaway = { Serve.Cpu_backend.source = "loop: j loop"; args = [] } in
  let good =
    { Serve.Cpu_backend.source = "li r1, 41\n addi r1, r1, 1\n halt"; args = [] }
  in
  let id_bad = Serve.Engine.submit ~deadline:200 t runaway in
  let id_good = Serve.Engine.submit t good in
  let report = Serve.Engine.run ~domains:1 ~max_cycles:20_000 t in
  (match Serve.Engine.outcome t id_bad with
   | Serve.Engine.Timed_out { tries } -> Alcotest.(check int) "tries" 1 tries
   | _ -> Alcotest.fail "runaway should time out");
  (match Serve.Engine.outcome t id_good with
   | Serve.Engine.Completed { result; slot; _ } ->
     Alcotest.(check int) "slot reused" 0 slot;
     Alcotest.(check int) "r1" 42 result.(1)
   | _ -> Alcotest.fail "good job should complete in the reclaimed slot");
  Alcotest.(check int) "violations" 0 (Serve.Engine.violations report)

(* Retry budget: first attempt times out, re-admission succeeds (the
   deadline is generous the second time only because the queue ahead
   of it has drained). *)
let test_retry_budget () =
  let t =
    Serve.Engine.create
      ~make_replica:(Serve.Md5_backend.make ~monitor:false ~slots:1 ())
      ()
  in
  (* Slot busy with a long multi-block message, so the short-deadline
     job times out queued, then completes on retry. *)
  ignore (Serve.Engine.submit t (String.make 300 'a'));
  let id = Serve.Engine.submit ~deadline:40 ~retries:3 t "hello" in
  ignore (Serve.Engine.run ~domains:1 t);
  (match Serve.Engine.outcome t id with
   | Serve.Engine.Completed { result; _ } ->
     Alcotest.(check string) "digest" (Md5.Md5_ref.digest "hello") result
   | Serve.Engine.Timed_out { tries } ->
     Alcotest.(check int) "all retries burned" 4 tries
   | _ -> Alcotest.fail "expected completion or exhausted retries")

(* A capacity-1 class with simultaneous arrivals: one admitted, the
   overflow shed at admission. *)
let test_full_queue_sheds () =
  let classes = [ { Serve.Engine.cname = "tiny"; capacity = 1 } ] in
  let t = md5_engine ~classes ~monitor:false ~slots:1 () in
  (* "a" is admitted at cycle 0 and refills the slot the same cycle;
     at cycle 1 the slot is busy, so "b" occupies the queue and the
     rest overflow. *)
  let ids =
    List.mapi
      (fun i m ->
        Serve.Engine.submit ~cls:"tiny" ~arrival:(min i 1) t m)
      [ "a"; "b"; "c"; "d" ]
  in
  let report = Serve.Engine.run ~domains:1 t in
  Alcotest.(check int) "shed" 2 (Serve.Engine.shed report);
  Alcotest.(check int) "completed" 2 (Serve.Engine.completed report);
  (match List.map (Serve.Engine.outcome t) ids with
   | [ Completed _; Completed _; Shed _; Shed _ ] -> ()
   | _ -> Alcotest.fail "first two admitted, rest shed")

(* The replica-sharding invariant: N replicas return byte-identical
   per-job outcomes to 1 replica (ids route deterministically and each
   replica sees the same sub-stream it would see alone). *)
let test_replica_invariance () =
  let jobs = Array.init 10 (fun i -> Printf.sprintf "job-%d" i) in
  let outcomes ~replicas =
    let t = md5_engine ~replicas ~monitor:false ~slots:2 () in
    Array.iteri (fun i m -> ignore (Serve.Engine.submit ~arrival:(i * 3) t m)) jobs;
    ignore (Serve.Engine.run ~domains:1 t);
    Array.map
      (fun o ->
        match o with
        | Serve.Engine.Completed { result; _ } -> result
        | _ -> "<unresolved>")
      (Serve.Engine.outcomes t)
  in
  let one = outcomes ~replicas:1 in
  let three = outcomes ~replicas:3 in
  Alcotest.(check (array string)) "same results" one three;
  Array.iteri
    (fun i m -> Alcotest.(check string) "reference" (Md5.Md5_ref.digest m) one.(i))
    jobs

(* Whole-queue deadline scan: an expired entry sitting BEHIND a fresh
   one, in more than one class queue at once, must still be found and
   timed out (engine step 2 scans every entry, not just the head). *)
let test_queued_expiry_mid_queue () =
  let classes =
    [ { Serve.Engine.cname = "a"; capacity = 8 };
      { Serve.Engine.cname = "b"; capacity = 8 } ]
  in
  let t = md5_engine ~classes ~monitor:true ~slots:1 () in
  (* Pin the only slot with a long multi-block job... *)
  ignore (Serve.Engine.submit ~cls:"a" t (String.make 300 'x'));
  (* ...then queue, per class, a patient job followed by a job whose
     deadline expires while it waits behind the patient one. *)
  let keep_a = Serve.Engine.submit ~cls:"a" ~arrival:1 t "keep-a" in
  let dead_a = Serve.Engine.submit ~cls:"a" ~arrival:2 ~deadline:5 t "dead-a" in
  let keep_b = Serve.Engine.submit ~cls:"b" ~arrival:1 t "keep-b" in
  let dead_b = Serve.Engine.submit ~cls:"b" ~arrival:2 ~deadline:5 t "dead-b" in
  let report = Serve.Engine.run ~domains:1 t in
  List.iter
    (fun id ->
      match Serve.Engine.outcome t id with
      | Serve.Engine.Timed_out { tries } -> Alcotest.(check int) "tries" 1 tries
      | _ -> Alcotest.fail "mid-queue entry should expire")
    [ dead_a; dead_b ];
  List.iter
    (fun (id, m) ->
      match Serve.Engine.outcome t id with
      | Serve.Engine.Completed { result; _ } ->
        Alcotest.(check string) "digest" (Md5.Md5_ref.digest m) result
      | _ -> Alcotest.fail "patient job should complete")
    [ (keep_a, "keep-a"); (keep_b, "keep-b") ];
  Alcotest.(check int) "timed out" 2 (Serve.Engine.timed_out report);
  Alcotest.(check int) "violations" 0 (Serve.Engine.violations report)

(* A retry re-admission can race shed-when-full: the running job blows
   its deadline, has retry budget left, but its class queue filled up
   behind it — the retry is shed at admission, not timed out, and the
   job that filled the queue is served. *)
let test_retry_races_shed () =
  let classes = [ { Serve.Engine.cname = "tiny"; capacity = 1 } ] in
  let t = md5_engine ~classes ~monitor:true ~slots:1 () in
  let racer =
    Serve.Engine.submit ~cls:"tiny" ~deadline:20 ~retries:1 t
      (String.make 300 'r')
  in
  let filler = Serve.Engine.submit ~cls:"tiny" ~arrival:1 t "filler" in
  let report = Serve.Engine.run ~domains:1 t in
  (match Serve.Engine.outcome t racer with
   | Serve.Engine.Shed { at } -> Alcotest.(check int) "shed at expiry" 20 at
   | _ -> Alcotest.fail "retry into a full queue should shed");
  (match Serve.Engine.outcome t filler with
   | Serve.Engine.Completed { result; _ } ->
     Alcotest.(check string) "digest" (Md5.Md5_ref.digest "filler") result
   | _ -> Alcotest.fail "queue occupant should complete");
  Alcotest.(check int) "shed" 1 (Serve.Engine.shed report);
  Alcotest.(check int) "timed out" 0 (Serve.Engine.timed_out report);
  Alcotest.(check int) "violations" 0 (Serve.Engine.violations report)

(* deadline=1 boundary: 0 is rejected outright; 1 means "complete
   within a cycle of admission", which no multi-cycle job can — every
   attempt (queued or running) expires on the next cycle, burning the
   whole retry budget, and the engine keeps serving afterwards. *)
let test_deadline_one_boundary () =
  let t = md5_engine ~monitor:true ~slots:1 () in
  Alcotest.check_raises "deadline 0 rejected"
    (Invalid_argument "Engine.submit: deadline must be >= 1") (fun () ->
      ignore (Serve.Engine.submit ~deadline:0 t "no"));
  let hopeless = Serve.Engine.submit ~deadline:1 ~retries:2 t "hopeless" in
  let after = Serve.Engine.submit ~arrival:1 t "after" in
  let report = Serve.Engine.run ~domains:1 t in
  (match Serve.Engine.outcome t hopeless with
   | Serve.Engine.Timed_out { tries } ->
     Alcotest.(check int) "all attempts burned" 3 tries
   | _ -> Alcotest.fail "deadline=1 job should exhaust its budget");
  (match Serve.Engine.outcome t after with
   | Serve.Engine.Completed { result; _ } ->
     Alcotest.(check string) "digest" (Md5.Md5_ref.digest "after") result
   | _ -> Alcotest.fail "engine should keep serving after the churn");
  Alcotest.(check int) "violations" 0 (Serve.Engine.violations report)

let test_poisson_load () =
  let rng = Random.State.make [| 7 |] in
  let arr = Serve.Engine.Load.poisson ~rng ~rate:0.05 ~count:200 in
  Alcotest.(check int) "count" 200 (Array.length arr);
  Array.iteri
    (fun i a ->
      if i > 0 then
        Alcotest.(check bool) "non-decreasing" true (arr.(i - 1) <= a))
    arr;
  (* Mean inter-arrival should be near 1/rate = 20 cycles. *)
  let span = float_of_int arr.(199) /. 199. in
  Alcotest.(check bool) "mean inter-arrival sane" true (span > 10. && span < 40.)

(* The packed-module path (create_b over Backend_intf.t) must be
   observationally identical to the closure path (create over
   make_replica): same job set, same per-job results. *)
let test_create_b_matches_create () =
  let jobs =
    Array.init 10 (fun i -> Printf.sprintf "job %d %s" i (String.make (i * 3) 'y'))
  in
  let run t =
    Array.iteri (fun i m -> ignore (Serve.Engine.submit ~arrival:(i * 3) t m)) jobs;
    ignore (Serve.Engine.run ~domains:1 t);
    Array.init (Array.length jobs) (fun i ->
        match Serve.Engine.outcome t i with
        | Serve.Engine.Completed { result; latency; _ } -> (result, latency)
        | _ -> Alcotest.fail "expected completion")
  in
  let via_closure = run (md5_engine ~monitor:false ~slots:2 ()) in
  let via_module =
    run
      (Serve.Engine.create_b
         ~backend:(Serve.Md5_backend.backend ~monitor:false ~slots:2 ())
         ())
  in
  Array.iteri
    (fun i (r, l) ->
      let r', l' = via_module.(i) in
      Alcotest.(check string) "result" r r';
      Alcotest.(check int) "latency" l l')
    via_closure

(* Packed backends carry their identity and monitor surface: the name
   reflects the composition, and the probe list of a fabric-wrapped
   backend is the fabric's channels plus the core's. *)
let test_packed_backend_surface () =
  let core = Serve.Md5_backend.backend ~slots:2 () in
  Alcotest.(check string) "core name" "md5" (Serve.Backend_intf.name core);
  Alcotest.(check (list string)) "core probes"
    Serve.Md5_backend.monitored_probes
    (Serve.Backend_intf.probes core);
  let topology = Noc.Mesh { x = 2; y = 2 } in
  let noc = Serve.Noc_backend.backend ~topology core in
  Alcotest.(check string) "composed name" "noc-mesh2x2-md5"
    (Serve.Backend_intf.name noc);
  Alcotest.(check (list string)) "composed probes"
    (Noc.probe_names (Noc.plan topology) @ Serve.Md5_backend.monitored_probes)
    (Serve.Backend_intf.probes noc);
  Alcotest.check_raises "malformed topology rejected"
    (Invalid_argument "Noc: mesh sides must be >= 1")
    (fun () ->
      ignore (Serve.Noc_backend.backend ~topology:(Noc.Mesh { x = 0; y = 2 }) core))

let test_latency_histogram () =
  (* The engine's latency metric is a streaming histogram: the merged
     report view must agree with the per-replica counts and yield
     sane quantiles. *)
  let t = md5_engine ~monitor:false ~slots:2 () in
  let jobs = Array.init 8 (fun i -> Printf.sprintf "lat-%d" i) in
  Array.iteri (fun i m -> ignore (Serve.Engine.submit ~arrival:(i * 4) t m)) jobs;
  let report = Serve.Engine.run ~domains:1 t in
  let lat = Serve.Engine.latency report in
  Alcotest.(check int) "one sample per completion" 8
    (Melastic.Histogram.count lat);
  let p50 = Melastic.Histogram.percentile lat 0.5 in
  let p99 = Melastic.Histogram.percentile lat 0.99 in
  Alcotest.(check bool) "p50 positive" true (p50 > 0);
  Alcotest.(check bool) "quantiles ordered" true (p50 <= p99);
  Alcotest.(check bool) "p99 bounded by max" true
    (p99 <= Melastic.Histogram.max_value lat)

(* Regression: the queue-depth gauge samples the per-cycle PEAK
   backlog, so a job that transits the queue within a single cycle
   (admitted and refilled before the sample point) still registers —
   the gauge used to read 0 for an unloaded host, hiding retry
   re-admissions that race the refill the same way. *)
let test_queue_depth_gauge_counts_transients () =
  let t = md5_engine ~monitor:false ~slots:1 () in
  ignore (Serve.Engine.submit t "solo");
  let report = Serve.Engine.run ~domains:1 t in
  let s = report.Serve.Engine.per_replica.(0) in
  Alcotest.(check int) "transit registers in the gauge" 1
    s.Serve.Engine.r_queue_depth_max;
  (* And a retry re-admission is gauged like a fresh arrival: with the
     slot pinned, the retried job re-enters the queue and the gauge
     must see both it and the occupant's own queueing. *)
  let t = md5_engine ~monitor:false ~slots:1 () in
  ignore (Serve.Engine.submit t (String.make 300 'p'));
  ignore (Serve.Engine.submit ~deadline:30 ~retries:2 t "retry-me");
  let report = Serve.Engine.run ~domains:1 t in
  let s = report.Serve.Engine.per_replica.(0) in
  Alcotest.(check bool) "re-admissions counted" true
    (s.Serve.Engine.r_retries >= 1);
  Alcotest.(check bool) "gauge saw the retried job" true
    (s.Serve.Engine.r_queue_depth_max >= 1)

(* The (cycle, slot, digest) stream of one monitored MD5 replica under
   a seeded load of multi-block messages, with a cancel of a job that
   was never injected and one of a job whose block is in the loop. *)
let md5_serve_stream backend =
  let saved = !Hw.Sim.default_backend in
  Hw.Sim.default_backend := backend;
  Fun.protect
    ~finally:(fun () -> Hw.Sim.default_backend := saved)
    (fun () ->
      let slots = 4 in
      let r = Serve.Md5_backend.make ~monitor:true ~slots () 0 in
      let st = Random.State.make [| 0x5e7e |] in
      let jobs =
        Array.init 14 (fun j ->
            let len =
              match j with
              | 0 -> 0
              | 1 -> 55
              | 3 -> 56
              | 4 -> 64
              | _ -> Random.State.int st 200
            in
            String.init len (fun _ -> Char.chr (32 + Random.State.int st 95)))
      in
      let out = Buffer.create 4096 in
      let line fmt = Printf.bprintf out (fmt ^^ "\n") in
      let owner = Array.make slots (-1) in
      let started = Array.make slots 0 in
      let next = ref 0 and cycle = ref 0 in
      while (!next < Array.length jobs || Array.exists (fun o -> o >= 0) owner)
            && !cycle < 20_000 do
        for s = 0 to slots - 1 do
          if owner.(s) < 0 && r.Serve.Backend_intf.slot_free s
             && !next < Array.length jobs
             && Random.State.int st 4 = 0
          then begin
            let j = !next in
            incr next;
            r.start ~slot:s jobs.(j);
            line "%d start s%d j%d len %d" !cycle s j (String.length jobs.(j));
            if j = 2 then begin
              (* never injected: frees at once *)
              r.cancel ~slot:s;
              line "%d cancel s%d j%d free %b" !cycle s j (r.slot_free s)
            end
            else begin
              owner.(s) <- j;
              started.(s) <- !cycle
            end
          end
        done;
        for s = 0 to slots - 1 do
          if owner.(s) = 6 && !cycle - started.(s) = 30 then begin
            (* its block is in the loop: the slot stays busy *)
            r.cancel ~slot:s;
            line "%d cancel s%d j6 free %b" !cycle s (r.slot_free s);
            owner.(s) <- -1
          end
        done;
        r.step ();
        incr cycle;
        List.iter
          (fun (s, d) ->
            line "%d done s%d j%d %s %s" (r.cycle_no ()) s owner.(s) d
              (if owner.(s) >= 0 && d = Md5.Md5_ref.digest jobs.(owner.(s))
               then "ok" else "BAD");
            owner.(s) <- -1)
          (r.completions ())
      done;
      r.finish ();
      line "end %d violations %d" (r.cycle_no ()) (r.violations ());
      Buffer.contents out)

(* Captured before the replica moved to the word-port driver; every
   backend must reproduce it byte for byte. *)
let md5_serve_stream_pinned =
  [ "1 start s0 j0 len 0";
    "1 start s3 j1 len 55";
    "2 start s2 j2 len 29";
    "2 cancel s2 j2 free true";
    "5 start s2 j3 len 56";
    "28 start s1 j4 len 64";
    "36 done s0 j0 d41d8cd98f00b204e9800998ecf8427e ok";
    "39 done s3 j1 42e87d6f4e69a0d1aa980c49da55857b ok";
    "41 start s0 j5 len 107";
    "45 start s3 j6 len 135";
    "75 cancel s3 j6 free false";
    "108 done s1 j4 ef903b06fd6b545cbd7f9bf4a356b4d8 ok";
    "109 done s2 j3 d3a10c5a85bab52f8edbe5cd7bc17ba9 ok";
    "109 start s2 j7 len 161";
    "113 start s3 j8 len 106";
    "117 start s1 j9 len 127";
    "146 done s0 j5 55d2e69752f982b53528289a7e3300f1 ok";
    "147 start s0 j10 len 33";
    "216 done s2 j7 d5a758db5cd3845b9fe676d4c0770146 ok";
    "217 done s3 j8 d44edf81ddf7ab3cf2deccc22e7eea45 ok";
    "217 start s3 j11 len 93";
    "218 done s0 j10 57dddcb789a203386137f573ad35d624 ok";
    "222 start s2 j12 len 55";
    "224 start s0 j13 len 183";
    "254 done s1 j9 01ff0d7d50e23dff9f8f833f062b41b4 ok";
    "288 done s3 j11 a0b9fd129bdb8f477b9c45aeb13f2033 ok";
    "291 done s2 j12 362376b5a15060b07e857e1e9170b833 ok";
    "360 done s0 j13 798f9af21f8f17e14c8be02bca8a6df0 ok";
    "end 363 violations 0" ]

let test_md5_serve_stream_pinned backend () =
  Alcotest.(check string)
    (Hw.Sim.backend_to_string backend ^ " stream")
    (String.concat "\n" md5_serve_stream_pinned ^ "\n")
    (md5_serve_stream backend)

(* A host over a replica that does nothing: a cycle with no arrival,
   no expiry and no completion allocates nothing in [Host.step]. *)
let test_host_step_quiet_cycle_allocates_nothing () =
  let cycle = ref 0 in
  let replica =
    { Serve.Backend_intf.slots = 4;
      slot_free = (fun _ -> true);
      start = (fun ~slot:_ _ -> ());
      cancel = (fun ~slot:_ -> ());
      step = (fun () -> incr cycle);
      completions = (fun () -> []);
      cycle_no = (fun () -> !cycle);
      finish = (fun () -> ());
      violations = (fun () -> 0) }
  in
  let host : (string, string) Serve.Host.t = Serve.Host.create replica in
  ignore (Serve.Host.step host);
  let words n =
    let w0 = Gc.minor_words () in
    for _ = 1 to n do ignore (Sys.opaque_identity (Serve.Host.step host)) done;
    Gc.minor_words () -. w0
  in
  Alcotest.(check (float 0.)) "words over 1000 quiet cycles" 0.
    (words 1000 -. words 0);
  Alcotest.(check int) "stepped" 1001 !cycle

let suite =
  ( "serve",
    [ Alcotest.test_case "md5 refill conserves" `Quick test_md5_refill_conserves;
      Alcotest.test_case "cpu deadline frees slot" `Quick test_cpu_deadline_frees_slot;
      Alcotest.test_case "retry budget" `Quick test_retry_budget;
      Alcotest.test_case "full queue sheds" `Quick test_full_queue_sheds;
      Alcotest.test_case "queued expiry mid-queue" `Quick
        test_queued_expiry_mid_queue;
      Alcotest.test_case "retry races shed" `Quick test_retry_races_shed;
      Alcotest.test_case "deadline=1 boundary" `Quick
        test_deadline_one_boundary;
      Alcotest.test_case "replica invariance" `Quick test_replica_invariance;
      Alcotest.test_case "create_b matches create" `Quick
        test_create_b_matches_create;
      Alcotest.test_case "packed backend surface" `Quick
        test_packed_backend_surface;
      Alcotest.test_case "poisson load" `Quick test_poisson_load;
      Alcotest.test_case "latency histogram" `Quick test_latency_histogram;
      Alcotest.test_case "queue-depth gauge transients" `Quick
        test_queue_depth_gauge_counts_transients;
      Alcotest.test_case "host step: quiet cycle allocates nothing" `Quick
        test_host_step_quiet_cycle_allocates_nothing ]
    @ List.map
        (fun b ->
          Alcotest.test_case
            (Printf.sprintf "md5 serve stream pinned (%s)"
               (Hw.Sim.backend_to_string b))
            `Quick (test_md5_serve_stream_pinned b))
        [ Hw.Sim.Interp; Hw.Sim.Compiled; Hw.Sim.Jit ] )
