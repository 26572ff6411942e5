(* Tests for the fleet layer: k-segment queue relaxation bound,
   consistent-hash ring, LRU cache, trace generation, and the
   front-end (dedup, coalescing, retirement, stealing determinism,
   heterogeneous NoC host). *)

(* ---- Kqueue ---- *)

let test_kqueue_strict_at_k1 () =
  (* k = 1 collapses to a strict FIFO: one slot per segment leaves
     nothing to overtake. *)
  let q = Fleet.Kqueue.create ~seed:7 ~segments:16 ~k:1 () in
  Alcotest.(check int) "bound" 0 (Fleet.Kqueue.bound q);
  for i = 0 to 9 do
    Alcotest.(check bool) "enqueue" true (Fleet.Kqueue.enqueue q i)
  done;
  for i = 0 to 9 do
    match Fleet.Kqueue.dequeue q with
    | Some (x, d) ->
        Alcotest.(check int) "fifo order" i x;
        Alcotest.(check int) "distance" 0 d
    | None -> Alcotest.fail "unexpected empty"
  done;
  Alcotest.(check int) "max observed" 0 (Fleet.Kqueue.max_observed q);
  Alcotest.(check int) "no violations" 0
    (List.length (Fleet.Kqueue.violations q))

let test_kqueue_capacity () =
  let q = Fleet.Kqueue.create ~segments:2 ~k:3 () in
  Alcotest.(check int) "capacity" 6 (Fleet.Kqueue.capacity q);
  for i = 0 to 5 do
    Alcotest.(check bool) "fits" true (Fleet.Kqueue.enqueue q i)
  done;
  Alcotest.(check bool) "full" false (Fleet.Kqueue.enqueue q 6);
  Alcotest.(check int) "length" 6 (Fleet.Kqueue.length q)

let test_kqueue_relaxation_bound () =
  (* Random interleaving of enqueues and dequeues: every observed
     distance stays under k - 1, every item comes out exactly once. *)
  let k = 4 in
  let q = Fleet.Kqueue.create ~seed:42 ~segments:8 ~k () in
  let rng = Random.State.make [| 9 |] in
  let next = ref 0 and drained = Hashtbl.create 64 and in_q = ref 0 in
  let deq () =
    match Fleet.Kqueue.dequeue q with
    | Some (x, d) ->
        Alcotest.(check bool) "distance within bound" true (d <= k - 1);
        Alcotest.(check bool) "fresh item" false (Hashtbl.mem drained x);
        Hashtbl.add drained x ();
        decr in_q
    | None -> Alcotest.(check int) "empty means empty" 0 !in_q
  in
  for _ = 1 to 400 do
    if Random.State.bool rng && !next < 200 then begin
      if Fleet.Kqueue.enqueue q !next then begin
        incr next;
        incr in_q
      end
    end
    else deq ()
  done;
  while not (Fleet.Kqueue.is_empty q) do
    deq ()
  done;
  Alcotest.(check int) "all drained" !next (Hashtbl.length drained);
  Alcotest.(check bool) "scoreboard max within bound" true
    (Fleet.Kqueue.max_observed q <= k - 1);
  Alcotest.(check int) "scoreboard clean" 0
    (List.length (Fleet.Kqueue.violations q));
  (* and relaxation really happens at k > 1 under this seed *)
  Alcotest.(check bool) "some overtaking observed" true
    (Fleet.Kqueue.max_observed q > 0)

(* ---- Ring ---- *)

let keys n = List.init n (Printf.sprintf "key-%d")

let test_ring_routes_stably () =
  let r1 = Fleet.Ring.create ~hosts:4 () in
  let r2 = Fleet.Ring.create ~hosts:4 () in
  List.iter
    (fun k ->
      let h = Fleet.Ring.route r1 k in
      Alcotest.(check bool) "in range" true (h >= 0 && h < 4);
      Alcotest.(check int) "stable across instances" h (Fleet.Ring.route r2 k))
    (keys 200)

let test_ring_balance () =
  let r = Fleet.Ring.create ~hosts:4 () in
  let shares = Fleet.Ring.shares r ~keys:(keys 1000) in
  Array.iter
    (fun s ->
      Alcotest.(check bool) "every host owns keys" true (s > 0);
      Alcotest.(check bool) "no host dominates" true (s < 600))
    shares

let test_ring_minimal_disruption () =
  (* Adding a fifth host may only move keys onto the new host: an
     arc changes owner only when a new point lands in it. *)
  let r4 = Fleet.Ring.create ~hosts:4 () in
  let r5 = Fleet.Ring.create ~hosts:5 () in
  let moved = ref 0 and total = 500 in
  List.iter
    (fun k ->
      let h4 = Fleet.Ring.route r4 k and h5 = Fleet.Ring.route r5 k in
      if h4 <> h5 then begin
        incr moved;
        Alcotest.(check int) "moved keys land on the new host" 4 h5
      end)
    (keys total);
  Alcotest.(check bool) "some keys moved" true (!moved > 0);
  Alcotest.(check bool) "most keys stayed" true
    (float_of_int !moved /. float_of_int total < 0.5)

(* ---- Cache ---- *)

let test_cache_lru () =
  let c = Fleet.Cache.create ~capacity:2 in
  Fleet.Cache.add c "a" 1;
  Fleet.Cache.add c "b" 2;
  Alcotest.(check (option int)) "hit a" (Some 1) (Fleet.Cache.find c "a");
  Fleet.Cache.add c "c" 3;
  (* b was least recently used (a was refreshed by the find) *)
  Alcotest.(check bool) "b evicted" false (Fleet.Cache.mem c "b");
  Alcotest.(check (option int)) "a survives" (Some 1) (Fleet.Cache.find c "a");
  Alcotest.(check (option int)) "c present" (Some 3) (Fleet.Cache.find c "c");
  Alcotest.(check (option int)) "b misses" None (Fleet.Cache.find c "b");
  Alcotest.(check int) "length" 2 (Fleet.Cache.length c);
  Alcotest.(check int) "hits" 3 (Fleet.Cache.hits c);
  Alcotest.(check int) "misses" 1 (Fleet.Cache.misses c);
  Fleet.Cache.add c "a" 10;
  Alcotest.(check (option int)) "overwrite" (Some 10) (Fleet.Cache.find c "a")

(* ---- Trace ---- *)

let test_trace_deterministic () =
  let phases = Fleet.Trace.preset "steady" in
  let t1 = Fleet.Trace.generate ~seed:3 ~phases () in
  let t2 = Fleet.Trace.generate ~seed:3 ~phases () in
  Alcotest.(check bool) "same seed, same trace" true (t1 = t2);
  let t3 = Fleet.Trace.generate ~seed:4 ~phases () in
  Alcotest.(check bool) "different seed, different trace" true (t1 <> t3)

let test_trace_shape () =
  let phases = Fleet.Trace.preset "diurnal" in
  let cycles = Fleet.Trace.phase_cycles phases in
  Alcotest.(check int) "diurnal spans 3000 cycles" 3000 cycles;
  let t = Fleet.Trace.generate ~seed:1 ~phases () in
  Alcotest.(check bool) "non-empty" true (Array.length t > 0);
  Array.iteri
    (fun i r ->
      Alcotest.(check bool) "arrival in range" true
        (r.Fleet.Trace.arrival >= 0 && r.Fleet.Trace.arrival < cycles);
      if i > 0 then
        Alcotest.(check bool) "arrivals sorted" true
          (t.(i - 1).Fleet.Trace.arrival <= r.Fleet.Trace.arrival))
    t;
  (* scaling the rates scales the volume *)
  let t10 =
    Fleet.Trace.generate ~seed:1 ~phases:(Fleet.Trace.preset ~scale:10. "diurnal") ()
  in
  Alcotest.(check bool) "10x rate, more requests" true
    (Array.length t10 > 4 * Array.length t)

let test_trace_hot_duplicates () =
  let t = Fleet.Trace.generate ~seed:5 ~phases:(Fleet.Trace.preset "steady") () in
  let seen = Hashtbl.create 64 and dups = ref 0 in
  Array.iter
    (fun r ->
      if Hashtbl.mem seen r.Fleet.Trace.payload then incr dups
      else Hashtbl.add seen r.Fleet.Trace.payload ())
    t;
  Alcotest.(check bool) "duplicate-heavy by construction" true
    (!dups > Array.length t / 4)

let test_trace_file_roundtrip () =
  let t =
    Fleet.Trace.generate ~seed:2
      ~phases:[ Fleet.Trace.Steady { cycles = 100; rate = 0.3 } ]
      ()
  in
  let path = Filename.temp_file "fleet_trace" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Fleet.Trace.to_file path t;
      let t' = Fleet.Trace.of_file path in
      Alcotest.(check bool) "roundtrip" true (t = t'))

(* A malformed line and a class outside [?classes] both raise
   [Failure] naming the file and the line. *)
let with_trace_file text f =
  let path = Filename.temp_file "fleet_trace" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc text);
      f path)

let test_trace_file_errors () =
  let expect_failure ?classes text ~line =
    with_trace_file text (fun path ->
        match Fleet.Trace.of_file ?classes path with
        | _ -> Alcotest.failf "%S accepted" text
        | exception Failure msg ->
          let where = Printf.sprintf "%s:%d: " path line in
          Alcotest.(check bool) (msg ^ " names " ^ where) true
            (String.starts_with ~prefix:where msg))
  in
  expect_failure "0 abc\nxx def\n" ~line:2;
  expect_failure ~classes:1 "0 abc\n# comment\n1 def 5\n" ~line:3;
  expect_failure ~classes:2 "0 abc 1\n1 def 2\n" ~line:2;
  with_trace_file "0 abc 1\n" (fun path ->
      Alcotest.(check int) "class below ?classes" 1
        (Fleet.Trace.of_file ~classes:2 path).(0).Fleet.Trace.cls)

let contains s ~sub =
  let n = String.length sub in
  let rec at i = i + n <= String.length s && (String.sub s i n = sub || at (i + 1)) in
  at 0

(* [elsim fleet --trace FILE] turns both errors into a one-line CLI
   error naming path:line with a non-zero exit, instead of cmdliner's
   "internal error, uncaught exception". *)
let test_elsim_fleet_trace_errors () =
  let elsim =
    Filename.concat (Filename.dirname Sys.executable_name) "../bin/elsim.exe"
  in
  List.iter
    (fun (text, line) ->
      with_trace_file text (fun path ->
          let err = Filename.temp_file "elsim" ".err" in
          Fun.protect
            ~finally:(fun () -> Sys.remove err)
            (fun () ->
              let rc =
                Sys.command
                  (Printf.sprintf "%s fleet --trace %s > /dev/null 2> %s"
                     (Filename.quote elsim) (Filename.quote path)
                     (Filename.quote err))
              in
              let out = String.trim (In_channel.with_open_bin err In_channel.input_all) in
              Alcotest.(check bool) (out ^ ": non-zero exit") true (rc <> 0);
              Alcotest.(check int) (out ^ ": one line") 1
                (List.length
                   (List.filter (( <> ) "") (String.split_on_char '\n' out)));
              let where = Printf.sprintf "%s:%d: " path line in
              Alcotest.(check bool) (out ^ ": names " ^ where) true
(contains out ~sub:where))))
    [ ("0 abc\nxx def\n", 2); ("0 abc\n1 def 5\n", 2) ]

(* Parser fuzz: every prefix of a [to_file] output, then seeded
   single-byte mutations of it.  Each parse returns requests or raises
   [Failure "path:line: ..."]; no other exception escapes. *)
let parses_or_fails path =
  match Fleet.Trace.of_file path with
  | _ -> true
  | exception Failure msg -> String.starts_with ~prefix:(path ^ ":") msg

let fuzz_source () =
  let t =
    Fleet.Trace.generate ~seed:5
      ~phases:[ Fleet.Trace.Steady { cycles = 40; rate = 0.3 } ]
      ()
  in
  with_trace_file "" (fun path ->
      Fleet.Trace.to_file path t;
      In_channel.with_open_bin path In_channel.input_all)

let test_trace_prefixes () =
  let src = fuzz_source () in
  for n = 0 to String.length src do
    with_trace_file (String.sub src 0 n) (fun path ->
        if not (parses_or_fails path) then Alcotest.failf "prefix of %d bytes" n)
  done

let prop_trace_mutations =
  let src = lazy (fuzz_source ()) in
  let gen st =
    let b = Bytes.of_string (Lazy.force src) in
    Bytes.set b (Random.State.int st (Bytes.length b)) (Char.chr (Random.State.int st 256));
    Bytes.to_string b
  in
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:300 ~name:"trace mutations: result or path:line Failure"
       (QCheck.make ~print:(Printf.sprintf "%S") gen)
       (fun text -> with_trace_file text parses_or_fails))

(* ---- Frontend ---- *)

let flat_host ?(monitor = false) ?(slots = 4) () i =
  Serve.Md5_backend.make ~monitor ~slots () i

let dup_trace ?(payloads = 8) ~n ~spread () =
  (* n requests over [spread] cycles drawn from a small hot payload
     pool — guaranteed duplicates for the dedup paths. *)
  Array.init n (fun i ->
      { Fleet.Trace.arrival = i * spread / n;
        payload = Printf.sprintf "hot-payload-%d" (i mod payloads);
        cls = 0 })

let done_results t =
  Array.map
    (function
      | Fleet.Frontend.Done { result; _ } -> result
      | _ -> Alcotest.fail "expected every request to complete")
    (Fleet.Frontend.outcomes t)

let check_clean_stats s =
  Alcotest.(check bool) "relaxation within bound" true
    (s.Fleet.Frontend.s_kq_max_observed <= s.Fleet.Frontend.s_kq_bound);
  Alcotest.(check int) "no violations" 0 (Fleet.Frontend.violations s)

let test_frontend_serves_and_dedups () =
  let config =
    { Fleet.Frontend.default_config with n_hosts = 2; dispatch_per_cycle = 4 }
  in
  let t = Fleet.Frontend.create ~config ~make_host:(flat_host ()) ~key:Fun.id () in
  Fleet.Frontend.submit_trace t (dup_trace ~n:48 ~spread:96 ());
  let s = Fleet.Frontend.run t in
  Alcotest.(check int) "all complete" 48 s.Fleet.Frontend.s_completed;
  Alcotest.(check bool) "dedup engaged" true
    (s.Fleet.Frontend.s_cache_hits + s.Fleet.Frontend.s_coalesced > 0);
  Alcotest.(check bool) "dedup saves host work" true
    (s.Fleet.Frontend.s_dispatched < 48);
  check_clean_stats s;
  (* every result is the true digest of its payload *)
  Array.iteri
    (fun i r ->
      Alcotest.(check string) "digest" (Md5.Md5_ref.digest (Printf.sprintf "hot-payload-%d" (i mod 8))) r)
    (done_results t)

let test_frontend_baseline_same_results () =
  (* dedup and stealing change who computes, never what: the baseline
     (no front-end smarts) must produce byte-identical results. *)
  let trace = dup_trace ~n:40 ~spread:80 () in
  let run_with config =
    let t =
      Fleet.Frontend.create ~config ~make_host:(flat_host ()) ~key:Fun.id ()
    in
    Fleet.Frontend.submit_trace t trace;
    let s = Fleet.Frontend.run t in
    (done_results t, s)
  in
  let full, s_full = run_with Fleet.Frontend.default_config in
  let base, s_base =
    run_with (Fleet.Frontend.baseline Fleet.Frontend.default_config)
  in
  Alcotest.(check bool) "results identical" true (full = base);
  Alcotest.(check int) "baseline never caches" 0
    s_base.Fleet.Frontend.s_cache_hits;
  Alcotest.(check int) "baseline dispatches everything" 40
    s_base.Fleet.Frontend.s_dispatched;
  check_clean_stats s_full;
  check_clean_stats s_base

let test_frontend_stealing_deterministic () =
  (* Duplicates concentrate on ring hosts; with dedup off that skews
     load enough for idle hosts to steal.  Stealing must move work
     (steals > 0) and leave results byte-identical. *)
  let config =
    { Fleet.Frontend.default_config with
      n_hosts = 4;
      dedup = false;
      steal_threshold = 1;
      steal_batch = 2;
      dispatch_per_cycle = 16 }
  in
  (* 3 hot keys over 4 hosts: at least one host owns no key and sits
     idle while the owners back up — stealing is guaranteed work *)
  let trace = dup_trace ~payloads:3 ~n:64 ~spread:16 () in
  let run_with config =
    let t =
      Fleet.Frontend.create ~config
        ~make_host:(flat_host ~slots:2 ())
        ~key:Fun.id ()
    in
    Fleet.Frontend.submit_trace t trace;
    let s = Fleet.Frontend.run t in
    (done_results t, s)
  in
  let with_steal, s_on = run_with config in
  let without, s_off = run_with { config with stealing = false } in
  Alcotest.(check bool) "stealing happened" true
    (s_on.Fleet.Frontend.s_steals > 0);
  Alcotest.(check int) "stealing off means zero" 0
    s_off.Fleet.Frontend.s_steals;
  Alcotest.(check bool) "byte-identical results" true (with_steal = without);
  (* determinism: the same config replays the same stats *)
  let again, s_on' = run_with config in
  Alcotest.(check bool) "replay identical" true (again = with_steal);
  Alcotest.(check int) "replay same steal count"
    s_on.Fleet.Frontend.s_steals s_on'.Fleet.Frontend.s_steals;
  check_clean_stats s_on;
  check_clean_stats s_off

let test_frontend_retirement () =
  (* pending_capacity 0 disables coalescing: duplicates dispatch
     independently, and the first result back retires its queued
     twins from the host queues (Host.complete_external). *)
  let config =
    { Fleet.Frontend.default_config with
      n_hosts = 1;
      pending_capacity = 0;
      cache_capacity = 1;
      dispatch_per_cycle = 16 }
  in
  let t =
    Fleet.Frontend.create ~config ~make_host:(flat_host ~slots:1 ()) ~key:Fun.id ()
  in
  (* one payload, all at cycle 0: one runs, the rest queue behind it *)
  for _ = 1 to 10 do
    ignore (Fleet.Frontend.submit t ~arrival:0 "the-one-payload")
  done;
  let s = Fleet.Frontend.run t in
  Alcotest.(check int) "all complete" 10 s.Fleet.Frontend.s_completed;
  Alcotest.(check bool) "twins retired from queues" true
    (s.Fleet.Frontend.s_retired > 0);
  check_clean_stats s;
  let results = done_results t in
  Array.iter
    (fun r -> Alcotest.(check string) "same digest" results.(0) r)
    results

let test_frontend_sheds_when_swamped () =
  let config =
    { Fleet.Frontend.default_config with
      n_hosts = 1;
      dedup = false;
      stealing = false;
      kq_segments = 1;
      kq_k = 4;
      dispatch_per_cycle = 1 }
  in
  let t =
    Fleet.Frontend.create ~config ~make_host:(flat_host ~slots:1 ()) ~key:Fun.id ()
  in
  for i = 0 to 19 do
    ignore (Fleet.Frontend.submit t ~arrival:0 (Printf.sprintf "flood-%d" i))
  done;
  let s = Fleet.Frontend.run t in
  Alcotest.(check bool) "kqueue overflow sheds" true
    (s.Fleet.Frontend.s_shed > 0);
  Alcotest.(check int) "every request resolves" 20
    (s.Fleet.Frontend.s_completed + s.Fleet.Frontend.s_shed);
  check_clean_stats s

let test_frontend_noc_host () =
  (* Heterogeneous fleet: host 0 serves through a monitored 2x2-mesh
     elastic fabric, host 1 is a flat monitored MD5 host.  Results
     must be byte-identical to an all-flat fleet, with zero protocol
     violations on either host. *)
  let trace = dup_trace ~n:12 ~spread:24 () in
  let config =
    { Fleet.Frontend.default_config with n_hosts = 2; dispatch_per_cycle = 4 }
  in
  let core = Serve.Md5_backend.backend ~monitor:false ~slots:1 () in
  let mixed_host i =
    if i = 0 then
      Serve.Noc_backend.make ~monitor:true
        ~topology:(Noc.Mesh { x = 2; y = 2 })
        core i
    else Serve.Md5_backend.make ~monitor:true ~slots:4 () i
  in
  let run_with make_host =
    let t = Fleet.Frontend.create ~config ~make_host ~key:Fun.id () in
    Fleet.Frontend.submit_trace t trace;
    let s = Fleet.Frontend.run t in
    (done_results t, s)
  in
  let mixed, s_mixed = run_with mixed_host in
  let flat, s_flat = run_with (flat_host ~monitor:true ()) in
  Alcotest.(check bool) "fabric host, same bytes" true (mixed = flat);
  Alcotest.(check int) "no violations through the fabric" 0
    (Fleet.Frontend.violations s_mixed);
  Alcotest.(check int) "no violations flat" 0 (Fleet.Frontend.violations s_flat);
  Alcotest.(check bool) "fabric host did real work" true
    (s_mixed.Fleet.Frontend.s_per_host.(0).Fleet.Frontend.h_admitted > 0)

let suite =
  ( "fleet",
    [ Alcotest.test_case "kqueue strict at k=1" `Quick test_kqueue_strict_at_k1;
      Alcotest.test_case "kqueue capacity" `Quick test_kqueue_capacity;
      Alcotest.test_case "kqueue relaxation bound" `Quick
        test_kqueue_relaxation_bound;
      Alcotest.test_case "ring routes stably" `Quick test_ring_routes_stably;
      Alcotest.test_case "ring balance" `Quick test_ring_balance;
      Alcotest.test_case "ring minimal disruption" `Quick
        test_ring_minimal_disruption;
      Alcotest.test_case "cache lru" `Quick test_cache_lru;
      Alcotest.test_case "trace deterministic" `Quick test_trace_deterministic;
      Alcotest.test_case "trace shape" `Quick test_trace_shape;
      Alcotest.test_case "trace hot duplicates" `Quick
        test_trace_hot_duplicates;
      Alcotest.test_case "trace file roundtrip" `Quick
        test_trace_file_roundtrip;
      Alcotest.test_case "frontend serves and dedups" `Quick
        test_frontend_serves_and_dedups;
      Alcotest.test_case "frontend baseline same results" `Quick
        test_frontend_baseline_same_results;
      Alcotest.test_case "frontend stealing deterministic" `Quick
        test_frontend_stealing_deterministic;
      Alcotest.test_case "frontend retirement" `Quick
        test_frontend_retirement;
      Alcotest.test_case "frontend sheds when swamped" `Quick
        test_frontend_sheds_when_swamped;
      Alcotest.test_case "frontend noc host" `Slow test_frontend_noc_host;
      Alcotest.test_case "trace file errors name path:line" `Quick
        test_trace_file_errors;
      Alcotest.test_case "elsim fleet --trace errors" `Quick
        test_elsim_fleet_trace_errors;
      Alcotest.test_case "trace prefixes: result or path:line Failure" `Quick
        test_trace_prefixes;
      prop_trace_mutations ] )
