(* Model-checker tests: register save/load and snapshot/restore across
   the backends, backend agreement on the explored state graph,
   soundness of the reductions (naive and reduced modes agree on
   verdicts), clean verdicts for the protocol zoo at small S, and
   pinned counterexamples for the three documented composition
   hazards — their reports and traces byte for byte. *)

module S = Hw.Signal
module Ch = Melastic.Mt_channel
module Meb = Melastic.Meb
module Policy = Melastic.Policy

let meb_sim backend =
  let b = S.Builder.create () in
  let src = Ch.source b ~name:"src" ~threads:2 ~width:4 in
  let m = Meb.create ~name:"m0" ~policy:Policy.Valid_only ~kind:Meb.Reduced b src in
  Ch.sink b ~name:"snk" m.Meb.out;
  Hw.Sim.create ~backend ~optimize:false (Hw.Circuit.create ~name:"snapshot_t" b)

(* Drive a few transfers, snapshot mid-flight, keep going, then
   restore: the simulator must retrace the exact same trajectory. *)
let roundtrip backend () =
  let sim = meb_sim backend in
  let step valid data ready =
    Hw.Sim.poke_int sim "src_valid" valid;
    Hw.Sim.poke_int sim "src_data" data;
    Hw.Sim.poke_int sim "snk_ready" ready;
    Hw.Sim.cycle sim
  in
  step 1 5 0;
  step 2 9 0;
  let snap = Hw.Sim.snapshot sim in
  let probe () =
    List.map (fun nm -> Hw.Sim.peek_int sim nm)
      [ "m0_state0"; "m0_state1"; "snk_valid"; "snk_fire"; "snk_data" ]
  in
  let trail () =
    step 1 7 3;
    let a = probe () in
    step 0 0 3;
    let b = probe () in
    step 0 0 3;
    (a, b, Hw.Sim.snapshot sim)
  in
  let a1, b1, end1 = trail () in
  (* Diverge, then rewind. *)
  step 2 3 0;
  step 1 1 1;
  Hw.Sim.restore sim snap;
  let a2, b2, end2 = trail () in
  Alcotest.(check (list int)) "first cycle after restore" a1 a2;
  Alcotest.(check (list int)) "second cycle after restore" b1 b2;
  Alcotest.(check bool) "end states equal" true
    (Array.for_all2 Bits.equal end1 end2)

(* Registers of 8, 62 (the widest int-path width) and 70 bits (three
   32-bit limbs), each fed back through the input so every bit moves. *)
let state_sim backend =
  let b = S.Builder.create () in
  let x = S.input b "x" 8 in
  let narrow = S.reg_fb b ~width:8 (fun q -> S.add b q x) in
  let edge = S.reg_fb b ~width:62 (fun q -> S.add b (S.rotl b q 5) (S.uresize b x 62)) in
  let wide = S.reg_fb b ~width:70 (fun q -> S.add b (S.rotl b q 3) (S.uresize b x 70)) in
  ignore (S.output b "narrow" narrow);
  ignore (S.output b "edge" edge);
  ignore (S.output b "wide" wide);
  Hw.Sim.create ~backend ~optimize:false (Hw.Circuit.create ~name:"state_t" b)

(* [save_state]/[load_state] rewind exactly like [snapshot]/[restore]:
   both give the same next 50 cycles as the first run from the saved
   point, including the wide register. *)
let save_load backend () =
  let sim = state_sim backend in
  let x = Hw.Sim.input_port sim "x" in
  let run from n =
    List.init n (fun i ->
        Hw.Sim.write_int x (((from + i) * 37) + 11);
        Hw.Sim.cycle sim;
        List.map (fun nm -> Bits.to_hex_string (Hw.Sim.peek sim nm))
          [ "narrow"; "edge"; "wide" ])
  in
  ignore (run 0 10);
  let words = Hw.Sim.state_words sim in
  Alcotest.(check int) "one word per narrow register, one per limb" 5 words;
  let buf = Array.make (words + 3) 0 in
  Hw.Sim.save_state sim buf 3;
  let snap = Hw.Sim.snapshot sim in
  let first = run 10 50 in
  Alcotest.(check bool) "wide register past 62 bits" true
    (List.exists (fun l -> String.length (List.nth l 2) > 16) first);
  ignore (run 99 7);
  Hw.Sim.load_state sim buf 3;
  Alcotest.(check (list (list string))) "save/load replays" first (run 10 50);
  ignore (run 42 5);
  Hw.Sim.restore sim snap;
  Alcotest.(check (list (list string))) "snapshot/restore replays" first (run 10 50);
  let again = Array.make words 0 in
  Hw.Sim.load_state sim buf 3;
  Hw.Sim.save_state sim again 0;
  Alcotest.(check (array int)) "load then save is the identity"
    (Array.sub buf 3 words) again;
  let rejects what f =
    match f () with
    | () -> Alcotest.fail (what ^ " accepted")
    | exception Invalid_argument _ -> ()
  in
  rejects "short save slice" (fun () -> Hw.Sim.save_state sim (Array.make (words - 1) 0) 0);
  rejects "save past the end" (fun () -> Hw.Sim.save_state sim buf 4);
  rejects "short load slice" (fun () -> Hw.Sim.load_state sim (Array.make words 0) 1);
  rejects "negative offset" (fun () -> Hw.Sim.load_state sim buf (-1))

let restore_rejects_mismatch () =
  let sim = meb_sim Hw.Sim.Interp in
  let snap = Hw.Sim.snapshot sim in
  Alcotest.check_raises "short snapshot"
    (Invalid_argument
       (Printf.sprintf "Sim.restore: %d registers, snapshot has %d entries"
          (Array.length snap)
          (Array.length snap - 1)))
    (fun () -> Hw.Sim.restore sim (Array.sub snap 0 (Array.length snap - 1)));
  let bad = Array.copy snap in
  bad.(0) <- Bits.of_int ~width:(Bits.width snap.(0) + 7) 0;
  (try
     Hw.Sim.restore sim bad;
     Alcotest.fail "width mismatch accepted"
   with Invalid_argument _ -> ())

(* All backends run the same unoptimized netlist, so the explored
   graph must match exactly.  The checker drives exploration through
   save_state/load_state, so agreement on the JIT backend proves its
   state words bit-exact against the interpreter's.  The interpreter
   explores these specs here; the quick suite runs on the compiled
   backend. *)
let backends_agree () =
  List.iter
    (fun spec ->
      let a = Mc.run ~backend:Hw.Sim.Interp spec in
      let label = Mc.spec_label spec in
      List.iter
        (fun backend ->
          let b = Mc.run ~backend spec in
          let tag =
            Printf.sprintf "%s (%s)" label (Hw.Sim.backend_to_string backend)
          in
          Alcotest.(check int) (tag ^ " states") a.Mc.stats.Mc.states
            b.Mc.stats.Mc.states;
          Alcotest.(check int) (tag ^ " edges") a.Mc.stats.Mc.edges
            b.Mc.stats.Mc.edges;
          Alcotest.(check int) (tag ^ " max_depth") a.Mc.stats.Mc.max_depth
            b.Mc.stats.Mc.max_depth;
          Alcotest.(check (list (pair string int))) (tag ^ " props") a.Mc.props
            b.Mc.props;
          Alcotest.(check bool) (tag ^ " clean") a.Mc.clean b.Mc.clean)
        [ Hw.Sim.Compiled; Hw.Sim.Jit ])
    [ Mc.meb ~kind:Meb.Reduced ~policy:Policy.Ready_aware ~threads:2;
      Mc.varlat ~threads:2;
      Mc.fork ~threads:2;
      Mc.barrier ~threads:2;
      Mc.merge ~fairness:Melastic.M_merge.Fair ~threads:2;
      Mc.join ~threads:2;
      Mc.router ~threads:1 ]

(* The partial-order reductions are sound: the naive product space
   must reach the same verdict, and the reduced one must be smaller. *)
let reductions_sound () =
  List.iter
    (fun spec ->
      let naive = Mc.run ~mode:Mc.Naive spec in
      let reduced = Mc.run ~mode:Mc.Reduced spec in
      let label = Mc.spec_label spec in
      Alcotest.(check bool) (label ^ " naive clean") true naive.Mc.clean;
      Alcotest.(check bool) (label ^ " reduced clean") true reduced.Mc.clean;
      Alcotest.(check bool)
        (label ^ " reduced smaller") true
        (reduced.Mc.stats.Mc.states < naive.Mc.stats.Mc.states))
    [ Mc.meb ~kind:Meb.Reduced ~policy:Policy.Valid_only ~threads:2;
      Mc.meb ~kind:Meb.Full ~policy:Policy.Ready_aware ~threads:2;
      Mc.varlat ~threads:2 ]

(* Every clean spec of the quick suite verifies all four property
   classes; the data quotient applies exactly where it is sound.
   Explored on the compiled backend (no kernel build, several times
   faster than the interpreter); [backends_agree] holds the
   interpreter to the same graphs. *)
let quick_suite_clean () =
  List.iter
    (fun spec ->
      match Mc.expected_violation spec with
      | Some _ -> ()
      | None ->
        let o = Mc.run ~backend:Hw.Sim.Compiled spec in
        Alcotest.(check bool) (Mc.spec_label spec ^ " clean") true o.Mc.clean;
        Alcotest.(check bool) (Mc.spec_label spec ^ " ok") true o.Mc.ok;
        Alcotest.(check bool)
          (Mc.spec_label spec ^ " not truncated")
          false o.Mc.stats.Mc.truncated)
    (Mc.suite ~quick:true ())

let branch_keeps_data () =
  (* Steering by data: the quotient must refuse itself... *)
  let o = Mc.run (Mc.branch ~threads:2) in
  Alcotest.(check bool) "branch keeps data domain" false o.Mc.stats.Mc.data_collapsed;
  Alcotest.(check bool) "branch clean" true o.Mc.clean;
  (* ...and a pure buffer collapses. *)
  let o = Mc.run (Mc.meb ~kind:Meb.Reduced ~policy:Policy.Valid_only ~threads:2) in
  Alcotest.(check bool) "meb collapses data" true o.Mc.stats.Mc.data_collapsed

(* The NoC router node: steering is by data (the destination bit), so
   the quotient must keep the data domain, and the node must verify
   clean — no duplicated, dropped, misrouted or deadlocked token.
   The expensive S=2 exploration already runs once via
   [quick_suite_clean] (the router is part of the quick zoo); here we
   pin the quotient refusal and the verdict on the cheap S=1 instance
   rather than exploring the S=2 product space a second time. *)
let router_node_clean () =
  let o = Mc.run (Mc.router ~threads:1) in
  Alcotest.(check bool) "router keeps data domain" false
    o.Mc.stats.Mc.data_collapsed;
  Alcotest.(check bool) "router clean" true o.Mc.clean;
  Alcotest.(check bool) "router ok" true o.Mc.ok;
  Alcotest.(check bool) "not truncated" false o.Mc.stats.Mc.truncated

(* Pinned counterexamples for the documented composition hazards
   (modeling artifacts, not RTL bugs — see docs/PROTOCOL.md): the
   checker must keep finding each one, with a minimal trace. *)
let hazard prop spec () =
  let o = Mc.run spec in
  Alcotest.(check bool) "expected class fired" true o.Mc.ok;
  Alcotest.(check bool) "violations counted" true
    (List.assoc prop o.Mc.props > 0);
  (match o.Mc.reports with
  | v :: _ -> Alcotest.(check string) "checker" ("mc-" ^ prop) v.Monitor.checker
  | [] -> Alcotest.fail "no report stored");
  match o.Mc.trace with
  | "reset" :: rest ->
    Alcotest.(check bool) "trace has input vectors" true (rest <> [])
  | _ -> Alcotest.fail "trace must start at reset"

let fork_retract_pinned =
  hazard "conservation" (Mc.fork_retracting ~threads:2)

let merge_unordered_pinned () =
  (* Cap the exploration: the inversion appears within a few cycles,
     long before the hazard's full (data-enumerated) product space. *)
  let o = Mc.run ~max_states:4_000 (Mc.merge_unordered ~threads:2) in
  Alcotest.(check bool) "order inversion found" true
    (List.assoc "conservation" o.Mc.props > 0)

let join_unaligned_pinned =
  hazard "deadlock" (Mc.join_unaligned ~threads:2)

(* The checker's observable output, pinned byte for byte: stats,
   per-class counts, every stored report as the monitor prints it, and
   the counterexample trace.  Any change to state identity (the packed
   key) or to edge labels shows up here. *)
let render (o : Mc.outcome) =
  let s = o.Mc.stats in
  Printf.sprintf "stats states=%d edges=%d max_depth=%d collapsed=%b truncated=%b"
    s.Mc.states s.Mc.edges s.Mc.max_depth s.Mc.data_collapsed s.Mc.truncated
  :: String.concat " " (List.map (fun (p, c) -> Printf.sprintf "%s=%d" p c) o.Mc.props)
  :: List.map (fun v -> Format.asprintf "%a" Monitor.pp_violation v) o.Mc.reports
  @ o.Mc.trace

let pinned_outputs =
  [ ( "fork-retract-S2",
      [ "stats states=125 edges=4369 max_depth=5 collapsed=false truncated=false";
        "one-hot=0 at-most-one-full=0 conservation=544 deadlock=0";
        "[mc-conservation] cycle 3, channel src, thread 0: expected source completes data 0; got a sink already observed 1 for this token";
        "[mc-conservation] cycle 3, channel src, thread 0: expected source completes data 0; got a sink already observed 1 for this token";
        "[mc-conservation] cycle 3, channel src, thread 0: expected source completes data 0; got a sink already observed 1 for this token";
        "[mc-conservation] cycle 3, channel src, thread 0: expected source completes data 0; got a sink already observed 1 for this token";
        "[mc-conservation] cycle 3, channel src, thread 0: expected source completes data 1; got a sink already observed 0 for this token";
        "[mc-conservation] cycle 3, channel src, thread 0: expected source completes data 1; got a sink already observed 0 for this token";
        "reset";
        "cycle 1: src=t0/1 snk0.ready=11 snk1.ready=10";
        "cycle 2: src=- snk0.ready=10 snk1.ready=10";
        "cycle 3: src=t0/0 snk0.ready=10 snk1.ready=11" ] );
    ( "join-unaligned-S2",
      [ "stats states=206 edges=3930 max_depth=4 collapsed=true truncated=false";
        "one-hot=0 at-most-one-full=0 conservation=0 deadlock=2";
        "[mc-deadlock] cycle 2, channel system, thread 0: expected some input sequence still drains the thread; got thread holds tokens and no continuation ever drains them";
        "[mc-deadlock] cycle 2, channel system, thread 1: expected some input sequence still drains the thread; got thread holds tokens and no continuation ever drains them";
        "reset";
        "cycle 1: srca=t0/0 srcc=t1/0 snk.ready=00";
        "cycle 2: srca=t1/0 srcc=t0/0 snk.ready=00" ] );
    ( "merge-prio-unordered-S2",
      [ "stats states=4013 edges=17670 max_depth=4 collapsed=false truncated=true";
        "one-hot=0 at-most-one-full=0 conservation=626 deadlock=0";
        "[mc-conservation] cycle 3, channel snk, thread 0: expected thread-0 tokens leave in offer order (next: srcc); got a later token from srca overtook it";
        "[mc-conservation] cycle 3, channel snk, thread 0: expected thread-0 tokens leave in offer order (next: srcc); got a later token from srca overtook it";
        "[mc-conservation] cycle 3, channel snk, thread 0: expected thread-0 tokens leave in offer order (next: srcc); got a later token from srca overtook it";
        "[mc-conservation] cycle 3, channel snk, thread 0: expected thread-0 tokens leave in offer order (next: srcc); got a later token from srca overtook it";
        "[mc-conservation] cycle 3, channel snk, thread 0: expected thread-0 tokens leave in offer order (next: srcc); got a later token from srca overtook it";
        "[mc-conservation] cycle 3, channel snk, thread 0: expected thread-0 tokens leave in offer order (next: srcc); got a later token from srca overtook it";
        "reset";
        "cycle 1: srca=t0/1 srcc=t0/1 snk.ready=10";
        "cycle 2: srca=t0/1 srcc=t0/1 snk.ready=11";
        "cycle 3: srca=t0/1 srcc=t0/1 snk.ready=11" ] );
    ( "router-S1",
      [ "stats states=80 edges=784 max_depth=10 collapsed=false truncated=false";
        "one-hot=0 at-most-one-full=0 conservation=0 deadlock=0" ] ) ]

let pinned_output () =
  let specs =
    [ (None, Mc.fork_retracting ~threads:2);
      (None, Mc.join_unaligned ~threads:2);
      (Some 4_000, Mc.merge_unordered ~threads:2);
      (None, Mc.router ~threads:1) ]
  in
  List.iter
    (fun backend ->
      List.iter
        (fun (max_states, spec) ->
          let label = Mc.spec_label spec in
          Alcotest.(check (list string))
            (Printf.sprintf "%s (%s)" label (Hw.Sim.backend_to_string backend))
            (List.assoc label pinned_outputs)
            (render (Mc.run ~backend ?max_states spec)))
        specs)
    [ Hw.Sim.Interp; Hw.Sim.Compiled; Hw.Sim.Jit ]

let suite =
  ( "mc",
    [ Alcotest.test_case "snapshot roundtrip (interp)" `Quick
        (roundtrip Hw.Sim.Interp);
      Alcotest.test_case "snapshot roundtrip (jit)" `Quick
        (roundtrip Hw.Sim.Jit);
      Alcotest.test_case "snapshot roundtrip (compiled)" `Quick
        (roundtrip Hw.Sim.Compiled);
      Alcotest.test_case "save/load state (interp)" `Quick (save_load Hw.Sim.Interp);
      Alcotest.test_case "save/load state (compiled)" `Quick
        (save_load Hw.Sim.Compiled);
      Alcotest.test_case "save/load state (jit)" `Quick (save_load Hw.Sim.Jit);
      Alcotest.test_case "restore rejects mismatch" `Quick
        restore_rejects_mismatch;
      Alcotest.test_case "backends agree" `Quick backends_agree;
      Alcotest.test_case "reductions sound" `Quick reductions_sound;
      Alcotest.test_case "quick suite clean" `Quick quick_suite_clean;
      Alcotest.test_case "branch keeps data" `Quick branch_keeps_data;
      Alcotest.test_case "router node clean" `Quick router_node_clean;
      Alcotest.test_case "fork retraction pinned" `Quick fork_retract_pinned;
      Alcotest.test_case "merge inversion pinned" `Quick merge_unordered_pinned;
      Alcotest.test_case "join anti-phase pinned" `Quick join_unaligned_pinned;
      Alcotest.test_case "pinned reports and traces" `Quick pinned_output ] )
