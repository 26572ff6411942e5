(* The model-checking workload: Mc.run over the quick suite on the JIT
   backend, every verdict checked against the committed quick results
   (BENCH_mc.json at the commit that added this benchmark: spec,
   states, edges, BFS radius, clean, ok). *)

open Pb_util

let expected =
  [ ("meb-full-ready-aware-S1", 3, 9, 2, true, true);
    ("meb-full-ready-aware-S2", 18, 130, 5, true, true);
    ("meb-full-valid-only-S1", 3, 9, 2, true, true);
    ("meb-full-valid-only-S2", 18, 130, 4, true, true);
    ("meb-reduced-ready-aware-S1", 3, 9, 2, true, true);
    ("meb-reduced-ready-aware-S2", 16, 106, 4, true, true);
    ("meb-reduced-valid-only-S1", 3, 9, 2, true, true);
    ("meb-reduced-valid-only-S2", 16, 106, 3, true, true);
    ("chain-reduced-valid-only-S2", 192, 1648, 6, true, true);
    ("barrier-S2", 143, 1037, 13, true, true);
    ("fork-S2", 7, 33, 1, true, true);
    ("fork-retract-S2", 125, 4369, 5, false, true);
    ("join-S2", 202, 3710, 4, true, true);
    ("join-unaligned-S2", 206, 3930, 4, false, true);
    ("merge-prio-S2", 136, 1162, 4, true, true);
    ("merge-fair-S2", 272, 2324, 6, true, true);
    ("merge-prio-unordered-S2", 36684, 375296, 9, false, true);
    ("branch-S2", 128, 4624, 5, true, true);
    ("router-S2", 19968, 1647616, 10, true, true);
    ("varlat-S2", 8, 28, 4, true, true);
    ("varlat-pt-S2", 28, 162, 6, true, true);
    ("aligned-ready-aware-S2", 162, 3330, 5, true, true) ]

let labels = List.map (fun (l, _, _, _, _, _) -> l) expected

(* The two specs that carry >95% of the edges. *)
let big = [ "router-S2"; "merge-prio-unordered-S2" ]

(* The spec set: the quick suite, or (self-test size) its small specs. *)
let specs ~tiny () =
  let all = Mc.suite ~quick:true () in
  if tiny then List.filter (fun s -> not (List.mem (Mc.spec_label s) big)) all
  else all

let check (o : Mc.outcome) =
  match
    List.find_opt (fun (l, _, _, _, _, _) -> l = o.Mc.spec_label) expected
  with
  | None -> false
  | Some (_, states, edges, depth, clean, ok) ->
      o.Mc.stats.Mc.states = states && o.Mc.stats.Mc.edges = edges
      && o.Mc.stats.Mc.max_depth = depth && o.Mc.clean = clean && o.Mc.ok = ok
      && not o.Mc.stats.Mc.truncated

type pass = {
  setup_s : float;
  verify_s : float;
  speed : float;  (** as [Pb_serve.pass.speed], over the spec runs *)
  results : (Mc.outcome * float) list;  (** outcome, host seconds *)
  wrong : int;
  missing : int;  (** expected specs not in the spec set *)
}

(* Set-up: building the spec list, plus what each [Mc.run] does before
   it explores (elaboration, [Sim.create], the reduction analyses),
   measured as a run capped at one state.  The spec list alone takes
   microseconds, too little to time.  Repeated, median kept. *)
let setup_reps = 9

let setup ~tiny =
  Pb_jit.before_setup ();
  let t0 = now () in
  List.iter
    (fun s ->
      ignore (Mc.run ~backend:Hw.Sim.Jit ~max_states:1 s);
      Pb_jit.check ("mc set-up " ^ Mc.spec_label s))
    (specs ~tiny ());
  now () -. t0

let run_pass ?(tiny = false) ?(timed = false) () =
  Gc.compact ();
  let setups = List.init setup_reps (fun _ -> setup ~tiny) in
  Pb_jit.before_setup ();
  let specs = specs ~tiny () in
  let t0 = now () in
  let verify () =
    List.map
      (fun s ->
        let t = now () in
        let o =
          Pb_trace.span "Mc.run"
            ~args:[ ("spec", Mc.spec_label s) ]
            (fun () -> Mc.run ~backend:Hw.Sim.Jit s)
        in
        Pb_jit.check ("mc " ^ Mc.spec_label s);
        (o, now () -. t))
      specs
  in
  let results, verify_s, speed =
    if timed then
      let results, t = Pb_util.timed verify in
      (results, t.raw_s, t.speed)
    else
      let results = verify () in
      (results, now () -. t0, ref_nominal)
  in
  let got = List.map (fun (o, _) -> o.Mc.spec_label) results in
  { setup_s = median setups;
    verify_s;
    speed;
    results;
    wrong = List.length (List.filter (fun (o, _) -> not (check o)) results);
    missing =
      (if tiny then 0
       else List.length (List.filter (fun l -> not (List.mem l got)) labels)) }

(* Load (or compile, on a cold cache) every spec's kernel. *)
let prime ~tiny = ignore (setup ~tiny)
