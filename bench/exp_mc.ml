(* Bounded model checking of the MT-elastic protocol (BENCH_mc.json).

   Two sections:

   - "verdicts": every spec of [Mc.suite] explored exhaustively in
     Reduced mode — states, edges, BFS radius, per-property violation
     counts, the ok verdict (hazard specs are ok exactly when the
     documented counterexample class fires; everything else must be
     clean) and the seconds it took; "edges_per_s" totals the sweep.
   - "reduction": the [Mc.naive_comparable] subset explored in both
     Naive and Reduced modes; the headline reduction factor is
     total-naive-states / total-reduced-states and must clear 5x.

   Exit is nonzero (via the returned failure count) when any spec
   misses its verdict or the reduction factor collapses. *)

let timed_run ?mode spec =
  let t0 = Unix.gettimeofday () in
  let o = Mc.run ?mode spec in
  (o, Unix.gettimeofday () -. t0)

let spec_json ((o : Mc.outcome), seconds) =
  Melastic.Json.(
    Obj
      [ ("spec", String o.Mc.spec_label); ("mode", String (Mc.mode_to_string o.Mc.mode));
        ("backend", String o.Mc.backend); ("states", Int o.Mc.stats.Mc.states);
        ("edges", Int o.Mc.stats.Mc.edges); ("max_depth", Int o.Mc.stats.Mc.max_depth);
        ("data_collapsed", Bool o.Mc.stats.Mc.data_collapsed);
        ("truncated", Bool o.Mc.stats.Mc.truncated);
        ("props", Obj (List.map (fun (p, c) -> (p, Int c)) o.Mc.props));
        ("clean", Bool o.Mc.clean); ("ok", Bool o.Mc.ok); ("seconds", Float seconds) ])

let run ?(quick = false) () =
  let failures = ref 0 in
  let t0 = Unix.gettimeofday () in
  Printf.printf "== model checker: protocol invariants ==\n%!";
  let verdicts =
    List.map
      (fun spec ->
        let ((o, _) as run) = timed_run spec in
        let verdict =
          if o.Mc.ok then "ok"
          else begin
            incr failures;
            "FAIL"
          end
        in
        Printf.printf
          "  %-28s %7d states %8d edges  depth %3d%s%s  [%s]\n%!"
          o.Mc.spec_label o.Mc.stats.Mc.states o.Mc.stats.Mc.edges
          o.Mc.stats.Mc.max_depth
          (if o.Mc.stats.Mc.data_collapsed then "  (data/1)" else "")
          (match Mc.expected_violation spec with
          | Some c -> Printf.sprintf "  expects %s" c
          | None -> "")
          verdict;
        if (not o.Mc.ok) && o.Mc.reports <> [] then begin
          List.iter
            (fun v ->
              Printf.printf "    %s\n" (Format.asprintf "%a" Monitor.pp_violation v))
            o.Mc.reports;
          List.iter (fun l -> Printf.printf "      %s\n" l) o.Mc.trace
        end;
        run)
      (Mc.suite ~quick ())
  in
  let edges_per_s =
    let sum f = List.fold_left (fun acc r -> acc +. f r) 0. verdicts in
    sum (fun (o, _) -> float_of_int o.Mc.stats.Mc.edges) /. sum snd
  in
  Printf.printf "  %.0f edges/s over the suite\n%!" edges_per_s;
  Printf.printf "== model checker: partial-order reduction ==\n%!";
  let pairs =
    List.map
      (fun spec ->
        let ((naive, _) as naive_run) = timed_run ~mode:Mc.Naive spec in
        let ((reduced, _) as reduced_run) = timed_run ~mode:Mc.Reduced spec in
        Printf.printf "  %-28s naive %7d -> reduced %6d states (%.1fx)\n%!"
          naive.Mc.spec_label naive.Mc.stats.Mc.states
          reduced.Mc.stats.Mc.states
          (float_of_int naive.Mc.stats.Mc.states
          /. float_of_int (max 1 reduced.Mc.stats.Mc.states));
        if naive.Mc.clean <> reduced.Mc.clean then begin
          (* The reductions are sound: both modes must agree. *)
          Printf.printf "    FAIL: naive and reduced verdicts disagree\n%!";
          incr failures
        end;
        (naive_run, reduced_run))
      (Mc.naive_comparable ~quick ())
  in
  let tot f = List.fold_left (fun acc (n, r) -> acc + f n r) 0 pairs in
  let naive_states = tot (fun (n, _) _ -> n.Mc.stats.Mc.states) in
  let reduced_states = tot (fun _ (r, _) -> r.Mc.stats.Mc.states) in
  let factor =
    float_of_int naive_states /. float_of_int (max 1 reduced_states)
  in
  Printf.printf "  reduction factor: %d / %d = %.1fx\n%!" naive_states
    reduced_states factor;
  if factor < 5.0 then begin
    Printf.printf "  FAIL: reduction factor below 5x\n%!";
    incr failures
  end;
  let elapsed = Unix.gettimeofday () -. t0 in
  Bench_json.write ~experiment:"mc" ~quick "BENCH_mc.json"
    Melastic.Json.
      [ ("elapsed_s", Float elapsed); ("edges_per_s", Float edges_per_s);
        ("verdicts", List (List.map spec_json verdicts));
        ( "reduction",
          Obj
            [ ("naive_states", Int naive_states); ("reduced_states", Int reduced_states);
              ("factor", Float factor);
              ( "pairs",
                List
                  (List.map
                     (fun (n, r) -> Obj [ ("naive", spec_json n); ("reduced", spec_json r) ])
                     pairs) ) ] );
        ("failures", Int !failures) ];
  Printf.printf "mc: %.1fs, %d failure%s\n%!" elapsed !failures
    (if !failures = 1 then "" else "s");
  !failures
