(* Tests for the workload instruments: trace equivalence, schedule
   capture, tag codecs, ASCII waveforms and VCD output. *)

module S = Hw.Signal
module Mc = Melastic.Mt_channel

let test_tag_codec () =
  for thread = 0 to 7 do
    for seq = 0 to 40 do
      let t = Workload.Trace.encode_tag ~width:32 ~thread ~seq in
      Alcotest.(check (pair int int)) "roundtrip" (thread, seq)
        (Workload.Trace.decode_tag t)
    done
  done;
  Alcotest.(check string) "render" "B3"
    (Workload.Trace.tag_to_string (Workload.Trace.encode_tag ~width:32 ~thread:1 ~seq:3))

let test_trace_equivalence () =
  let v n = Bits.of_int ~width:8 n in
  let mk l = List.map (fun (thread, n) -> { Workload.Trace.thread; value = v n }) l in
  Alcotest.(check bool) "same order" true
    (Workload.Trace.equivalent
       ~reference:(mk [ (0, 1); (0, 2); (1, 9) ])
       ~observed:(mk [ (0, 1); (1, 9); (0, 2) ]));
  Alcotest.(check bool) "missing token" false
    (Workload.Trace.equivalent
       ~reference:(mk [ (0, 1); (0, 2) ])
       ~observed:(mk [ (0, 1) ]));
  Alcotest.(check bool) "reordered within thread" false
    (Workload.Trace.equivalent
       ~reference:(mk [ (0, 1); (0, 2) ])
       ~observed:(mk [ (0, 2); (0, 1) ]));
  Alcotest.(check bool) "wrong value" false
    (Workload.Trace.equivalent
       ~reference:(mk [ (1, 3) ])
       ~observed:(mk [ (1, 4) ]))

let test_render_rows () =
  let rows =
    [ ("alpha", fun c -> if c = 1 then Some "A0" else None);
      ("beta", fun c -> if c = 0 then Some "B0" else None) ]
  in
  let text = Workload.Trace.render_rows rows ~cycles:3 in
  Alcotest.(check bool) "has labels" true
    (String.length text > 0
     && String.split_on_char '\n' text
        |> List.exists (fun l -> String.length l >= 5 && String.sub l 0 5 = "alpha"))

let test_schedule_capture () =
  let b = S.Builder.create () in
  let threads = 2 and width = 32 in
  let src = Mc.source b ~name:"src" ~threads ~width in
  let m = Melastic.Meb.create ~kind:Melastic.Meb.Full b src in
  Mc.sink b ~name:"snk" m.Melastic.Meb.out;
  let sim = Hw.Sim.create (Hw.Circuit.create b) in
  let sched = Workload.Schedule.attach sim ~threads ~probes:[ "src"; "snk" ] in
  let d = Workload.Mt_driver.create sim ~src:"src" ~snk:"snk" ~threads ~width in
  for t = 0 to 1 do
    for i = 0 to 3 do
      Workload.Mt_driver.push d ~thread:t (Workload.Trace.encode_tag ~width ~thread:t ~seq:i)
    done
  done;
  ignore (Workload.Mt_driver.run_until_drained d ~limit:100);
  let src_tokens = Workload.Schedule.tokens sched ~probe:"src" in
  let snk_tokens = Workload.Schedule.tokens sched ~probe:"snk" in
  Alcotest.(check int) "8 injected" 8 (List.length src_tokens);
  Alcotest.(check int) "8 delivered" 8 (List.length snk_tokens);
  (* Each sink token appears at a strictly later cycle than its source
     injection (1-cycle MEB latency at least). *)
  List.iter2
    (fun (c_in, cell_in) (c_out, cell_out) ->
      ignore cell_in;
      ignore cell_out;
      Alcotest.(check bool) "latency >= 1" true (c_out > c_in))
    (List.filteri (fun i _ -> i < 4) src_tokens)
    (List.filteri (fun i _ -> i < 4) snk_tokens);
  let rendered = Workload.Schedule.render sched ~from_cycle:0 ~to_cycle:15 in
  Alcotest.(check bool) "render mentions A0" true
    (let contains s sub =
       let n = String.length sub in
       let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
       go 0
     in
     contains rendered "A0")

let test_wave_render () =
  let b = S.Builder.create () in
  let x = S.input b "x" 1 in
  let v = S.input b "v" 8 in
  let q = S.reg b v in
  ignore (S.output b "q" q);
  ignore (S.output b "xo" x);
  let circuit = Hw.Circuit.create b in
  let sim = Hw.Sim.create circuit in
  let wave =
    Hw.Wave.attach sim
      ~signals:[ ("x", Hw.Circuit.find_named circuit "xo"); ("q", q) ]
  in
  Hw.Sim.poke_int sim "x" 1;
  Hw.Sim.poke_int sim "v" 0xab;
  Hw.Sim.cycle sim;
  Hw.Sim.poke_int sim "x" 0;
  Hw.Sim.cycle sim;
  Hw.Sim.cycle sim;
  let text = Hw.Wave.render wave in
  let contains s sub =
    let n = String.length sub in
    let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "high then low" true (contains text "-");
  Alcotest.(check bool) "hex value" true (contains text "ab");
  Alcotest.(check bool) "continuation dot" true (contains text ".")

let test_vcd_output () =
  let path = Filename.temp_file "elastic_mt_test" ".vcd" in
  let b = S.Builder.create () in
  let count = S.reg_fb b ~width:4 (fun q -> S.add b q (S.of_int b ~width:4 1)) in
  ignore (S.output b "count" count);
  let circuit = Hw.Circuit.create b in
  let sim = Hw.Sim.create circuit in
  let vcd =
    Hw.Vcd.attach sim ~path ~signals:[ ("count", Hw.Circuit.find_named circuit "count") ]
  in
  Hw.Sim.cycles sim 5;
  Hw.Vcd.close vcd;
  let ic = open_in path in
  let len = in_channel_length ic in
  let text = really_input_string ic len in
  close_in ic;
  Sys.remove path;
  let contains sub =
    let n = String.length sub in
    let rec go i = i + n <= String.length text && (String.sub text i n = sub || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "header" true (contains "$enddefinitions");
  Alcotest.(check bool) "var decl" true (contains "$var wire 4");
  Alcotest.(check bool) "value change" true (contains "b0011");
  Alcotest.(check bool) "timestamps" true (contains "#3")

let test_st_driver_logs () =
  let b = S.Builder.create () in
  let src = Elastic.Channel.source b ~name:"src" ~width:8 in
  let eb = Elastic.Eb.create b src in
  Elastic.Channel.sink b ~name:"snk" eb.Elastic.Eb.out;
  let sim = Hw.Sim.create (Hw.Circuit.create b) in
  let d = Workload.St_driver.create sim ~src:"src" ~snk:"snk" ~width:8 in
  Workload.St_driver.push_int d 9;
  Workload.St_driver.run d 10;
  (match Workload.St_driver.inputs d, Workload.St_driver.outputs d with
   | [ i ], [ o ] ->
     Alcotest.(check bool) "input before output" true
       (i.Workload.St_driver.cycle < o.Workload.St_driver.cycle);
     Alcotest.(check int) "value" 9 (Bits.to_int o.Workload.St_driver.data)
   | _ -> Alcotest.fail "expected exactly one transfer each side")

let test_mt_driver_throughput_window () =
  let b = S.Builder.create () in
  let src = Mc.source b ~name:"src" ~threads:1 ~width:8 in
  let m = Melastic.Meb.create ~kind:Melastic.Meb.Reduced b src in
  Mc.sink b ~name:"snk" m.Melastic.Meb.out;
  let sim = Hw.Sim.create (Hw.Circuit.create b) in
  let d = Workload.Mt_driver.create sim ~src:"src" ~snk:"snk" ~threads:1 ~width:8 in
  for i = 0 to 49 do Workload.Mt_driver.push_int d ~thread:0 i done;
  Workload.Mt_driver.run d 60;
  let t = Workload.Mt_driver.throughput d ~thread:0 ~from_cycle:5 ~to_cycle:44 in
  Alcotest.(check (float 0.01)) "full throughput" 1.0 t

(* A 2-deep MEB pipeline driven by Mt_driver, for the drain edge
   cases. *)
let make_meb_driver ~threads ~width =
  let b = S.Builder.create () in
  let src = Mc.source b ~name:"src" ~threads ~width in
  let m = Melastic.Meb.create ~kind:Melastic.Meb.Reduced b src in
  Mc.sink b ~name:"snk" m.Melastic.Meb.out;
  let sim = Hw.Sim.create (Hw.Circuit.create b) in
  Workload.Mt_driver.create sim ~src:"src" ~snk:"snk" ~threads ~width

let test_drain_empty () =
  let d = make_meb_driver ~threads:2 ~width:8 in
  (* Nothing pushed: drained immediately, even with a zero budget. *)
  Alcotest.(check bool) "empty drains at limit 0" true
    (Workload.Mt_driver.run_until_drained d ~limit:0);
  Alcotest.(check int) "no cycles consumed" 0
    (Hw.Sim.cycle_no d.Workload.Mt_driver.sim);
  Alcotest.(check bool) "still drained on re-entry" true
    (Workload.Mt_driver.run_until_drained d ~limit:10)

let test_drain_limit_reached () =
  let d = make_meb_driver ~threads:2 ~width:8 in
  for i = 0 to 5 do Workload.Mt_driver.push_int d ~thread:0 i done;
  (* One MEB stage, 6 items: cannot possibly drain in 2 cycles. *)
  Alcotest.(check bool) "limit reached" false
    (Workload.Mt_driver.run_until_drained d ~limit:2);
  Alcotest.(check bool) "work still outstanding" true
    (Workload.Mt_driver.pending_count d ~thread:0 > 0
     || List.length (Workload.Mt_driver.outputs d) < 6);
  (* A second call with budget finishes the job and reports so. *)
  Alcotest.(check bool) "drains with budget" true
    (Workload.Mt_driver.run_until_drained d ~limit:100);
  Alcotest.(check int) "all delivered" 6
    (List.length (Workload.Mt_driver.output_sequence d ~thread:0))

let test_drain_mid_run_push () =
  let d = make_meb_driver ~threads:2 ~width:8 in
  for i = 0 to 4 do Workload.Mt_driver.push_int d ~thread:0 i done;
  (* A sink-ready callback pushes one extra item a few cycles in; the
     drain loop must wait for it too (the pushed count is re-derived
     every iteration, not snapshotted at entry). *)
  let pushed_more = ref false in
  Workload.Mt_driver.set_sink_ready d (fun c _ ->
      if c = 2 && not !pushed_more then begin
        pushed_more := true;
        Workload.Mt_driver.push_int d ~thread:1 7
      end;
      true);
  Alcotest.(check bool) "drains including mid-run push" true
    (Workload.Mt_driver.run_until_drained d ~limit:100);
  Alcotest.(check bool) "callback fired" true !pushed_more;
  Alcotest.(check int) "late item delivered" 1
    (List.length (Workload.Mt_driver.output_sequence d ~thread:1))

let test_stats () =
  let b = S.Builder.create () in
  let count = S.reg_fb b ~width:4 (fun q -> S.add b q (S.of_int b ~width:4 1)) in
  ignore (S.output b "count" count);
  ignore (S.output b "busy" (S.lnot b (S.eq_const b count 0)));
  let sim = Hw.Sim.create (Hw.Circuit.create b) in
  let stats = Workload.Stats.attach sim ~signals:[ "count"; "busy" ] in
  Hw.Sim.cycles sim 16;
  (* count visits 0..15 once each *)
  Alcotest.(check (float 0.01)) "mean" 7.5 (Workload.Stats.mean stats "count");
  Alcotest.(check int) "max" 15 (Workload.Stats.maximum stats "count");
  Alcotest.(check int) "histogram size" 16
    (List.length (Workload.Stats.histogram stats "count"));
  List.iter
    (fun (_, c) -> Alcotest.(check int) "each value once" 1 c)
    (Workload.Stats.histogram stats "count");
  (* busy is 0 only in the first sampled cycle *)
  Alcotest.(check (float 0.01)) "utilization" (15.0 /. 16.0)
    (Workload.Stats.utilization stats "busy");
  Alcotest.(check bool) "report renders" true
    (String.length (Workload.Stats.report stats) > 0)

(* ---- Histogram ---- *)

let test_histogram_exact_small () =
  (* Values up to 63 land in unit buckets: percentiles are exact. *)
  let h = Melastic.Histogram.create () in
  for v = 0 to 63 do
    Melastic.Histogram.add h v
  done;
  Alcotest.(check int) "count" 64 (Melastic.Histogram.count h);
  Alcotest.(check int) "max" 63 (Melastic.Histogram.max_value h);
  Alcotest.(check int) "p100 exact" 63 (Melastic.Histogram.percentile h 1.0);
  Alcotest.(check int) "p50 exact" 31 (Melastic.Histogram.percentile h 0.5);
  Alcotest.(check int) "min rank" 0 (Melastic.Histogram.percentile h 0.0);
  Alcotest.(check (float 0.001)) "mean" 31.5 (Melastic.Histogram.mean h)

let test_histogram_bounded_error () =
  (* Large values bucket at 32 sub-buckets per octave: any quantile
     lands within ~3.2% above the true value, never below it, and the
     top quantile is clamped to the exact observed max. *)
  let h = Melastic.Histogram.create () in
  List.iter
    (fun v ->
      for _ = 1 to 100 do
        Melastic.Histogram.add h v
      done)
    [ 1_000; 10_000; 1_000_000 ];
  List.iter
    (fun (p, true_v) ->
      let q = Melastic.Histogram.percentile h p in
      Alcotest.(check bool)
        (Printf.sprintf "p%.2f >= true" p)
        true (q >= true_v);
      Alcotest.(check bool)
        (Printf.sprintf "p%.2f within 3.2%%" p)
        true
        (float_of_int q <= 1.032 *. float_of_int true_v))
    [ (0.2, 1_000); (0.5, 10_000) ];
  Alcotest.(check int) "p100 clamps to max" 1_000_000
    (Melastic.Histogram.percentile h 1.0);
  Alcotest.(check bool) "negative adds clamp to 0" true
    (let h = Melastic.Histogram.create () in
     Melastic.Histogram.add h (-5);
     Melastic.Histogram.percentile h 1.0 = 0)

let test_histogram_merge () =
  let a = Melastic.Histogram.create () in
  let b = Melastic.Histogram.create () in
  List.iter (Melastic.Histogram.add a) [ 1; 2; 3 ];
  List.iter (Melastic.Histogram.add b) [ 100; 200 ];
  Melastic.Histogram.merge_into ~into:a b;
  Alcotest.(check int) "merged count" 5 (Melastic.Histogram.count a);
  Alcotest.(check int) "merged max" 200 (Melastic.Histogram.max_value a);
  Alcotest.(check int) "b untouched" 2 (Melastic.Histogram.count b);
  Alcotest.(check int) "merged p20" 1 (Melastic.Histogram.percentile a 0.2)

let suite =
  ( "workload",
    [ Alcotest.test_case "tag codec" `Quick test_tag_codec;
      Alcotest.test_case "histogram exact small" `Quick
        test_histogram_exact_small;
      Alcotest.test_case "histogram bounded error" `Quick
        test_histogram_bounded_error;
      Alcotest.test_case "histogram merge" `Quick test_histogram_merge;
      Alcotest.test_case "trace equivalence" `Quick test_trace_equivalence;
      Alcotest.test_case "render rows" `Quick test_render_rows;
      Alcotest.test_case "schedule capture" `Quick test_schedule_capture;
      Alcotest.test_case "wave render" `Quick test_wave_render;
      Alcotest.test_case "vcd output" `Quick test_vcd_output;
      Alcotest.test_case "st_driver logs" `Quick test_st_driver_logs;
      Alcotest.test_case "mt_driver throughput" `Quick test_mt_driver_throughput_window;
      Alcotest.test_case "mt_driver drain empty" `Quick test_drain_empty;
      Alcotest.test_case "mt_driver drain limit" `Quick test_drain_limit_reached;
      Alcotest.test_case "mt_driver drain mid-run push" `Quick test_drain_mid_run_push;
      Alcotest.test_case "stats sampling" `Quick test_stats ] )
