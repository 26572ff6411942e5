(* The telemetry spine: Melastic.Histogram edge cases, channel
   profiles (hardware + host halves, JSON round trip), placement
   lookup and the Synth.Retime sizing pass, including the NoC
   per-link slot overrides it feeds. *)

module H = Melastic.Histogram
module P = Melastic.Placement
module Profile = Melastic.Profile
module S = Hw.Signal
module Mc = Melastic.Mt_channel

(* ---- Histogram edges ---- *)

let test_hist_empty () =
  let h = H.create () in
  Alcotest.(check bool) "empty" true (H.is_empty h);
  Alcotest.(check int) "count" 0 (H.count h);
  Alcotest.(check int) "sum" 0 (H.sum h);
  Alcotest.(check int) "nonzero" 0 (H.nonzero h);
  Alcotest.(check (float 0.0)) "mean" 0.0 (H.mean h);
  List.iter
    (fun p ->
      Alcotest.(check int)
        (Printf.sprintf "empty p%.2f" p)
        0 (H.percentile h p))
    [ 0.0; 0.5; 0.99; 1.0 ];
  Alcotest.(check (list (pair int int))) "no buckets" [] (H.buckets h)

let test_hist_single_sample () =
  let h = H.create () in
  H.add h 12_345;
  Alcotest.(check int) "count" 1 (H.count h);
  Alcotest.(check int) "nonzero" 1 (H.nonzero h);
  Alcotest.(check (float 0.001)) "mean" 12_345.0 (H.mean h);
  (* Every percentile of a single sample is that sample, exactly:
     the bucket edge overshoots but the observed max clamps it. *)
  List.iter
    (fun p ->
      Alcotest.(check int)
        (Printf.sprintf "p%.2f" p)
        12_345 (H.percentile h p))
    [ 0.0; 0.5; 1.0 ]

let test_hist_merge_disjoint_octaves () =
  (* a lives in octave [64,127], b four octaves up in [4096,8191];
     the merge must leave both populations queryable. *)
  let a = H.create () and b = H.create () in
  for _ = 1 to 100 do
    H.add a 70
  done;
  for _ = 1 to 100 do
    H.add b 5_000
  done;
  H.merge_into ~into:a b;
  Alcotest.(check int) "merged count" 200 (H.count a);
  Alcotest.(check int) "merged max exact" 5_000 (H.max_value a);
  Alcotest.(check int) "merged sum" ((100 * 70) + (100 * 5_000)) (H.sum a);
  let p25 = H.percentile a 0.25 and p75 = H.percentile a 0.75 in
  Alcotest.(check bool) "p25 >= 70" true (p25 >= 70);
  Alcotest.(check bool) "p25 within 3.2%" true (float_of_int p25 <= 1.032 *. 70.0);
  Alcotest.(check bool) "p75 >= 5000" true (p75 >= 5_000);
  Alcotest.(check bool) "p75 within 3.2%" true
    (float_of_int p75 <= 1.032 *. 5_000.0);
  Alcotest.(check int) "b untouched" 100 (H.count b)

let test_hist_huge_values_bound () =
  (* Far above the exact range (top octaves), the <= 3.2% relative
     overshoot bound still holds and the max stays exact. *)
  let v1 = (1 lsl 40) + 12_345 and v2 = (1 lsl 50) + 999 in
  let h = H.create () in
  for _ = 1 to 100 do
    H.add h v1
  done;
  for _ = 1 to 100 do
    H.add h v2
  done;
  let p25 = H.percentile h 0.25 in
  Alcotest.(check bool) "p25 >= true" true (p25 >= v1);
  Alcotest.(check bool) "p25 within 3.2%" true
    (float_of_int p25 <= 1.032 *. float_of_int v1);
  Alcotest.(check int) "p100 exact max" v2 (H.percentile h 1.0);
  Alcotest.(check int) "max exact" v2 (H.max_value h)

let test_hist_bucket_roundtrip () =
  let h = H.create () in
  List.iter (H.add h) [ 0; 0; 3; 63; 64; 1_000; 123_456 ];
  let h2 = H.of_buckets ~sum:(H.sum h) ~max_value:(H.max_value h) (H.buckets h) in
  Alcotest.(check int) "count" (H.count h) (H.count h2);
  Alcotest.(check int) "sum" (H.sum h) (H.sum h2);
  Alcotest.(check int) "max" (H.max_value h) (H.max_value h2);
  Alcotest.(check int) "nonzero" (H.nonzero h) (H.nonzero h2);
  Alcotest.(check (float 0.0001)) "mean" (H.mean h) (H.mean h2);
  List.iter
    (fun p ->
      Alcotest.(check int)
        (Printf.sprintf "p%.2f" p)
        (H.percentile h p) (H.percentile h2 p))
    [ 0.0; 0.25; 0.5; 0.9; 1.0 ];
  Alcotest.(check (list (pair int int))) "buckets" (H.buckets h) (H.buckets h2)

(* ---- Profile: hardware channels ---- *)

let threads = 3
let tokens_per_thread = 5

(* src --Meb(m)--> snk, with m's occupancy exported the way
   Component.buffer ~export_occupancy does it. *)
let profiled_run () =
  let b = S.Builder.create () in
  let src = Mc.source b ~name:"src" ~threads ~width:16 in
  let m = Melastic.Meb.create ~name:"m" ~kind:Melastic.Meb.Reduced b src in
  ignore (S.output b (Melastic.Names.occupancy "m") m.Melastic.Meb.occupancy);
  Mc.sink b ~name:"snk" m.Melastic.Meb.out;
  let sim = Hw.Sim.create (Hw.Circuit.create b) in
  let p = Profile.attach (Hw.Sampler.attach sim) in
  Profile.watch_channel p ~name:"src" ~threads;
  Profile.watch_channel p ~name:"snk" ~threads;
  Profile.watch_channel ~occupancy:true p ~name:"m" ~threads;
  let d = Workload.Mt_driver.create sim ~src:"src" ~snk:"snk" ~threads ~width:16 in
  for t = 0 to threads - 1 do
    for i = 1 to tokens_per_thread do
      Workload.Mt_driver.push_int d ~thread:t ((100 * t) + i)
    done
  done;
  Alcotest.(check bool) "drained" true
    (Workload.Mt_driver.run_until_drained d ~limit:500);
  p

let check_channel_stats p =
  Alcotest.(check (list string)) "channels in watch order"
    [ "src"; "snk"; "m" ] (Profile.channel_names p);
  let cs name =
    match Profile.channel p name with
    | Some cs -> cs
    | None -> Alcotest.failf "channel %s missing" name
  in
  let src = cs "src" and snk = cs "snk" and m = cs "m" in
  let total = threads * tokens_per_thread in
  Alcotest.(check int) "src fires" total src.Profile.cs_fires;
  Alcotest.(check int) "snk fires" total snk.Profile.cs_fires;
  Array.iter
    (Alcotest.(check int) "per-thread fires" tokens_per_thread)
    src.Profile.cs_fires_per_thread;
  Alcotest.(check bool) "cycles counted" true (Profile.cycles p > 0);
  Alcotest.(check int) "cycle accounting" (Profile.cycles p)
    (src.Profile.cs_active_cycles + src.Profile.cs_stall_cycles
    + src.Profile.cs_idle_cycles);
  (match m.Profile.cs_occupancy with
   | None -> Alcotest.fail "occupancy histogram missing"
   | Some h -> Alcotest.(check bool) "occupancy sampled" true (H.count h > 0));
  Alcotest.(check bool) "peak occupancy positive" true
    (Profile.peak_occupancy m >= 1);
  Alcotest.(check bool) "peak within capacity" true
    (Profile.peak_occupancy m
     <= Melastic.Meb.capacity ~kind:Melastic.Meb.Reduced ~threads)

let test_profile_channels () = check_channel_stats (profiled_run ())

let of_json_ok s =
  match Profile.of_json s with Ok p -> p | Error e -> Alcotest.fail e

let test_profile_json_roundtrip () =
  let p = profiled_run () in
  Profile.observe p "queue" 2;
  Profile.observe p "queue" 7;
  let q = of_json_ok (Profile.to_json p) in
  Alcotest.(check int) "cycles" (Profile.cycles p) (Profile.cycles q);
  Alcotest.(check (list string)) "channel names" (Profile.channel_names p)
    (Profile.channel_names q);
  List.iter
    (fun name ->
      let a = Option.get (Profile.channel p name)
      and b = Option.get (Profile.channel q name) in
      Alcotest.(check int) (name ^ " fires") a.Profile.cs_fires b.Profile.cs_fires;
      Alcotest.(check int) (name ^ " stalls") a.Profile.cs_stall_cycles
        b.Profile.cs_stall_cycles;
      Alcotest.(check int)
        (name ^ " backpressure")
        a.Profile.cs_backpressure_cycles b.Profile.cs_backpressure_cycles;
      Alcotest.(check int) (name ^ " peak")
        (Profile.peak_occupancy a) (Profile.peak_occupancy b))
    (Profile.channel_names p);
  let g = Option.get (Profile.gauge q "queue") in
  Alcotest.(check int) "gauge count" 2 (H.count g);
  Alcotest.(check int) "gauge max" 7 (H.max_value g);
  (* A loaded profile is host-only: watching must raise. *)
  Alcotest.check_raises "host-only"
    (Invalid_argument "Profile: host-only profile has no sampler")
    (fun () -> Profile.watch_channel q ~name:"x" ~threads:1)

let test_profile_gauges_merge () =
  let a = Profile.create () and b = Profile.create () in
  List.iter (Profile.observe a "qd") [ 1; 2 ];
  List.iter (Profile.observe b "qd") [ 10 ];
  List.iter (Profile.observe b "busy") [ 4 ];
  Profile.merge_gauges ~into:a b;
  Alcotest.(check int) "merged count" 3 (H.count (Option.get (Profile.gauge a "qd")));
  Alcotest.(check int) "new gauge carried" 1
    (H.count (Option.get (Profile.gauge a "busy")));
  Alcotest.(check (list string)) "gauge order" [ "qd"; "busy" ]
    (Profile.gauge_names a)

(* ---- JSON: the printer, the strict reader and the schema ---- *)

module Json = Melastic.Json

let contains s sub =
  let n = String.length sub in
  let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
  go 0

(* A one-channel profile text with [name], [fires] and [occupancy]
   spliced in verbatim. *)
let one_channel ?(name = {|"c"|}) ?(fires = "1") ?(occupancy = "null") () =
  Printf.sprintf
    {|{"cycles":4,"channels":[{"name":%s,"threads":1,"fires":%s,"fires_per_thread":[1],"active_cycles":1,"stall_cycles":0,"backpressure_cycles":0,"idle_cycles":3,"occupancy":%s}],"gauges":[]}|}
    name fires occupancy

let rejects label text ~naming =
  match Profile.of_json text with
  | Ok _ -> Alcotest.failf "%s: accepted" label
  | Error e ->
    if not (contains e naming) then
      Alcotest.failf "%s: error %S does not name %S" label e naming

let test_json_strict () =
  (match Profile.of_json (one_channel ()) with
   | Ok p -> Alcotest.(check (list string)) "baseline loads" [ "c" ] (Profile.channel_names p)
   | Error e -> Alcotest.fail e);
  rejects "txyz is not true" (one_channel ~occupancy:"txyz" ()) ~naming:"offset";
  rejects "nope is not null" (one_channel ~occupancy:"nope" ()) ~naming:"offset";
  rejects "trailing text" (one_channel () ^ " trailing") ~naming:"trailing";
  rejects "unterminated" {|{"cycles":4,"channels":[|} ~naming:"offset";
  rejects "raw control character" (one_channel ~name:"\"a\nb\"" ()) ~naming:"control";
  rejects "Latin-1 byte" (one_channel ~name:"\"caf\xe9\"" ()) ~naming:"UTF-8";
  rejects "deep nesting" (String.make 100_000 '[') ~naming:"too deep";
  rejects "fraction in an integer field" (one_channel ~fires:"1.9" ())
    ~naming:"$.channels[0].fires";
  rejects "string counter" (one_channel ~fires:{|"1"|} ()) ~naming:"$.channels[0].fires";
  rejects "name not a string" (one_channel ~name:"7" ()) ~naming:"$.channels[0].name";
  rejects "occupancy not a histogram" (one_channel ~occupancy:"[1,2]" ())
    ~naming:"$.channels[0].occupancy";
  rejects "histogram without sum"
    (one_channel ~occupancy:{|{"count":1,"max":1,"buckets":[[1,1]]}|} ())
    ~naming:"$.channels[0].occupancy.sum";
  rejects "missing cycles" {|{"channels":[],"gauges":[]}|} ~naming:"$.cycles"

let test_json_escapes () =
  let name escaped =
    match Profile.of_json (one_channel ~name:escaped ()) with
    | Ok p -> List.hd (Profile.channel_names p)
    | Error e -> Alcotest.fail e
  in
  Alcotest.(check string) "\\r" "a\rb" (name {|"a\rb"|});
  Alcotest.(check string) "\\b \\f \\/" "\b\012/" (name {|"\b\f\/"|});
  Alcotest.(check string) "\\u00e9 decodes to UTF-8" "caf\xc3\xa9" (name {|"caf\u00e9"|});
  Alcotest.(check string) "surrogate pair" "\xf0\x9f\x98\x80" (name {|"\ud83d\ude00"|});
  Alcotest.(check string) "raw UTF-8 kept" "caf\xc3\xa9" (name "\"caf\xc3\xa9\"");
  Alcotest.(check string) "printer escapes"
    "\"caf\xc3\xa9 \\u001b \\\"q\\\" \\\\ \\r\"\n"
    (Json.to_string (Json.String "caf\xc3\xa9 \027 \"q\" \\ \r"));
  let p = Profile.create () in
  let odd = "caf\xc3\xa9 \027 \"q\" \\ \t" in
  Profile.observe p odd 3;
  match Profile.of_json (Profile.to_json p) with
  | Ok q -> Alcotest.(check (list string)) "odd gauge name round trip" [ odd ] (Profile.gauge_names q)
  | Error e -> Alcotest.fail e

let test_json_layout () =
  Alcotest.(check string) "two broken levels, then one line"
    "{\n  \"a\": [\n    {\"b\":[1,2.5]},\n    null\n  ],\n  \"e\": [\n  ]\n}\n"
    (Json.to_string
       (Json.Obj
          [ ("a", Json.List [ Json.Obj [ ("b", Json.List [ Json.Int 1; Json.Float 2.5 ]) ]; Json.Null ]);
            ("e", Json.List []) ]));
  Alcotest.(check string) "floats: shortest, always a float, non-finite is null"
    "{\n  \"x\": [\n    [1.0,0.1,-0.0,1e+300,123456.789,null,null]\n  ]\n}\n"
    (Json.to_string
       (Json.Obj
          [ ( "x",
              Json.List
                [ Json.List
                    (List.map
                       (fun f -> Json.Float f)
                       [ 1.0; 0.1; -0.0; 1e300; 123456.789; nan; infinity ]) ] ) ]))

(* Finite values with strings over every ASCII byte and valid
   multi-byte UTF-8; object keys are kept unique (the reader rejects
   duplicates). *)
let gen_json_string =
  let open QCheck.Gen in
  let ascii = map (fun c -> String.make 1 (Char.chr c)) (int_range 0 127) in
  let utf8 =
    map
      (fun cp ->
        let b = Buffer.create 4 in
        Buffer.add_utf_8_uchar b (Uchar.of_int cp);
        Buffer.contents b)
      (oneof
         [ int_range 0x80 0x7ff; int_range 0x800 0xd7ff; int_range 0xe000 0xffff;
           int_range 0x10000 0x10ffff ])
  in
  map (String.concat "") (list_size (int_range 0 8) (frequency [ (3, ascii); (1, utf8) ]))

let gen_json =
  let open QCheck.Gen in
  let unique kvs =
    List.rev
      (List.fold_left
         (fun acc (k, v) -> if List.mem_assoc k acc then acc else (k, v) :: acc)
         [] kvs)
  in
  let leaf =
    oneof
      [ return Json.Null;
        map (fun b -> Json.Bool b) bool;
        map (fun i -> Json.Int i) (oneof [ int; small_signed_int; oneofl [ min_int; max_int ] ]);
        map (fun f -> Json.Float (if Float.is_finite f then f else 0.5)) float;
        map (fun s -> Json.String s) gen_json_string ]
  in
  sized
  @@ fix (fun self n ->
         if n <= 0 then leaf
         else
           let items g = list_size (int_range 0 4) g in
           frequency
             [ (2, leaf);
               (1, map (fun l -> Json.List l) (items (self (n / 4))));
               ( 1,
                 map
                   (fun kvs -> Json.Obj (unique kvs))
                   (items (pair gen_json_string (self (n / 4)))) ) ])

let prop_json_roundtrip =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:500 ~name:"json value roundtrip"
       (QCheck.make ~print:Json.to_string gen_json)
       (fun v -> Json.of_string (Json.to_string v) = Ok v))

(* A real profile text (hardware channels with an occupancy histogram,
   host gauges, a name with escapes and UTF-8) for the reader fuzz. *)
let sample_json =
  lazy
    (let p = profiled_run () in
     List.iter (Profile.observe p "queue") [ 2; 70; 700 ];
     Profile.observe p "caf\xc3\xa9 \027 \"q\"" 1;
     Profile.to_json p)

let test_json_truncations () =
  let s = Lazy.force sample_json in
  let whole = String.length (String.trim s) in
  for len = 0 to String.length s - 1 do
    match Profile.of_json (String.sub s 0 len) with
    | Ok _ when len >= whole -> ()
    | Ok _ -> Alcotest.failf "prefix of %d bytes loaded" len
    | Error _ -> ()
  done

let prop_json_mutations =
  QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 0x15 |])
    (QCheck.Test.make ~count:2000 ~name:"json mutations never raise"
       QCheck.(pair (int_bound 1_000_000) (int_range 0 255))
       (fun (pos, byte) ->
         let b = Bytes.of_string (Lazy.force sample_json) in
         Bytes.set b (pos mod Bytes.length b) (Char.chr byte);
         match Profile.of_json (Bytes.to_string b) with Ok _ | Error _ -> true))

(* ---- Placement ---- *)

let red1 = { P.kind = Melastic.Meb.Reduced; stages = 1 }
let full2 = { P.kind = Melastic.Meb.Full; stages = 2 }

let test_placement_lookup () =
  let p = P.set (P.uniform Melastic.Meb.Reduced) "special" full2 in
  Alcotest.(check bool) "override wins" true
    (P.find p ~name:"special" ~default:red1 = full2);
  Alcotest.(check bool) "placement default" true
    (P.find p ~name:"other" ~default:full2 = red1);
  Alcotest.(check bool) "circuit default" true
    (P.find P.empty ~name:"other" ~default:full2 = full2);
  Alcotest.(check (list string)) "to_list overrides only" [ "special" ]
    (List.map fst (P.to_list p));
  Alcotest.check_raises "bad stage bounds"
    (Invalid_argument "Placement.site: bad stage bounds") (fun () ->
      ignore (P.site ~min_stages:3 ~max_stages:1 "x"))

(* ---- Retime ---- *)

(* Fabricate a loaded profile via the JSON schema: channel [s1] with
   peak occupancy [peak]; [probe_bp] with heavy backpressure;
   [probe_idle] that never fired. *)
let fake_profile ~cycles ~peak =
  of_json_ok
    (Printf.sprintf
       {|{"cycles":%d,"channels":[
          {"name":"s1","threads":4,"fires":40,"fires_per_thread":[10,10,10,10],
           "active_cycles":40,"stall_cycles":0,"backpressure_cycles":0,
           "idle_cycles":%d,
           "occupancy":{"count":%d,"sum":%d,"max":%d,"buckets":[[%d,%d]]}},
          {"name":"probe_bp","threads":4,"fires":40,"fires_per_thread":[10,10,10,10],
           "active_cycles":40,"stall_cycles":10,"backpressure_cycles":%d,
           "idle_cycles":0,"occupancy":null},
          {"name":"probe_idle","threads":4,"fires":0,"fires_per_thread":[0,0,0,0],
           "active_cycles":0,"stall_cycles":0,"backpressure_cycles":0,
           "idle_cycles":%d,"occupancy":null}],
          "gauges":[]}|}
       cycles (cycles - 40) cycles (cycles * peak) peak peak cycles
       (cycles / 2) cycles)

let test_retime_decide () =
  let profile = fake_profile ~cycles:100 ~peak:3 in
  let placement, ds =
    Synth.Retime.decide ~profile ~threads:4 [ P.site "s1"; P.site "unseen" ]
  in
  (match ds with
   | [ d1; d2 ] ->
     (* peak 3 at 4 threads: reduced/1 (capacity 5) is the cheapest
        feasible config. *)
     Alcotest.(check int) "peak read from profile" 3 d1.Synth.Retime.d_peak;
     Alcotest.(check bool) "profiled" true d1.Synth.Retime.d_profiled;
     Alcotest.(check string) "cheapest feasible" "reduced/1"
       (P.cfg_to_string d1.Synth.Retime.d_cfg);
     Alcotest.(check int) "capacity" 5 d1.Synth.Retime.d_capacity;
     (* An unprofiled site keeps the largest legal config. *)
     Alcotest.(check bool) "unprofiled" false d2.Synth.Retime.d_profiled;
     Alcotest.(check string) "largest kept" "full/4"
       (P.cfg_to_string d2.Synth.Retime.d_cfg)
   | _ -> Alcotest.fail "expected two decisions");
  Alcotest.(check bool) "placement carries the decision" true
    (P.find placement ~name:"s1" ~default:full2 = red1)

let test_retime_decide_deep () =
  (* peak 9 at 4 threads: reduced/1 = 5 and full/1 = 8 are infeasible,
     reduced/2 = 10 is the cheapest cover; headroom pushes further. *)
  let profile = fake_profile ~cycles:100 ~peak:9 in
  let _, ds = Synth.Retime.decide ~profile ~threads:4 [ P.site "s1" ] in
  Alcotest.(check string) "two reduced stages" "reduced/2"
    (P.cfg_to_string (List.hd ds).Synth.Retime.d_cfg);
  let _, ds =
    Synth.Retime.decide ~headroom:2 ~profile ~threads:4 [ P.site "s1" ]
  in
  (* need 11: reduced/2 = 10 no longer covers; reduced/3 = 15 is next
     by capacity. *)
  Alcotest.(check string) "headroom applied" "reduced/3"
    (P.cfg_to_string (List.hd ds).Synth.Retime.d_cfg);
  (* Impossible demand falls back to the largest legal config. *)
  let profile = fake_profile ~cycles:100 ~peak:1_000 in
  let _, ds =
    Synth.Retime.decide ~profile ~threads:4 [ P.site ~max_stages:2 "s1" ]
  in
  Alcotest.(check string) "fallback to largest" "full/2"
    (P.cfg_to_string (List.hd ds).Synth.Retime.d_cfg)

let test_retime_link_slots () =
  let profile = fake_profile ~cycles:100 ~peak:3 in
  Alcotest.(check (list (pair string int)))
    "per-link sizing"
    [ ("l_bp", 3); ("l_idle", 1); ("l_unknown", 2) ]
    (Synth.Retime.link_slots ~default:2 ~profile
       [ ("l_bp", "probe_bp"); ("l_idle", "probe_idle");
         ("l_unknown", "probe_missing") ])

(* ---- NoC link overrides ---- *)

let test_noc_link_overrides () =
  let topology = Noc.Star { leaves = 3 } in
  let plan = Noc.plan topology in
  let links = Noc.link_names plan in
  Alcotest.(check bool) "plan has links" true (links <> []);
  (* Unknown link names and non-positive slot counts are rejected at
     build time. *)
  Alcotest.check_raises "unknown link"
    (Invalid_argument "Noc: unknown link \"nope\" in link_overrides")
    (fun () ->
      ignore
        (Noc.circuit ~link_overrides:[ ("nope", 2) ] ~payload_width:8 plan));
  Alcotest.check_raises "bad slot count"
    (Invalid_argument
       (Printf.sprintf "Noc: link %S needs >= 1 slot" (List.hd links)))
    (fun () ->
      ignore
        (Noc.circuit ~link_overrides:[ (List.hd links, 0) ] ~payload_width:8
           plan));
  (* A monitored driver with a deepened link still conserves traffic
     (its per-link capacity bound follows the override). *)
  let t =
    Noc.Driver.create ~monitor:true ~link_overrides:[ (List.hd links, 3) ]
      topology
  in
  let n = Noc.Driver.terminals t in
  for src = 0 to n - 1 do
    for dst = 0 to n - 1 do
      if src <> dst then Noc.Driver.inject t ~src ~dst ((src * 10) + dst)
    done
  done;
  let ejected = Noc.Driver.drain t in
  Noc.Driver.finish t;
  Alcotest.(check int) "all tokens delivered" (n * (n - 1))
    (List.length ejected);
  Alcotest.(check int) "no violations" 0 (Noc.Driver.violations t);
  match Noc.Driver.profile t with
  | None -> Alcotest.fail "monitored driver must expose a profile"
  | Some p ->
    Alcotest.(check bool) "per-link channels profiled" true
      (List.length (Profile.channel_names p) > 0)

let suite =
  ( "profile",
    [ Alcotest.test_case "histogram empty" `Quick test_hist_empty;
      Alcotest.test_case "histogram single sample" `Quick
        test_hist_single_sample;
      Alcotest.test_case "histogram merge disjoint octaves" `Quick
        test_hist_merge_disjoint_octaves;
      Alcotest.test_case "histogram huge values bound" `Quick
        test_hist_huge_values_bound;
      Alcotest.test_case "histogram bucket roundtrip" `Quick
        test_hist_bucket_roundtrip;
      Alcotest.test_case "channel statistics" `Quick test_profile_channels;
      Alcotest.test_case "json roundtrip" `Quick test_profile_json_roundtrip;
      Alcotest.test_case "gauge merge" `Quick test_profile_gauges_merge;
      Alcotest.test_case "json strict reader" `Quick test_json_strict;
      Alcotest.test_case "json escapes" `Quick test_json_escapes;
      Alcotest.test_case "json layout" `Quick test_json_layout;
      prop_json_roundtrip;
      Alcotest.test_case "json truncations" `Quick test_json_truncations;
      prop_json_mutations;
      Alcotest.test_case "placement lookup" `Quick test_placement_lookup;
      Alcotest.test_case "retime decide" `Quick test_retime_decide;
      Alcotest.test_case "retime deep pipelines" `Quick test_retime_decide_deep;
      Alcotest.test_case "retime link slots" `Quick test_retime_link_slots;
      Alcotest.test_case "noc link overrides" `Quick test_noc_link_overrides ] )
