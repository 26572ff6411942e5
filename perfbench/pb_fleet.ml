(* The fleet workload: unmonitored 8-thread MD5 hosts behind
   Fleet.Frontend with dedup and stealing on, under repeated flash
   crowds of Zipf-hot payloads.

   Frontend.run builds its hosts (one [Sim.create] each) before its
   first cycle, so the benchmark times its own [make_host] closure and
   moves that time from the run into set-up. *)

open Pb_util

type pass = {
  setup_s : float;
  run_s : float;
  speed : float;  (** as [Pb_serve.pass.speed] *)
  words : float;
  trace_gen_s : float;
  n_hosts : int;
  stats : Fleet.Frontend.stats;
  offered : int;
  completed : int;
  wrong : int;
  lost : int;  (** [Failed] or still [Pending] *)
  latencies : int array;  (** [Done] requests, sorted *)
  fingerprint : string;
  accs : Pb_serve.accs option;
}

(* Repeats of the preset's flash shape (quiet 800 cycles, 400-cycle
   crowd, quiet 800) at 10x its rates: 0.5 then 10 requests/cycle.
   Four hosts saturate near 1.2 requests/cycle on this payload mix
   (4 x 0.116 jobs/cycle per host, about 40% of requests missing the
   cache), so the crowd runs at ~8x saturation and sheds, and the quiet
   phases sit well below it, so queues drain before the next crowd. *)
let flash_scale = 10.0

let phases ~flashes =
  List.concat
    (List.init flashes (fun _ -> Fleet.Trace.preset ~scale:flash_scale "flash"))

let config ~n_hosts = { Fleet.Frontend.default_config with n_hosts }

let run_pass ?(traced = false) ?(timed = false) ?pool ?corrupt ?(n_hosts = 4) ~gen () =
  Gc.compact ();
  Pb_jit.before_setup ();
  let accs = if traced then Some (Pb_serve.new_accs ()) else None in
  let make_s = ref 0. in
  let t0 = now () in
  let trace = Pb_trace.span "Trace.generate" gen in
  let trace_gen_s = now () -. t0 in
  let make_host i =
    let t = now () in
    let r =
      Pb_trace.span "Sim.create"
        ~args:[ ("via", "md5_backend.make"); ("host", string_of_int i) ]
        (fun () -> Serve.Md5_backend.make ~monitor:false ~slots:8 () i)
    in
    Pb_jit.check "fleet host";
    make_s := !make_s +. (now () -. t);
    let r = match accs with Some a -> Pb_serve.wrap_replica a r | None -> r in
    match corrupt with
    | Some k when i = 0 ->
        Pb_serve.corrupt_replica ~k ~mangle:(fun _ -> String.make 32 '0') r
    | _ -> r
  in
  let fe =
    Pb_trace.span "Frontend.create" (fun () ->
        let fe =
          Fleet.Frontend.create ~config:(config ~n_hosts) ~make_host ~key:Fun.id ()
        in
        Fleet.Frontend.submit_trace fe trace;
        fe)
  in
  let t1 = now () in
  let w0 = Gc.minor_words () in
  let run () = Pb_trace.span "Frontend.run" (fun () -> Fleet.Frontend.run ?pool fe) in
  let stats, run_s, speed =
    if timed then
      let stats, t = Pb_util.timed run in
      (stats, t.raw_s, t.speed)
    else
      let stats = run () in
      (stats, now () -. t1, ref_nominal)
  in
  let words = Gc.minor_words () -. w0 in
  let outcomes = Fleet.Frontend.outcomes fe in
  let fp = Buffer.create (Array.length outcomes * 48) in
  let wrong = ref 0 and lost = ref 0 and lats = ref [] in
  Array.iteri
    (fun id o ->
      match o with
      | Fleet.Frontend.Done { result; latency; via } ->
          lats := latency :: !lats;
          if result <> Md5.Md5_ref.digest trace.(id).Fleet.Trace.payload then
            incr wrong;
          Printf.bprintf fp "%d:%s:%d:%s;" id result latency
            (match via with
            | Fleet.Frontend.Host h -> string_of_int h
            | Cache -> "cache"
            | Coalesced -> "coalesced"
            | Retired -> "retired")
      | Shed { at } -> Printf.bprintf fp "%d:shed@%d;" id at
      | Timed_out _ -> Printf.bprintf fp "%d:timeout;" id
      | Failed _ | Pending ->
          incr lost;
          Printf.bprintf fp "%d:lost;" id)
    outcomes;
  let latencies = Array.of_list !lats in
  Array.sort compare latencies;
  { setup_s = t1 -. t0 +. !make_s;
    run_s = run_s -. !make_s;
    speed;
    words;
    trace_gen_s;
    n_hosts;
    stats;
    offered = Array.length outcomes;
    completed = stats.Fleet.Frontend.s_completed;
    wrong = !wrong;
    lost = !lost;
    latencies;
    fingerprint = Digest.to_hex (Digest.string (Buffer.contents fp));
    accs }

let gen ~seed ~flashes () = Fleet.Trace.generate ~seed ~phases:(phases ~flashes) ()
