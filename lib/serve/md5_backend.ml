(* MD5 serving backend: continuous batching over the Section V.A
   circuit.

   The circuit's own admission gate paces everything: a thread's
   [msg_ready] rises only while the shared counter sits at round 0 and
   the thread has no block in the loop, so the host needs no explicit
   pass bookkeeping.  Per cycle the replica injects at most one block
   (round-robin over ready threads, preserving the one-valid-per-cycle
   channel invariant): the slot's real next block when it has one,
   otherwise — whenever any thread has a token in flight or pending —
   a dummy block, so the barrier episode can always complete even with
   idle slots.  This is the padding bubble of continuous batching:
   occupancy measures how much of the datapath's S-way time-sharing
   the offered load actually uses. *)

let monitored_probes = [ "msg"; "digest"; "md5_dp"; "md5_bar_in"; "md5_barrier" ]

type busy = {
  mutable blocks : int array list;  (* remaining blocks of the message *)
  mutable chain : Bits.t;  (* 128-bit chaining value *)
  mutable injected : bool;  (* head block is in the loop right now *)
  mutable cancelled : bool;
}

type slot_state = Free | Busy of busy

let dummy_input =
  Md5.Md5_circuit.input_bits
    ~block:(Bits.zero Md5.Md5_circuit.block_width)
    ~iv:(Md5.Md5_ref.state_to_bits Md5.Md5_ref.iv)

let make ?(kind = Melastic.Meb.Reduced) ?(monitor = false) ?(slots = 8) ()
    _index : (string, string) Engine.replica =
  let sim =
    Hw.Sim.create (Md5.Md5_circuit.circuit ~kind ~probes:monitor ~threads:slots ())
  in
  let mon =
    if not monitor then None
    else begin
      let m = Monitor.create sim in
      List.iter
        (fun n -> Monitor.check_one_hot m ~name:n ~threads:slots)
        [ "msg"; "digest"; "md5_dp"; "md5_bar_in" ];
      Monitor.check_stability ~strict:true m ~name:"msg" ~threads:slots;
      List.iter
        (fun n -> Monitor.check_stability m ~name:n ~threads:slots)
        [ "md5_dp"; "md5_bar_in" ];
      Monitor.check_stability ~gated:true m ~name:"digest" ~threads:slots;
      (* Dummies and real blocks alike are conserved tokens; the
         serving layer's slot refill must never lose, duplicate or
         reorder any thread's stream. *)
      Monitor.check_conservation m ~src:"msg" ~snk:"digest" ~threads:slots
        ~transform:Md5.Md5_circuit.reference_digest
        ~max_in_flight:(2 * slots) ~expect_drained:true;
      Monitor.check_barrier m ~name:"md5_barrier" ~threads:slots;
      Some m
    end
  in
  let slot = Array.make slots Free in
  let hw_busy = Array.make slots false in
  (* Pass bookkeeping: tokens enter only while the shared counter sits
     at round 0, so the contiguous round-0 spans partition injections
     into numbered windows (= barrier passes).  A token injected in
     window W drains out during window W+1. *)
  let window = ref 0 in
  let last_ctr = ref 0 in
  let inj_window = Array.make slots (-1) in
  let inject_ptr = ref 0 in
  let completions = ref [] in
  (* Every signal the per-cycle step touches, resolved once. *)
  let msg_valid = Hw.Sim.input_port sim (Melastic.Names.valid "msg") in
  let msg_data = Hw.Sim.input_port sim (Melastic.Names.data "msg") in
  let msg_ready = Hw.Sim.signal_port sim (Melastic.Names.ready "msg") in
  let digest_fire = Hw.Sim.signal_port sim (Melastic.Names.fire "digest") in
  let digest_data = Hw.Sim.signal_port sim (Melastic.Names.data "digest") in
  let round_counter = Hw.Sim.signal_port sim "round_counter" in
  Hw.Sim.poke sim (Melastic.Names.ready "digest") (Bits.ones slots);
  let real_pending i =
    match slot.(i) with
    | Busy b -> (not b.cancelled) && not b.injected
    | Free -> false
  in
  (* Pad with a dummy only when another thread has a token committed
     to the *current* window: the barrier needs every thread to arrive
     before that pass can release.  Old tokens merely draining out
     (injected last window) must not trigger padding, or each pass
     would seed the next and the loop would never empty. *)
  let fresh_elsewhere i =
    let found = ref false in
    for j = 0 to slots - 1 do
      if j <> i && hw_busy.(j) && inj_window.(j) = !window then found := true
    done;
    !found
  in
  let step () =
    (* Clear valids, settle, observe which threads could enter. *)
    Hw.Sim.write_int msg_valid 0;
    Hw.Sim.settle sim;
    let ready = Hw.Sim.read_int msg_ready in
    (* Round-robin: one injection per cycle at most. *)
    let chosen = ref (-1) in
    for k = 0 to slots - 1 do
      let i = (!inject_ptr + k) mod slots in
      if !chosen < 0 && ready land (1 lsl i) <> 0
         && (real_pending i || fresh_elsewhere i)
      then chosen := i
    done;
    if !chosen >= 0 then begin
      let i = !chosen in
      let data =
        match slot.(i) with
        | Busy b when (not b.cancelled) && not b.injected ->
          b.injected <- true;
          Md5.Md5_circuit.input_bits
            ~block:(Md5.Md5_ref.block_to_bits (List.hd b.blocks))
            ~iv:b.chain
        | _ -> dummy_input
      in
      Hw.Sim.write_int msg_valid (1 lsl i);
      Hw.Sim.write msg_data data;
      hw_busy.(i) <- true;
      inj_window.(i) <- !window;
      inject_ptr := (i + 1) mod slots
    end;
    Hw.Sim.settle sim;
    let fire = Hw.Sim.read_int digest_fire in
    if fire <> 0 then begin
      let digest = Hw.Sim.read digest_data in
      for i = 0 to slots - 1 do
        if fire land (1 lsl i) <> 0 then begin
          hw_busy.(i) <- false;
          match slot.(i) with
          | Busy b when b.injected ->
            if b.cancelled then slot.(i) <- Free
            else begin
              b.chain <- digest;
              b.blocks <- List.tl b.blocks;
              b.injected <- false;
              if b.blocks = [] then begin
                completions :=
                  (i, Md5.Md5_ref.to_hex (Md5.Md5_ref.state_of_bits digest))
                  :: !completions;
                slot.(i) <- Free
              end
            end
          | _ -> () (* a dummy block's digest: discard *)
        end
      done
    end;
    Hw.Sim.cycle sim;
    let c = Hw.Sim.read_int round_counter in
    if !last_ctr <> 0 && c = 0 then incr window;
    last_ctr := c
  in
  { Engine.slots;
    slot_free = (fun i -> slot.(i) = Free);
    start =
      (fun ~slot:i msg ->
        (match slot.(i) with
         | Free -> ()
         | Busy _ -> invalid_arg "Md5_backend.start: slot not free");
        slot.(i) <-
          Busy
            { blocks = Md5.Md5_ref.padded_blocks msg;
              chain = Md5.Md5_ref.state_to_bits Md5.Md5_ref.iv;
              injected = false;
              cancelled = false });
    cancel =
      (fun ~slot:i ->
        match slot.(i) with
        | Free -> ()
        | Busy b ->
          (* An in-flight block cannot be retracted from the loop: the
             slot frees when its digest fires.  A not-yet-injected job
             frees immediately. *)
          if b.injected then b.cancelled <- true else slot.(i) <- Free);
    step;
    completions =
      (fun () ->
        let l = List.rev !completions in
        completions := [];
        l);
    cycle_no = (fun () -> Hw.Sim.cycle_no sim);
    finish =
      (fun () ->
        (* Abandon whatever the engine no longer tracks, then drain
           the loop, so the conservation scoreboard's end-of-run check
           sees every token (real and dummy) accounted for. *)
        Array.iteri
          (fun i s ->
            match s with
            | Busy b -> if b.injected then b.cancelled <- true else slot.(i) <- Free
            | Free -> ())
          slot;
        let guard = ref 0 in
        while Array.exists (fun b -> b) hw_busy && !guard < 50_000 do
          step ();
          incr guard
        done;
        match mon with Some m -> Monitor.finalize m | None -> ());
    violations =
      (fun () -> match mon with Some m -> Monitor.violation_count m | None -> 0) }

(* The same backend packed as a first-class module, for
   [Engine.create_b] and for composition inside [Noc_backend]. *)
let backend ?kind ?monitor ?slots () : (string, string) Backend_intf.t =
  (module struct
    type job = string
    type result = string

    let name = "md5"
    let probes = monitored_probes
    let make_replica index = make ?kind ?monitor ?slots () index
  end)
