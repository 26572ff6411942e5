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
   the offered load actually uses.

   The per-cycle inject/harvest loop is [Md5.Md5_host.step]; this
   backend supplies only the policy above.  Wide values move as words:
   a slot's message and 4-word chaining value live in the driver, an
   injection stages chain and block words in a 20-word buffer for
   [Hw.Sim.write_words], a fired digest is read with
   [Hw.Sim.read_words], and hex is rendered once per job. *)

let monitored_probes = [ "msg"; "digest"; "md5_dp"; "md5_bar_in"; "md5_barrier" ]

(* A job keeps the index of its next block; the padded blocks are
   never materialized.  The slot's message and 4-word chaining value
   live in the [Md5.Md5_host] driver. *)
type busy = {
  blocks : int;  (* padded block count *)
  mutable block : int;  (* the block in the loop, or the next to inject *)
  mutable injected : bool;  (* block [block] is in the loop right now *)
  mutable cancelled : bool;
}

type slot_state = Free | Busy of busy

let is_free = function Free -> true | Busy _ -> false

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
  let completions = ref [] in
  let drv = Md5.Md5_host.create sim ~threads:slots in
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
  let eligible i = real_pending i || fresh_elsewhere i in
  (* The slot's real next block when it has one, else a dummy. *)
  let inject i =
    hw_busy.(i) <- true;
    inj_window.(i) <- !window;
    match slot.(i) with
    | Busy b when (not b.cancelled) && not b.injected ->
      b.injected <- true;
      b.block
    | _ -> -1
  in
  let step () =
    let fire = Md5.Md5_host.step drv ~eligible ~inject in
    if fire <> 0 then
      for i = 0 to slots - 1 do
        if fire land (1 lsl i) <> 0 then begin
          hw_busy.(i) <- false;
          match slot.(i) with
          | Busy b when b.injected ->
            if b.cancelled then slot.(i) <- Free
            else begin
              b.block <- b.block + 1;
              b.injected <- false;
              if b.block = b.blocks then begin
                (* Hex is rendered once per job, on completion. *)
                completions := (i, Md5.Md5_host.hex drv i) :: !completions;
                slot.(i) <- Free
              end
            end
          | _ -> () (* a dummy block's digest: discard *)
        end
      done;
    let c = Md5.Md5_host.round_counter drv in
    if !last_ctr <> 0 && c = 0 then incr window;
    last_ctr := c
  in
  { Engine.slots;
    slot_free = (fun i -> is_free slot.(i));
    start =
      (fun ~slot:i msg ->
        (match slot.(i) with
         | Free -> ()
         | Busy _ -> invalid_arg "Md5_backend.start: slot not free");
        Md5.Md5_host.load drv i msg;
        slot.(i) <-
          Busy
            { blocks = Md5.Md5_ref.block_count (String.length msg);
              block = 0;
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
